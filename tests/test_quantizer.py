"""Dithered quantizer statistics and index-stream serialization."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from misobc import DomainError, core, quantizer
from misobc.quantizer import DitheredQuantizer


def test_step_for_distortion():
    assert quantizer.step_for_distortion(4.0) == pytest.approx(math.sqrt(24.0))
    # per-dimension variance step^2/12 must add up to the target across
    # the two dimensions
    step = quantizer.step_for_distortion(1.0)
    assert 2.0 * step**2 / 12.0 == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        quantizer.step_for_distortion(0.0)
    with pytest.raises(ValueError):
        quantizer.step_for_distortion(-1.0)
    # a number of any real type, but not a string, a bool or None
    for bad in ("4", True, np.True_, None):
        with pytest.raises(ValueError, match="distortion must be a number"):
            quantizer.step_for_distortion(bad)
    assert quantizer.step_for_distortion(np.int64(4)) == quantizer.step_for_distortion(4.0)



def test_step_for_distortion_refuses_an_overflowing_step():
    # 6 D overflows a double above about 3e307; the refusal names the distortion
    assert math.isfinite(quantizer.step_for_distortion(2e307))
    with pytest.raises(DomainError, match=r"distortion 1e\+308 is too large"):
        quantizer.step_for_distortion(1e308)

def test_encoder_decoder_agree_bitwise():
    rng = core.stream(100, 0)
    x = 3.0 * core.sample_cn01(rng, 5000)
    enc = DitheredQuantizer(1.25, dither_seed=77)
    dec = DitheredQuantizer(1.25, dither_seed=77)
    idx, recon = enc.quantize(x)
    out = dec.dequantize(idx)
    assert np.array_equal(out, recon)
    assert enc.samples_consumed == dec.samples_consumed == 5000


def test_streamed_decoding_matches_batch():
    rng = core.stream(101, 0)
    x = core.sample_cn01(rng, 400)
    enc = DitheredQuantizer(0.5, dither_seed=9)
    idx, recon = enc.quantize(x)
    dec = DitheredQuantizer(0.5, dither_seed=9)
    head = dec.dequantize(idx[:150])
    tail = dec.dequantize(idx[150:])
    assert np.array_equal(np.concatenate([head, tail]), recon)


def test_desynchronized_decoder_disagrees():
    rng = core.stream(102, 0)
    x = core.sample_cn01(rng, 64)
    enc = DitheredQuantizer(0.5, dither_seed=9)
    idx, recon = enc.quantize(x)
    # a fresh decoder fed a suffix pairs the wrong dither with each index
    dec = DitheredQuantizer(0.5, dither_seed=9)
    out = dec.dequantize(idx[1:])
    assert not np.array_equal(out, recon[1:])


def test_quantize_allocates_three_buffers_of_the_input_size():
    # the dither and the lattice buffer (the reconstruction is a view of it),
    # each as large as the complex input, and the int32 indices, half as large
    x = 5.0 * core.sample_cn01(core.stream(107, 0), 100_000)
    enc = DitheredQuantizer(1.5, dither_seed=3)
    tracemalloc.start()
    try:
        idx, recon = enc.quantize(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recon.base.shape == (x.size, 2) and recon.base.dtype == np.float64
    assert idx.dtype == np.int32
    assert peak < 2.75 * x.nbytes


def test_quantize_fills_the_index_array_it_is_given():
    # the indices a fresh array would hold, in the caller's array, and the
    # same reconstruction; an unfit array is refused before any dither is drawn
    x = 40.0 * core.sample_cn01(core.stream(108, 0), 3000)
    idx, recon = DitheredQuantizer(1.5, dither_seed=3).quantize(x)
    out = np.full((3000, 2), 7, dtype=np.int32)
    enc = DitheredQuantizer(1.5, dither_seed=3)
    got, got_recon = enc.quantize(x, out=out)
    assert got is out
    assert np.array_equal(out, idx) and np.array_equal(got_recon, recon)
    for bad in (np.empty((3000, 2), dtype=np.int64), np.empty((2999, 2), dtype=np.int32),
                np.empty((2, 3000), dtype=np.int32).T, [[0, 0]] * 3000):
        with pytest.raises(ValueError, match="out must be a C-contiguous int32 array"):
            enc.quantize(x, out=bad)
    assert enc.samples_consumed == 3000


def test_error_is_bounded_by_half_step():
    rng = core.stream(103, 0)
    x = 10.0 * core.sample_cn01(rng, 20_000)
    step = 0.8
    _, recon = DitheredQuantizer(step, dither_seed=5).quantize(x)
    err = recon - x
    for part in (err.real, err.imag):
        assert np.all(part >= -step / 2 - 1e-12)
        assert np.all(part < step / 2 + 1e-12)


def test_zero_input_reconstructs_negated_dither():
    # q = ceil(u/step - 1/2) = 0 for u in [-step/2, step/2), so the
    # reconstruction of zero is exactly -u
    step = 1.0
    seed = 13
    enc = DitheredQuantizer(step, dither_seed=seed)
    _, recon = enc.quantize(np.zeros(256, dtype=complex))
    u = (core.stream(seed, 3).random((256, 2)) - 0.5) * step
    assert np.array_equal(recon.real, -u[:, 0])
    assert np.array_equal(recon.imag, -u[:, 1])


def test_same_seed_same_indices():
    rng = core.stream(104, 0)
    x = core.sample_cn01(rng, 512)
    idx1, _ = DitheredQuantizer(0.7, dither_seed=3).quantize(x)
    idx2, _ = DitheredQuantizer(0.7, dither_seed=3).quantize(x)
    assert np.array_equal(idx1, idx2)
    idx3, _ = DitheredQuantizer(0.7, dither_seed=4).quantize(x)
    assert not np.array_equal(idx1, idx3)


def test_error_statistics():
    n = 200_000
    distortion = 4.0
    step = quantizer.step_for_distortion(distortion)
    x = math.sqrt(10.0) * core.sample_cn01(core.stream(105, 0), n)
    _, recon = DitheredQuantizer(step, dither_seed=7).quantize(x)
    err = recon - x
    parts = np.concatenate([err.real, err.imag])
    assert np.mean(parts**2) == pytest.approx(step**2 / 12.0, rel=0.02)
    assert np.mean(np.abs(err) ** 2) == pytest.approx(distortion, rel=0.02)
    # independence from the input and across time
    rho_in = np.corrcoef(err.real, x.real)[0, 1]
    rho_lag = np.corrcoef(parts[:-1], parts[1:])[0, 1]
    assert abs(rho_in) < 0.02
    assert abs(rho_lag) < 0.02
    # errors are uniform on [-step/2, step/2)
    p = stats.kstest(parts / step + 0.5, "uniform").pvalue
    assert p > 0.01


def test_quantizer_validation():
    with pytest.raises(ValueError):
        DitheredQuantizer(0.0, dither_seed=1)
    q = DitheredQuantizer(1.0, dither_seed=1)
    with pytest.raises(ValueError):
        q.quantize(np.array([1.0 + 0j, math.nan + 0j]))
    with pytest.raises(ValueError):
        q.dequantize(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        q.dequantize(np.zeros((3, 2), dtype=float))
    # the dither seed follows MCConfig's seed rule, the step is a number
    for seed in (3.7, True, "5", None, 3.0):
        with pytest.raises(ValueError, match="dither_seed must be an integer"):
            DitheredQuantizer(1.0, dither_seed=seed)
    with pytest.raises(ValueError, match="dither_seed must be non-negative, got -1"):
        DitheredQuantizer(1.0, dither_seed=-1)
    assert type(DitheredQuantizer(1.0, dither_seed=np.int64(5)).dither_seed) is int
    for step in (None, "1.0", True, np.True_):
        with pytest.raises(ValueError, match="step must be a number"):
            DitheredQuantizer(step, dither_seed=1)
    assert DitheredQuantizer(np.float32(0.5), dither_seed=1).step == 0.5


def test_quantize_rejects_lattice_coordinates_past_int32():
    step = 1.0
    edge = float(2**31)  # rounds to coordinate 2^31 whatever the dither
    for x in (edge + 0j, -edge - 2.0 + 0j, 1j * edge):
        with pytest.raises(ValueError, match="int32"):
            DitheredQuantizer(step, dither_seed=1).quantize(np.array([0.5, x]))
    # just inside the range the coordinates survive the narrowing
    inside = np.array([2.0**31 - 2.0, -(2.0**31) + 1.0]) + 0j
    idx, _ = DitheredQuantizer(step, dither_seed=1).quantize(inside)
    assert idx.dtype == np.int32
    assert np.array_equal(idx[:, 0].astype(np.int64), np.rint(inside.real))


def _index_blob(step, indices) -> bytes:
    buf = io.BytesIO()
    quantizer.write_indices(buf, step, indices)
    return buf.getvalue()


def test_index_stream_round_trip():
    rng = core.stream(106, 0)
    x = 5.0 * core.sample_cn01(rng, 1000)
    idx, _ = DitheredQuantizer(0.3, dither_seed=21).quantize(x)
    blob = _index_blob(0.3, idx)
    assert len(blob) == 16 + 8 * len(x)
    assert blob[:4] == b"DLQ1"
    step, back = quantizer.read_indices(io.BytesIO(blob))
    assert step == 0.3
    assert np.array_equal(back, idx)


def test_index_stream_rejects_corruption():
    idx = np.array([[1, -2], [3, 4]], dtype=np.int64)
    blob = _index_blob(1.0, idx)
    with pytest.raises(ValueError, match="magic"):
        quantizer.read_indices(io.BytesIO(b"XXXX" + blob[4:]))
    with pytest.raises(ValueError, match="truncated"):
        quantizer.read_indices(io.BytesIO(blob[:10]))
    with pytest.raises(ValueError, match="promises"):
        quantizer.read_indices(io.BytesIO(blob[:-4]))
    with pytest.raises(ValueError, match="promises"):
        quantizer.read_indices(io.BytesIO(blob + b"\x00" * 8))
    for step in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="nonpositive step"):
            quantizer.parse_indices(quantizer._HEADER.pack(quantizer._MAGIC, step, 0))


def test_parse_indices_offset_must_be_a_non_negative_integer():
    blob = quantizer._HEADER.pack(quantizer._MAGIC, 1.0, 0)
    step, q = quantizer.parse_indices(b"pad" + blob, np.int64(3))
    assert step == 1.0 and q.shape == (0, 2)
    for offset in (1.5, "0", True):
        with pytest.raises(ValueError, match=r"^offset must be an integer, got "):
            quantizer.parse_indices(blob, offset)
    # a negative offset would read the header from the end of the data
    with pytest.raises(ValueError, match=r"^offset must be non-negative, got -5$"):
        quantizer.parse_indices(b"pad" + blob, -5)


def test_index_stream_write_validation():
    buf = io.BytesIO()
    with pytest.raises(ValueError):
        quantizer.write_indices(buf, 1.0, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        quantizer.write_indices(buf, 1.0, np.zeros((2, 2), dtype=float))
    with pytest.raises(ValueError):
        quantizer.write_indices(buf, 0.0, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="int32"):
        quantizer.write_indices(buf, 1.0, np.array([[2**40, 0]], dtype=np.int64))
    # a broadcast view has 2^32 rows but allocates none of them
    with pytest.raises(ValueError, match="uint32"):
        quantizer.write_indices(buf, 1.0, np.broadcast_to(np.int32(0), (2**32, 2)))
    for bad in ("1.0", True, None):
        with pytest.raises(ValueError, match="step must be a number"):
            quantizer.write_indices(buf, bad, np.zeros((2, 2), dtype=np.int64))
    assert buf.getvalue() == b""


def test_index_stream_endianness_is_fixed():
    idx = np.array([[1, 2]], dtype=np.int64)
    blob = _index_blob(1.0, idx)
    # payload bytes spell the two little-endian int32 values
    assert blob[16:] == b"\x01\x00\x00\x00\x02\x00\x00\x00"
