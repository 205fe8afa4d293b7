"""Three-phase scheme simulation: signals, quantized forwarding, accounting."""

import hashlib
import io
import json
import math
import threading
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from misobc import capacity, core, quantizer, scheme
from misobc.capacity import MCConfig
from misobc.core import DomainError
from misobc.scheme import CausalityAudit, SchemeConfig

@pytest.fixture(scope="module")
def run128():
    cfg = SchemeConfig(n=128, power=10.0, distortion=4.0, seed=31)
    return cfg, scheme.run_scheme(cfg)


def _staged(cfg):
    """The pipeline one stage at a time, as run_scheme runs it."""
    t = scheme.run_phases_1_2(cfg)
    scheme.mi_accounting(t)
    scheme.run_phase_3(t)
    scheme.deinterleave_and_reconstruct(t)
    return t


def _receive(rows, x):
    return np.einsum("bta,bta->bt", rows, x)


def _whole_run(cfg):
    """A run at ``cfg`` rebuilt from whole draws, independently of how the
    stages block, release or overwrite their arrays: every array of
    ``_DRAWS`` drawn at once from its own stream, the transmit grids, the
    overheard sums s21 = g1.x1 and s12 = h2.x2, the observations y21 and
    y12 that the residuals strip, phase 3's delivery and lattice indices
    from a fresh dithered quantizer, the quantization error and each
    user's residual."""
    n = cfg.n
    ref = {name: scheme._draw(cfg, name, np.empty((n, n) + d.trailing, dtype=np.complex128))
           for name, d in scheme._DRAWS.items()}
    x1, x2 = np.swapaxes(ref["u1"], 0, 1), np.swapaxes(ref["u2"], 0, 1)
    s21, s12 = _receive(ref["g1"], x1), _receive(ref["h2"], x2)
    step = quantizer.step_for_distortion(cfg.distortion)
    encoder = quantizer.DitheredQuantizer(step, dither_seed=cfg.seed)
    indices, recon = encoder.quantize((s21 + s12).ravel())
    delivered = recon.reshape(n, n)
    y21, y12 = s21 + ref["z21"], s12 + ref["z12"]
    ref.update(x1=x1, x2=x2, s21=s21, s12=s12, y21=y21, y12=y12, indices=indices,
               delivered=delivered, quant_error=delivered - (s21 + s12),
               resid1=(delivered - y12) - s21, resid2=(delivered - y21) - s12)
    return ref


def test_config_validation():
    SchemeConfig(n=1, power=1.0)
    SchemeConfig(n=512, power=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=0, power=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=513, power=1.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=4, power=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=4, power=1.0, distortion=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(n=4, power=1.0, delta=0.0)
    # any integer type, NumPy's too, but not a bool, float or string
    for n in (2.5, True, "3", 3.0):
        with pytest.raises(ValueError, match="n must be an integer"):
            SchemeConfig(n=n, power=10.0)
    n = SchemeConfig(n=np.int64(3), power=10.0).n
    assert n == 3 and type(n) is int
    for seed in (2.7, True, "3", 3.0):
        with pytest.raises(ValueError, match="seed must be an integer"):
            SchemeConfig(n=4, power=10.0, seed=seed)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SchemeConfig(n=4, power=10.0, seed=-1)
    seed = SchemeConfig(n=4, power=10.0, seed=np.int64(5)).seed
    assert seed == 5 and type(seed) is int
    # power, distortion and delta: any real number type, stored as float,
    # but not a bool, which _integer refuses for n and seed too
    for name in ("power", "distortion", "delta"):
        for bad in (None, "10", "abc", True, np.True_, np.array(True)):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                SchemeConfig(**{"n": 4, "power": 10.0, name: bad})
    cfg = SchemeConfig(n=4, power=np.int64(10), distortion=np.float32(4.0), delta=1)
    assert (cfg.power, cfg.distortion, cfg.delta) == (10.0, 4.0, 1.0)
    assert all(type(v) is float for v in (cfg.power, cfg.distortion, cfg.delta))
    t = scheme.run_scheme(SchemeConfig(n=4, power=np.int64(10), seed=3))
    # the summary echoes a NumPy power as a float, which json can write
    assert '"power": 10.0' in json.dumps(scheme.summary(t))


# float.hex of every SchemeStats field (in field order), of (value, stderr)
# of both MI estimates and of the exact c21, c22d and rq references, and the
# sha256 of the dump, at seed 29 and D = 4: any change to a draw, the
# interleave, a receive, the order of a reduction or an oracle moves them
FROZEN_RUNS = {
    (1, 10.0): (
        ["0x1.d8f405d3766e4p+1", "0x1.270a25f6c2268p+3", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x1.30685ca0e40b1p+2"],
        [("0x1.3fe9f889189e0p+2", "0x0.0p+0"),
         ("0x1.b219053177f77p+1", "0x0.0p+0")],
        ["0x1.9547c31a4b491p+1", "0x1.0892df630261ap+2", "0x1.3b3f29dfa9ecep+1"],
        "4e3bebbe2eb8fce420c294be5ee1c4afa2ca6c9f9695d1820d328fb9de60bcc9",
    ),
    (2, 3.0): (
        ["0x1.9c7721d49201ep+1", "0x1.136c3448ad0e9p+3", "0x1.0000000000000p+0",
         "0x1.0000000000001p+0", "0x1.b176c0d973a1dp-1", "0x1.e1f747facbce3p-1",
         "0x1.69cb777cc5608p-1", "0x1.80f3a8ebe3760p-1", "0x1.26558beb4d554p+2"],
        [("0x1.44db30690228cp+1", "0x1.1b037c295dba7p-2"),
         ("0x1.1f540088c8867p+1", "0x1.48c6bfb9781c5p-2")],
        ["0x1.d0dcd521fab39p+0", "0x1.21ebd46246b35p+1", "0x1.42da77db451b2p+0"],
        "4ecd83f781624eade71819f8d02b7824b5561de7605095f877501d65261ed2c7",
    ),
    (17, 100.0): (
        ["0x1.53aab8e3c440cp+2", "0x1.4f0cecb6f02a3p+2", "0x1.7b203886dc2a8p-5",
         "0x1.e1b0ba0678970p-4", "0x1.1f8729c9e42bcp-4", "0x1.7be7f2e39fafcp-4",
         "0x1.7ef50bd05965ep-4", "0x1.9c87a797a31cdp-6", "0x1.0b55a3d5be423p+2"],
        [("0x1.2af0f8ca6b435p+3", "0x1.82c46adcfc1d8p-4"),
         ("0x1.2192412804708p+3", "0x1.882b3ccd319b3p-4")],
        ["0x1.9204a8acde5dap+2", "0x1.278d825e7b4dap+3", "0x1.5f9a3ae8b44f9p+2"],
        "6b38d9734508ffa020434ddf8e3957f46475160177053688499549e5a2f172a0",
    ),
    (64, 1.0): (
        ["0x1.38e9b2c9fb3bep+2", "0x1.3d1d7da15b532p+2", "0x1.35ca96bfca1bap-6",
         "0x1.f36dc18a20e77p-7", "0x1.24f0bcbfc1aa9p-6", "0x1.21f6248abc1dep-6",
         "0x1.aa07fe8b59a3bp-6", "0x1.0c0156415ba66p-8", "0x1.f9f44437a3226p+1"],
        [("0x1.1f0ce46fb09a4p+0", "0x1.df801ff7ee79ap-8"),
         ("0x1.20bb037fcf3fep+0", "0x1.e261eb0102ce1p-8")],
        ["0x1.d7c2cb53dc124p-1", "0x1.1f83f7d20f46ap+0", "0x1.21e5500df9145p-1"],
        "757c7f556651ac6351ab39aafec6ec6fde4bad3c47c22502ffb3d216d4f03416",
    ),
}


def _bits(t):
    """In FROZEN_RUNS' layout: float.hex of the stats, of (value, stderr) of
    both MI estimates and of the three references, and the dump's sha256."""
    buf = io.BytesIO()
    scheme.dump_transcript(t, buf)
    return ([getattr(t.stats, f.name).hex() for f in fields(t.stats)],
            [(e.value.hex(), e.stderr.hex()) for e in (t.mi.user1, t.mi.user2)],
            [t.reference[q].hex() for q in ("c21", "c22d", "rq")],
            hashlib.sha256(buf.getvalue()).hexdigest())


@pytest.mark.parametrize("cpus", [None, 1, 2])
def test_run_matches_frozen_bits(monkeypatch, cpus):
    pools = []
    if cpus is not None:
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        real_pool = core.ThreadPoolExecutor

        def recording_pool(workers):
            if cpus == 1:
                raise AssertionError("a thread pool was started on one usable CPU")
            pools.append(workers)
            return real_pool(workers)

        monkeypatch.setattr(core, "ThreadPoolExecutor", recording_pool)
    for (n, power), frozen in FROZEN_RUNS.items():
        cfg = SchemeConfig(n=n, power=power, seed=29)
        t = scheme.run_scheme(cfg)
        assert _bits(t) == frozen, (n, power)
    if cpus == 2:
        # one two-thread pool per run for the phases; the reference draws nothing
        assert pools == [2] * len(FROZEN_RUNS)


def test_run_scheme_memory_is_bounded(monkeypatch):
    # a finished run holds what its dump holds.  The peak is measured
    # against 18 n^2 complex128 values, 72 MiB at n = 512: the ten arrays
    # a run draws (u1 and u2, 2 n^2 each, the four channel arrays, 2 n^2
    # each, and the four noises) plus the two overheard sums, which is
    # what phases 1-2 would hold if they kept every draw whole.  No stage
    # holds a channel grid; the peak, over the message grids, noises,
    # sums, delivery and indices, is reached in the quantization and again
    # in the reconstruction's two scratch grids: about 54 MiB (0.75x) at
    # n = 512, on one CPU or two.
    for cpus in (1, 2):
        monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
        # n, bound as a multiple of phases 1-2
        for n, bound in ((256, 1.0), (512, 0.90)):
            cfg = SchemeConfig(n=n, power=10.0, seed=67)
            tracemalloc.start()
            try:
                t = scheme.run_scheme(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
            assert sum(a.nbytes for a in held) == (t.u1.nbytes + t.u2.nbytes
                                                   + t.quant_indices.nbytes)
            phases = 18 * n * n * 16
            assert peak <= bound * phases, (cpus, n, peak)


def test_interleave_swaps_block_and_time():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(5, 5, 2)) + 1j * rng.normal(size=(5, 5, 2))
    x = scheme.interleave(u)
    for b in range(5):
        for t in range(5):
            assert np.array_equal(x[b, t], u[t, b])


def test_interleave_is_involution():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert np.array_equal(scheme.interleave(scheme.interleave(u)), u)


def test_interleave_rejects_non_square():
    with pytest.raises(ValueError):
        scheme.interleave(np.zeros((3, 4, 2)))
    with pytest.raises(ValueError):
        scheme.interleave(np.zeros(6))


def test_phases_1_2_shapes_and_identities():
    cfg = SchemeConfig(n=6, power=2.0, seed=5)
    t = scheme.run_phases_1_2(cfg)
    for grid in (t.u1, t.u2, t.x1, t.x2):
        assert grid.shape == (6, 6, 2)
    for obs in (t.z11, t.z21, t.z12, t.z22, t.s21, t.s12, *t.logdets):
        assert obs.shape == (6, 6)
    assert np.array_equal(t.x1, scheme.interleave(t.u1))
    assert np.array_equal(t.x2, scheme.interleave(t.u2))
    ref = _whole_run(cfg)
    for name in ("u1", "u2", "z11", "z21", "z12", "z22"):
        assert np.array_equal(getattr(t, name), ref[name]), name
    fresh = core.sample_cn01(core.stream(cfg.seed, 6, 2), out=np.empty_like(t.z21))
    assert np.array_equal(t.z21, fresh)
    # overheard mixtures are plain inner products of rows and inputs
    for b in range(6):
        for tt in range(6):
            for sum_, rows, x in ((t.s21, ref["g1"], t.x1), (t.s12, ref["h2"], t.x2)):
                manual = rows[b, tt, 0] * x[b, tt, 0] + rows[b, tt, 1] * x[b, tt, 1]
                assert abs(sum_[b, tt] - manual) < 1e-12


def test_phases_1_2_deterministic():
    cfg = SchemeConfig(n=8, power=3.0, seed=11)
    a = scheme.run_phases_1_2(cfg)
    b = scheme.run_phases_1_2(cfg)
    assert np.array_equal(a.u1, b.u1)
    assert np.array_equal(a.z22, b.z22)
    assert np.array_equal(a.s12, b.s12)
    assert all(np.array_equal(x, y) for x, y in zip(a.logdets, b.logdets))


def test_transmit_power_is_split_across_antennas():
    cfg = SchemeConfig(n=128, power=7.0, seed=13)
    t = scheme.run_phases_1_2(cfg)
    per_antenna = np.mean(np.abs(t.x1) ** 2)
    assert per_antenna == pytest.approx(cfg.power / 2.0, rel=0.05)
    # the overheard mixture then carries the full transmit power
    assert np.mean(np.abs(t.s21) ** 2) == pytest.approx(cfg.power, rel=0.05)


def test_phase3_budget_quotient():
    assert scheme.phase3_budget(100, 2.0, 3.0, 0.5) == 80
    assert scheme.phase3_budget(1, 2.0, 3.0, 0.5) == 1
    assert scheme.phase3_budget(10, 0.0, 3.0, 0.5) == 0


def test_phase3_budget_needs_margin():
    with pytest.raises(DomainError):
        scheme.phase3_budget(100, 2.5, 3.0, 0.5)
    with pytest.raises(DomainError):
        scheme.phase3_budget(100, 0.1, 0.2, 0.5)
    # n is an integer of at least 1, rq and c21 are checked as the rate
    # pair checks them, and delta is finite and nonnegative
    for bad in ("4", 2.5, True, None):
        with pytest.raises(ValueError, match="n must be an integer"):
            scheme.phase3_budget(bad, 0.1, 1.0, 0.1)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="n must be at least 1"):
            scheme.phase3_budget(bad, 0.1, 1.0, 0.1)
    for bad in (math.nan, math.inf, -0.5):
        with pytest.raises(ValueError, match="rq_value must be finite and nonnegative"):
            scheme.phase3_budget(100, bad, 1.0, 0.1)
    for bad in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="c21_value must be finite and positive"):
            scheme.phase3_budget(100, 0.1, bad, 0.1)
    for bad in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="delta must be finite and nonnegative"):
            scheme.phase3_budget(100, 0.1, 1.0, bad)
    # a zero margin delta is legal, and n takes any integer type
    assert scheme.phase3_budget(np.int64(10), 0.5, 1.0, 0.0) == 5
    # the rates and delta are numbers, not strings, bools or None
    for bad in ("2.0", True, None):
        for name, args in (("rq_value", (bad, 3.0, 0.5)), ("c21_value", (2.0, bad, 0.5)),
                           ("delta", (2.0, 3.0, bad))):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                scheme.phase3_budget(100, *args)


def test_pipeline_stage_order_is_enforced():
    cfg = SchemeConfig(n=4, power=2.0, seed=23)
    bare = scheme.SchemeTranscript(config=cfg)
    with pytest.raises(ValueError):
        scheme.run_phase_3(bare)
    with pytest.raises(ValueError):
        scheme.deinterleave_and_reconstruct(bare)
    with pytest.raises(ValueError):
        scheme.mi_accounting(bare)
    with pytest.raises(ValueError):
        scheme.summary(bare)
    with pytest.raises(ValueError):
        scheme.check_stats(bare)
    with pytest.raises(ValueError):
        scheme.dump_transcript(bare, io.BytesIO())


def _run_stages(count):
    """A transcript after the first ``count`` pipeline stages, or after
    ``run_scheme`` if ``count`` is None."""
    cfg = SchemeConfig(n=4, power=2.0, seed=23)
    if count is None:
        return scheme.run_scheme(cfg)
    t = scheme.run_phases_1_2(cfg) if count else scheme.SchemeTranscript(config=cfg)
    if count > 1:
        scheme.run_phase_3(t)
    if count > 2:
        scheme.deinterleave_and_reconstruct(t)
    return t


# each call one stage before its input exists, or after run_scheme released it
@pytest.mark.parametrize("stages, call, message", [
    (0, scheme.run_phase_3, "phases 1 and 2"),
    (1, scheme.deinterleave_and_reconstruct, "phase 3 must run first"),
    (0, scheme.mi_accounting, "phases 1 and 2 must run first"),
    (3, scheme.summary, "full pipeline"),
    (2, scheme.check_stats, "before checking statistics"),
    (1, lambda t: scheme.dump_transcript(t, io.BytesIO()), "before dumping"),
    (None, scheme.run_phase_3, "s21 is None"),
    (None, scheme.deinterleave_and_reconstruct, "delivered is None"),
    (None, scheme.mi_accounting, "logdets is None"),
], ids=["run_phase_3", "deinterleave_and_reconstruct", "mi_accounting", "summary",
        "check_stats", "dump_transcript", "run_phase_3_after_run_scheme",
        "deinterleave_and_reconstruct_after_run_scheme", "mi_accounting_after_run_scheme"])
def test_stage_guard_rejects_missing_input(stages, call, message):
    t = _run_stages(stages)
    with pytest.raises(ValueError, match=message):
        call(t)


STORED = {"u1", "u2", "quant_indices"}
RELEASED = ("logdets", "z11", "z21", "z12", "z22", "s21", "s12", "delivered")
DERIVED = ("x1", "x2")


def _arrays(t):
    return {k for k, v in vars(t).items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 17, 33, 100])
def test_run_scheme_matches_the_stages_bit_for_bit(monkeypatch, n, cpus):
    # run_scheme is the four stages: from one block to a partial last row
    # block, on one CPU or two, the stages run one at a time hold what it
    # holds, release what it releases and give every bit it gives
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    cfg = SchemeConfig(n=n, power=10.0, seed=101)
    staged, t = _staged(cfg), scheme.run_scheme(cfg)
    for run in (staged, t):
        assert _arrays(run) == STORED
        # a released array reads None
        for name in RELEASED:
            assert getattr(run, name) is None, name
        # x1 and x2 are views of the message grids
        for name in DERIVED:
            u = getattr(run, "u" + name[1:])
            assert np.shares_memory(getattr(run, name), u), name
            assert np.array_equal(getattr(run, name), np.swapaxes(u, 0, 1)), name
        with pytest.raises(AttributeError):
            run.x1 = run.u1
    for name in STORED:
        assert np.array_equal(getattr(t, name), getattr(staged, name)), name
    assert (t.stats, t.mi, t.reference, t.phase3_budget) == (
        staged.stats, staged.mi, staged.reference, staged.phase3_budget)
    assert _bits(t) == _bits(staged)


def _whole_power(a):
    p = a.real**2
    p += a.imag**2
    return float(np.mean(p))


def _whole_moments(a):
    """A sequence raveled (a copy where it is strided), its mean and power."""
    a = np.asarray(a).ravel()
    return a, a.mean(), _whole_power(a)


def _whole_array_stats(ref, n):
    """SchemeStats of a ``_whole_run`` reference by whole-array formulas:
    each sequence raveled, its power from two squared temporaries, each
    correlation from a full conjugate product."""

    def corr(a, b):
        (seq_a, mean_a, power_a), (seq_b, mean_b, power_b) = a, b
        prod = np.conj(seq_b)
        np.multiply(seq_a, prod, out=prod)
        num = np.mean(prod) - mean_a * np.conj(mean_b)
        va = power_a - (mean_a.real**2 + mean_a.imag**2)
        vb = power_b - (mean_b.real**2 + mean_b.imag**2)
        if va <= 0.0 or vb <= 0.0:
            return 0.0
        return float(abs(num) / math.sqrt(va * vb))

    def lag1(r):
        msg = np.swapaxes(r.reshape(n, n), 0, 1)
        return corr(_whole_moments(msg[:, 1:]), _whole_moments(msg[:, :-1])) if n > 1 else 0.0

    resid1, resid2 = _whole_moments(ref["resid1"]), _whole_moments(ref["resid2"])
    refs = [_whole_moments(x[..., antenna]) for x in (ref["x1"], ref["x2"]) for antenna in (0, 1)]
    return scheme.SchemeStats(
        noise_var_user1=resid1[2],
        noise_var_user2=resid2[2],
        autocorr_user1=lag1(resid1[0]),
        autocorr_user2=lag1(resid2[0]),
        signal_corr_user1=max(corr(resid1, r) for r in [_whole_moments(ref["s21"])] + refs),
        signal_corr_user2=max(corr(resid2, r) for r in [_whole_moments(ref["s12"])] + refs),
        noise_cross_corr_user1=corr(resid1, _whole_moments(ref["z11"])),
        noise_cross_corr_user2=corr(resid2, _whole_moments(ref["z22"])),
        quant_error_var=_whole_power(ref["quant_error"]),
    )


@pytest.mark.parametrize("n", [33, 100, 256])
def test_reconstruction_stats_have_the_whole_array_bits(n):
    # the statistics are formed in two reused scratch buffers, and each
    # mean over a contiguous array in the sequence's C order, so they keep
    # the bits of the whole-array formulas over whole draws
    cfg = SchemeConfig(n=n, power=10.0, seed=107)

    def bits(stats):
        return [getattr(stats, f.name).hex() for f in fields(stats)]

    assert bits(scheme.run_scheme(cfg).stats) == bits(_whole_array_stats(_whole_run(cfg), n))


def test_moments_take_each_mean_over_a_contiguous_copy():
    # a mean over a strided 2-D view sums row by row and moves the last
    # bits; an offset mean makes that show in the moments themselves
    rng = np.random.default_rng(5)
    c = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)) + (3 + 2j)
    h = np.empty(2 * c.size)
    for seq in (c, c[:, 1:], c[:, :-1], c.T):
        got = scheme._moments(seq, h)
        _, mean, power = _whole_moments(seq)
        assert (got.mean.real.hex(), got.mean.imag.hex(), got.power.hex()) == (
            mean.real.hex(), mean.imag.hex(), power.hex())


def test_reconstruction_allocates_two_scratch_grids():
    # beyond its inputs the reconstruction allocates its two scratch
    # buffers, one grid (16 n^2 bytes) each, and the residuals overwrite
    # the noises they consume; whole-array formulas take three grids
    n = 256
    t = scheme.run_phases_1_2(SchemeConfig(n=n, power=10.0, seed=67))
    scheme.run_phase_3(t)
    tracemalloc.start()
    try:
        scheme.deinterleave_and_reconstruct(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 16 * n * n, peak / (16 * n * n)


def test_mi_bits_do_not_depend_on_when_it_runs():
    cfg = SchemeConfig(n=17, power=10.0, seed=79)

    def bits(mi):
        return [(e.value.hex(), e.stderr.hex()) for e in (mi.user1, mi.user2)]

    early = scheme.run_phases_1_2(cfg)
    before = bits(scheme.mi_accounting(early))
    late = scheme.run_phases_1_2(cfg)
    scheme.run_phase_3(late)
    scheme.deinterleave_and_reconstruct(late)
    assert bits(scheme.mi_accounting(late)) == before
    assert bits(scheme.run_scheme(cfg).mi) == before


@pytest.mark.parametrize("n", [33, 100])
def test_mi_row_blocks_match_one_whole_grid_call(n):
    # n is no multiple of the row block, so the last block is partial
    assert n % scheme._MI_ROWS
    cfg = SchemeConfig(n=n, power=10.0, seed=83)
    ref = _whole_run(cfg)

    def whole(rows):
        vals = core.logdet_capacity_term(rows, cfg.power, (1.0, 1.0 + cfg.distortion)).ravel()
        return float(np.mean(vals)).hex(), float(np.std(vals, ddof=1) / n).hex()

    mi = scheme.run_scheme(cfg).mi
    assert [(e.value.hex(), e.stderr.hex()) for e in (mi.user1, mi.user2)] == [
        whole((ref["h1"], ref["g1"])), whole((ref["g2"], ref["h2"]))]


def test_run_scheme_sizes_phase_3_from_the_closed_forms(monkeypatch):
    # no stage draws a reference ensemble; ref_mc is accepted and read by nothing
    def no_estimate(*args, **kwargs):
        raise AssertionError("capacity.estimate was called")

    monkeypatch.setattr(capacity, "estimate", no_estimate)
    cfg = SchemeConfig(n=16, power=10.0, seed=89)
    t = scheme.run_scheme(cfg)
    exact = {"c21": capacity.c21_oracle(10.0), "c22d": capacity.c22d_oracle(10.0, 4.0),
             "rq": capacity.rq_oracle(10.0, 4.0)}
    assert t.reference == exact and all(type(v) is float for v in t.reference.values())
    assert t.phase3_budget == scheme.phase3_budget(16, exact["rq"], exact["c21"], cfg.delta)
    assert _bits(scheme.run_scheme(cfg, ref_mc=MCConfig(samples=5, seed=1))) == _bits(t)


def test_infeasible_run_draws_nothing(monkeypatch):
    # the budget is checked before phases 1 and 2 open a single stream,
    # whether they run on their own or in run_scheme
    streams = []
    real_stream = core.stream

    def counting_stream(*key):
        streams.append(key)
        return real_stream(*key)

    monkeypatch.setattr(core, "stream", counting_stream)
    for stage in (scheme.run_scheme, scheme.run_phases_1_2):
        with pytest.raises(DomainError, match="phase-3 forwarding needs rq < c21 - delta"):
            stage(SchemeConfig(n=8, power=0.1, distortion=4.0, seed=97))
        # a margin delta that rq cannot clear at P = 10
        with pytest.raises(DomainError, match="at P = 10, D = 4"):
            stage(SchemeConfig(n=8, power=10.0, distortion=4.0, delta=3.0, seed=19))
    assert streams == []
    scheme.run_scheme(SchemeConfig(n=8, power=10.0, distortion=4.0, seed=97))
    assert streams



def test_overflowing_quantizer_step_draws_nothing(monkeypatch):
    # the step is sized with the budget, before phases 1 and 2 open a stream
    def no_stream(*key):
        raise AssertionError(f"stream {key} opened")

    monkeypatch.setattr(core, "stream", no_stream)
    for stage in (scheme.run_scheme, scheme.run_phases_1_2):
        with pytest.raises(DomainError, match=r"distortion 1e\+308 is too large"):
            stage(SchemeConfig(n=4, power=10.0, distortion=1e308, seed=3))

@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("power, error, message", [
    # the accounting's log-dets overflow, and so would the quantizer: the
    # accounting's error wins, while the exact reference stays finite
    (1e200, DomainError, "mutual information is not finite"),
    (0.1, DomainError, "phase-3 forwarding needs rq < c21 - delta"),
    (1e22, ValueError, "lattice coordinates overflow int32"),
])
def test_run_scheme_raises_the_first_error_in_stage_order(monkeypatch, cpus, power, error,
                                                          message):
    monkeypatch.setattr(core, "_usable_cpus", lambda: cpus)
    cfg = SchemeConfig(n=8, power=power, seed=97)
    before = threading.active_count()
    with pytest.raises(error, match=message):
        scheme.run_scheme(cfg)
    assert threading.active_count() == before


def test_causality_audit(run128):
    _, t = run128
    assert t.audit.ok()
    assert t.audit.min_margin() == 1
    n = t.config.n
    # one slot per block and phase: the last, binding coefficient
    assert t.audit.coeff_slots.shape == (2, n, 1)
    assert t.audit.read_slots.shape == (n,)
    # block 0 phase-1 coefficients occupy slots 0..n-1, read at slot 2n
    assert t.audit.coeff_slots[0, 0, 0] == n - 1
    assert t.audit.coeff_slots[1, 0, 0] == 2 * n - 1
    assert t.audit.read_slots[0] == 2 * n
    # a read in the slot of a block's last coefficient is one slot early
    reads = t.audit.read_slots.copy()
    reads[5] = t.audit.coeff_slots[1, 5, 0]
    early = CausalityAudit(t.audit.coeff_slots, reads)
    assert not early.ok()
    assert early.min_margin() == 0


def test_tampered_audit_is_caught():
    coeff = np.full((2, 3, 3), 6, dtype=np.int64)
    read = np.full(3, 6, dtype=np.int64)
    audit = CausalityAudit(coeff, read)
    assert not audit.ok()
    assert audit.min_margin() == 0


def test_reconstruction_identities(run128):
    # each receiver strips its own observation from the delivery and keeps
    # its partner's overheard signal through the quantization error less
    # its own noise: ytilde21 = s21 + e - z12, ytilde12 = s12 + e - z21
    cfg, t = run128
    ref = _whole_run(cfg)
    e = ref["quant_error"]
    assert np.array_equal(t.quant_indices, ref["indices"])
    assert np.allclose(ref["delivered"] - ref["y12"], ref["s21"] + e - ref["z12"])
    assert np.allclose(ref["delivered"] - ref["y21"], ref["s12"] + e - ref["z21"])
    assert t.stats.noise_var_user1 == pytest.approx(_whole_power(e - ref["z12"]), rel=1e-12)
    assert t.stats.noise_var_user2 == pytest.approx(_whole_power(e - ref["z21"]), rel=1e-12)
    assert t.stats.quant_error_var == pytest.approx(_whole_power(e), rel=1e-12)


def test_residual_statistics(run128):
    cfg, t = run128
    d = cfg.distortion
    assert t.stats.noise_var_user1 == pytest.approx(1.0 + d, rel=0.05)
    assert t.stats.noise_var_user2 == pytest.approx(1.0 + d, rel=0.05)
    assert t.stats.quant_error_var == pytest.approx(d, rel=0.05)
    for corr in (t.stats.autocorr_user1, t.stats.autocorr_user2,
                 t.stats.signal_corr_user1, t.stats.signal_corr_user2,
                 t.stats.noise_cross_corr_user1, t.stats.noise_cross_corr_user2):
        assert corr < 0.05


def test_check_stats_clean_run(run128):
    _, t = run128
    assert scheme.check_stats(t) == []


def test_check_stats_flags_bad_variance(run128):
    cfg, t = run128
    broken = scheme.SchemeStats(
        noise_var_user1=2 * (1 + cfg.distortion),
        noise_var_user2=t.stats.noise_var_user2,
        autocorr_user1=0.5,
        autocorr_user2=t.stats.autocorr_user2,
        signal_corr_user1=t.stats.signal_corr_user1,
        signal_corr_user2=t.stats.signal_corr_user2,
        noise_cross_corr_user1=t.stats.noise_cross_corr_user1,
        noise_cross_corr_user2=t.stats.noise_cross_corr_user2,
        quant_error_var=t.stats.quant_error_var,
    )
    spare = scheme.SchemeTranscript(config=cfg)
    spare.stats = broken
    spare.audit = t.audit
    msgs = scheme.check_stats(spare)
    assert any("noise_var_user1" in m for m in msgs)
    assert any("autocorr_user1" in m for m in msgs)


def test_mi_matches_direct_log_det():
    cfg = SchemeConfig(n=8, power=5.0, distortion=4.0, seed=37)
    mi = scheme.run_scheme(cfg).mi
    ref = _whole_run(cfg)
    sigma = np.diag([1.0, 1.0 + cfg.distortion])
    # each user's effective channel: its direct row, then its overheard row
    for estimate, (direct, overheard) in ((mi.user1, ("h1", "g1")), (mi.user2, ("g2", "h2"))):
        total = 0.0
        for b in range(cfg.n):
            for tt in range(cfg.n):
                h = np.array([ref[direct][b, tt], ref[overheard][b, tt]])
                m = np.eye(2) + (cfg.power / 2.0) * np.linalg.inv(sigma) @ h @ h.conj().T
                total += np.linalg.slogdet(m)[1] / math.log(2.0)
        assert estimate.value == pytest.approx(total / cfg.n**2, rel=1e-10)


def test_mi_overflow_is_a_domain_error_not_a_warning():
    # at P = 1e200 every log-det is infinite; np.std over them would warn
    t = scheme.run_phases_1_2(SchemeConfig(n=8, power=1e200, seed=9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"mutual information is not finite at P = 1e\+200"):
            scheme.mi_accounting(t)
    assert t.mi is None


def test_mi_agrees_with_ergodic_capacity(run128):
    cfg, t = run128
    ref = capacity.c22d(cfg.power, cfg.distortion, MCConfig(samples=200_000, seed=41))
    tol = 4.0 * math.hypot(t.mi.user1.stderr, ref.stderr)
    assert abs(t.mi.user1.value - ref.value) < tol
    assert abs(t.mi.user2.value - ref.value) < tol


def test_correlations_survive_a_huge_distortion():
    # the residual variances pass 1e154, so the product of two of them
    # overflows a double: the correlations must neither warn nor read 0,
    # and, being scale free, match a run at a moderate huge distortion
    def stats(distortion):
        return scheme.run_scheme(SchemeConfig(n=16, power=10.0, distortion=distortion)).stats

    huge, moderate = stats(1e200), stats(1e100)
    assert huge.autocorr_user1 > 0.04
    for name in ("autocorr_user1", "autocorr_user2", "signal_corr_user1", "signal_corr_user2",
                 "noise_cross_corr_user1", "noise_cross_corr_user2"):
        assert getattr(huge, name) == pytest.approx(getattr(moderate, name), rel=1e-12), name


def test_mi_collapses_to_single_row_at_huge_distortion():
    cfg = SchemeConfig(n=64, power=10.0, distortion=1e6, seed=43)
    mi = scheme.run_scheme(cfg).mi
    ref = _whole_run(cfg)
    for estimate, direct in ((mi.user1, "h1"), (mi.user2, "g2")):
        # the direct row alone: log2(1 + (P/2) |h|^2)
        norm = np.sum(np.abs(ref[direct]) ** 2, axis=-1)
        single = float(np.mean(np.log1p(cfg.power / 2.0 * norm) / math.log(2.0)))
        assert abs(estimate.value - single) < 1e-3


def test_achieved_rate_pair_endpoints():
    r, s = scheme.achieved_rate_pair(3.0, 0.0, 2.0)
    assert r == s == 1.5
    r, _ = scheme.achieved_rate_pair(3.0, 2.0, 2.0)
    assert r == 1.0
    r, _ = scheme.achieved_rate_pair(4.2, 1.0, 2.0)
    assert r == pytest.approx(4.2 / 2.5, rel=1e-15)


def test_achieved_rate_pair_dominates_floor():
    rng = np.random.default_rng(47)
    for _ in range(50):
        c21v = float(rng.uniform(0.5, 6.0))
        c22dv = c21v * float(rng.uniform(1.0, 2.0))
        rqv = c21v * float(rng.uniform(0.0, 1.0))
        r, _ = scheme.achieved_rate_pair(c22dv, rqv, c21v)
        floor = scheme.rate_floor(c22dv, rqv, c21v)
        assert floor is not None
        assert r >= floor - 1e-12


def test_achieved_rate_pair_validation():
    with pytest.raises(ValueError):
        scheme.achieved_rate_pair(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        scheme.achieved_rate_pair(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        scheme.achieved_rate_pair(1.0, 1.0, 0.0)
    for fn in (scheme.achieved_rate_pair, scheme.rate_floor):
        for bad in ("1.0", True, None):
            for name, args in (("c22d_value", (bad, 1.0, 1.0)), ("rq_value", (1.0, bad, 1.0)),
                               ("c21_value", (1.0, 1.0, bad))):
                with pytest.raises(ValueError, match=f"{name} must be a number"):
                    fn(*args)


def test_rate_floor_requires_forwardable_rate():
    assert scheme.rate_floor(3.0, 2.5, 2.0) is None
    assert scheme.rate_floor(3.0, 2.0, 2.0) == 1.0
    # the range checks of achieved_rate_pair
    for args in ((3.0, 2.0, 0.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (math.inf, 1.0, 1.0),
                 (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, math.inf, 1.0),
                 (1.0, 1.0, math.nan), (1.0, 1.0, math.inf), (1.0, 1.0, -1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            scheme.rate_floor(*args)


def test_summary_layout(run128):
    _, t = run128
    s = scheme.summary(t)
    assert set(s) == {
        "config", "phase3_budget", "noise_var_user1", "noise_var_user2",
        "residual_autocorr", "mi_user1", "mi_user2", "achieved_rate_pair",
        "reference", "diagnostics",
    }
    assert set(s["reference"]) == {"c21", "c22d", "rq"}
    assert all(type(v) is float for v in s["reference"].values())
    assert set(s["residual_autocorr"]) == {"user1", "user2"}
    assert set(s["mi_user1"]) == {"value", "stderr", "samples", "seed"}
    assert len(s["achieved_rate_pair"]) == 2
    assert s["config"]["n"] == 128
    assert s["diagnostics"]["causality_ok"] is True
    json.dumps(s)  # must be serializable as-is


def test_summary_budget_consistent(run128):
    cfg, t = run128
    s = scheme.summary(t)
    ref = s["reference"]
    expect = scheme.phase3_budget(cfg.n, ref["rq"], ref["c21"], cfg.delta)
    assert s["phase3_budget"] == expect == t.phase3_budget


def test_run_scheme_deterministic():
    cfg = SchemeConfig(n=16, power=4.0, seed=53)
    a = scheme.summary(scheme.run_scheme(cfg))
    b = scheme.summary(scheme.run_scheme(cfg))
    assert a == b


def test_transcript_dump_round_trip():
    cfg = SchemeConfig(n=12, power=6.0, seed=59)
    t = scheme.run_scheme(cfg)
    buf = io.BytesIO()
    scheme.dump_transcript(t, buf)
    # header, u1 and u2, then the index stream's header and int32 pairs
    assert len(buf.getvalue()) == 8 + 2 * 16 * 2 * cfg.n**2 + 16 + 8 * cfg.n**2
    buf.seek(0)
    back = scheme.read_transcript_dump(buf)
    for name, grid in (("u1", t.u1), ("u2", t.u2), ("x1", t.x1), ("x2", t.x2)):
        assert np.array_equal(back[name], grid)
        assert back[name].dtype == np.complex128
    assert back["quant_step"] == t.quant_step
    assert np.array_equal(back["quant_indices"], t.quant_indices)
    # the transcript holds the indices at the width the dump stores them
    assert t.quant_indices.dtype == back["quant_indices"].dtype == np.int32


def test_transcript_dump_corruption_detected():
    cfg = SchemeConfig(n=4, power=2.0, seed=61)
    t = scheme.run_scheme(cfg)
    buf = io.BytesIO()
    scheme.dump_transcript(t, buf)
    raw = buf.getvalue()
    grids_end = 8 + 2 * 16 * cfg.n * cfg.n * 2
    short = io.BytesIO()
    quantizer.write_indices(short, t.quant_step, t.quant_indices[:3])
    for blob, message in (
        (raw[:4], "truncated header"),
        (b"XXXX" + raw[4:], "bad magic"),
        # the four-grid format that stored x1 and x2 too is not read
        (b"MBT1" + raw[4:], "bad magic"),
        (raw[: len(raw) // 2], "truncated signal grid"),
        # the index stream after the grids keeps its own checks
        (raw[:grids_end + 10], "truncated header"),
        (raw[:grids_end] + b"XXXX" + raw[grids_end + 4:], "bad magic"),
        (raw[:-4], "promises"),
        (raw + bytes(8), "promises"),
        # a well-formed index stream for fewer samples than the grids hold
        (raw[:grids_end] + short.getvalue(), "holds 3 samples, expected n\\^2 = 16"),
    ):
        with pytest.raises(ValueError, match=message):
            scheme.read_transcript_dump(io.BytesIO(blob))


@pytest.fixture(scope="module")
def dump256():
    t = scheme.run_scheme(SchemeConfig(n=256, power=10.0, seed=71))
    buf = io.BytesIO()
    scheme.dump_transcript(t, buf)
    return t, buf.getvalue()


def test_dump_reader_returns_views_of_the_bytes_it_read(dump256):
    t, blob = dump256
    back = scheme.read_transcript_dump(io.BytesIO(blob))
    raw = np.frombuffer(blob, dtype=np.uint8)
    for name in ("u1", "u2", "x1", "x2"):
        assert np.array_equal(back[name], getattr(t, name))
        assert np.shares_memory(back[name], raw)
        assert not back[name].flags.writeable
    # the transmit grids are not stored but derived from the message grids
    assert np.shares_memory(back["x1"], back["u1"])
    assert np.shares_memory(back["x2"], back["u2"])
    assert np.array_equal(back["quant_indices"], t.quant_indices)
    assert np.shares_memory(back["quant_indices"], raw)
    assert back["quant_indices"].dtype == np.dtype("<i4")
    assert not back["quant_indices"].flags.writeable


def test_dump_reader_reads_files_and_streams_past_other_content(dump256, tmp_path):
    t, blob = dump256
    path = tmp_path / "run.mbt"
    with open(path, "wb") as fp:
        scheme.dump_transcript(t, fp)
    with open(path, "rb") as fp:
        from_file = scheme.read_transcript_dump(fp)
    buf = io.BytesIO(b"preamble" + blob)
    buf.seek(len(b"preamble"))
    from_offset = scheme.read_transcript_dump(buf)
    for back in (from_file, from_offset):
        for name in ("u1", "u2", "x1", "x2"):
            assert back[name].tobytes() == getattr(t, name).astype("<c16").tobytes()
        assert back["quant_step"] == t.quant_step
        assert np.array_equal(back["quant_indices"], t.quant_indices)


def test_dump_reader_allocates_little_beyond_the_dump(dump256):
    # the grids and the indices are views of the bytes read, so the reader
    # allocates only small objects, no copies
    _, blob = dump256
    tracemalloc.start()
    try:
        scheme.read_transcript_dump(io.BytesIO(blob))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
