"""Random stream reproducibility and closed-form log-det arithmetic."""

import math

import numpy as np
import pytest

from misobc import core


def test_stream_is_reproducible():
    a = core.stream(123, 1, 7).standard_normal(64)
    b = core.stream(123, 1, 7).standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_streams():
    a = core.stream(123, 1, 0).standard_normal(64)
    b = core.stream(123, 1, 1).standard_normal(64)
    c = core.stream(123, 2, 0).standard_normal(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_distinct_seeds_give_distinct_streams():
    a = core.stream(1, 5).standard_normal(32)
    b = core.stream(2, 5).standard_normal(32)
    assert not np.array_equal(a, b)


def test_sample_cn01_scalar_and_shapes():
    rng = core.stream(9, 0)
    z = core.sample_cn01(rng)
    assert isinstance(z, complex)
    arr = core.sample_cn01(rng, 10)
    assert arr.shape == (10,)
    grid = core.sample_cn01(rng, (3, 4, 2))
    assert grid.shape == (3, 4, 2)
    assert grid.dtype == np.complex128


def test_sample_cn01_matches_complex_expression():
    # the in-place scaling must keep the bits of the complex expression it
    # replaced: numpy divides a complex number by a real one by scaling
    # both parts with its reciprocal
    def reference(rng, size=None):
        shape = () if size is None else (size if isinstance(size, tuple) else (int(size),))
        z = rng.standard_normal(shape + (2,))
        out = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        return complex(out) if size is None else out

    for size in (1, 7, 10_000, (3,), (5, 4), (16, 16, 2)):
        got = core.sample_cn01(core.stream(13, 1), size)
        want = reference(core.stream(13, 1), size)
        assert got.dtype == np.complex128
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    for key in range(20):
        got = core.sample_cn01(core.stream(13, 2, key))
        want = reference(core.stream(13, 2, key))
        assert isinstance(got, complex)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_sample_cn01_moments():
    rng = core.stream(2024, 0)
    z = core.sample_cn01(rng, 200_000)
    # unit total variance, split evenly between the parts, no pseudo-variance
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(np.var(z.real) - 0.5) < 0.01
    assert abs(np.var(z.imag) - 0.5) < 0.01
    assert abs(np.mean(z * z)) < 0.01


def test_logdet_single_row_known_value():
    # 1 + (2/2) * 1 = 2 -> 1 bit
    val = core.logdet_capacity_term(np.array([[1.0 + 0j, 0.0]]), 2.0, (1.0,))
    assert val == pytest.approx(1.0, abs=1e-15)


def test_logdet_diagonal_two_rows():
    # rows (1,0) at noise 1 and (0,1) at noise 4, power 2:
    # 1 + 1 + 1/4 + 1/4 = 2.5
    h = np.eye(2, dtype=complex)
    val = core.logdet_capacity_term(h, 2.0, (1.0, 4.0))
    assert val == pytest.approx(math.log2(2.5), abs=1e-14)
    assert val == pytest.approx(1.321928, abs=1e-6)


def test_logdet_matches_dense_evaluation():
    rng = core.stream(77, 0)
    for _ in range(50):
        h = core.sample_cn01(rng, (2, 2))
        power = float(rng.uniform(0.1, 50.0))
        nv = rng.uniform(0.5, 5.0, size=2)
        got = core.logdet_capacity_term(h, power, nv)
        s = np.diag(1.0 / np.sqrt(nv))
        m = np.eye(2) + (power / 2.0) * (s @ h @ h.conj().T @ s)
        sign, logdet = np.linalg.slogdet(m)
        assert sign == pytest.approx(1.0)
        assert got == pytest.approx(logdet / math.log(2.0), rel=1e-12)


def test_logdet_single_row_matches_dense_evaluation():
    rng = core.stream(78, 0)
    for _ in range(20):
        h = core.sample_cn01(rng, (1, 2))
        power = float(rng.uniform(0.1, 50.0))
        nv = rng.uniform(0.5, 5.0, size=1)
        got = core.logdet_capacity_term(h, power, nv)
        expect = math.log2(1.0 + (power / 2.0) * float(np.sum(np.abs(h) ** 2)) / nv[0])
        assert got == pytest.approx(expect, rel=1e-12)


def test_logdet_batch_matches_loop():
    rng = core.stream(5, 0)
    batch = core.sample_cn01(rng, (40, 2, 2))
    got = core.logdet_capacity_term(batch, 7.0, (1.0, 3.0))
    assert got.shape == (40,)
    sing = [core.logdet_capacity_term(batch[i], 7.0, (1.0, 3.0)) for i in range(40)]
    assert np.allclose(got, sing, rtol=1e-14)


def test_logdet_zero_power_is_zero():
    rng = core.stream(6, 0)
    h = core.sample_cn01(rng, (8, 2, 2))
    assert np.all(core.logdet_capacity_term(h, 0.0, (1.0, 1.0)) == 0.0)


def test_logdet_input_validation():
    good = np.zeros((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        core.logdet_capacity_term(np.zeros((3, 2), dtype=complex), 1.0, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        core.logdet_capacity_term(np.zeros(2, dtype=complex), 1.0, (1.0,))
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, 1.0, (1.0,))
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, 1.0, (1.0, -1.0))
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, 1.0, (1.0, 0.0))
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, -1.0, (1.0, 1.0))
    with pytest.raises(ValueError):
        core.logdet_capacity_term(good, math.nan, (1.0, 1.0))


def test_domain_error_is_a_value_error():
    assert issubclass(core.DomainError, ValueError)
