"""Ergodic rate estimators, paired sweeps and rate-distortion helpers."""

import ast
import io
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import misobc
from misobc import capacity, core, oracles, rd, regions
from misobc.capacity import MCConfig, PowerGrid
from misobc.core import DomainError

# Closed-form values of E log2(1 + (P/2) x), x ~ Gamma(2, 1), computed with
# 40-digit arithmetic from (1 + (1 - 2/P) e^{2/P} E1(2/P)) / ln 2 and frozen
# before the estimators were written.  At P = 2 the special value is 1/ln 2.
GOLDEN_C21 = {
    0.01: 0.014320164556233963,
    1.0: 0.92140803717305653,
    2.0: 1.4426950408889634,
    10.0: 3.1662525061024752,
    100.0: 6.2815343559427342,
    10000.0: 12.89794953860777,
}

# Values of c22d, the 2x2 log-det rate with the second row's noise at 1 + D,
# frozen from 40-digit mpmath quadrature of 2 log2(1 + P x/2) against the
# density of one unordered eigenvalue of the whitened Wishart matrix (at
# D = 0 the uncorrelated one, (x^2 - 2x + 2) e^-x / 2), not from the closed
# form that c22d_oracle evaluates
GOLDEN_C22D = {
    (0.01, 0.0): 0.028570295567855993,
    (1.0, 0.0): 1.6850269814064778,
    (10.0, 0.0): 5.5492275690056257,
    (100.0, 0.0): 11.290998452146249,
    (10000.0, 0.0): 24.357498974023007,
    (0.01, 4.0): 0.017187065550364705,
    (1.0, 4.0): 1.1231074226227764,
    (10.0, 4.0): 4.1339643923652381,
    (100.0, 4.0): 9.2360240788788595,
    (10000.0, 4.0): 22.043282057217514,
}

FAST = MCConfig(samples=200_000, seed=901)


def test_oracle_matches_golden_values():
    for power, expect in GOLDEN_C21.items():
        assert capacity.c21_oracle(power) == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("power", [1e-6, 1e-4, 0.085, 1e6])
def test_oracle_matches_high_precision_quadrature(power):
    # small powers, where e^(2/P) overflows a double, an intermediate
    # power and far into the high-power regime
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(power) / 2
        cuts = [0, 1 / a, 2, mpmath.inf] if a > 1 else [0, 2, mpmath.inf]
        expect = mpmath.quad(lambda x: mpmath.log1p(a * x) * x * mpmath.exp(-x), cuts)
        expect = float(expect / mpmath.log(2))
    assert capacity.c21_oracle(power) == pytest.approx(expect, rel=1e-10, abs=0.0)


# 49 log-spaced powers from 1e-6 to 1e6, plus both sides of the kernel's
# switches from series to fraction (z = 2/P = 1) and to 1/(z + m) (z = 1e9)
ORACLE_POWERS = [10.0 ** (k / 4 - 6) for k in range(49)] + [
    2.0, math.nextafter(2.0, 0.0), 2e-9, math.nextafter(2e-9, 0.0)]


def _scaled_expint_sum(mpmath, z, k):
    """sum of e^z E_m(z) over m = 1..k, over ln 2, in the working precision."""
    return mpmath.exp(z) * mpmath.fsum(mpmath.expint(m, z) for m in range(1, k + 1)) / mpmath.log(2)


def test_oracle_matches_scaled_exponential_integrals():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        expect = [float(_scaled_expint_sum(mpmath, 2 / mpmath.mpf(p), 2)) for p in ORACLE_POWERS]
    got = [capacity.c21_oracle(p) for p in ORACLE_POWERS]
    assert got == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_oracle_edge_cases():
    assert capacity.c21_oracle(0.0) == 0.0
    for power in ("10", True, np.True_, None):
        with pytest.raises(ValueError, match="power must be a number"):
            capacity.c21_oracle(power)
        with pytest.raises(ValueError, match="power must be a number"):
            capacity.rq_oracle(power, 4.0)
    assert capacity.c21_oracle(np.float32(10.0)) == capacity.c21_oracle(10.0)
    with pytest.raises(ValueError):
        capacity.c21_oracle(-1.0)
    with pytest.raises(ValueError):
        capacity.c21_oracle(math.inf)
    # 2/P overflows to inf at the smallest subnormal; the fraction and the
    # series each stay finite and end, so the values keep their order
    values = [capacity.c21_oracle(p) for p in (0.0, 5e-324, 1e-300, 1e300)]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)
    assert values == sorted(values)
    # a kernel that cannot converge raises instead of looping on
    for m in (1, 2):
        with pytest.raises(ArithmeticError, match="did not converge"):
            oracles._scaled_expint(m, math.nan)


@pytest.mark.parametrize("distortion", [0.5, 2.4, 4.0])
def test_rq_oracle_matches_scaled_exponential_integrals(distortion):
    # at D = 4, e^(2D/P) overflows a double below P = 0.011
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        d = mpmath.mpf(distortion)
        expect = [float(_scaled_expint_sum(mpmath, 2 * d / mpmath.mpf(p), 4))
                  for p in ORACLE_POWERS]
    got = [capacity.rq_oracle(p, distortion) for p in ORACLE_POWERS]
    assert got == pytest.approx(expect, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("power", [1e-6, 0.1, 10.0, 1e6])
def test_rq_oracle_matches_high_precision_quadrature(power):
    # the closed form itself: E log2(1 + (P/(2D)) x) over the Gamma(4, 1) density
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(power) / 8
        cuts = [0, 1 / a, 2, mpmath.inf] if a > 1 else [0, 2, mpmath.inf]
        expect = mpmath.quad(lambda x: mpmath.log1p(a * x) * x**3 * mpmath.exp(-x) / 6, cuts)
        expect = float(expect / mpmath.log(2))
    assert capacity.rq_oracle(power, 4.0) == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_rq_oracle_edge_cases():
    assert capacity.rq_oracle(0.0, 4.0) == 0.0
    for power in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="power must be finite and nonnegative"):
            capacity.rq_oracle(power, 4.0)
    for d in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="distortion for rq must be finite and positive"):
            capacity.rq_oracle(1.0, d)
    with pytest.raises(ValueError, match="distortion for rq must be a number"):
        capacity.rq_oracle(1.0, None)
    with pytest.raises(ValueError, match="distortion for rq must be finite and positive"):
        capacity.rq_oracle(0.0, 0.0)
    values = [capacity.rq_oracle(p, 4.0) for p in (5e-324, 1e-300, 1e300)]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)
    assert values == sorted(values)
    # P/(2D) overflows a double, as it does in the estimator
    with pytest.raises(DomainError, match="rq is not finite"):
        capacity.rq_oracle(10.0, 5e-324)


def test_c22d_oracle_matches_golden_values():
    for (power, distortion), expect in GOLDEN_C22D.items():
        assert capacity.c22d_oracle(power, distortion) == pytest.approx(expect, rel=1e-14,
                                                                         abs=0.0)


def _c22d_closed_form(mpmath, power, distortion):
    """The closed form of c22d_oracle in the working precision; its D = 0 limit
    at D = 0."""
    s = lambda m, z: mpmath.exp(z) * mpmath.expint(m, z)  # noqa: E731
    d = mpmath.mpf(distortion)
    z1 = 2 / mpmath.mpf(power)
    z2 = z1 * (1 + d)
    if d == 0:
        return (2 * s(1, z1) + s(2, z1) + z1 * (s(1, z1) - s(2, z1))) / mpmath.log(2)
    return (s(1, z1) + s(1, z2) + ((1 + d) * s(2, z1) - s(2, z2)) / d) / mpmath.log(2)


# 33 log-spaced powers from 1e-2 to 1e6, plus both sides of the kernel's
# switch from series to fraction at z1 = 2/P = 1
C22D_POWERS = [10.0 ** (k / 4 - 2) for k in range(33)] + [2.0, math.nextafter(2.0, 0.0), 1.9]


@pytest.mark.parametrize("distortion", [0.0, 1e-8, 1e-4, 5e-4, 2e-3, 0.1, 0.3, 0.5, 2.4, 4.0])
def test_c22d_oracle_matches_the_closed_form_in_40_digits(distortion):
    # Taylor series in D where D max(1, 2/P) < 1/2, the closed form elsewhere:
    # D <= 2e-3 takes the series at every power here, D >= 0.5 the closed
    # form, and D = 0.1 and 0.3 each take both.  The largest relative error
    # measured over these cases is 2.5e-14 (P = 0.01, D = 5e-3 on a denser
    # grid), from the cancellation in z1 (S1 - S2) near D = 0 at low power.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        expect = [float(_c22d_closed_form(mpmath, p, distortion)) for p in C22D_POWERS]
    got = [capacity.c22d_oracle(p, distortion) for p in C22D_POWERS]
    assert got == pytest.approx(expect, rel=4e-14, abs=0.0)
    series = [distortion * max(1.0, 2.0 / p) < oracles._C22D_SERIES_CUT for p in C22D_POWERS]
    if distortion in (0.1, 0.3):
        assert any(series) and not all(series)


def test_c22d_oracle_edge_cases():
    assert capacity.c22d_oracle(0.0, 4.0) == capacity.c22d_oracle(0.0, 0.0) == 0.0
    assert capacity.c22d_oracle(np.float32(10.0), 4) == capacity.c22d_oracle(10.0, 4.0)
    for power in ("10", True, None):
        with pytest.raises(ValueError, match="power must be a number"):
            capacity.c22d_oracle(power, 4.0)
    for power in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="power must be finite and nonnegative"):
            capacity.c22d_oracle(power, 4.0)
    for d in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="distortion for c22d must be finite and nonnegative"):
            capacity.c22d_oracle(1.0, d)
    with pytest.raises(ValueError, match="distortion for c22d must be a number"):
        capacity.c22d_oracle(1.0, None)
    # finite and increasing in P at every distortion, from a subnormal power
    # (2/P overflows) past the 1/(w + m) regime of z1 > 1e9 to the largest
    # doubles, where the estimator's rate argument would overflow
    for d in (0.0, 5e-324, 1e-8, 4.0, 1e300):
        values = [capacity.c22d_oracle(p, d)
                  for p in (5e-324, 1e-300, 1e-12, 1.9e-9, 2e-9, 1e-3, 1e300, 1.7e308)]
        assert all(math.isfinite(v) and v >= 0.0 for v in values), d
        assert values == sorted(values), d
    # decreasing in the distortion, continuous across the series cut
    assert [capacity.c22d_oracle(10.0, d) for d in (0.0, 1.0, 4.0, 16.0)] == sorted(
        [capacity.c22d_oracle(10.0, d) for d in (0.0, 1.0, 4.0, 16.0)], reverse=True)
    below, above = (capacity.c22d_oracle(1.0, d) for d in (math.nextafter(0.5, 0.0), 0.5))
    assert below == pytest.approx(above, rel=1e-13)


def test_estimator_is_calibrated_against_the_oracles():
    # over 64 seeds at each power the z-scores of c22d and of tau against
    # their exact values must look standard normal: the mean within 3.89/8
    # of 0 (a false-alarm rate of 1e-4) and the sum of squares in the
    # central 1 - 2e-4 of chi^2(64) (2e-4), so a correct estimator fails
    # one of the twelve checks with probability at most 1.8e-3.  tau's
    # stderr is gap_sweep's delta method with the paired covariance;
    # without the covariance the sums of squares are 16-26, below 30.2.
    grid = PowerGrid((0.1, 10.0, 1e3))
    exact = {p: (capacity.c21_oracle(p), capacity.c22d_oracle(p, 4.0)) for p in grid.points}
    z = {(q, p): [] for q in ("c22d", "tau") for p in grid.points}
    for seed in range(1, 65):
        for row in regions.gap_sweep(4.0, grid, MCConfig(samples=2**17, seed=seed)).rows:
            c21x, c22dx = exact[row.power]
            z["c22d", row.power].append((row.c22d.value - c22dx) / row.c22d.stderr)
            tau = regions.gap_closed_form(c21x, c22dx)[0]
            z["tau", row.power].append((row.tau - tau) / row.tau_stderr)
    lo, hi = stats.chi2.ppf([1e-4, 1.0 - 1e-4], 64)
    mean_bound = stats.norm.ppf(1.0 - 0.5e-4) / 8.0
    for key, scores in z.items():
        scores = np.array(scores)
        assert abs(scores.mean()) < mean_bound, (key, scores.mean())
        assert lo < np.sum(scores**2) < hi, (key, np.sum(scores**2))


def test_rq_estimator_tracks_oracle():
    powers = (0.1, 10.0, 1e4)
    table = capacity.sweep("rq", PowerGrid(powers), MCConfig(samples=10**6, seed=907),
                           distortion=4.0)
    for row in table.rows:
        ref = capacity.rq_oracle(row.power, 4.0)
        tol = max(3.0 * row.estimate.stderr, 0.005 * ref)
        assert abs(row.estimate.value - ref) < tol, row.power


def test_oracles_load_no_scipy():
    src = str(Path(misobc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys\n"
             "from misobc import capacity\n"
             "capacity.c21_oracle(10)\n"
             "capacity.rq_oracle(10, 4)\n"
             "capacity.c22d_oracle(10, 4)\n"
             "capacity.c22d_oracle(10, 0)\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


def test_c21_estimator_tracks_oracle():
    for power in (1.0, 10.0):
        est = capacity.c21(power, FAST)
        assert est.samples == FAST.samples
        assert est.seed == FAST.seed
        assert abs(est.value - GOLDEN_C21[power]) < 5.0 * est.stderr


def test_c21_estimator_is_deterministic():
    a = capacity.c21(2.0, FAST)
    b = capacity.c21(2.0, FAST)
    assert a == b


def test_c21_zero_power():
    est = capacity.c21(0.0, MCConfig(samples=1000))
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_worker_partitioning_is_deterministic():
    # workers only schedule the fixed sample blocks, so every estimate is
    # bit-identical for any worker count (4 blocks, the last one partial)
    def estimates(workers):
        mc = MCConfig(samples=200_000, seed=11, workers=workers)
        pairs = capacity.paired_sweep("c21", "c22d", PowerGrid((0.5, 50.0)), mc, distortion=4.0)
        return (capacity.c21(5.0, mc), capacity.c22d(5.0, 4.0, mc), capacity.rq(5.0, 4.0, mc),
                [(e.estimates, e.mean_cov.tobytes()) for e in pairs])

    one = estimates(1)
    assert estimates(2) == one
    assert estimates(3) == one
    assert estimates(None) == one


def test_point_estimates_share_one_ensemble():
    # the joint estimate is the single-quantity estimate, bit for bit, and
    # its covariance diagonal holds the squared standard errors
    mc = MCConfig(samples=100_000, seed=17)
    (joint,) = capacity.estimate(("c21", "c22d", "rq"), PowerGrid.single(10.0), mc, 4.0)
    assert joint.power == 10.0
    assert joint.estimates == (capacity.c21(10.0, mc), capacity.c22d(10.0, 4.0, mc),
                               capacity.rq(10.0, 4.0, mc))
    assert joint.mean_cov.shape == (3, 3)
    assert np.array_equal(joint.mean_cov, joint.mean_cov.T)
    for i, e in enumerate(joint.estimates):
        assert e.stderr == math.sqrt(joint.mean_cov[i, i])


def test_moment_draw_matches_gaussian_matrices():
    n = 200_000
    # at D = 0 the block's c21 and c22d polynomials are norm1, norm2 + norm1
    # and det2; norm2 comes back to within a rounding of that sum
    quantities = ("c21", "c22d")
    rows = np.empty((capacity._scratch_rows(quantities), n))
    ((_, norm1, _), (_, lin, det2)), _ = capacity._build_block(
        core.stream(5, 0), list(rows), quantities, 0.0)
    direct = (norm1, lin - norm1, det2)
    h = core.sample_cn01(core.stream(6, 0), (n, 2, 2))
    det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    built = (np.sum(np.abs(h[:, 0]) ** 2, axis=1), np.sum(np.abs(h[:, 1]) ** 2, axis=1),
             np.abs(det) ** 2)
    for name, x, y in zip(("norm1", "norm2", "det2"), direct, built):
        assert stats.ks_2samp(x, y).pvalue > 1e-3, name
    # all three have mean 2; the row norms are independent Gamma(2, 1) and
    # |det|^2 = norm1 E4 with E4 ~ Exp(1) a summand of norm2, so
    # var(det2) = E[norm1^2] E[E4^2] - 4 = 8 and cov(norm_i, det2) = 2
    cov = np.array([[2.0, 0.0, 2.0], [0.0, 2.0, 2.0], [2.0, 2.0, 8.0]])
    dev = [x - x.mean() for x in direct]
    for a, x in enumerate(direct):
        assert abs(x.mean() - 2.0) < 5.0 * x.std() / math.sqrt(n)
        for b in range(a + 1):
            prod = dev[a] * dev[b]
            assert abs(prod.mean() - cov[a, b]) < 5.0 * prod.std() / math.sqrt(n), (a, b)


ROW_BYTES = capacity._BLOCK * 8
QUANTITY_SETS = [q for k in (1, 2, 3) for q in itertools.combinations(capacity.QUANTITIES, k)]


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak traced allocation of ``fn(*args, **kwargs)``, after one untraced
    call has paid for the imports and caches of a first call."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimator_memory_is_bounded():
    # a block runs in a reused scratch array of c21's two rows, so the peak
    # does not grow with the sample count
    samples = 4 * 10**6
    peak = traced_peak(capacity.c21, 10.0, MCConfig(samples=samples, workers=1))
    assert peak < 2.25 * ROW_BYTES

    # under the default workers there is one array of the pair's four rows
    # per usable CPU, and the per-block sums take under half a row
    workers = min(core._usable_cpus(), -(-samples // capacity._BLOCK))
    peak = traced_peak(capacity.paired_sweep, "rq", "c21", PowerGrid.default(),
                       MCConfig(samples=samples), distortion=4.0)
    assert peak < (4 * workers + 0.5) * ROW_BYTES


@pytest.mark.parametrize("workers", [1, 2])
def test_estimator_peak_does_not_grow_with_blocks(monkeypatch, workers):
    # each block's sums are added as it completes and at most two blocks per
    # worker are in flight, so the peak is the same at 20 and 320 blocks; a
    # run that kept every block's sums would hold 130 KB or more extra at 320.
    # Blocks of 256 samples make 320 of them cheap to draw.
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(capacity, "_BLOCK", 256)

    def peak(blocks):
        mc = MCConfig(samples=blocks * 256, workers=workers)
        return traced_peak(capacity.estimate, ("c21", "c22d"), PowerGrid((1.0, 10.0)), mc, 4.0)

    peak(320)  # fills the interpreter's free lists, which tracemalloc counts as held
    assert abs(peak(320) - peak(20)) < 32 * 1024


@pytest.mark.parametrize("quantities", QUANTITY_SETS, ids="-".join)
def test_block_scratch_peak_is_its_row_count(quantities):
    # one worker holds one scratch array of _scratch_rows rows, and beyond
    # it only small arrays, at a partial block and at several blocks alike
    rows = capacity._scratch_rows(quantities)
    distortion = None if quantities == ("c21",) else 4.0
    for samples in (1000, 3 * capacity._BLOCK + 7):
        peak = traced_peak(capacity.estimate, quantities, PowerGrid((1.0, 10.0)),
                           MCConfig(samples=samples, workers=1), distortion)
        used = min(samples, capacity._BLOCK) * 8
        assert rows * used <= peak < rows * used + ROW_BYTES // 4, samples
    # and the block needs every one of those rows
    with pytest.raises(IndexError):
        capacity._build_block(core.stream(1), list(np.empty((rows - 1, 8))), quantities, 4.0)


@pytest.mark.parametrize("workers", [1, 2])
def test_every_quantity_tuple_gets_its_single_bits(monkeypatch, workers):
    # whatever rows a tuple's block holds, each quantity gets the bits of its
    # single-quantity call, and the covariance the entries of the full joint
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    grid = PowerGrid((0.5, 20.0))
    mc = MCConfig(samples=2 * capacity._BLOCK + 5, seed=13, workers=workers)
    single = {q: capacity.estimate((q,), grid, MCConfig(samples=mc.samples, seed=13, workers=1),
                                   None if q == "c21" else 4.0)
              for q in capacity.QUANTITIES}
    full = capacity.estimate(capacity.QUANTITIES, grid, mc, 4.0)
    tuples = [q for k in (1, 2, 3) for q in itertools.permutations(capacity.QUANTITIES, k)]
    assert len(tuples) == 15
    for quantities in tuples:
        points = capacity.estimate(quantities, grid, mc,
                                   None if quantities == ("c21",) else 4.0)
        at = [capacity.QUANTITIES.index(q) for q in quantities]
        for j, point in enumerate(points):
            assert point.estimates == tuple(single[q][j].estimates[0] for q in quantities), \
                quantities
            assert np.array_equal(point.mean_cov, full[j].mean_cov[np.ix_(at, at)]), quantities


@pytest.mark.parametrize("quantities", [(), ("rq", "rq"), ("c21", "rq", "c21")])
def test_estimate_refuses_empty_or_repeated_quantities(monkeypatch, quantities):
    # the refusal comes before any stream is opened
    def no_stream(*key):
        raise AssertionError("a stream was opened")

    monkeypatch.setattr(core, "stream", no_stream)
    with pytest.raises(ValueError, match=re.escape(repr(quantities))):
        capacity.estimate(quantities, PowerGrid.single(10.0), MCConfig(samples=10), 4.0)


# float.hex of estimates at 200 000 samples (four blocks, the last partial),
# seed 23, D = 4: any change to the sample stream, the kernel arithmetic or
# the order of accumulation moves them
FROZEN_GRID = (0.1, 10.0, 1000.0)
FROZEN_RATIO = [  # rq, rq stderr, c21, c21 stderr, ratio, ratio stderr
    ("0x1.1e96f00ce8bebp-4", "0x1.3e4a05ab1112ap-14", "0x1.13fdc8b1909efp-3",
     "0x1.a2c9583654774p-13", "0x1.09d4a09863227p-1", "0x1.1cd2e97dc751ap-11"),
    ("0x1.3b3a9ba73a686p+1", "0x1.5fe562b4152c3p-10", "0x1.955cd11074b12p+1",
     "0x1.17c8d508e1efap-9", "0x1.8e27bba6dda93p-1", "0x1.986398ee39c47p-12"),
    ("0x1.1903409d71ceap+3", "0x1.c102901a1a138p-10", "0x1.32891fec06209p+3",
     "0x1.52cbe4b5bbae0p-9", "0x1.d55e9c80c830dp-1", "0x1.84933bf8f8077p-13"),
]
FROZEN_GAP = [  # c21, c21 stderr, c22d, c22d stderr, tau, tau stderr
    ("0x1.13fdc8b1909efp-3", "0x1.a2c9583654774p-13", "0x1.4ba52b149923fp-3",
     "0x1.a8c377699833ep-13", "0x1.25c88868b577fp-5", "0x1.1fa0373106e99p-14"),
    ("0x1.955cd11074b12p+1", "0x1.17c8d508e1efap-9", "0x1.08944bd159411p+2",
     "0x1.374891c867830p-9", "0x1.776c0dfd9e803p-1", "0x1.cb877141e9cc7p-11"),
    ("0x1.32891fec06209p+3", "0x1.52cbe4b5bbae0p-9", "0x1.ef0c04679b728p+3",
     "0x1.2be210859cf3ep-8", "0x1.3abb492bd77c5p+0", "0x1.90d6a5b7d2e43p-10"),
]
FROZEN_ESTIMATE = [  # (value, stderr) of c21, c22d, rq at P = 10
    ("0x1.955cd11074b12p+1", "0x1.17c8d508e1efap-9"),
    ("0x1.08944bd159411p+2", "0x1.374891c867830p-9"),
    ("0x1.3b3a9ba73a686p+1", "0x1.5fe562b4152c3p-10"),
]
FROZEN_COV = [
    ["0x1.31c75de6eba12p-18", "0x1.1c685cc02f287p-18", "0x1.06025c81ccc69p-19"],
    ["0x1.1c685cc02f287p-18", "0x1.7a8166c73f3f2p-18", "0x1.7a4963f8ec0abp-19"],
    ["0x1.06025c81ccc69p-19", "0x1.7a4963f8ec0abp-19", "0x1.e3b6d2338e4b6p-20"],
]


def frozen_bits(workers):
    """The frozen figures, as hex in the layout of FROZEN_RATIO, FROZEN_GAP,
    FROZEN_ESTIMATE and FROZEN_COV, computed with ``workers`` workers."""
    mc = MCConfig(samples=200_000, seed=23, workers=workers)
    grid = PowerGrid(FROZEN_GRID)
    ratio = [tuple(x.hex() for x in (r.rq.value, r.rq.stderr, r.c21.value, r.c21.stderr,
                                     r.ratio, r.ratio_stderr))
             for r in capacity.ratio_sweep(4.0, grid, mc).rows]
    gap = [tuple(x.hex() for x in (r.c21.value, r.c21.stderr, r.c22d.value, r.c22d.stderr,
                                   r.tau, r.tau_stderr))
           for r in regions.gap_sweep(4.0, grid, mc).rows]
    (point,) = capacity.estimate(("c21", "c22d", "rq"), PowerGrid.single(10.0), mc, 4.0)
    return (ratio, gap, [(e.value.hex(), e.stderr.hex()) for e in point.estimates],
            [[float(x).hex() for x in row] for row in point.mean_cov])


def assert_frozen(bits):
    ratio, gap, point, cov = bits
    assert ratio == FROZEN_RATIO
    assert gap == FROZEN_GAP
    assert point == FROZEN_ESTIMATE
    assert cov == FROZEN_COV


@pytest.mark.parametrize("workers", [1, 2, None])
def test_estimates_match_frozen_bits(workers):
    assert_frozen(frozen_bits(workers))


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_frozen_bits_hold_under_every_blas_thread_setting(blas_threads):
    # OpenBLAS reads its thread count when NumPy loads, so each setting
    # runs the frozen-bits check in an interpreter of its own
    src = str(Path(misobc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, PYTHONPATH=os.pathsep.join(
        p for p in (src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")) if p))
    probe = "from test_capacity import frozen_bits\nprint(repr(frozen_bits(2)))\n"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert_frozen(ast.literal_eval(done.stdout))


def test_worker_count_is_capped_at_blocks(monkeypatch):
    grid = PowerGrid((1.0, 10.0))

    def run(samples, workers):
        points = capacity.estimate(("c21", "rq"), grid, MCConfig(samples, 5, workers), 4.0)
        return [(p.estimates, p.mean_cov.tobytes()) for p in points]

    # one block runs in the caller's thread: no pool, no thread
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started for a single block")

    before = threading.active_count()
    with monkeypatch.context() as patch:
        patch.setattr(core, "ThreadPoolExecutor", no_pool)
        assert run(1000, 10**6) == run(1000, 1)
    assert threading.active_count() == before

    # three blocks start no more threads than there are usable CPUs or
    # blocks, whatever was asked for
    real_pool = core.ThreadPoolExecutor
    samples = 2 * capacity._BLOCK + 1
    for cpus, threads in ((2, 2), (64, 3)):
        sizes = []

        def recording_pool(workers):
            sizes.append(workers)
            return real_pool(workers)

        with monkeypatch.context() as patch:
            patch.setattr(core, "_usable_cpus", lambda: cpus)
            patch.setattr(core, "ThreadPoolExecutor", recording_pool)
            assert run(samples, 10**6) == run(samples, 1)
        assert sizes == [threads]


def test_failed_estimate_leaves_no_pool_thread(monkeypatch):
    # a block's error and the DomainError both surface from estimate once
    # every pool thread has stopped
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    mc = MCConfig(samples=3 * capacity._BLOCK + 5, seed=5)
    grid = PowerGrid.single(1e200)
    before = threading.active_count()
    with pytest.raises(DomainError, match="c22d is not finite at P = 1e\\+200"):
        capacity.estimate(("c21", "c22d", "rq"), grid, mc, 4.0)
    assert threading.active_count() == before

    build = capacity._build_block

    def failing(rng, rows, quantities, distortion):
        if rows[0].size != capacity._BLOCK:  # the last, partial block
            raise RuntimeError("block failed")
        return build(rng, rows, quantities, distortion)

    monkeypatch.setattr(capacity, "_build_block", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        capacity.estimate(("c21",), PowerGrid.single(10.0), mc)
    assert threading.active_count() == before


def test_c22d_zero_distortion_is_classical_capacity():
    # with D = 0 the second row is as clean as the first; cross-check the
    # estimator against a direct log-det average on its own draws
    mc = MCConfig(samples=200_000, seed=42)
    est = capacity.c22d(5.0, 0.0, mc)
    rng = core.stream(991, 0)
    h = core.sample_cn01(rng, (200_000, 2, 2))
    vals = core.logdet_capacity_term((h[:, 0], h[:, 1]), 5.0, (1.0, 1.0))
    direct = float(np.mean(vals))
    direct_se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
    assert abs(est.value - direct) < 4.0 * math.hypot(est.stderr, direct_se)


def test_c22d_decreases_with_distortion():
    vals = [capacity.c22d(10.0, d, FAST).value for d in (0.0, 1.0, 4.0, 16.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_c22d_sits_between_c21_and_twice_c21():
    for d in (1.0, 4.0):
        for power in (0.5, 10.0, 1000.0):
            lo = capacity.c21(power, FAST)
            hi = capacity.c22d(power, d, FAST)
            assert lo.value < hi.value < 2.0 * lo.value


def test_rq_matches_quadrature():
    # |g|^2 + |h|^2 sums four unit-variance squared magnitudes: Gamma(4, 1)
    power, d = 10.0, 4.0
    b = power / (2.0 * d)

    def integrand(x):
        return math.log1p(b * x) * x**3 * math.exp(-x) / 6.0 / math.log(2.0)

    expect = quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
    est = capacity.rq(power, d, FAST)
    assert abs(est.value - expect) < 5.0 * est.stderr


def test_rq_needs_positive_distortion():
    with pytest.raises(ValueError):
        capacity.rq(1.0, 0.0, FAST)
    with pytest.raises(ValueError):
        capacity.rq(1.0, -1.0, FAST)


def test_c21_rejects_distortion():
    with pytest.raises(ValueError):
        capacity.sweep("c21", PowerGrid.single(1.0), FAST, distortion=4.0)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: capacity.c22d(10.0, None, FAST), "distortion for c22d", id="c22d"),
    pytest.param(lambda: capacity.rq(10.0, None, FAST), "distortion for rq", id="rq"),
    pytest.param(lambda: capacity.ratio_sweep(None, PowerGrid.single(1.0), FAST),
                 "distortion for rq", id="ratio_sweep"),
    pytest.param(lambda: regions.gap_sweep(None, PowerGrid.single(1.0), FAST),
                 "distortion", id="gap_sweep"),
])
def test_missing_distortion_is_a_value_error(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got None$"):
        call()


@pytest.mark.parametrize("quantities, points, distortion, blamed", [
    pytest.param(("c22d",), (1e160,), 4.0, "c22d is not finite at P = 1e+160", id="c22d"),
    pytest.param(("c21",), (1.0, 1e308), None, "c21 is not finite at P = 1e+308", id="c21"),
    # c21 stays finite here, though its cross sum with c22d does not
    pytest.param(("c21", "c22d"), (1e160,), 4.0, "c22d is not finite at P = 1e+160",
                 id="pair"),
    pytest.param(("rq",), (1e308,), 1e-300, "rq is not finite at P = 1e+308", id="rq"),
])
def test_overflowing_rate_is_a_domain_error(quantities, points, distortion, blamed):
    # an overflowing rate argument used to come back as value inf, stderr nan
    mc = MCConfig(samples=1000, seed=5, workers=1)
    with pytest.raises(DomainError, match=f"^{re.escape(blamed)}: "):
        capacity.estimate(quantities, PowerGrid(points), mc, distortion)


@pytest.mark.parametrize("quantity", capacity.QUANTITIES)
def test_underflowing_error_bar_is_a_domain_error(quantity):
    # below about P = 1e-152 (at 10^3 samples) the error bar's squared terms underflow:
    # the stderr used to come out as 0, or wrong in its leading digits
    mc = MCConfig(samples=1000, seed=5, workers=1)
    d = None if quantity == "c21" else 4.0
    with pytest.raises(DomainError, match=f"^{quantity} is too small at P = 1e-160: "):
        capacity.estimate((quantity,), PowerGrid.single(1e-160), mc, d)
    # above it the relative error bar is that of any small power
    small, tiny = (capacity.estimate((quantity,), PowerGrid.single(p), mc, d)[0].estimates[0]
                   for p in (1e-100, 1e-150))
    assert tiny.stderr / tiny.value == pytest.approx(small.stderr / small.value, rel=1e-9)
    # zero power is exact, and one sample has no error bar at any power
    zero = capacity.estimate((quantity,), PowerGrid((0.0, 1.0)), mc, d)[0].estimates[0]
    assert (zero.value, zero.stderr) == (0.0, 0.0)
    one = capacity.estimate((quantity,), PowerGrid.single(1e-160), MCConfig(samples=1), d)
    assert one[0].estimates[0].stderr == 0.0


def test_unknown_quantity_rejected():
    with pytest.raises(ValueError):
        capacity.sweep("c23", PowerGrid.single(1.0), FAST)


def test_power_grid_validation():
    with pytest.raises(ValueError):
        PowerGrid(())
    with pytest.raises(ValueError):
        PowerGrid((1.0, 1.0))
    with pytest.raises(ValueError):
        PowerGrid((2.0, 1.0))
    with pytest.raises(ValueError):
        PowerGrid((-1.0, 1.0))
    for kwargs, bad in (({"num": 0}, "0"), ({"lo": 0.0}, "0.0"), ({"lo": -1.0}, "-1.0"),
                        ({"hi": math.inf}, "inf"), ({"lo": math.nan}, "nan"),
                        ({"lo": 10.0, "hi": 10.0}, "10.0"), ({"lo": 20.0, "hi": 10.0}, "20.0")):
        with pytest.raises(ValueError, match=bad):
            PowerGrid.default(**kwargs)
    assert PowerGrid.default(num=1, lo=2.0, hi=3.0).points == (2.0,)
    grid = PowerGrid.default()
    assert len(grid.points) == 50
    assert grid.points[0] == pytest.approx(1e-2)
    assert grid.points[-1] == pytest.approx(1e4)
    assert PowerGrid((0.0, 1.0)).points == (0.0, 1.0)
    # points are numbers as misobc._number takes them: no strings, no bools
    for points in (("0.5", "5"), (0.5, None), (False, 1.0), (0.5, np.True_)):
        with pytest.raises(ValueError, match="grid point must be a number"):
            PowerGrid(points)
    for power in (True, np.True_, "10", None):
        with pytest.raises(ValueError, match="grid point must be a number"):
            PowerGrid.single(power)
    # the default grid's count is an integer and its ends are numbers, as
    # misobc._integer and misobc._number take them
    for kwargs, message in (({"num": 2.5}, "grid point count must be an integer, got 2.5"),
                            ({"num": "3"}, "grid point count must be an integer, got '3'"),
                            ({"num": True}, "grid point count must be an integer, got True"),
                            ({"lo": "1"}, "lo must be a number, got '1'"),
                            ({"hi": None}, "hi must be a number, got None")):
        with pytest.raises(ValueError, match=message):
            PowerGrid.default(**kwargs)
    assert PowerGrid.default(np.int64(3), np.float32(1.0), 100).points == \
        PowerGrid.default(3, 1.0, 100.0).points
    for points in (5.0, None, 3):
        with pytest.raises(ValueError, match="grid points must be an iterable of numbers"):
            PowerGrid(points)
    grid = PowerGrid((np.float32(0.5), np.int64(5), 50))
    assert grid.points == (0.5, 5.0, 50.0) and all(type(p) is float for p in grid.points)


def test_mcconfig_validation():
    with pytest.raises(ValueError, match="samples must be at least 1"):
        MCConfig(samples=0)
    # any integer type, NumPy's too, but not a bool, float or string: a
    # float count would be truncated in the draw but not in the mean
    for samples in (2.5, True, "10", 10.0):
        with pytest.raises(ValueError, match="samples must be an integer"):
            MCConfig(samples=samples)
    for seed in (2.7, True, "3", 3.0):
        with pytest.raises(ValueError, match="seed must be an integer"):
            MCConfig(seed=seed)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        MCConfig(seed=-1)
    mc = MCConfig(samples=np.int64(5), seed=np.uint32(7))
    assert (mc.samples, mc.seed) == (5, 7)
    assert type(mc.samples) is int and type(mc.seed) is int
    for workers in (0, -1, 1.5, 2.0, "2", True):
        with pytest.raises(ValueError):
            MCConfig(workers=workers)
    assert MCConfig().workers is None
    assert MCConfig(workers=1).workers == 1
    workers = MCConfig(workers=np.int64(2)).workers
    assert workers == 2 and type(workers) is int


def test_sweep_shares_draws_across_powers():
    # common random numbers make each per-sample curve monotone in P, so
    # the estimated curve is exactly monotone too
    grid = PowerGrid((0.0, 0.1, 1.0, 10.0, 100.0))
    table = capacity.sweep("c21", grid, MCConfig(samples=20_000, seed=3))
    vals = [row.estimate.value for row in table.rows]
    assert vals[0] == 0.0
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_sweep_csv_format():
    table = capacity.sweep("c21", PowerGrid((1.0, 2.0)), MCConfig(samples=1000, seed=5))
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "P,value,stderr,samples,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert int(first[3]) == 1000
    assert int(first[4]) == 5


def test_sweep_json_rows():
    table = capacity.sweep("c22d", PowerGrid.single(2.0), MCConfig(samples=1000, seed=5),
                           distortion=4.0)
    rows = table.to_json()
    assert len(rows) == 1
    assert set(rows[0]) == {"P", "value", "stderr", "samples", "seed"}
    assert rows[0]["P"] == 2.0


def test_paired_sweep_covariance_is_positive():
    pairs = capacity.paired_sweep("c21", "c22d", PowerGrid.single(10.0),
                                  MCConfig(samples=50_000, seed=8), distortion=4.0)
    assert len(pairs) == 1
    assert pairs[0].mean_cov[0, 1] > 0.0


def test_ratio_sweep_pairing_tightens_errors():
    grid = PowerGrid((0.5, 5.0, 500.0))
    table = capacity.ratio_sweep(4.0, grid, MCConfig(samples=50_000, seed=8))
    for row in table.rows:
        assert row.ratio == row.rq.value / row.c21.value
        naive = math.hypot(row.rq.stderr / row.c21.value,
                           row.rq.value * row.c21.stderr / row.c21.value**2)
        assert row.ratio_stderr < naive
    assert table.max_row().ratio == max(r.ratio for r in table.rows)


def test_ratio_sweep_rejects_zero_power():
    with pytest.raises(ValueError):
        capacity.ratio_sweep(4.0, PowerGrid((0.0, 1.0)), FAST)


def test_ratio_csv_format():
    table = capacity.ratio_sweep(4.0, PowerGrid.single(1.0), MCConfig(samples=1000))
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "P,rq,c21,ratio,ratio_stderr"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# rate-distortion helpers


def test_waterfill_single_variance_exact():
    assert rd.rd_reverse_waterfill([4.0], 1.0) == 2.0
    assert rd.rd_reverse_waterfill([1.0], 1.0) == 0.0
    assert rd.rd_reverse_waterfill([1.0], 2.0) == 0.0


def test_waterfill_equal_variances_exact():
    # all components identical: level = budget, rate = log2(v / budget)
    assert rd.rd_reverse_waterfill([1.0] * 7, 0.25) == 2.0
    got = rd.rd_reverse_waterfill([3.0] * 5, 0.75)
    assert got == pytest.approx(2.0, rel=1e-14)


def test_waterfill_two_level_fixture():
    # variances {1, 4} with unit budget: level sits at 1, only the second
    # component is coded, rate = log2(4)/2 = 1 bit
    assert rd.rd_reverse_waterfill([1.0, 4.0], 1.0) == 1.0


def test_waterfill_level_below_smallest_variance():
    # budget below every variance: level = budget for all components
    got = rd.rd_reverse_waterfill([1.0, 4.0], 0.5)
    assert got == pytest.approx(0.5 * (math.log2(2.0) + math.log2(8.0)), rel=1e-13)


def test_waterfill_never_exceeds_suboptimal():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        v = rng.lognormal(0.0, 1.2, size=n)
        budget = float(rng.uniform(0.05, 1.2) * v.mean())
        wf = rd.rd_reverse_waterfill(v, budget)
        sub = rd.rd_suboptimal(v, budget)
        assert wf <= sub


def test_waterfill_two_level_matches_dense_scan():
    # independent search: locate the water level by two-stage dense scan
    # over mean(min(v, L)) = budget, then price the active components
    rng = np.random.default_rng(31)
    for _ in range(25):
        v = np.concatenate([
            np.full(int(rng.integers(1, 6)), float(rng.uniform(0.2, 2.0))),
            np.full(int(rng.integers(1, 6)), float(rng.uniform(2.5, 9.0))),
        ])
        budget = float(rng.uniform(0.3, 0.95) * v.mean())

        lo, hi = budget, float(v.max())
        for _ in range(2):
            levels = np.linspace(lo, hi, 10_001)
            err = np.abs(np.mean(np.minimum(v[None, :], levels[:, None]), axis=1) - budget)
            k = int(np.argmin(err))
            lo = levels[max(k - 1, 0)]
            hi = levels[min(k + 1, len(levels) - 1)]
        level = 0.5 * (lo + hi)
        brute = float(np.sum(np.log2(v[v > level] / level)) / v.size)
        exact = rd.rd_reverse_waterfill(v, budget)
        assert exact == pytest.approx(brute, abs=1e-6)


def test_waterfill_validation():
    with pytest.raises(ValueError):
        rd.rd_reverse_waterfill([], 1.0)
    with pytest.raises(ValueError):
        rd.rd_reverse_waterfill([1.0, -2.0], 1.0)
    with pytest.raises(ValueError):
        rd.rd_reverse_waterfill([1.0], 0.0)
    with pytest.raises(ValueError):
        rd.rd_reverse_waterfill([math.inf], 1.0)


def test_suboptimal_closed_form():
    assert rd.rd_suboptimal([1.0], 1.0) == 1.0
    got = rd.rd_suboptimal([3.0, 3.0], 1.0)
    assert got == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        rd.rd_suboptimal([1.0], -1.0)


@pytest.mark.parametrize("variances", [4.0, [1.0, None], np.ones((2, 2)), [1.0, "2"],
                                       [1.0, True], np.array([True, False])],
                         ids=["scalar", "none", "2d", "string", "bool", "numpy_bool"])
def test_rd_variances_must_be_a_flat_iterable(variances):
    for fn in (rd.rd_reverse_waterfill, rd.rd_suboptimal):
        with pytest.raises(ValueError, match="flat iterable of numbers"):
            fn(variances, 1.0)


@pytest.mark.parametrize("budget", ["1.0", True, None])
def test_rd_budget_must_be_a_number(budget):
    for fn in (rd.rd_reverse_waterfill, rd.rd_suboptimal):
        with pytest.raises(ValueError, match="distortion_budget must be a number"):
            fn([1.0, 4.0], budget)


def _np_reverse_waterfill(v, budget):
    """The helper's former NumPy form: the level from a vectorized scan of
    the sorted-prefix segments, pairwise sums."""
    n = v.size
    if float(np.mean(v)) <= budget:
        return 0.0
    s = np.sort(v)
    prefix = np.concatenate(([0.0], np.cumsum(s)))[:n]
    level = (n * budget - prefix) / (n - np.arange(n))
    lower = np.concatenate(([0.0], s[:-1]))
    slack = 1e-12 * max(1.0, float(s[-1]))
    valid = (level >= lower - slack) & (level <= s + slack)
    idx = int(np.argmax(valid))
    assert valid[idx]
    level_star = float(level[idx])
    active = s[s > level_star]
    if active.size == 0:
        return 0.0
    return float(np.sum(np.log2(active / level_star)) / n)


def _np_suboptimal(v, budget):
    return float(np.mean(np.log1p(v / budget)) / core.LN2)


def test_rd_helpers_match_numpy_reference():
    # the stdlib helpers sum in another order (math.fsum against NumPy's
    # pairwise sums) and take libm's log2, so they agree to a few ulp
    rng = np.random.default_rng(1093)
    for _ in range(1500):
        n = int(rng.integers(1, 61))
        v = rng.lognormal(0.0, 1.5, size=n)
        if rng.random() < 0.3:  # repeated variances and zeros exercise segment ends
            v = rng.choice(np.append(v[: max(1, n // 4)], 0.0), size=n)
        budget = float(rng.uniform(0.01, 1.5) * max(v.mean(), 1e-3))
        for got, ref in ((rd.rd_reverse_waterfill(v, budget), _np_reverse_waterfill(v, budget)),
                         (rd.rd_suboptimal(v, budget), _np_suboptimal(v, budget))):
            assert abs(got - ref) <= 1e-13 * abs(ref), (v, budget, got, ref)


def test_rd_helpers_raise_domain_error_where_a_double_overflows():
    # the variances' sum overflows, but their mean and both rates are finite
    for fn in (rd.rd_reverse_waterfill, rd.rd_suboptimal):
        assert fn([1e308, 1e308], 1.0) == pytest.approx(math.log2(1e308), rel=1e-15)
    # the rate is scale-free, so the scaled-down list prices the same
    assert rd.rd_reverse_waterfill([1.5e308, 1e300, 1.7e308], 1e307) == pytest.approx(
        rd.rd_reverse_waterfill([1.5e8, 1.0, 1.7e8], 1e7), rel=1e-15)
    assert rd.rd_reverse_waterfill([1.5e308, 1.5e308], 1e308) == pytest.approx(
        math.log2(1.5), rel=1e-15)
    # a variance over the budget overflows, and so does the rate
    for fn, budget in ((rd.rd_reverse_waterfill, 1e-308), (rd.rd_suboptimal, 1e-300)):
        with pytest.raises(DomainError, match="rate is not finite"):
            fn([1e308], budget)
    # short of the overflow both rates stay finite
    assert rd.rd_reverse_waterfill([1e308, 1e307], 1.0) == pytest.approx(
        (math.log2(1e308) + math.log2(1e307)) / 2.0, rel=1e-12)
    assert rd.rd_suboptimal([1e300], 1e-5) == pytest.approx(math.log2(1e305), rel=1e-12)


def test_waterfill_budget_against_an_overflowing_mean():
    # the sum of [1e308, 1e308] overflows; below the mean the rate is the
    # unit list's at the scaled budget, at or above it the rate is 0
    assert rd.rd_reverse_waterfill([1e308, 1e308], 9e307) == 0.15200309344505006
    assert rd.rd_reverse_waterfill([1.0, 1.0], 0.9) == pytest.approx(0.15200309344505006,
                                                                      rel=1e-15)
    for budget in (1e308, 1.2e308, 1.5e308, 1.7e308):
        assert rd.rd_reverse_waterfill([1e308, 1e308], budget) == 0.0


def test_wyner_zero_gain_recovers_plain_rate():
    # a = 0: the side observation is pure noise, conditional variance is
    # the source variance itself
    mc = MCConfig(samples=1000, seed=4)
    got = capacity.ergodic_wyner_rate(2.0, 3.0, 0.5, 0.0, mc)
    assert got == 2.0


def test_wyner_distortion_at_conditional_variance_is_free():
    cv = 1.0 * 1.0 / (1.0 + 1.0)
    mc = MCConfig(samples=1000, seed=4)
    assert capacity.ergodic_wyner_rate(1.0, 1.0, cv, 1.0, mc) == 0.0


def test_wyner_constant_gain_static_formula():
    sv, nv, a = 1.5, 0.75, 2.0
    cv = sv * nv / (a * a * sv + nv)
    mc = MCConfig(samples=1000, seed=4)
    got = capacity.ergodic_wyner_rate(sv, nv, cv / 2.0, a, mc)
    assert got == pytest.approx(1.0, abs=1e-15)
    # halving the distortion costs exactly one more bit
    got2 = capacity.ergodic_wyner_rate(sv, nv, cv / 4.0, a, mc)
    assert got2 == pytest.approx(2.0, abs=1e-14)


def test_wyner_rate_is_finite_where_an_intermediate_overflows():
    # a^2 signal_var passes the largest double, but cv is about
    # noise_var / a^2 = 1e-10, so the rate is about log2(1e10)
    mc = MCConfig(samples=10, seed=4)
    rate = capacity.ergodic_wyner_rate(1e300, 1.0, 1e-20, 1e5, mc)
    assert rate == pytest.approx(capacity.ergodic_wyner_rate(1e200, 1.0, 1e-20, 1e5, mc),
                                 rel=1e-12)
    assert rate == pytest.approx(math.log2(1e10), rel=1e-12)

def test_wyner_prices_tiny_variances_and_refuses_an_underflowing_cv():
    # cv = 1 / (a / noise_var * a + 1 / signal_var) stays normal down to
    # the smallest normal variances, where signal_var * noise_var underflows
    mc = MCConfig(samples=10, seed=4)
    assert capacity.ergodic_wyner_rate(1e-300, 1e-300, 1e-310, 0.0, mc) == pytest.approx(
        math.log2(1e10), rel=1e-12)
    # a true cv below the smallest normal double, or a subnormal variance,
    # gives cv = 0, which no positive distortion satisfies
    for args in ((1e-300, 1e-300, 1e-320, 1e200), (1e-310, 1.0, 1e-320, 1.0),
                 (1.0, 1e-310, 1e-320, None)):
        with pytest.raises(DomainError, match="exceeds the conditional variance"):
            capacity.ergodic_wyner_rate(*args, mc)


WYNER_RAYLEIGH = float.fromhex("0x1.7233ce06e923cp+2")


@pytest.mark.parametrize("workers", [1, 2, None])
def test_wyner_rayleigh_rate_is_the_same_for_any_worker_count(monkeypatch, workers):
    # the per-block sums are added in block order, whichever thread ran them
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    mc = MCConfig(workers=workers)
    assert capacity.ergodic_wyner_rate(1.0, 1.0, 0.01, None, mc) == WYNER_RAYLEIGH


def test_wyner_rayleigh_blocks_run_through_run_tasks(monkeypatch):
    calls = []
    run_tasks = core.run_tasks

    def recorder(fn, items, workers=None):
        calls.append((items, workers))
        return run_tasks(fn, items, workers)

    monkeypatch.setattr(core, "run_tasks", recorder)
    for samples, workers in ((1, None), (capacity._BLOCK, 1), (3 * capacity._BLOCK + 5, 2)):
        calls.clear()
        capacity.ergodic_wyner_rate(1.0, 1.0, 0.01, None, MCConfig(samples=samples,
                                                                   workers=workers))
        assert calls == [(range(-(-samples // capacity._BLOCK)), workers)]


def test_wyner_constant_gain_draws_nothing(monkeypatch):
    # one realization in closed form: no stream, no task, and the sample
    # count and seed do not enter
    def refuse(*args, **kwargs):
        raise AssertionError("a constant gain drew samples")

    monkeypatch.setattr(core, "stream", refuse)
    monkeypatch.setattr(core, "run_tasks", refuse)
    rates = {capacity.ergodic_wyner_rate(1.5, 0.75, 0.1, 2.0, MCConfig(samples=s, seed=seed))
             for s, seed in ((1, 0), (1000, 4), (10**12, 2**64))}
    cv = 1.0 / (2.0 / 0.75 * 2.0 + 1.0 / 1.5)
    assert rates == {math.log2(cv) - math.log2(0.1)}


@pytest.mark.parametrize("workers", [1, 2])
def test_wyner_peak_does_not_grow_with_blocks(monkeypatch, workers):
    # the blocks are enumerated, not listed, and each block's sum is added
    # as it completes, so the peak is the same at 20 and 2000 blocks
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(capacity, "_BLOCK", 256)

    def peak(blocks):
        mc = MCConfig(samples=blocks * 256, workers=workers)
        return traced_peak(capacity.ergodic_wyner_rate, 1.0, 1.0, 0.01, None, mc)

    peak(2000)  # fills the interpreter's free lists, which tracemalloc counts as held
    assert abs(peak(2000) - peak(20)) < 16 * 1024


def test_wyner_rejects_excess_distortion():
    with pytest.raises(DomainError):
        capacity.ergodic_wyner_rate(1.0, 1.0, 0.6, 1.0, MCConfig(samples=100, seed=4))
    with pytest.raises(DomainError):
        capacity.ergodic_wyner_rate(1.0, 1.0, 0.0, 1.0, MCConfig(samples=100, seed=4))


def test_wyner_random_gain_monotone_in_distortion():
    mc = MCConfig(samples=20_000, seed=12)
    r1 = capacity.ergodic_wyner_rate(1.0, 1.0, 0.05, None, mc)
    r2 = capacity.ergodic_wyner_rate(1.0, 1.0, 0.02, None, mc)
    assert 0.0 < r1 < r2


def test_wyner_gain_validation():
    # the gain is a finite nonnegative number, or None for a Rayleigh gain
    mc = MCConfig(samples=100, seed=4)
    for bad in (-2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gain must be finite and nonnegative"):
            capacity.ergodic_wyner_rate(1.0, 1.0, 0.1, bad, mc)
    # numbers of any real type, but not strings or bools
    for bad in ("0.5", True, np.True_):
        with pytest.raises(ValueError, match="gain must be a number"):
            capacity.ergodic_wyner_rate(1.0, 1.0, 0.1, bad, mc)
    for bad in ("0.5", True, None):
        for name, args in (("signal_var", (bad, 1.0, 0.1)), ("noise_var", (1.0, bad, 0.1)),
                           ("distortion", (1.0, 1.0, bad))):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                capacity.ergodic_wyner_rate(*args, 0.5, mc)
    assert capacity.ergodic_wyner_rate(np.int64(1), 1, np.float32(0.5),
                                       np.int64(0), mc) == 1.0
    # the gain is checked before the variances and the distortion
    with pytest.raises(ValueError, match="gain must be finite and nonnegative"):
        capacity.ergodic_wyner_rate(None, -1.0, 0.0, -1.0, mc)
