"""Ergodic rate estimators, paired sweeps and rate-distortion helpers."""

import io
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
from misobc import capacity, core, rd, regions
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
            capacity._scaled_expint(m, math.nan)


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
        with pytest.raises(ValueError, match="distortion must be finite and positive for rq"):
            capacity.rq_oracle(1.0, d)
    with pytest.raises(ValueError, match="distortion for rq must be a number"):
        capacity.rq_oracle(1.0, None)
    with pytest.raises(ValueError, match="distortion must be finite and positive for rq"):
        capacity.rq_oracle(0.0, 0.0)
    values = [capacity.rq_oracle(p, 4.0) for p in (5e-324, 1e-300, 1e300)]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)
    assert values == sorted(values)
    # P/(2D) overflows a double, as it does in the estimator
    with pytest.raises(DomainError, match="rq is not finite"):
        capacity.rq_oracle(10.0, 5e-324)


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
        return (capacity.c21(5.0, mc), capacity.c22d(5.0, 4.0, mc), capacity.rq(5.0, 4.0, mc),
                capacity.paired_sweep("c21", "c22d", PowerGrid((0.5, 50.0)), mc, distortion=4.0))

    one = estimates(1)
    assert estimates(2) == one
    assert estimates(3) == one
    assert estimates(None) == one


def test_blocks_cover_samples():
    block = capacity._BLOCK
    for total in (1, 11, block - 1, block, block + 1, 10**6, 3 * block):
        blocks = capacity._blocks(total)
        assert [k for k, _ in blocks] == list(range(len(blocks)))
        assert sum(count for _, count in blocks) == total
        assert all(count == block for _, count in blocks[:-1])
        assert 0 < blocks[-1][1] <= block


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
    direct = capacity._draw_moments(core.stream(5, 0), n)
    h = core.sample_cn01(core.stream(6, 0), (n, 2, 2))
    det = h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]
    built = (np.sum(np.abs(h[:, 0]) ** 2, axis=1), np.sum(np.abs(h[:, 1]) ** 2, axis=1),
             np.abs(det) ** 2)
    for name, x, y in zip(capacity.ChannelMoments._fields, direct, built):
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


def test_estimator_memory_is_bounded():
    # a block runs in a reused scratch set of (4 + k) rows, so the peak does
    # not grow with the sample count
    samples = 4 * 10**6
    tracemalloc.start()
    try:
        capacity.c21(10.0, MCConfig(samples=samples, workers=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20

    # under the default workers there is at most one set per usable CPU:
    # the same 16 MiB on hosts with at most two, plus one set of a
    # two-quantity sweep for each CPU beyond two
    workers = min(capacity._usable_cpus(), len(capacity._blocks(samples)))
    tracemalloc.start()
    try:
        capacity.paired_sweep("rq", "c21", PowerGrid.default(), MCConfig(samples=samples),
                              distortion=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20 + max(workers - 2, 0) * (4 + 2) * capacity._BLOCK * 8


# float.hex of estimates at 200 000 samples (four blocks, the last partial),
# seed 23, D = 4: any change to the sample stream, the kernel arithmetic or
# the order of accumulation moves them
FROZEN_GRID = (0.1, 10.0, 1000.0)
FROZEN_RATIO = [  # rq, rq stderr, c21, c21 stderr, ratio, ratio stderr
    ("0x1.1e96f00ce8bebp-4", "0x1.3e4a05ab1112ap-14", "0x1.13fdc8b1909efp-3",
     "0x1.a2c9583654774p-13", "0x1.09d4a09863227p-1", "0x1.1cd2e97dc7526p-11"),
    ("0x1.3b3a9ba73a686p+1", "0x1.5fe562b4152a3p-10", "0x1.955cd11074b12p+1",
     "0x1.17c8d508e1efap-9", "0x1.8e27bba6dda93p-1", "0x1.986398ee39c03p-12"),
    ("0x1.1903409d71ceap+3", "0x1.c102901a1a0b5p-10", "0x1.32891fec06209p+3",
     "0x1.52cbe4b5bbb0cp-9", "0x1.d55e9c80c830dp-1", "0x1.84933bf8f7f47p-13"),
]
FROZEN_GAP = [  # c21, c21 stderr, c22d, c22d stderr, tau, tau stderr
    ("0x1.13fdc8b1909efp-3", "0x1.a2c9583654774p-13", "0x1.4ba52b149923fp-3",
     "0x1.a8c3776998341p-13", "0x1.25c88868b577fp-5", "0x1.1fa0373106e89p-14"),
    ("0x1.955cd11074b12p+1", "0x1.17c8d508e1efap-9", "0x1.08944bd159411p+2",
     "0x1.374891c86781ep-9", "0x1.776c0dfd9e803p-1", "0x1.cb877141e9cb3p-11"),
    ("0x1.32891fec06209p+3", "0x1.52cbe4b5bbb0cp-9", "0x1.ef0c04679b728p+3",
     "0x1.2be210859cf3ep-8", "0x1.3abb492bd77c5p+0", "0x1.90d6a5b7d2d41p-10"),
]
FROZEN_ESTIMATE = [  # (value, stderr) of c21, c22d, rq at P = 10
    ("0x1.955cd11074b12p+1", "0x1.17c8d508e1efap-9"),
    ("0x1.08944bd159411p+2", "0x1.374891c86781ep-9"),
    ("0x1.3b3a9ba73a686p+1", "0x1.5fe562b4152a3p-10"),
]
FROZEN_COV = [
    ["0x1.31c75de6eba12p-18", "0x1.1c685cc02f287p-18", "0x1.06025c81ccc78p-19"],
    ["0x1.1c685cc02f287p-18", "0x1.7a8166c73f3c7p-18", "0x1.7a4963f8ec0d5p-19"],
    ["0x1.06025c81ccc78p-19", "0x1.7a4963f8ec0d5p-19", "0x1.e3b6d2338e460p-20"],
]


@pytest.mark.parametrize("workers", [1, 2, None])
def test_estimates_match_frozen_bits(workers):
    mc = MCConfig(samples=200_000, seed=23, workers=workers)
    grid = PowerGrid(FROZEN_GRID)
    ratio = capacity.ratio_sweep(4.0, grid, mc)
    assert [tuple(x.hex() for x in (r.rq.value, r.rq.stderr, r.c21.value, r.c21.stderr,
                                    r.ratio, r.ratio_stderr))
            for r in ratio.rows] == FROZEN_RATIO
    gap = regions.gap_sweep(4.0, grid, mc)
    assert [tuple(x.hex() for x in (r.c21.value, r.c21.stderr, r.c22d.value, r.c22d.stderr,
                                    r.tau, r.tau_stderr))
            for r in gap.rows] == FROZEN_GAP
    (point,) = capacity.estimate(("c21", "c22d", "rq"), PowerGrid.single(10.0), mc, 4.0)
    assert [(e.value.hex(), e.stderr.hex()) for e in point.estimates] == FROZEN_ESTIMATE
    assert [[float(x).hex() for x in row] for row in point.mean_cov] == FROZEN_COV


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
        patch.setattr(capacity, "ThreadPoolExecutor", no_pool)
        assert run(1000, 10**6) == run(1000, 1)
    assert threading.active_count() == before

    # three blocks run on no more threads than there are usable CPUs or
    # blocks, whatever was asked for; the calling thread is one of them,
    # so the pool holds one thread fewer
    real_pool = capacity.ThreadPoolExecutor
    samples = 2 * capacity._BLOCK + 1
    for cpus, threads in ((2, 2), (64, 3)):
        sizes = []

        def recording_pool(workers):
            sizes.append(workers)
            return real_pool(workers)

        with monkeypatch.context() as patch:
            patch.setattr(capacity, "_usable_cpus", lambda: cpus)
            patch.setattr(capacity, "ThreadPoolExecutor", recording_pool)
            assert run(samples, 10**6) == run(samples, 1)
        assert sizes == [threads - 1]


def test_finishing_thread_runs_the_blocks_no_pool_thread_started(monkeypatch):
    # with two workers the pool has one thread and the caller is the other:
    # the pool's first block waits until the caller has run a block itself
    monkeypatch.setattr(capacity, "_usable_cpus", lambda: 2)
    caller = threading.get_ident()
    ran = threading.Event()
    in_caller = []
    draw = capacity._draw_moments

    def gated(rng, count, out=None):
        if threading.get_ident() == caller:
            in_caller.append(count)
            ran.set()
        else:
            ran.wait(timeout=5)
        return draw(rng, count, out=out)

    monkeypatch.setattr(capacity, "_draw_moments", gated)
    samples = 3 * capacity._BLOCK + 5
    grid = PowerGrid.single(10.0)
    (shared,) = capacity.estimate(("c21",), grid, MCConfig(samples=samples, seed=5))
    assert in_caller
    (inline,) = capacity.estimate(("c21",), grid, MCConfig(samples=samples, seed=5, workers=1))
    assert shared.estimates == inline.estimates


def test_failed_estimate_leaves_no_pool_thread(monkeypatch):
    # a block's error and the DomainError both surface from estimate once
    # every pool thread has stopped
    monkeypatch.setattr(capacity, "_usable_cpus", lambda: 2)
    mc = MCConfig(samples=3 * capacity._BLOCK + 5, seed=5)
    grid = PowerGrid.single(1e200)
    before = threading.active_count()
    with pytest.raises(DomainError, match="c22d is not finite at P = 1e\\+200"):
        capacity.estimate(("c21", "c22d", "rq"), grid, mc, 4.0)
    assert threading.active_count() == before

    draw = capacity._draw_moments

    def failing(rng, count, out=None):
        if count != capacity._BLOCK:  # the last, partial block
            raise RuntimeError("block failed")
        return draw(rng, count, out=out)

    monkeypatch.setattr(capacity, "_draw_moments", failing)
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
    assert pairs[0].mean_cov > 0.0


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


def test_wyner_zero_gain_recovers_plain_rate():
    # a = 0: the side observation is pure noise, conditional variance is
    # the source variance itself
    mc = MCConfig(samples=1000, seed=4)
    got = capacity.ergodic_wyner_rate(2.0, 3.0, 0.5, capacity.constant_gain(0.0), mc)
    assert got == 2.0


def test_wyner_distortion_at_conditional_variance_is_free():
    cv = 1.0 * 1.0 / (1.0 + 1.0)
    mc = MCConfig(samples=1000, seed=4)
    assert capacity.ergodic_wyner_rate(1.0, 1.0, cv, capacity.constant_gain(1.0), mc) == 0.0


def test_wyner_constant_gain_static_formula():
    sv, nv, a = 1.5, 0.75, 2.0
    cv = sv * nv / (a * a * sv + nv)
    mc = MCConfig(samples=1000, seed=4)
    got = capacity.ergodic_wyner_rate(sv, nv, cv / 2.0, capacity.constant_gain(a), mc)
    assert got == pytest.approx(1.0, abs=1e-15)
    # halving the distortion costs exactly one more bit
    got2 = capacity.ergodic_wyner_rate(sv, nv, cv / 4.0, capacity.constant_gain(a), mc)
    assert got2 == pytest.approx(2.0, abs=1e-14)


def test_wyner_rejects_excess_distortion():
    with pytest.raises(DomainError):
        capacity.ergodic_wyner_rate(1.0, 1.0, 0.6, capacity.constant_gain(1.0),
                                    MCConfig(samples=100, seed=4))
    with pytest.raises(DomainError):
        capacity.ergodic_wyner_rate(1.0, 1.0, 0.0, capacity.constant_gain(1.0),
                                    MCConfig(samples=100, seed=4))


def test_wyner_random_gain_monotone_in_distortion():
    mc = MCConfig(samples=20_000, seed=12)
    r1 = capacity.ergodic_wyner_rate(1.0, 1.0, 0.05, capacity.rayleigh_gain(), mc)
    r2 = capacity.ergodic_wyner_rate(1.0, 1.0, 0.02, capacity.rayleigh_gain(), mc)
    assert 0.0 < r1 < r2


def test_wyner_sampler_contract_enforced():
    mc = MCConfig(samples=100, seed=4)
    with pytest.raises(ValueError):
        capacity.ergodic_wyner_rate(1.0, 1.0, 0.1,
                                    lambda rng, n: np.zeros((n, 2)), mc)
    with pytest.raises(ValueError):
        capacity.ergodic_wyner_rate(1.0, 1.0, 0.1,
                                    lambda rng, n: np.full(n, -1.0), mc)
    with pytest.raises(ValueError):
        capacity.constant_gain(-2.0)
    # numbers of any real type, but not strings, bools or None
    for bad in ("0.5", True, None):
        with pytest.raises(ValueError, match="gain must be a number"):
            capacity.constant_gain(bad)
        for name, args in (("signal_var", (bad, 1.0, 0.1)), ("noise_var", (1.0, bad, 0.1)),
                           ("distortion", (1.0, 1.0, bad))):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                capacity.ergodic_wyner_rate(*args, capacity.constant_gain(0.5), mc)
    assert capacity.ergodic_wyner_rate(np.int64(1), 1, np.float32(0.5),
                                       capacity.constant_gain(np.int64(0)), mc) == 1.0
