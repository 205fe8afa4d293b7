"""Acceptance gate: one test per certification claim, at full sample sizes.

Each test prints its measured numbers so a verbose run documents the
margins, and asserts the claim at its stated tolerance and time limit.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from misobc import DEFAULT_SEED, capacity, core, quantizer, rd, regions, scheme
from misobc.capacity import MCConfig, PowerGrid
from misobc.core import DomainError
from misobc.regions import HalfPlane, RateRegion

FULL = MCConfig(samples=10**6, seed=DEFAULT_SEED)

# Ergodic 2x1 capacity at reference powers, frozen from two independent
# high-precision evaluations of the closed form (exponential-integral
# series and adaptive quadrature agreeing to 1e-13).
GOLDEN_C21 = {
    1.0: 0.92140803717305653,
    2.0: 1.4426950408889634,
    10.0: 3.1662525061024752,
    100.0: 6.2815343559427342,
}


def random_region(rng) -> RateRegion:
    cons = [
        HalfPlane(1.0, 0.0, float(rng.uniform(0.5, 8.0))),
        HalfPlane(0.0, 1.0, float(rng.uniform(0.5, 8.0))),
    ]
    for _ in range(int(rng.integers(1, 4))):
        a, b = rng.uniform(0.1, 2.0, size=2)
        cons.append(HalfPlane(float(a), float(b), float(rng.uniform(0.5, 10.0))))
    return RateRegion(tuple(cons))


def brute_force_gap(outer: RateRegion, inner: RateRegion) -> float:
    hi = outer.max_coordinate() + 1.0
    taus = np.linspace(0.0, hi, 2001)
    lo_b, hi_b = taus[-1], hi
    prev = 0.0
    for t in taus[1:]:
        if regions.is_subset(regions.erode(outer, float(t)), inner):
            lo_b, hi_b = prev, float(t)
            break
        prev = float(t)
    for t in np.linspace(lo_b, hi_b, 4001):
        if regions.is_subset(regions.erode(outer, float(t)), inner):
            return float(t)
    return hi_b


def brute_force_two_level(va, na, vb, nb, budget):
    """Dense scan over the distortion split of a two-level variance set."""
    n = na + nb
    best = math.inf
    lo = max(1e-9, (budget * n - nb * vb) / na)
    hi = min(va, budget * n / na - 1e-12)
    for da in np.linspace(lo, hi, 200_001):
        db = (budget * n - na * da) / nb
        if da <= 0.0 or db <= 0.0 or da > va or db > vb + 1e-15:
            continue
        rate = (na * math.log2(va / da) + nb * math.log2(vb / min(db, vb))) / n
        best = min(best, rate)
    return best


def test_criterion_1_certified_distortion_ratio_stays_below_one():
    start = time.perf_counter()
    table = capacity.ratio_sweep(4.0, PowerGrid.default(), FULL)
    elapsed = time.perf_counter() - start
    assert len(table.rows) == 50
    worst = max(table.rows, key=lambda r: r.ratio - 3.0 * r.ratio_stderr)
    margin = min(1.0 + 3.0 * r.ratio_stderr - r.ratio for r in table.rows)
    print(f"criterion 1: max ratio {table.max_row().ratio:.6f} at "
          f"P = {table.max_row().power:.4g}, min margin {margin:.3e}, "
          f"{elapsed:.1f} s")
    for row in table.rows:
        assert row.ratio <= 1.0 + 3.0 * row.ratio_stderr, (row.power, row.ratio)
    assert worst.ratio <= 1.0 + 3.0 * worst.ratio_stderr
    assert elapsed < 60.0


def test_criterion_2_smaller_distortion_ratio_and_monotone_curves():
    table = capacity.ratio_sweep(3.0, PowerGrid.default(), FULL)
    assert len(table.rows) == 50
    for row in table.rows:
        assert row.ratio <= 1.0 + 3.0 * row.ratio_stderr, (row.power, row.ratio)
    rq_vals = [r.rq.value for r in table.rows]
    c21_vals = [r.c21.value for r in table.rows]
    assert all(b > a for a, b in zip(rq_vals, rq_vals[1:]))
    assert all(b > a for a, b in zip(c21_vals, c21_vals[1:]))
    print(f"criterion 2: max ratio {table.max_row().ratio:.6f}, "
          f"both curves strictly increasing over {len(table.rows)} points")


def test_criterion_3_per_user_gap_stays_below_bound():
    start = time.perf_counter()
    report = regions.gap_sweep(4.0, PowerGrid.default(), FULL)
    elapsed = time.perf_counter() - start
    assert len(report.rows) == 50
    top = report.max_row()
    print(f"criterion 3: max tau {top.tau:.6f} +- {top.tau_stderr:.2e} at "
          f"P = {top.power:.4g}, bound {regions.GAP_BOUND}, {elapsed:.1f} s")
    for row in report.rows:
        assert row.tau <= regions.GAP_BOUND + 3.0 * row.tau_stderr, \
            (row.power, row.tau)
    assert elapsed < 120.0


def test_criterion_4_capacity_estimator_matches_quadrature_oracle():
    for power, golden in GOLDEN_C21.items():
        # the frozen fixture itself must match a fresh closed-form evaluation
        assert capacity.c21_oracle(power) == pytest.approx(golden, abs=1e-10)
        est = capacity.c21(power, FULL)
        tol = max(3.0 * est.stderr, 0.005 * golden)
        print(f"criterion 4: P = {power:g}, estimate {est.value:.6f} "
              f"vs oracle {golden:.6f} (tol {tol:.2e})")
        assert abs(est.value - golden) <= tol


def test_criterion_5_dithered_quantizer_error_statistics():
    distortion = 4.0
    step = quantizer.step_for_distortion(distortion)
    n = 10**6
    signal = math.sqrt(10.0) * core.sample_cn01(core.stream(77, 1), n)
    q = quantizer.DitheredQuantizer(step, dither_seed=77)
    _, recon = q.quantize(signal)
    err = recon - signal

    dims = np.ascontiguousarray(err).view(np.float64)
    in_dims = np.ascontiguousarray(signal).view(np.float64)
    var = float(np.var(dims))
    target = step**2 / 12.0
    corr_in = abs(float(np.corrcoef(dims, in_dims)[0, 1]))
    corr_lag = abs(float(np.corrcoef(dims[1:], dims[:-1])[0, 1]))
    ks = sps.kstest(dims, "uniform", args=(-step / 2.0, step))
    print(f"criterion 5: err var {var:.6f} vs {target:.6f}, input corr "
          f"{corr_in:.2e}, lag-1 corr {corr_lag:.2e}, KS p {ks.pvalue:.3f}")
    assert var == pytest.approx(target, rel=0.01)
    assert corr_in < 0.01
    assert corr_lag < 0.01
    assert ks.pvalue > 0.01


def test_criterion_6_full_scheme_run_statistics_and_accounting():
    cfg = scheme.SchemeConfig(n=256, power=10.0, distortion=4.0)
    start = time.perf_counter()
    t = scheme.run_scheme(cfg)
    elapsed = time.perf_counter() - start

    # the MI estimates against the exact rate, which is also the run's reference
    exact = capacity.c22d_oracle(cfg.power, cfg.distortion)
    assert t.reference["c22d"] == exact
    tol1 = 3.0 * t.mi.user1.stderr
    tol2 = 3.0 * t.mi.user2.stderr
    print(f"criterion 6: noise vars ({t.stats.noise_var_user1:.4f}, "
          f"{t.stats.noise_var_user2:.4f}) vs 5.0, mi "
          f"({t.mi.user1.value:.4f}, {t.mi.user2.value:.4f}) vs "
          f"c22d {exact:.4f} (tol {tol1:.1e}, {tol2:.1e}), {elapsed:.1f} s")

    assert t.stats.noise_var_user1 == pytest.approx(5.0, rel=0.05)
    assert t.stats.noise_var_user2 == pytest.approx(5.0, rel=0.05)
    assert t.stats.signal_corr_user1 < 0.02
    assert t.stats.signal_corr_user2 < 0.02
    assert abs(t.mi.user1.value - exact) < tol1
    assert abs(t.mi.user2.value - exact) < tol2
    assert np.array_equal(scheme.interleave(scheme.interleave(t.u1)), t.u1)
    assert np.array_equal(t.x1, scheme.interleave(t.u1))
    assert t.audit.ok()
    assert t.audit.min_margin() >= 1
    assert elapsed < 30.0


def test_criterion_7_region_algebra_and_gap_search():
    # erosion composes additively, bit for bit on dyadic data
    region = RateRegion((
        HalfPlane(1.0, 2.0, 6.5),
        HalfPlane(2.0, 1.0, 6.5),
        HalfPlane(0.5, 1.0, 2.75),
    ))
    twice = regions.erode(regions.erode(region, 0.25), 1.5)
    assert twice.constraints == regions.erode(region, 1.75).constraints

    # deeper erosions stay nested, 100 random regions
    rng = np.random.default_rng(501)
    for _ in range(100):
        r = random_region(rng)
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = t1 + float(rng.uniform(0.0, 2.0))
        assert regions.is_subset(regions.erode(r, t2), regions.erode(r, t1))

    # corner positions
    for _ in range(100):
        c1 = float(rng.uniform(0.5, 20.0))
        c2 = c1 * float(rng.uniform(1.05, 1.95))
        sx, sy = regions.corner_points(regions.achievable_region(c1, c2)).symmetric
        assert sx == sy
        assert abs(sx - c2 / 3.0) < 1e-12
        outer_sym = regions.corner_points(regions.outer_region(c1)).symmetric
        assert outer_sym == (2.0 * c1 / 3.0, 2.0 * c1 / 3.0)

    # bisection agrees with a dense two-stage grid scan
    worst = 0.0
    for _ in range(50):
        c1 = float(rng.uniform(0.3, 5.0))
        c2 = c1 * float(rng.uniform(1.05, 1.95))
        outer = regions.outer_region(c1)
        inner = regions.achievable_region(c1, c2)
        tau = regions.per_user_gap(outer, inner)
        worst = max(worst, abs(tau - brute_force_gap(outer, inner)))
    print(f"criterion 7: worst bisection vs grid-scan deviation {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_8_rate_distortion_helpers():
    rng = np.random.default_rng(502)
    # the optimal allocation never loses to the uniform one
    for _ in range(100):
        variances = np.exp(rng.normal(size=int(rng.integers(1, 8)), scale=1.0))
        budget = float(rng.uniform(0.05, 1.0) * variances.max())
        opt = rd.rd_reverse_waterfill(variances, budget)
        sub = rd.rd_suboptimal(variances, budget)
        assert opt <= sub + 1e-12

    # equal-variance sets collapse to one closed form, exactly
    assert rd.rd_reverse_waterfill([4.0], 1.0) == 2.0
    assert rd.rd_reverse_waterfill([8.0, 8.0], 2.0) == 2.0
    assert rd.rd_reverse_waterfill([1.0, 1.0, 1.0], 1.0) == 0.0
    assert rd.rd_suboptimal([1.0], 1.0) == 1.0
    assert rd.rd_suboptimal([3.0, 3.0], 1.0) == 2.0

    # two-level sets against a dense scan over the distortion split
    worst = 0.0
    for _ in range(10):
        va = float(rng.uniform(2.0, 6.0))
        vb = float(rng.uniform(0.2, 1.5))
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        budget = float(rng.uniform(0.3, 0.9) * vb)
        got = rd.rd_reverse_waterfill([va] * na + [vb] * nb, budget)
        ref = brute_force_two_level(va, na, vb, nb, budget)
        worst = max(worst, abs(got - ref))
    print(f"criterion 8: worst waterfill vs dense-scan deviation {worst:.2e}")
    assert worst <= 1e-6

    # side-information rate: three exactly solvable settings
    assert rd.ergodic_wyner_rate(4.0, 9.0, 1.0, 0.0) == 2.0
    assert rd.ergodic_wyner_rate(1.0, 1.0, 0.25, 1.0) == 1.0
    assert rd.ergodic_wyner_rate(1.0, 1.0, 0.5, 1.0) == 0.0
    with pytest.raises(DomainError):
        rd.ergodic_wyner_rate(1.0, 1.0, 0.6, 1.0)
