"""Region polytopes, erosion algebra and the per-user gap search."""

import ast
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from misobc import GAP_BOUND, capacity, oracles, regions
from misobc.capacity import MCConfig, PowerGrid
from misobc.core import DomainError
from misobc.regions import HalfPlane, RateRegion


def closed_form_gap(c1: float, alpha: float) -> float:
    """Independent gap formula for outer(c1) against the alpha region.

    Eroding the outer region by tau moves its three non-origin vertices
    to (c1 - 1.5 tau, 0), ((2 c1 - 3 tau)/3 twice) and the mirror image.
    Containment of the axis vertex binds at tau = (2/3) c1 (alpha-1)/alpha
    (only for alpha > 1) and of the symmetric vertex at
    tau = c1 (2 alpha - 1) / (3 (1 + alpha)).
    """
    t_sym = c1 * (2.0 * alpha - 1.0) / (3.0 * (1.0 + alpha))
    t_axis = (2.0 / 3.0) * c1 * (alpha - 1.0) / alpha if alpha > 1.0 else 0.0
    return max(t_sym, t_axis, 0.0)


def brute_force_gap(outer: RateRegion, inner: RateRegion) -> float:
    """Dense two-stage grid scan for the smallest admissible erosion."""
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


def random_region(rng) -> RateRegion:
    cons = [
        HalfPlane(1.0, 0.0, float(rng.uniform(0.5, 8.0))),
        HalfPlane(0.0, 1.0, float(rng.uniform(0.5, 8.0))),
    ]
    for _ in range(int(rng.integers(1, 4))):
        a, b = rng.uniform(0.1, 2.0, size=2)
        cons.append(HalfPlane(float(a), float(b), float(rng.uniform(0.5, 10.0))))
    return RateRegion(tuple(cons))


def test_half_plane_validation():
    HalfPlane(1.0, 0.0, -2.0)  # negative offset encodes emptiness
    with pytest.raises(ValueError):
        HalfPlane(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        HalfPlane(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        HalfPlane(1.0, 1.0, math.inf)


@pytest.mark.parametrize("bad", ["2", True, None, np.True_],
                         ids=["string", "bool", "none", "numpy_bool"])
def test_region_inputs_must_be_numbers(bad):
    # a string, bool or None is refused with the argument's name, not
    # read through float() or left to raise a TypeError
    outer = regions.outer_region(3.0)
    inner = regions.achievable_region(3.0, 4.5)
    for name, call in (("a", lambda v: HalfPlane(v, 1.0, 1.0)),
                       ("b", lambda v: HalfPlane(1.0, v, 1.0)),
                       ("c", lambda v: HalfPlane(1.0, 1.0, v)),
                       ("c21_value", regions.outer_region),
                       ("c21_value", lambda v: regions.achievable_region(v, 1.0)),
                       ("c22d_value", lambda v: regions.achievable_region(1.0, v)),
                       ("tau", lambda v: regions.erode(outer, v)),
                       ("c21_value", lambda v: regions.gap_closed_form(v, 1.0)),
                       ("c22d_value", lambda v: regions.gap_closed_form(1.0, v))):
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            call(bad)
    # any real number type, NumPy's too, is still read as a float
    assert regions.outer_region(np.int64(3)) == outer
    assert regions.erode(outer, np.float32(0.5)) == regions.erode(outer, 0.5)
    assert regions.achievable_region(np.int64(3), np.float32(4.5)) == inner


def test_region_requires_bounding_constraints():
    with pytest.raises(ValueError):
        RateRegion((HalfPlane(1.0, 0.0, 2.0),))
    with pytest.raises(ValueError):
        RateRegion(())


@pytest.mark.parametrize("constraints", [5, ("a",), (HalfPlane(1.0, 1.0, 1.0), None)],
                         ids=["not_iterable", "string", "none"])
def test_region_constraints_must_be_half_planes(constraints):
    # refused as PowerGrid refuses its points, not with a TypeError or an
    # AttributeError from inside the vertex enumeration
    with pytest.raises(ValueError, match=r"^constraints must be an iterable of HalfPlane, got "):
        RateRegion(constraints)


def test_outer_region_vertices():
    outer = regions.outer_region(3.0)
    assert outer.vertices == ((0.0, 0.0), (3.0, 0.0), (2.0, 2.0), (0.0, 3.0))


def test_outer_symmetric_corner_is_exact():
    rng = np.random.default_rng(404)
    for _ in range(100):
        c = float(rng.uniform(0.01, 26.0))
        corners = regions.corner_points(regions.outer_region(c))
        assert corners.symmetric == (2.0 * c / 3.0, 2.0 * c / 3.0)


def test_outer_degenerate_at_zero():
    outer = regions.outer_region(0.0)
    assert outer.vertices == ((0.0, 0.0),)
    corners = regions.corner_points(outer)
    assert corners.degenerate
    assert corners.symmetric == (0.0, 0.0)
    assert corners.max_r1 == (0.0, 0.0)


def test_achievable_region_shapes():
    # alpha = 1: the two constraints coincide and the region is a triangle
    tri = regions.achievable_region(3.0, 4.5)
    assert tri.vertices == ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))
    # alpha < 1: flat quadrilateral with axis reach c21
    quad = regions.achievable_region(3.0, 6.0)  # alpha = 0.5
    assert len(quad.vertices) == 4
    assert (3.0, 0.0) in quad.vertices
    assert (2.0, 2.0) in quad.vertices
    # alpha > 1: pointier quadrilateral with axis reach c21/alpha
    quad2 = regions.achievable_region(3.0, 3.0)  # alpha = 2
    assert len(quad2.vertices) == 4
    assert (1.5, 0.0) in quad2.vertices
    assert (1.0, 1.0) in quad2.vertices


@pytest.mark.parametrize("c1", [1e-10, 2.9e-8, 1e-6])
def test_small_rate_regions_keep_their_shape(c1):
    # the tolerance scales with the region's reach, so regions at tiny
    # rates keep every vertex: an absolute 1e-9 merged them into (0, 0)
    def same(verts, expected):
        assert len(verts) == len(expected)
        for p, q in zip(verts, expected):
            assert p == pytest.approx(q, rel=1e-12, abs=0.0)

    outer = regions.outer_region(c1)
    same(outer.vertices, [(0.0, 0.0), (c1, 0.0), (2.0 * c1 / 3.0, 2.0 * c1 / 3.0), (0.0, c1)])
    assert not regions.corner_points(outer).degenerate
    for ratio in (0.8, 1.2, 1.52, 1.8):
        c2 = ratio * c1
        alpha = 3.0 / ratio - 1.0
        reach = c1 / max(1.0, alpha)
        inner = regions.achievable_region(c1, c2)
        same(inner.vertices, [(0.0, 0.0), (reach, 0.0), (c2 / 3.0, c2 / 3.0), (0.0, reach)])
        assert not regions.corner_points(inner).degenerate
        assert regions.is_subset(inner, outer)


def test_achievable_region_precondition():
    with pytest.raises(DomainError):
        regions.achievable_region(1.0, 3.5)
    with pytest.raises(ValueError):
        regions.achievable_region(0.0, 1.0)
    with pytest.raises(ValueError):
        regions.achievable_region(1.0, -1.0)


def test_achievable_symmetric_corner_tracks_c22d_third():
    rng = np.random.default_rng(405)
    for _ in range(200):
        c1 = float(rng.uniform(0.5, 26.0))
        c2 = c1 * float(rng.uniform(1.05, 2.95))
        corners = regions.corner_points(regions.achievable_region(c1, c2))
        sx, sy = corners.symmetric
        assert sx == sy
        assert abs(sx - c2 / 3.0) < 1e-12
        # the corner sits on both boundary lines
        region = regions.achievable_region(c1, c2)
        for h in region.constraints:
            assert abs(h.a * sx + h.b * sy - h.c) < 1e-12


def test_symmetric_point_appears_among_vertices():
    rng = np.random.default_rng(406)
    for _ in range(100):
        c1 = float(rng.uniform(0.5, 20.0))
        ratio = float(rng.uniform(1.05, 2.95))
        alpha = 3.0 / ratio - 1.0
        if abs(alpha - 1.0) < 1e-3:
            continue
        region = regions.achievable_region(c1, ratio * c1)
        s = region.constraints[0].c / (1.0 + region.constraints[0].b)
        target = regions.corner_points(region).symmetric
        best = min(max(abs(x - target[0]), abs(y - target[1]))
                   for x, y in region.vertices)
        assert best < 1e-9, (c1, ratio, s)


def test_vertices_satisfy_constraints():
    rng = np.random.default_rng(407)
    for _ in range(50):
        region = random_region(rng)
        for x, y in region.vertices:
            assert x >= 0.0 and y >= 0.0
            for h in region.constraints:
                assert h.a * x + h.b * y <= h.c + 1e-9


def test_erode_semigroup_exact_on_dyadic_offsets():
    region = RateRegion((
        HalfPlane(1.0, 2.0, 6.5),
        HalfPlane(2.0, 1.0, 6.5),
        HalfPlane(0.5, 1.0, 2.75),
    ))
    s, t = 0.25, 1.5
    twice = regions.erode(regions.erode(region, s), t)
    once = regions.erode(region, s + t)
    assert twice.constraints == once.constraints


def test_erode_semigroup_close_on_arbitrary_offsets():
    rng = np.random.default_rng(409)
    for _ in range(50):
        region = random_region(rng)
        s, t = rng.uniform(0.0, 1.0, size=2)
        twice = regions.erode(regions.erode(region, float(s)), float(t))
        once = regions.erode(region, float(s + t))
        for ha, hb in zip(twice.constraints, once.constraints):
            assert (ha.a, ha.b) == (hb.a, hb.b)
            assert abs(ha.c - hb.c) < 1e-12


def test_erode_monotone_containment():
    rng = np.random.default_rng(410)
    for _ in range(100):
        region = random_region(rng)
        t1 = float(rng.uniform(0.0, 2.0))
        t2 = t1 + float(rng.uniform(0.0, 2.0))
        assert regions.is_subset(regions.erode(region, t2), regions.erode(region, t1))


def test_erode_to_empty_is_representable():
    gone = regions.erode(regions.outer_region(1.0), 10.0)
    assert gone.is_empty()
    assert gone.vertices == ()
    assert regions.is_subset(gone, regions.outer_region(1.0))
    assert not regions.is_subset(regions.outer_region(1.0), gone)
    with pytest.raises(ValueError):
        regions.corner_points(gone)


def test_erode_rejects_negative_tau():
    with pytest.raises(ValueError):
        regions.erode(regions.outer_region(1.0), -0.1)


def test_is_subset_basics():
    outer = regions.outer_region(3.0)
    inner = regions.achievable_region(3.0, 4.5)
    assert regions.is_subset(inner, outer)
    assert regions.is_subset(outer, outer)
    assert not regions.is_subset(outer, inner)


def test_per_user_gap_matches_closed_form():
    rng = np.random.default_rng(411)
    for _ in range(60):
        c1 = float(rng.uniform(0.3, 20.0))
        # containment in the outer region needs ratio <= 2; ratio < 1
        # exercises the alpha > 2 branch where the axis vertex binds
        ratio = float(rng.uniform(0.5, 1.95))
        alpha = 3.0 / ratio - 1.0
        outer = regions.outer_region(c1)
        inner = regions.achievable_region(c1, ratio * c1)
        tau = regions.per_user_gap(outer, inner)
        assert tau == pytest.approx(closed_form_gap(c1, alpha), abs=2e-9)


def test_per_user_gap_brute_force_agreement():
    rng = np.random.default_rng(412)
    for _ in range(10):
        c1 = float(rng.uniform(0.3, 5.0))
        ratio = float(rng.uniform(1.05, 1.95))
        outer = regions.outer_region(c1)
        inner = regions.achievable_region(c1, ratio * c1)
        tau = regions.per_user_gap(outer, inner)
        assert abs(tau - brute_force_gap(outer, inner)) <= 1e-6


def test_per_user_gap_zero_for_equal_regions():
    outer = regions.outer_region(2.0)
    assert regions.per_user_gap(outer, outer) == 0.0
    # a strict superset is not a valid inner region
    box = RateRegion((HalfPlane(1.0, 0.0, 5.0), HalfPlane(0.0, 1.0, 5.0)))
    with pytest.raises(ValueError):
        regions.per_user_gap(outer, box)


def test_per_user_gap_ends_for_an_outer_region_of_reach_0():
    # outer_region(0) is the origin alone, so the bisection's stop scales to
    # 0; it still ends, one ulp above the gap
    point = regions.outer_region(0.0)
    empty = regions.erode(regions.outer_region(1.0), 5.0)
    assert empty.is_empty()
    assert regions.per_user_gap(point, empty) == 5e-324


def test_per_user_gap_bisection_steps_do_not_grow_at_small_rates(monkeypatch):
    # the bracket scales with the reach, as the stop does, so a gap far
    # below 1 takes as many halvings as a gap near 1
    erode = regions.erode

    def erosions(c1):
        count = 0

        def counting(region, tau):
            nonlocal count
            count += 1
            return erode(region, tau)

        monkeypatch.setattr(regions, "erode", counting)
        regions.per_user_gap(regions.outer_region(c1), regions.achievable_region(c1, 1.5 * c1))
        monkeypatch.setattr(regions, "erode", erode)
        return count

    assert abs(erosions(1e-10) - erosions(1.0)) <= 2


def test_per_user_gap_requires_containment():
    outer = regions.outer_region(3.0)
    inner = regions.achievable_region(3.0, 4.5)
    with pytest.raises(ValueError):
        regions.per_user_gap(inner, outer)


def random_rate_pairs(rng, count):
    """(c21, c22d) pairs with c22d/c21 in (0.2, 2): either vertex may bind."""
    for _ in range(count):
        c1 = float(rng.uniform(0.3, 20.0))
        yield c1, float(rng.uniform(0.2, 1.99)) * c1


def test_gap_closed_form_matches_bisection():
    # the bisection stops within BISECT_TOL * min(1, c21), so it checks the
    # closed form relatively at rates as small as c21 = 1e-10, too
    rng = np.random.default_rng(413)
    pairs = list(random_rate_pairs(rng, 200))
    pairs += [(c1 * s, c2 * s) for (c1, c2), s in zip(random_rate_pairs(rng, 100),
                                                       np.logspace(-10, -1, 100) / 0.3)]
    pairs.append((1e-10, 1.5e-10))
    below = 0
    for c1, c2 in pairs:
        below += c2 < c1
        tau = regions.gap_closed_form(c1, c2)[0]
        outer = regions.outer_region(c1)
        inner = regions.achievable_region(c1, c2)
        bisected = regions.per_user_gap(outer, inner)
        assert abs(tau - bisected) <= regions.BISECT_TOL * min(1.0, c1)
        assert bisected == pytest.approx(tau, rel=1e-6, abs=0.0)
        assert tau == pytest.approx(closed_form_gap(c1, 3.0 * c1 / c2 - 1.0),
                                    abs=1e-12 * min(1.0, c1))
    assert 0 < below < len(pairs)
    assert regions.gap_closed_form(2.0, 4.0)[0] == 0.0


def test_gap_closed_form_gradient_matches_differences():
    def tau_of(c1, c2):
        return regions.gap_closed_form(c1, c2)[0]

    rng = np.random.default_rng(414)
    for c1, c2 in random_rate_pairs(rng, 100):
        if abs(c2 / c1 - 1.0) < 0.01:
            continue  # the gradient jumps where the binding vertex switches
        _, d1, d2 = regions.gap_closed_form(c1, c2)
        h = 1e-6 * c1
        num1 = (tau_of(c1 + h, c2) - tau_of(c1 - h, c2)) / (2.0 * h)
        num2 = (tau_of(c1, c2 + h) - tau_of(c1, c2 - h)) / (2.0 * h)
        assert d1 == pytest.approx(num1, rel=1e-6, abs=1e-8)
        assert d2 == pytest.approx(num2, rel=1e-6, abs=1e-8)


def test_gap_closed_form_rejects_what_bisection_rejects():
    # 3 c21 < c22d leaves alpha negative; c22d > 2 c21 breaks containment
    for c1, c2, err in ((1.0, 3.5, DomainError), (1.0, 2.5, ValueError), (0.0, 1.0, ValueError)):
        with pytest.raises(ValueError) as bisection:
            regions.per_user_gap(regions.outer_region(c1), regions.achievable_region(c1, c2))
        with pytest.raises(ValueError) as closed:
            regions.gap_closed_form(c1, c2)
        assert bisection.type is closed.type is err


def test_gap_closed_form_rejects_where_is_subset_does():
    # containment is one inequality, c22d <= 2 c21 to the outer region's
    # tolerance; it must agree with the vertex test on both sides of the
    # edge at every scale, and where D = 0 pushes c22d/c21 towards 2
    rng = np.random.default_rng(415)
    pairs = []
    for _ in range(1500):
        c1 = float(10.0 ** rng.uniform(-10.0, 3.0))
        pairs.append((c1, c1 * float(rng.uniform(0.2, 2.9))))
        tol = regions.GEOM_TOL * min(1.0, c1)
        pairs.append((c1, 2.0 * c1 + float(rng.uniform(-3.0, 3.0)) * tol))
    pairs += [(capacity.c21_oracle(p), capacity.c22d_oracle(p, 0.0))
              for p in np.logspace(-4.0, 10.0, 57).tolist()]
    rejected = 0
    for c1, c2 in pairs:
        inside = regions.is_subset(regions.achievable_region(c1, c2), regions.outer_region(c1))
        try:
            regions.gap_closed_form(c1, c2)
        except ValueError as err:
            assert type(err) is ValueError
            assert not inside, (c1, c2)
            rejected += 1
        else:
            assert inside, (c1, c2)
    assert 0 < rejected < len(pairs)


def test_gap_sweep_builds_no_polytope(monkeypatch):
    def no_vertices(self):
        raise AssertionError("gap_sweep enumerated a polygon")

    monkeypatch.setattr(RateRegion, "_enumerate_vertices", no_vertices)
    report = regions.gap_sweep(4.0, PowerGrid((1.0, 10.0)), MCConfig(samples=2000, seed=6))
    assert len(report.rows) == 2
    with pytest.raises(AssertionError):
        regions.outer_region(1.0)


def test_regions_imports_no_numpy():
    tree = ast.parse(Path(regions.__file__).read_text(encoding="utf-8"))
    imports = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    imports |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module}
    assert not any(m.split(".")[0] == "numpy" for m in imports)


# The exact certificate on 50 log-spaced powers from 1e-2 to 1e4, in a
# fresh interpreter: it prints the largest gap, the largest rq / c21 and
# the loaded modules that need NumPy.
EXACT_PROBE = """
import json, sys
from misobc import oracles, regions
powers = [10.0 ** (-2.0 + 6.0 * k / 49) for k in range(50)]
tau = max(regions.gap_closed_form(oracles.c21_oracle(p), oracles.c22d_oracle(p, 4.0))[0]
          for p in powers)
ratio = max(oracles.rq_oracle(p, 4.0) / oracles.c21_oracle(p) for p in powers)
print(json.dumps([tau, ratio, sorted({"numpy", "misobc.core", "misobc.capacity"}
                                     & set(sys.modules))]))
"""


def test_exact_certificate_runs_without_numpy():
    src = str(Path(regions.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", EXACT_PROBE], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    tau, ratio, loaded = json.loads(done.stdout)
    assert loaded == []
    # the same maxima as on PowerGrid.default(), whose points differ in the last ulps
    grid = PowerGrid.default().points
    expect = max(regions.gap_closed_form(oracles.c21_oracle(p), oracles.c22d_oracle(p, 4.0))[0]
                 for p in grid)
    assert tau == pytest.approx(expect, rel=1e-14, abs=0.0) and tau <= GAP_BOUND
    assert ratio == pytest.approx(max(oracles.rq_oracle(p, 4.0) / oracles.c21_oracle(p)
                                      for p in grid), rel=1e-14, abs=0.0) and ratio < 1.0


def test_gap_sweep_small_grid():
    grid = PowerGrid((1.0, 10.0, 100.0))
    mc = MCConfig(samples=20_000, seed=6)
    report = regions.gap_sweep(4.0, grid, mc)
    assert report.distortion == 4.0
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.tau >= 0.0
        assert row.tau_stderr >= 0.0
        assert row.tau == regions.gap_closed_form(row.c21.value, row.c22d.value)[0]
    top = report.max_row()
    assert top.tau == max(r.tau for r in report.rows)


def test_gap_sweep_guards_distortion():
    grid = PowerGrid.single(1.0)
    mc = MCConfig(samples=1000, seed=6)
    with pytest.raises(ValueError, match="below the certified choice 4; "
                                         "pass allow_small_distortion=True to run anyway"):
        regions.gap_sweep(3.0, grid, mc)
    report = regions.gap_sweep(3.0, grid, mc, allow_small_distortion=True)
    assert len(report.rows) == 1
    with pytest.raises(ValueError):
        regions.gap_sweep(4.0, PowerGrid((0.0, 1.0)), mc)


@pytest.mark.parametrize("samples, error, refusal", [
    (2, ValueError, "inner region must be contained in the outer region"),
    (1, DomainError, "achievable region needs 3*c21 >= c22d"),
])
def test_gap_sweep_names_the_power_of_either_refusal(samples, error, refusal):
    # at D = 1e-6 and P = 0.001 a few samples give a c22d past what
    # gap_closed_form takes: past 2 c21 from two samples, past 3 c21 from one
    mc = MCConfig(samples=samples, seed=1)
    with pytest.raises(error) as info:
        regions.gap_sweep(1e-6, PowerGrid.single(0.001), mc, allow_small_distortion=True)
    assert type(info.value) is error
    assert str(info.value).startswith(f"gap sweep aborted at P = 0.001: {refusal}")


def test_gap_report_serialization():
    report = regions.gap_sweep(4.0, PowerGrid.single(2.0), MCConfig(samples=1000, seed=6))
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "P,c21,c21_stderr,c22d,c22d_stderr,tau,tau_stderr"
    assert len(lines) == 2
    rows = report.to_json()
    assert set(rows[0]) == {"P", "c21", "c21_stderr", "c22d", "c22d_stderr",
                            "tau", "tau_stderr"}


def test_corner_tie_breaks():
    # rectangle: B is the max-R1 vertex nearest the axis, C the max-R2 one
    rect = RateRegion((HalfPlane(1.0, 0.0, 2.0), HalfPlane(0.0, 1.0, 1.0)))
    corners = regions.corner_points(rect)
    assert corners.max_r1 == (2.0, 0.0)
    assert corners.max_r2 == (0.0, 1.0)
    assert corners.symmetric == (1.0, 1.0)
    assert not corners.degenerate


def test_vertex_csv_round_trip():
    region = regions.achievable_region(3.0, 5.0)
    buf = io.StringIO()
    regions.write_vertices_csv(region, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "R1,R2"
    pts = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(pts) == len(region.vertices) == 4
    for p, q in zip(pts, region.vertices):
        assert p == pytest.approx(q, rel=1e-11, abs=0.0)


def test_corner_csv_format():
    corners = regions.corner_points(regions.outer_region(3.0))
    buf = io.StringIO()
    regions.write_corners_csv(corners, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "label,R1,R2"
    assert lines[1].startswith("A,")
    assert lines[2].startswith("B,")
    assert lines[3].startswith("C,")
    assert len(lines) == 4

    # R1 + R2 <= 0 leaves the origin alone, where all three corners coincide
    corners = regions.corner_points(RateRegion((HalfPlane(1.0, 1.0, 0.0),)))
    assert corners.degenerate
    buf = io.StringIO()
    regions.write_corners_csv(corners, buf)
    assert buf.getvalue().splitlines() == ["label,R1,R2", "A,0,0", "B,0,0", "C,0,0",
                                           "# degenerate: corners coincide"]
