"""Rate-region polytopes in the nonnegative quadrant and their gap algebra.

A region is an intersection of half-planes a R1 + b R2 <= c with a, b >= 0,
further cut by R1 >= 0 and R2 >= 0.  Every region handled here is convex,
bounded and downward closed, so its constraint list fixes it and its
vertex polygon is enumerated from that list.

The per-user gap between an outer region and an achievable region is the
smallest uniform erosion of the outer region that fits inside the
achievable one.  Erosion acts on constraints as c -> c - (a + b) tau,
which shifts every boundary line inward by tau along both coordinates.
``per_user_gap`` finds it by bisection for any pair of regions; for the
outer and achievable regions of the scheme, ``gap_closed_form`` gives it
and its gradient exactly, with no polygon built.

Tolerances are fixed module constants, not arguments.  A region's
geometric comparisons allow ``GEOM_TOL * min(1, s)``, where s is its
largest axis intercept |c| / max(a, b), so regions at rates far below 1
keep their shape; a test against two regions allows the larger of their
two tolerances.  The bisection stops within ``BISECT_TOL * min(1, s)``
of the gap, s the outer region's largest axis intercept, so gaps far
below 1 keep their digits too.

The module imports only the standard library and the package at module
level; ``gap_sweep`` imports :mod:`misobc.capacity`, and with it NumPy,
when it runs, so the gap algebra over the closed forms of
:mod:`misobc.oracles` runs in a process that never loads NumPy.  The
annotations that name :mod:`misobc.config` types (``MCConfig``,
``MonteCarloEstimate``) and :mod:`misobc.capacity`'s ``PowerGrid`` are
never evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from . import (GAP_BOUND, MIN_CERTIFIED_DISTORTION, DomainError, _number, _real, _Table,
               check_gap_distortion, write_csv)

GEOM_TOL = 1e-9
BISECT_TOL = 1e-9


@dataclass(frozen=True)
class HalfPlane:
    """Constraint a R1 + b R2 <= c with nonnegative slope coefficients.

    c may go negative (an eroded constraint), in which case the region
    it bounds within the nonnegative quadrant is empty.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = _number(getattr(self, name), name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("slope coefficients must be nonnegative")
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("a and b must not both vanish")


def _convex_hull(points):
    """Monotone-chain hull, counterclockwise from the lexicographic minimum."""
    pts = sorted(points)
    if len(pts) <= 2:
        return pts

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _dedupe(points, tol):
    kept = []
    for p in points:
        if all(abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol for q in kept):
            kept.append(p)
    return kept


@dataclass(frozen=True)
class RateRegion:
    """Bounded intersection of half-planes with the nonnegative quadrant."""

    constraints: tuple[HalfPlane, ...]

    def __post_init__(self):
        try:
            cons = tuple(self.constraints)
        except TypeError:
            cons = None
        if cons is None or not all(isinstance(h, HalfPlane) for h in cons):
            raise ValueError(f"constraints must be an iterable of HalfPlane, "
                             f"got {self.constraints!r}")
        if not cons:
            raise ValueError("need at least one constraint")
        if not any(h.a > 0.0 for h in cons) or not any(h.b > 0.0 for h in cons):
            raise ValueError("constraints leave the region unbounded")
        object.__setattr__(self, "constraints", cons)
        object.__setattr__(self, "_vertices", self._enumerate_vertices())

    @property
    def _scale(self) -> float:
        """min(1, s), s the largest axis intercept |c| / max(a, b) over the
        constraints: the factor the region's tolerances scale by."""
        return min(1.0, max(abs(h.c) / max(h.a, h.b) for h in self.constraints))

    @property
    def tol(self) -> float:
        """Geometric tolerance, ``GEOM_TOL`` scaled down to the region's reach."""
        return GEOM_TOL * self._scale

    def _enumerate_vertices(self):
        cons, tol = self.constraints, self.tol
        cands = [(0.0, 0.0)]
        for h in cons:
            if h.a > 0.0:
                cands.append((h.c / h.a, 0.0))
            if h.b > 0.0:
                cands.append((0.0, h.c / h.b))
        for h1, h2 in combinations(cons, 2):
            det = h1.a * h2.b - h2.a * h1.b
            if abs(det) <= 1e-14 * max(1.0, abs(h1.a * h2.b), abs(h2.a * h1.b)):
                continue
            x = (h1.c * h2.b - h2.c * h1.b) / det
            y = (h1.a * h2.c - h2.a * h1.c) / det
            cands.append((x, y))

        feas = []
        for x, y in cands:
            if x < -tol or y < -tol:
                continue
            x, y = max(x, 0.0), max(y, 0.0)
            if all(h.a * x + h.b * y <= h.c + tol for h in cons):
                feas.append((x, y))
        feas = _dedupe(feas, tol)
        if not feas:
            return ()
        return tuple(_convex_hull(feas))

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """Corner polygon, counterclockwise from the lexicographic minimum."""
        return self._vertices

    def is_empty(self) -> bool:
        return len(self._vertices) == 0

    def max_coordinate(self) -> float:
        if self.is_empty():
            return 0.0
        return max(max(x, y) for x, y in self._vertices)


def outer_region(c21_value: float) -> RateRegion:
    """Weighted outer bound {R1 + 2 R2 <= 2 c21, 2 R1 + R2 <= 2 c21}."""
    c = _real(c21_value, "c21_value")
    return RateRegion((HalfPlane(1.0, 2.0, 2.0 * c), HalfPlane(2.0, 1.0, 2.0 * c)))


def _achievable_rates(c21_value, c22d_value) -> tuple[float, float]:
    """(c21, c22d) as floats, both finite and positive with 3 c21 >= c22d.

    Running the quantizer at distortion 4 or more guarantees the last
    condition at every power.
    """
    c1 = _real(c21_value, "c21_value", positive=True)
    c2 = _real(c22d_value, "c22d_value", positive=True)
    if 3.0 * c1 / c2 < 1.0 - 1e-12:
        raise DomainError(
            f"achievable region needs 3*c21 >= c22d, got 3*{c1:.6g} < {c2:.6g}; "
            "quantizer distortion of at least 4 guarantees the sign"
        )
    return c1, c2


def achievable_region(c21_value: float, c22d_value: float) -> RateRegion:
    """Region {R1 + alpha R2 <= c21, alpha R1 + R2 <= c21}, alpha = 3 c21 / c22d - 1.

    Needs 3 c21 >= c22d so that alpha is nonnegative.
    """
    c1, c2 = _achievable_rates(c21_value, c22d_value)
    alpha = max(3.0 * c1 / c2 - 1.0, 0.0)
    return RateRegion((HalfPlane(1.0, alpha, c1), HalfPlane(alpha, 1.0, c1)))


@dataclass(frozen=True)
class CornerPoints:
    """Labeled corners: A symmetric boundary point, B max-R1, C max-R2."""

    symmetric: tuple[float, float]
    max_r1: tuple[float, float]
    max_r2: tuple[float, float]
    degenerate: bool

    def labeled(self):
        return (("A", self.symmetric), ("B", self.max_r1), ("C", self.max_r2))


def corner_points(region: RateRegion) -> CornerPoints:
    """Locate the three operating corners of a nonempty region.

    The symmetric corner is computed from the constraint list directly
    as min_i c_i / (a_i + b_i), which stays accurate even when two
    boundary lines are nearly parallel.
    """
    if region.is_empty():
        raise ValueError("empty region has no corner points")
    s = min(h.c / (h.a + h.b) for h in region.constraints)
    s = max(s, 0.0)
    verts = region.vertices
    bx, by = max(verts, key=lambda p: (p[0], -p[1]))
    cx, cy = max(verts, key=lambda p: (p[1], -p[0]))
    pts = ((s, s), (bx, by), (cx, cy))
    spread = max(
        max(abs(p[0] - q[0]), abs(p[1] - q[1])) for p in pts for q in pts
    )
    return CornerPoints((s, s), (bx, by), (cx, cy), degenerate=spread <= region.tol)


def erode(region: RateRegion, tau: float) -> RateRegion:
    """Shift every constraint inward by tau along both coordinates.

    Constraint order and coefficients are preserved and the offset
    update is a single multiply-subtract, so eroding by s then t equals
    eroding by s + t whenever the arithmetic is exact.  An erosion deep
    enough to empty the region is representable (offsets go negative).
    """
    t = _real(tau, "tau")
    return RateRegion(
        tuple(HalfPlane(h.a, h.b, h.c - (h.a + h.b) * t) for h in region.constraints)
    )


def is_subset(inner: RateRegion, outer: RateRegion) -> bool:
    """Vertex-against-constraint containment test for convex regions, to
    the larger of their two tolerances."""
    if inner.is_empty():
        return True
    if outer.is_empty():
        return False
    tol = max(inner.tol, outer.tol)
    return all(
        h.a * x + h.b * y <= h.c + tol
        for x, y in inner.vertices
        for h in outer.constraints
    )


def per_user_gap(outer: RateRegion, inner: RateRegion) -> float:
    """Smallest erosion of ``outer`` that fits inside ``inner``, by bisection.

    Requires inner to be contained in outer.  The returned tau satisfies
    erode(outer, tau) inside inner, and no tau smaller by more than
    ``BISECT_TOL * min(1, s)`` does, s the outer region's largest axis
    intercept (or by more than one ulp where s = 0).  The bisection starts
    from the largest vertex coordinate plus min(1, s), so it takes about
    as many steps at any reach.
    """
    if not is_subset(inner, outer):
        raise ValueError("inner region must be contained in the outer region")
    if is_subset(outer, inner):
        return 0.0
    # any erosion past the largest coordinate empties the region
    lo = 0.0
    hi = outer.max_coordinate() + (outer._scale or 1.0)
    if not is_subset(erode(outer, hi), inner):
        raise ValueError("erosion bracket failed, regions are inconsistent")
    stop = BISECT_TOL * outer._scale
    while hi - lo > max(stop, math.ulp(hi)):
        mid = 0.5 * (lo + hi)
        if is_subset(erode(outer, mid), inner):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class GapPoint:
    power: float
    c21: MonteCarloEstimate
    c22d: MonteCarloEstimate
    tau: float
    tau_stderr: float


@dataclass(frozen=True)
class GapReport(_Table):
    """Per-user gap between outer and achievable regions over a power grid."""

    distortion: float
    rows: tuple[GapPoint, ...]

    columns = ("P", "c21", "c21_stderr", "c22d", "c22d_stderr", "tau", "tau_stderr")

    @staticmethod
    def values(r: GapPoint) -> tuple:
        return (r.power, r.c21.value, r.c21.stderr, r.c22d.value, r.c22d.stderr,
                r.tau, r.tau_stderr)

    def max_row(self) -> GapPoint:
        return max(self.rows, key=lambda r: r.tau)


def gap_closed_form(c21_value: float, c22d_value: float) -> tuple[float, float, float]:
    """Gap of outer_region(c21) against achievable_region(c21, c22d) and its
    gradient, (tau, dtau/dc21, dtau/dc22d), for the inputs per_user_gap takes.

    The eroded outer region keeps its symmetric vertex at (2 c21 - 3 tau)/3
    and its axis vertices at c21 - 3 tau/2.  The symmetric one binds while
    c22d >= c21, the axis ones (alpha > 2) below.

    The achievable region lies in the outer one iff its symmetric corner
    (c22d/3, c22d/3) does, that is iff c22d <= 2 c21, to the tolerance
    ``is_subset`` allows these two regions; its axis corners always fit.
    """
    c1, c2 = _achievable_rates(c21_value, c22d_value)
    if c2 > 2.0 * c1 + GEOM_TOL * min(1.0, c1):
        raise ValueError("inner region must be contained in the outer region")
    if c2 >= c1:
        return max(0.0, (2.0 * c1 - c2) / 3.0), 2.0 / 3.0, -1.0 / 3.0
    s = 3.0 * c1 - c2
    tau = 2.0 * c1 * (3.0 * c1 - 2.0 * c2) / (3.0 * s)
    return tau, (2.0 + 2.0 * c2 * c2 / (s * s)) / 3.0, -2.0 * c1 * c1 / (s * s)


def gap_sweep(
    distortion: float = MIN_CERTIFIED_DISTORTION,
    grid: PowerGrid | None = None,
    mc: MCConfig | None = None,
    allow_small_distortion: bool = False,
) -> GapReport:
    """Estimate the per-user gap across a power grid with paired draws.

    tau comes from ``gap_closed_form``.  Its error bar propagates both
    capacity error bars through the analytic gradient of that closed form
    and includes their paired covariance, which the shared channel
    ensemble makes strongly positive.
    """
    from . import capacity

    d = check_gap_distortion(distortion, allow_small_distortion)
    grid = grid or capacity.PowerGrid.default()
    if any(p <= 0.0 for p in grid.points):
        raise ValueError("gap sweep needs strictly positive powers")
    pairs = capacity.paired_sweep("c21", "c22d", grid, mc, distortion=d)

    rows = []
    for pt in pairs:
        first, second = pt.estimates
        try:
            tau, d1, d2 = gap_closed_form(first.value, second.value)
        except ValueError as err:  # a DomainError, or an inner region that does not fit
            raise type(err)(f"gap sweep aborted at P = {pt.power:.6g}: {err}") from err
        var = (
            d1 * d1 * first.stderr**2
            + d2 * d2 * second.stderr**2
            + 2.0 * d1 * d2 * float(pt.mean_cov[0, 1])
        )
        rows.append(GapPoint(pt.power, first, second, tau, math.sqrt(max(var, 0.0))))
    return GapReport(d, tuple(rows))


def write_vertices_csv(region: RateRegion, fp) -> None:
    write_csv(fp, ("R1", "R2"), region.vertices)


def write_corners_csv(corners: CornerPoints, fp) -> None:
    write_csv(fp, ("label", "R1", "R2"), ((label, x, y) for label, (x, y) in corners.labeled()))
    if corners.degenerate:
        fp.write("# degenerate: corners coincide\n")
