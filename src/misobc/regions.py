"""Rate-region polytopes in the nonnegative quadrant and their gap algebra.

A region is an intersection of half-planes a R1 + b R2 <= c with a, b >= 0,
further cut by R1 >= 0 and R2 >= 0.  Every region handled here is convex,
bounded and downward closed, so it is fully described either by its
constraint list or by its vertex polygon; both directions are provided.

The per-user gap between an outer region and an achievable region is the
smallest uniform erosion of the outer region that fits inside the
achievable one.  Erosion acts on constraints as c -> c - (a + b) tau,
which shifts every boundary line inward by tau along both coordinates.
``per_user_gap`` finds it by bisection for any pair of regions; for the
outer and achievable regions of the scheme, ``gap_closed_form`` gives it
and its gradient exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import (GAP_BOUND, MIN_CERTIFIED_DISTORTION, DomainError, _number, capacity,
               check_gap_distortion)
from .capacity import MCConfig, MonteCarloEstimate, PowerGrid, _Table, write_csv

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
        cons = tuple(self.constraints)
        if not cons:
            raise ValueError("need at least one constraint")
        if not any(h.a > 0.0 for h in cons) or not any(h.b > 0.0 for h in cons):
            raise ValueError("constraints leave the region unbounded")
        object.__setattr__(self, "constraints", cons)
        object.__setattr__(self, "_vertices", self._enumerate_vertices())

    def _enumerate_vertices(self):
        cons = self.constraints
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
            if x < -GEOM_TOL or y < -GEOM_TOL:
                continue
            x, y = max(x, 0.0), max(y, 0.0)
            if all(h.a * x + h.b * y <= h.c + GEOM_TOL for h in cons):
                feas.append((x, y))
        feas = _dedupe(feas, GEOM_TOL)
        if not feas:
            return ()
        return tuple(_convex_hull(feas))

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """Corner polygon, counterclockwise from the lexicographic minimum."""
        return self._vertices

    def is_empty(self) -> bool:
        return len(self._vertices) == 0

    def contains(self, point, tol: float = GEOM_TOL) -> bool:
        x, y = float(point[0]), float(point[1])
        if x < -tol or y < -tol:
            return False
        return all(h.a * x + h.b * y <= h.c + tol for h in self.constraints)

    def max_coordinate(self) -> float:
        if self.is_empty():
            return 0.0
        return max(max(x, y) for x, y in self._vertices)

    @classmethod
    def from_vertices(cls, points) -> "RateRegion":
        """Rebuild a constraint description from a vertex polygon.

        The result describes the same set (to geometric tolerance); its
        constraint list is not required to match the one the vertices
        came from.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (m, 2) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if np.any(pts < -GEOM_TOL):
            raise ValueError("points must lie in the nonnegative quadrant")
        pts = np.maximum(pts, 0.0)
        hull = _convex_hull(_dedupe([tuple(p) for p in pts], GEOM_TOL))

        xmax = float(max(p[0] for p in hull))
        ymax = float(max(p[1] for p in hull))
        cons = [HalfPlane(1.0, 0.0, xmax), HalfPlane(0.0, 1.0, ymax)]
        if len(hull) >= 3:
            m = len(hull)
            for i in range(m):
                px, py = hull[i]
                qx, qy = hull[(i + 1) % m]
                # outward normal of a counterclockwise edge
                na, nb = qy - py, px - qx
                norm = math.hypot(na, nb)
                if norm == 0.0:
                    continue
                na, nb = na / norm, nb / norm
                if na < -GEOM_TOL or nb < -GEOM_TOL:
                    continue
                na, nb = max(na, 0.0), max(nb, 0.0)
                if na == 0.0 and nb == 0.0:
                    continue
                cons.append(HalfPlane(na, nb, max(na * px + nb * py, na * qx + nb * qy)))
        return cls(tuple(cons))


def outer_region(c21_value: float) -> RateRegion:
    """Weighted outer bound {R1 + 2 R2 <= 2 c21, 2 R1 + R2 <= 2 c21}."""
    c = _number(c21_value, "c21_value")
    if not math.isfinite(c) or c < 0.0:
        raise ValueError("c21 must be finite and nonnegative")
    return RateRegion((HalfPlane(1.0, 2.0, 2.0 * c), HalfPlane(2.0, 1.0, 2.0 * c)))


def achievable_region(c21_value: float, c22d_value: float) -> RateRegion:
    """Region {R1 + alpha R2 <= c21, alpha R1 + R2 <= c21}, alpha = 3 c21 / c22d - 1.

    Needs 3 c21 >= c22d so that alpha is nonnegative; running the
    quantizer at distortion 4 or more guarantees that at every power.
    """
    c1 = _number(c21_value, "c21_value")
    c2 = _number(c22d_value, "c22d_value")
    if not math.isfinite(c1) or c1 <= 0.0:
        raise ValueError("c21 must be finite and positive")
    if not math.isfinite(c2) or c2 <= 0.0:
        raise ValueError("c22d must be finite and positive")
    ratio = 3.0 * c1 / c2
    if ratio < 1.0 - 1e-12:
        raise DomainError(
            f"achievable region needs 3*c21 >= c22d, got 3*{c1:.6g} < {c2:.6g}; "
            "quantizer distortion of at least 4 guarantees the sign"
        )
    alpha = max(ratio - 1.0, 0.0)
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
    return CornerPoints((s, s), (bx, by), (cx, cy), degenerate=spread <= GEOM_TOL)


def erode(region: RateRegion, tau: float) -> RateRegion:
    """Shift every constraint inward by tau along both coordinates.

    Constraint order and coefficients are preserved and the offset
    update is a single multiply-subtract, so eroding by s then t equals
    eroding by s + t whenever the arithmetic is exact.  An erosion deep
    enough to empty the region is representable (offsets go negative).
    """
    t = _number(tau, "tau")
    if not math.isfinite(t) or t < 0.0:
        raise ValueError("tau must be finite and nonnegative")
    return RateRegion(
        tuple(HalfPlane(h.a, h.b, h.c - (h.a + h.b) * t) for h in region.constraints)
    )


def is_subset(inner: RateRegion, outer: RateRegion, tol: float = GEOM_TOL) -> bool:
    """Vertex-against-constraint containment test for convex regions."""
    if inner.is_empty():
        return True
    if outer.is_empty():
        return False
    return all(
        h.a * x + h.b * y <= h.c + tol
        for x, y in inner.vertices
        for h in outer.constraints
    )


def per_user_gap(outer: RateRegion, inner: RateRegion, tol: float = BISECT_TOL) -> float:
    """Smallest erosion of ``outer`` that fits inside ``inner``, by bisection.

    Requires inner to be contained in outer.  The returned tau satisfies
    erode(outer, tau) inside inner, and no tau smaller by more than tol
    does.
    """
    if not is_subset(inner, outer):
        raise ValueError("inner region must be contained in the outer region")
    if is_subset(outer, inner):
        return 0.0
    lo = 0.0
    hi = outer.max_coordinate() + 1.0
    if not is_subset(erode(outer, hi), inner):
        raise ValueError("erosion bracket failed, regions are inconsistent")
    while hi - lo > tol:
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
    """
    c1 = _number(c21_value, "c21_value")
    c2 = _number(c22d_value, "c22d_value")
    if not is_subset(achievable_region(c1, c2), outer_region(c1)):
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
    d = check_gap_distortion(distortion, allow_small_distortion)
    grid = grid or PowerGrid.default()
    if any(p <= 0.0 for p in grid.points):
        raise ValueError("gap sweep needs strictly positive powers")
    pairs = capacity.paired_sweep("c21", "c22d", grid, mc, distortion=d)

    rows = []
    for pt in pairs:
        try:
            tau, d1, d2 = gap_closed_form(pt.first.value, pt.second.value)
        except DomainError as err:
            raise DomainError(f"gap sweep aborted at P = {pt.power:.6g}: {err}") from err
        var = (
            d1 * d1 * pt.first.stderr**2
            + d2 * d2 * pt.second.stderr**2
            + 2.0 * d1 * d2 * pt.mean_cov
        )
        rows.append(GapPoint(pt.power, pt.first, pt.second, tau, math.sqrt(max(var, 0.0))))
    return GapReport(d, tuple(rows))


def write_vertices_csv(region: RateRegion, fp) -> None:
    write_csv(fp, ("R1", "R2"), region.vertices)


def write_corners_csv(corners: CornerPoints, fp) -> None:
    write_csv(fp, ("label", "R1", "R2"), ((label, x, y) for label, (x, y) in corners.labeled()))
    if corners.degenerate:
        fp.write("# degenerate: corners coincide\n")
