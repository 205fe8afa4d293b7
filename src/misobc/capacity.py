"""Ergodic rate curves for the two-user broadcast setting.

Three Monte Carlo quantities share one channel ensemble:

* ``c21``  : ergodic capacity of a 2x1 Rayleigh channel with isotropic
  inputs, E log2(1 + (P/2) |h|^2).
* ``c22d`` : ergodic log-det rate of a 2x2 channel whose second row is
  observed through additive noise of variance 1 + D, i.e. the rate of
  the effective channel diag(1, 1+D)^(-1/2) H with white inputs.
* ``rq``   : rate needed to forward a quantized overheard mixture,
  E log2(1 + (P/(2D)) (|g|^2 + |h|^2)).

``estimate`` evaluates any of them on one channel ensemble (common random
numbers) and returns the covariance of the sample means, so ratios and
differences get error bars far tighter than their individual ones.
``c21``, ``c22d``, ``rq``, ``sweep`` and ``paired_sweep`` are views of it.

The ensemble is drawn in fixed blocks of 2^16 samples; block k comes
from the Philox stream ``core.stream(seed, StreamTag.CAPACITY_CHANNEL,
k)``, so the samples depend only on the seed and the sample count.
Each sample is drawn directly as the statistics the rates depend on,
from four i.i.d. Exp(1) variables, or two where c21 alone is asked for
(see ``_build_block``); no Gaussian matrix is formed
(``core.sample_cn01`` and ``core.logdet_capacity_term`` serve the
scheme).  Workers only schedule blocks and the per-block sums are added
in block order, so every estimate is bit-identical for any worker
count.  Each cross product sum v_i v_k of a block is one ``np.einsum``
reduction, not a BLAS dot whose summation split follows the BLAS thread
count, so estimates are bit-identical under any BLAS thread setting
too.  One worker runs per usable CPU, never more than there are blocks
(``core.thread_count``); no parameter sets the count.  A block runs in one
scratch array of ``_scratch_rows(quantities, points)`` rows of 2^16
doubles, ``points`` being the grid length: the Exp(1) rows are drawn
into it one at a time, the rate polynomials are built there in place,
and on several powers the log-rates go to rows the polynomials no
longer read.  On one power nothing reads a polynomial again once its
log-rates are formed, so they overwrite its last row; the README tables
the row counts.  The calling thread allocates one array
per worker before any block runs, and the blocks of one ``estimate``
call take turns with them.  Each block's sums are added to the totals
as it completes, in block order, and ``core.run_tasks`` keeps at most
two blocks per worker in flight, so transient memory is
workers * rows * 2^16 * 8 bytes plus a few small arrays per worker at
any sample count, which grows with the host's CPU count.
A power at which a rate argument overflows a double, or a nonzero
estimate's squared error bar underflows one, raises ``DomainError``.

``estimate`` runs its blocks through ``core.run_tasks``: w > 1 workers
are w pool threads, and one worker (one usable CPU or one block) runs
inline in the calling thread with no pool.

The closed forms of the three quantities, the estimator's references,
are in the standard-library :mod:`misobc.oracles`; ``c21_oracle``,
``c22d_oracle`` and ``rq_oracle`` are also reachable here under their
names.  The run parameters ``MCConfig`` and the result type
``MonteCarloEstimate`` are defined in the standard-library
:mod:`misobc.config` and reachable here too.
Result tables write CSV and JSON through the package's ``_Table`` base
class, which ``regions`` shares.  The scalar rate-distortion helpers,
the ergodic rate with decoder side information among them, are closed
forms in the standard-library :mod:`misobc.rd`.
"""

from __future__ import annotations

import math
import queue
import sys
from dataclasses import dataclass

import numpy as np

from . import LN2, DomainError, _integer, _number, _real, _Table, core
from .config import MCConfig, MonteCarloEstimate
from .core import StreamTag
from .oracles import c21_oracle, c22d_oracle, rq_oracle  # noqa: F401  (re-exported)

QUANTITIES = ("c21", "c22d", "rq")

_BLOCK = 2**16


@dataclass(frozen=True)
class PowerGrid:
    """Strictly increasing nonnegative transmit power points (linear scale):
    an iterable of numbers as ``misobc._real`` takes them (no strings or
    bools)."""

    points: tuple[float, ...]

    def __post_init__(self):
        try:
            pts = tuple(_real(p, "grid point") for p in self.points)
        except TypeError:
            raise ValueError(f"grid points must be an iterable of numbers, "
                             f"got {self.points!r}") from None
        if len(pts) == 0:
            raise ValueError("grid must contain at least one point")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def default(num: int = 50, lo: float = 1e-2, hi: float = 1e4) -> "PowerGrid":
        """``num`` log-spaced points from ``lo`` to ``hi``: an integer as
        ``misobc._integer`` takes it and two numbers as ``misobc._number``
        takes them."""
        num = _integer(num, "grid point count must be an integer")
        lo, hi = _number(lo, "lo"), _number(hi, "hi")
        if num < 1:
            raise ValueError(f"grid needs at least one point, got {num}")
        if not 0.0 < lo < hi < math.inf:
            raise ValueError(f"grid endpoints need 0 < lo < hi < inf, got lo={lo!r}, hi={hi!r}")
        return PowerGrid(tuple(np.logspace(math.log10(lo), math.log10(hi), num)))

    @staticmethod
    def single(power: float) -> "PowerGrid":
        return PowerGrid((power,))


def _check_quantity(quantity: str, distortion) -> None:
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
    if quantity != "c21":
        _real(distortion, f"distortion for {quantity}", positive=quantity == "rq")


# rows a quantity's rate polynomial holds through a block
_POLY_ROWS = {"c21": 1, "c22d": 2, "rq": 1}


def _scratch_rows(quantities, points: int) -> int:
    """Rows of a block's scratch array for ``quantities``, distinct ones, on
    a grid of ``points`` powers: the rows of each quantity's rate
    polynomial, plus a log-rate row per quantity on several powers (on one,
    the log-rates overwrite the polynomial's last row), and at least the
    rows ``_build_block`` takes while it builds: two for c21 alone, four for
    c22d with rq (c22d's linear term then takes a row of its own), and three
    otherwise."""
    names = set(quantities)
    build = 2 if names == {"c21"} else 4 if {"c22d", "rq"} <= names else 3
    return max(build, sum(_POLY_ROWS[q] + (points > 1) for q in quantities))


def _build_block(rng: np.random.Generator, rows, quantities, distortion,
                 points: int) -> tuple[list, list]:
    """Draw one block of the channel ensemble into ``rows``, the
    ``_scratch_rows(quantities, points)`` rows of a scratch array, and build
    each quantity's rate polynomial there in place.

    The rate of one draw is ln(1 + c lin + c^2 quad) nats with c = scale * P;
    each quantity gives (scale, lin, quad), quad None if linear.  The
    polynomials are read from the moments of a 2x2 CN(0, 1) matrix, drawn
    exactly: every |h_ij|^2 is Exp(1), so norm1 = E1 + E2.  CN(0, I) rows
    are invariant under unitary maps, so rotating row 2 by a unitary that
    depends only on row 1, with first column (-h12, h11) / sqrt(norm1),
    leaves its components i.i.d. CN(0, 1) and independent of row 1.  The
    first rotated component is det H / sqrt(norm1), hence norm2 = E3 + E4
    and |det H|^2 = norm1 E4.  The Exp(1) rows are drawn one at a time, in
    stream order, and E3 and E4 only for c22d or rq; c22d's rows go first,
    because rq's row overwrites norm2.  A row is taken when it is needed
    and given back once nothing reads it, so E3 lands in E2's row.

    Returns the polynomials in the order of ``quantities`` and one row per
    quantity for its log-rates: on a grid of several ``points``, a free row;
    on one, the last row of its own polynomial (quad for c22d, lin
    otherwise), which nothing reads after the log-rates overwrite it.
    """
    free = list(reversed(rows))

    def draw():
        row = free.pop()
        rng.standard_exponential(out=row)
        return row

    polys = {}
    norm1, e2 = draw(), draw()
    norm1 += e2
    free.append(e2)
    if set(quantities) != {"c21"}:
        norm2, e4 = draw(), draw()
        norm2 += e4
        if "c22d" in quantities:
            s2 = 1.0 + float(distortion)
            e4 *= norm1  # |det H|^2
            lin = free.pop() if "rq" in quantities else norm2
            np.divide(norm2, s2, out=lin)
            lin += norm1
            e4 /= s2
            polys["c22d"] = (0.5, lin, e4)
        else:
            free.append(e4)
        if "rq" in quantities:
            norm2 += norm1
            polys["rq"] = (0.5 / float(distortion), norm2, None)
    if "c21" in quantities:
        polys["c21"] = (0.5, norm1, None)
    else:
        free.append(norm1)
    ordered = [polys[q] for q in quantities]
    if points == 1:
        return ordered, [lin if quad is None else quad for _, lin, quad in ordered]
    return ordered, [free.pop() for _ in quantities]


@dataclass(frozen=True, eq=False)
class Estimates:
    """Estimates of several quantities at one power from one ensemble, with
    the covariance matrix of their sample means (divided by the sample count)."""

    power: float
    estimates: tuple[MonteCarloEstimate, ...]
    mean_cov: np.ndarray


def estimate(
    quantities: tuple[str, ...],
    grid: PowerGrid,
    mc: MCConfig | None = None,
    distortion: float | None = None,
) -> tuple[Estimates, ...]:
    """Sample means, in bits, of every quantity at every grid power over one
    shared ensemble.  ``distortion`` applies to c22d and rq; giving one to
    c21 alone is an error.  A DomainError names the first quantity and
    power whose sums are not finite, which happens once c lin + c^2 quad
    overflows a double (c21 and rq near P = 1e308, c22d near 1e154), and
    likewise, for more than one sample, the first nonzero estimate whose
    squared error bar falls below the smallest normal double, where its
    squared terms underflow (c21 below about P = 1e-151 at 10^6 samples).

    ``quantities`` are one or more distinct names; an empty or repeated
    tuple, or a bare string, raises ValueError before any sample is
    drawn.  The scratch arrays are allocated in the calling thread, and
    the blocks run through ``core.run_tasks``: on w pool threads for w > 1 workers,
    inline for one, w being ``core.thread_count`` of the blocks.  Each
    block's sums are added as it completes, in block order, so the totals
    do not depend on the worker count and no block's sums are kept, and
    an error surfaces only once every pool thread has stopped."""
    if isinstance(quantities, str):
        raise ValueError(f"quantities must be a tuple of names, not the string {quantities!r}")
    if not quantities or len(set(quantities)) != len(quantities):
        raise ValueError(f"quantities must be one or more distinct names, got {quantities!r}")
    mc = mc or MCConfig()
    if distortion is not None and set(quantities) == {"c21"}:
        raise ValueError("c21 takes no distortion parameter")
    for q in quantities:
        _check_quantity(q, distortion)
    npow = len(grid.points)
    nker = len(quantities)
    jobs = range(-(-mc.samples // _BLOCK))

    # one scratch array per worker of ``core.run_tasks``, sized to the
    # quantities' rows and allocated here in the calling thread (pool
    # threads would take it from their own malloc arenas); a block takes a
    # free array, and at most one block per worker runs at once
    shape = (_scratch_rows(quantities, npow), min(_BLOCK, mc.samples))
    scratch = queue.SimpleQueue()
    for _ in range(core.thread_count(len(jobs))):
        scratch.put(np.empty(shape))

    def block(index):
        count = min(_BLOCK, mc.samples - index * _BLOCK)
        rows = scratch.get()
        try:
            polys, logs = _build_block(core.stream(mc.seed, StreamTag.CAPACITY_CHANNEL, index),
                                       list(rows[:, :count]), quantities, distortion, npow)
            s1 = np.empty((npow, nker))
            s2 = np.empty((npow, nker, nker))
            # a rate argument that overflows is reported below, as a DomainError
            with np.errstate(over="ignore", invalid="ignore"):
                for j, power in enumerate(grid.points):
                    for (scale, lin, quad), v in zip(polys, logs):
                        c = scale * power
                        if quad is None:
                            np.multiply(lin, c, out=v)
                        else:
                            np.multiply(quad, c, out=v)
                            v += lin
                            v *= c
                        np.log1p(v, out=v)
                    for i, v in enumerate(logs):
                        s1[j, i] = v.sum()
                        for k in range(i + 1):
                            s2[j, i, k] = s2[j, k, i] = np.einsum("i,i->", v, logs[k])
        finally:
            scratch.put(rows)
        return s1, s2

    S1 = np.zeros((npow, nker))
    S2 = np.zeros((npow, nker, nker))
    for s1, s2 in core.run_tasks(block, jobs):
        S1 += s1
        S2 += s2
    finite = np.isfinite(S1) & np.isfinite(np.diagonal(S2, axis1=1, axis2=2))
    if not finite.all():
        j, i = np.argwhere(~finite)[0]
        raise DomainError(f"{quantities[i]} is not finite at P = {grid.points[j]:g}: "
                          "its rate argument overflows a double")

    n = mc.samples
    values = S1 / (n * LN2)
    # one sample gives S2 == S1 S1 exactly, hence a zero covariance
    mean_cov = (S2 - S1[:, :, None] * S1[:, None, :] / n) / (max(n - 1, 1) * n * LN2 * LN2)
    var = np.diagonal(mean_cov, axis1=1, axis2=2)
    tiny = (S1 != 0.0) & (var < sys.float_info.min) & (n > 1)
    if tiny.any():
        j, i = np.argwhere(tiny)[0]
        raise DomainError(f"{quantities[i]} is too small at P = {grid.points[j]:g}: "
                          "its error bar underflows a double")
    stderr = np.sqrt(np.maximum(var, 0.0))
    return tuple(
        Estimates(p, tuple(MonteCarloEstimate(float(v), float(e), n, mc.seed)
                           for v, e in zip(values[j], stderr[j])), mean_cov[j])
        for j, p in enumerate(grid.points)
    )


def c21(power: float, mc: MCConfig | None = None) -> MonteCarloEstimate:
    """Ergodic 2x1 capacity E log2(1 + (power/2) |h|^2), |h|^2 ~ Gamma(2, 1)."""
    return estimate(("c21",), PowerGrid.single(power), mc)[0].estimates[0]


def c22d(power: float, distortion: float, mc: MCConfig | None = None) -> MonteCarloEstimate:
    """Ergodic 2x2 log-det rate with the second row noised up to 1 + distortion.

    distortion = 0 recovers the classical 2x2 ergodic capacity.
    """
    return estimate(("c22d",), PowerGrid.single(power), mc, distortion)[0].estimates[0]


def rq(power: float, distortion: float, mc: MCConfig | None = None) -> MonteCarloEstimate:
    """Forwarding rate E log2(1 + (power/(2 distortion)) (|g|^2 + |h|^2)).

    The argument sums two independent row norms, so the fading gain is
    Gamma(4, 1) distributed.
    """
    return estimate(("rq",), PowerGrid.single(power), mc, distortion)[0].estimates[0]


@dataclass(frozen=True)
class SweepRow:
    power: float
    estimate: MonteCarloEstimate


@dataclass(frozen=True)
class SweepTable(_Table):
    """One quantity evaluated over a power grid with shared draws."""

    quantity: str
    distortion: float | None
    rows: tuple[SweepRow, ...]

    columns = ("P", "value", "stderr", "samples", "seed")

    @staticmethod
    def values(r: SweepRow) -> tuple:
        e = r.estimate
        return r.power, e.value, e.stderr, e.samples, e.seed


def sweep(
    quantity: str,
    grid: PowerGrid | None = None,
    mc: MCConfig | None = None,
    distortion: float | None = None,
) -> SweepTable:
    """Evaluate one quantity across a power grid on common channel draws."""
    points = estimate((quantity,), grid or PowerGrid.default(), mc, distortion)
    rows = tuple(SweepRow(e.power, e.estimates[0]) for e in points)
    return SweepTable(quantity, None if distortion is None else float(distortion), rows)


def paired_sweep(
    quantity_a: str,
    quantity_b: str,
    grid: PowerGrid | None = None,
    mc: MCConfig | None = None,
    distortion: float | None = None,
) -> tuple[Estimates, ...]:
    """Sweep two quantities on the same draws, tracking paired covariance.

    Each point's ``estimates`` are (quantity_a, quantity_b), and
    ``mean_cov[0, 1]`` is the covariance of the two sample means, already
    divided by the sample count, ready for delta-method error propagation.
    """
    return estimate((quantity_a, quantity_b), grid or PowerGrid.default(), mc, distortion)


@dataclass(frozen=True)
class RatioRow:
    power: float
    rq: MonteCarloEstimate
    c21: MonteCarloEstimate
    ratio: float
    ratio_stderr: float


@dataclass(frozen=True)
class RatioTable(_Table):
    """rq / c21 over a grid, with delta-method error bars on the ratio."""

    distortion: float
    rows: tuple[RatioRow, ...]

    columns = ("P", "rq", "c21", "ratio", "ratio_stderr")

    @staticmethod
    def values(r: RatioRow) -> tuple:
        return r.power, r.rq.value, r.c21.value, r.ratio, r.ratio_stderr

    def max_row(self) -> RatioRow:
        return max(self.rows, key=lambda r: r.ratio)


def ratio_sweep(
    distortion: float,
    grid: PowerGrid | None = None,
    mc: MCConfig | None = None,
) -> RatioTable:
    """Sweep rq(distortion) / c21 with paired draws.

    Paired sampling makes the ratio error bars much smaller than the
    quotient of the individual ones; the stderr combines both variances
    and their covariance by the delta method.  A power at which c21**4,
    a term of that error bar, falls below the smallest normal double
    (c21 below about 1.2e-77) raises ``DomainError``.
    """
    grid = grid or PowerGrid.default()
    if any(p <= 0.0 for p in grid.points):
        raise ValueError("ratio is undefined at zero power, use positive grid points")
    pairs = paired_sweep("rq", "c21", grid, mc, distortion=distortion)
    rows = []
    for pt in pairs:
        first, second = pt.estimates
        a, b = first.value, second.value
        if b**4 < sys.float_info.min:
            raise DomainError(f"c21 is too small at P = {pt.power:g}: "
                              "the ratio's error bar underflows a double")
        va, vb = first.stderr**2, second.stderr**2
        ratio = a / b
        var = va / b**2 + (a * a) * vb / b**4 - 2.0 * a * float(pt.mean_cov[0, 1]) / b**3
        rows.append(RatioRow(pt.power, first, second, ratio, math.sqrt(max(var, 0.0))))
    return RatioTable(float(distortion), tuple(rows))

