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
Each sample is drawn directly as the three statistics the rates depend
on, from four i.i.d. Exp(1) variables (see ``_draw_moments``); no
Gaussian matrix is formed (``core.sample_cn01`` and
``core.logdet_capacity_term`` serve the scheme).  Workers only schedule
blocks and the per-block sums are added in block order, so every
estimate is bit-identical for any worker count.  By default one worker runs per
usable CPU; no call runs more workers than there are usable CPUs or
blocks.  A block runs in a scratch set: the four Exp(1) rows, in which
the moments and the kernel rows are built in place, and one row of
log-rates per quantity.  The calling thread allocates one set per
worker before any block runs, and the blocks of one ``estimate`` call
take turns with them, so for k quantities transient memory is
workers * (4 + k) * 2^16 * 8 bytes at any sample count; with the
default that grows with the host's CPU count.  A power at which a rate
argument overflows a double raises ``DomainError``.

``estimate`` runs in two private steps, so that ``scheme.run_scheme``
can do its own work in between.  ``_start`` validates, allocates the
scratch sets and, with w > 1 workers, submits every block to a pool of
w - 1 threads; ``_finish`` makes the calling thread the last worker: it
runs every block no pool thread has started, collects the others, adds
the block sums in block order, shuts the pool down and checks for
overflow.  With one worker ``_start`` submits nothing and ``_finish``
runs every block inline.

``c21_oracle`` and ``rq_oracle`` evaluate c21 and rq in closed form, as
sums of scaled exponential integrals e^z E_m(z) computed with the
standard library alone, as references for the estimator.  Result
tables write CSV and JSON through one path: ``write_csv`` and the
``_Table`` base class, which ``regions`` shares.

The module also carries the ergodic conditional rate-distortion rate
with decoder side information, which draws its gains from the seeded
streams; the closed-form scalar helpers (reverse waterfilling and the
one-level rate) are in :mod:`misobc.rd`.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import (DEFAULT_SAMPLES, DEFAULT_SEED, DomainError, _fmt, _integer, _number, _round12,
               _seed, core)
from .core import LN2, StreamTag

QUANTITIES = ("c21", "c22d", "rq")

_BLOCK = 2**16


def write_csv(fp, columns, rows) -> None:
    """A header of ``columns``, then one line per row of values: floats as
    ``_fmt`` writes them, ints and labels as they are."""
    fp.write(",".join(columns) + "\n")
    for row in rows:
        fp.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


class _Table:
    """Result rows written as CSV or JSON under ``columns``; a table gives
    ``columns`` and ``values(row)``, the row's cells in that order."""

    def to_csv(self, fp) -> None:
        write_csv(fp, self.columns, map(self.values, self.rows))

    def to_json(self) -> list[dict]:
        """One ``{column: value}`` record per row, floats rounded by ``_round12``."""
        return [{c: _round12(v) if isinstance(v, float) else v
                 for c, v in zip(self.columns, self.values(r))} for r in self.rows]


@dataclass(frozen=True)
class MCConfig:
    """Sample count, master seed and worker count for one estimator run.

    ``samples`` (at least 1) and ``seed`` (non-negative) are integers of
    any integer type, NumPy's too, and are stored as int; a bool, float or
    string is rejected with a ValueError that names the field.
    ``workers`` is the number of threads over the fixed sample blocks;
    None (the default) means one per usable CPU.  Either way no more
    threads run, and no more scratch sets are allocated, than there are
    usable CPUs or blocks, and the caller's thread is one of the
    workers: w workers start a pool of w - 1 threads, and one block or
    one worker starts none.
    Each scratch set holds (4 + k) * 2^16 float64 values for k
    quantities; the calling thread allocates one per worker before any
    block runs.  Results do not depend on the worker count; they are
    bit-identical for a fixed BLAS thread setting, since the cross
    products are BLAS dot products whose summation split follows
    OpenBLAS's thread count.
    """

    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    workers: int | None = None

    def __post_init__(self):
        samples = _integer(self.samples, "samples must be an integer")
        if samples < 1:
            raise ValueError("samples must be at least 1")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.workers is None:
            return
        w = _integer(self.workers, "workers must be an integer or None")
        if w < 1:
            raise ValueError("workers must be at least 1")
        object.__setattr__(self, "workers", w)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _thread_count(tasks: int, requested: int | None = None) -> int:
    """Threads to run ``tasks`` independent tasks on: ``requested`` (None:
    as many as there are tasks), never more than the usable CPUs or the tasks."""
    return min(requested or tasks, _usable_cpus(), tasks)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A sample mean with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class PowerGrid:
    """Strictly increasing nonnegative transmit power points (linear scale),
    numbers as ``misobc._number`` takes them (no strings or bools)."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(_number(p, "grid point") for p in self.points)
        if len(pts) == 0:
            raise ValueError("grid must contain at least one point")
        if any(not math.isfinite(p) or p < 0.0 for p in pts):
            raise ValueError("grid points must be finite and nonnegative")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def default(num: int = 50, lo: float = 1e-2, hi: float = 1e4) -> "PowerGrid":
        """``num`` log-spaced points from ``lo`` to ``hi``."""
        if num < 1:
            raise ValueError(f"grid needs at least one point, got {num}")
        if not 0.0 < lo < hi < math.inf:
            raise ValueError(f"grid endpoints need 0 < lo < hi < inf, got lo={lo!r}, hi={hi!r}")
        return PowerGrid(tuple(np.logspace(math.log10(lo), math.log10(hi), num)))

    @staticmethod
    def single(power: float) -> "PowerGrid":
        return PowerGrid((power,))


class ChannelMoments(NamedTuple):
    """Sufficient statistics for one batch of 2x2 Rayleigh draws."""

    norm1: np.ndarray  # squared norm of row 1
    norm2: np.ndarray  # squared norm of row 2
    det2: np.ndarray  # squared magnitude of the 2x2 determinant


def _draw_moments(
    rng: np.random.Generator, count: int, out: np.ndarray | None = None
) -> ChannelMoments:
    """Draw the moments of ``count`` i.i.d. 2x2 CN(0, 1) matrices, exactly.

    Every |h_ij|^2 is Exp(1), so norm1 = E1 + E2.  CN(0, I) rows are
    invariant under unitary maps, so rotating row 2 by a unitary that
    depends only on row 1, with first column (-h12, h11) / sqrt(norm1),
    leaves its components i.i.d. CN(0, 1) and independent of row 1.  The
    first rotated component is det H / sqrt(norm1), hence norm2 = E3 + E4
    and |det H|^2 = norm1 E4.

    The four Exp(1) rows are drawn into ``out`` (a C-ordered (4, count)
    float64 array) if given and become (norm1, E2, norm2, det2) in place.
    """
    e = rng.standard_exponential((4, count), out=out)
    e[0] += e[1]
    e[2] += e[3]
    e[3] *= e[0]
    return ChannelMoments(e[0], e[2], e[3])


def _check_quantity(quantity: str, distortion) -> None:
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
    if quantity == "c21":
        return
    d = _number(distortion, f"distortion for {quantity}")
    if not math.isfinite(d) or d < 0.0 or (quantity == "rq" and d == 0.0):
        sign = "positive" if quantity == "rq" else "nonnegative"
        raise ValueError(f"distortion must be finite and {sign} for {quantity}")


def _rate_polys(m: np.ndarray, quantities, distortion) -> list:
    """Per-draw rate of each quantity as a polynomial in the power.

    The rate of one draw is ln(1 + c lin + c^2 quad) nats with c = scale * P;
    each quantity gives (scale, lin, quad), quad None if linear.  The rows
    are built in place in the moment rows m = (norm1, spare, norm2, det2):
    c22d goes first, because rq's row overwrites norm2.
    """
    polys = {}
    if "c22d" in quantities:
        s2 = 1.0 + float(distortion)
        np.divide(m[2], s2, out=m[1])
        m[1] += m[0]
        m[3] /= s2
        polys["c22d"] = (0.5, m[1], m[3])
    if "rq" in quantities:
        m[2] += m[0]
        polys["rq"] = (0.5 / float(distortion), m[2], None)
    if "c21" in quantities:
        polys["c21"] = (0.5, m[0], None)
    return [polys[q] for q in quantities]


def _blocks(samples: int) -> list[tuple[int, int]]:
    """(index, count) of the fixed sample blocks; only the last may be partial."""
    full, rest = divmod(int(samples), _BLOCK)
    return [(k, _BLOCK) for k in range(full)] + ([(full, rest)] if rest else [])


@dataclass(frozen=True, eq=False)
class Estimates:
    """Estimates of several quantities at one power from one ensemble, with
    the covariance matrix of their sample means (divided by the sample count)."""

    power: float
    estimates: tuple[MonteCarloEstimate, ...]
    mean_cov: np.ndarray


class _Pending(NamedTuple):
    """An ``estimate`` call between ``_start`` and ``_finish``: the block
    function, the blocks, and per block its pool future or None."""

    quantities: tuple[str, ...]
    grid: PowerGrid
    mc: MCConfig
    block: Callable
    jobs: list
    futures: list
    pool: ThreadPoolExecutor | None


def _start(quantities, grid, mc, distortion) -> _Pending:
    """Validate, allocate the scratch sets in the calling thread and, with
    w > 1 workers, submit every block to a new pool of w - 1 threads;
    with one worker nothing runs until ``_finish`` runs the blocks."""
    mc = mc or MCConfig()
    if distortion is not None and set(quantities) == {"c21"}:
        raise ValueError("c21 takes no distortion parameter")
    for q in quantities:
        _check_quantity(q, distortion)
    npow = len(grid.points)
    nker = len(quantities)
    jobs = _blocks(mc.samples)
    workers = _thread_count(len(jobs), mc.workers)

    # one scratch set per worker, allocated here in the calling thread
    # (pool threads would take them from their own malloc arenas); a block
    # takes a free set, and at most ``workers`` blocks run at once
    width = jobs[0][1]
    scratch = queue.SimpleQueue()
    for _ in range(workers):
        scratch.put((np.empty(4 * width), np.empty((nker, width))))

    def block(job):
        index, count = job
        flat, rows = scratch.get()
        try:
            m = flat[:4 * count].reshape(4, count)
            _draw_moments(core.stream(mc.seed, StreamTag.CAPACITY_CHANNEL, index), count, out=m)
            polys = _rate_polys(m, quantities, distortion)
            v = rows[:, :count]
            s1 = np.empty((npow, nker))
            s2 = np.empty((npow, nker, nker))
            # a rate argument that overflows is reported by _finish, as a DomainError
            with np.errstate(over="ignore", invalid="ignore"):
                for j, power in enumerate(grid.points):
                    for i, (scale, lin, quad) in enumerate(polys):
                        c = scale * power
                        if quad is None:
                            np.multiply(lin, c, out=v[i])
                        else:
                            np.multiply(quad, c, out=v[i])
                            v[i] += lin
                            v[i] *= c
                        np.log1p(v[i], out=v[i])
                    for i in range(nker):
                        s1[j, i] = v[i].sum()
                        for k in range(i + 1):
                            s2[j, i, k] = s2[j, k, i] = v[i] @ v[k]
        finally:
            scratch.put((flat, rows))
        return s1, s2

    if workers == 1:
        return _Pending(quantities, grid, mc, block, jobs, [None] * len(jobs), None)
    # the thread that calls _finish is the last worker
    pool = ThreadPoolExecutor(workers - 1)
    try:
        futures = [pool.submit(block, job) for job in jobs]
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    return _Pending(quantities, grid, mc, block, jobs, futures, pool)


def _finish(pending: _Pending) -> tuple[Estimates, ...]:
    """Run in this thread every block that no pool thread has started,
    collect the others, add the block sums in block order, so the totals
    do not depend on the worker count, and shut the pool down, on error
    too; then turn the totals into estimates or raise the DomainError."""
    quantities, grid, mc = pending.quantities, pending.grid, pending.mc
    S1 = np.zeros((len(grid.points), len(quantities)))
    S2 = np.zeros((len(grid.points), len(quantities), len(quantities)))
    try:
        sums = [pending.block(job) if future is None or future.cancel() else None
                for job, future in zip(pending.jobs, pending.futures)]
        for block_sums, future in zip(sums, pending.futures):
            s1, s2 = block_sums or future.result()
            S1 += s1
            S2 += s2
    finally:
        if pending.pool is not None:
            pending.pool.shutdown(cancel_futures=True)
    finite = np.isfinite(S1) & np.isfinite(np.diagonal(S2, axis1=1, axis2=2))
    if not finite.all():
        j, i = np.argwhere(~finite)[0]
        raise DomainError(f"{quantities[i]} is not finite at P = {grid.points[j]:g}: "
                          "its rate argument overflows a double")

    n = mc.samples
    values = S1 / (n * LN2)
    # one sample gives S2 == S1 S1 exactly, hence a zero covariance
    mean_cov = (S2 - S1[:, :, None] * S1[:, None, :] / n) / (max(n - 1, 1) * n * LN2 * LN2)
    stderr = np.sqrt(np.maximum(np.diagonal(mean_cov, axis1=1, axis2=2), 0.0))
    return tuple(
        Estimates(p, tuple(MonteCarloEstimate(float(v), float(e), n, mc.seed)
                           for v, e in zip(values[j], stderr[j])), mean_cov[j])
        for j, p in enumerate(grid.points)
    )


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
    overflows a double (c21 and rq near P = 1e308, c22d near 1e154).

    The call is ``_finish(_start(...))``: a caller with other work, such
    as ``scheme.run_scheme``, does it between the two steps while the
    pool runs blocks, and then runs the blocks the pool has not started."""
    return _finish(_start(quantities, grid, mc, distortion))


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


_EULER = 0.5772156649015329
_EXPINT_MAX_TERMS = 1000


def _scaled_expint(m: int, z: float) -> float:
    """e^z E_m(z), the scaled exponential integral, for an integer m >= 1
    and z > 0, with the standard library alone.

    For z <= 1 it sums the power series of E_m (A&S 5.1.12, with the
    psi(m) term at index m - 1) and multiplies by e^z.  For z in
    (1, 1e9] it evaluates the even form of the continued fraction
    A&S 5.1.22 by the modified Lentz method, which yields the scaled
    value directly, so nothing overflows.  Beyond 1e9 the value is
    1/(z + m) to within m/z^2 relative (4e-18 at m = 4); that also covers
    z near the largest double, where the fraction's 1/(z + m) is
    subnormal and it stalls, and z = inf, where it would compute
    inf * 0.  A sum or fraction that has not converged after 1000 terms
    (a NaN z) raises ArithmeticError rather than looping on.
    """
    if z > 1e9:
        return 1.0 / (z + m)
    if z > 1.0:
        b = z + m
        c = 1e300  # Lentz's start, 1/tiny, for the fraction's zero leading term
        d = h = 1.0 / b
        for i in range(1, _EXPINT_MAX_TERMS):
            a = -i * (m - 1 + i)
            b += 2.0
            d = 1.0 / (a * d + b)
            c = b + a / c
            delta = c * d
            h *= delta
            if abs(delta - 1.0) <= 2.0**-53:
                return h
    else:
        psi = -_EULER + sum(1.0 / k for k in range(1, m))
        total = 1.0 / (m - 1) if m > 1 else -_EULER - math.log(z)
        fact = 1.0
        for i in range(1, _EXPINT_MAX_TERMS):
            fact *= -z / i
            term = fact * (psi - math.log(z)) if i == m - 1 else -fact / (i - m + 1)
            total += term
            if abs(term) <= abs(total) * 2.0**-53:
                return total * math.exp(z)
    raise ArithmeticError(f"e^z E_{m}(z) did not converge at z = {z!r}")


def _oracle_power(power) -> float:
    p = _number(power, "power")
    if not math.isfinite(p) or p < 0.0:
        raise ValueError("power must be finite and nonnegative")
    return p


def c21_oracle(power: float) -> float:
    """Closed-form value of c21, independent of the sampling path.

    For X ~ Gamma(k, 1) with integer k, E ln(1 + a X) is the sum of
    e^z E_m(z) over m = 1..k with z = 1/a.  c21 has k = 2 and
    a = power/2, so it is (e^z E1(z) + e^z E2(z)) / ln 2 with z = 2/power:
    two positive terms, which ``_scaled_expint`` evaluates with the
    standard library alone.  The result is within 4e-15 relative of
    50-digit mpmath for powers from 1e-6 to 1e6, and finite and
    nonnegative for every finite power.
    """
    p = _oracle_power(power)
    if p == 0.0:
        return 0.0
    z = 2.0 / p
    return (_scaled_expint(1, z) + _scaled_expint(2, z)) / LN2


def rq_oracle(power: float, distortion: float) -> float:
    """Closed-form value of rq, independent of the sampling path.

    The fading gain of rq is Gamma(4, 1) and a = power/(2 distortion), so
    rq is the sum of e^z E_m(z) over m = 1..4, divided by ln 2, with
    z = 2 distortion/power.  ``distortion`` is checked as ``rq`` checks
    it.  A DomainError is raised where z underflows to 0, that is where
    the rate argument overflows a double, as the estimator does there.
    """
    p = _oracle_power(power)
    _check_quantity("rq", distortion)
    if p == 0.0:
        return 0.0
    z = 2.0 * (float(distortion) / p)
    if z == 0.0:
        raise DomainError(f"rq is not finite at P = {p:g}: its rate argument overflows a double")
    return sum(_scaled_expint(m, z) for m in range(1, 5)) / LN2


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


@dataclass(frozen=True)
class PairedPoint:
    """Two estimates from identical draws plus the covariance of their means."""

    power: float
    first: MonteCarloEstimate
    second: MonteCarloEstimate
    mean_cov: float


def paired_sweep(
    quantity_a: str,
    quantity_b: str,
    grid: PowerGrid | None = None,
    mc: MCConfig | None = None,
    distortion: float | None = None,
) -> tuple[PairedPoint, ...]:
    """Sweep two quantities on the same draws, tracking paired covariance.

    The covariance refers to the two sample means, already divided by
    the sample count, ready for delta-method error propagation.
    """
    points = estimate((quantity_a, quantity_b), grid or PowerGrid.default(), mc, distortion)
    return tuple(PairedPoint(e.power, *e.estimates, float(e.mean_cov[0, 1])) for e in points)


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
    and their covariance by the delta method.
    """
    grid = grid or PowerGrid.default()
    if any(p <= 0.0 for p in grid.points):
        raise ValueError("ratio is undefined at zero power, use positive grid points")
    pairs = paired_sweep("rq", "c21", grid, mc, distortion=distortion)
    rows = []
    for pt in pairs:
        a, b = pt.first.value, pt.second.value
        va, vb = pt.first.stderr**2, pt.second.stderr**2
        ratio = a / b
        var = va / b**2 + (a * a) * vb / b**4 - 2.0 * a * pt.mean_cov / b**3
        rows.append(RatioRow(pt.power, pt.first, pt.second, ratio, math.sqrt(max(var, 0.0))))
    return RatioTable(float(distortion), tuple(rows))


# ---------------------------------------------------------------------------
# Ergodic rate-distortion rate with decoder side information


def constant_gain(value: float) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Gain sampler that always returns ``value`` (degenerate distribution)."""
    v = _number(value, "gain")
    if not math.isfinite(v) or v < 0.0:
        raise ValueError("gain must be finite and nonnegative")

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, v)

    return sampler


def rayleigh_gain() -> Callable[[np.random.Generator, int], np.ndarray]:
    """Gain sampler |z| with z ~ CN(0, 1)."""

    def sampler(rng: np.random.Generator, count: int) -> np.ndarray:
        return np.abs(core.sample_cn01(rng, count))

    return sampler


def ergodic_wyner_rate(
    signal_var: float,
    noise_var: float,
    distortion: float,
    gain_sampler: Callable[[np.random.Generator, int], np.ndarray],
    mc: MCConfig | None = None,
) -> float:
    """Average rate to describe X at distortion D given Y = a X + U at the decoder.

    X ~ N(0, signal_var), U ~ N(0, noise_var), and the gain a is drawn per
    realization from ``gain_sampler(rng, count)``.  Each realization has
    conditional variance cv = signal_var noise_var / (a^2 signal_var +
    noise_var) and contributes log2(cv / D) bits; the distortion must
    satisfy 0 < D <= cv for every realization, otherwise the quantity is
    outside its validity domain.
    """
    sv = _number(signal_var, "signal_var")
    nv = _number(noise_var, "noise_var")
    d = _number(distortion, "distortion")
    if not math.isfinite(sv) or sv <= 0.0:
        raise ValueError("signal_var must be finite and positive")
    if not math.isfinite(nv) or nv <= 0.0:
        raise ValueError("noise_var must be finite and positive")
    if not math.isfinite(d) or d <= 0.0:
        raise DomainError("distortion must satisfy 0 < D <= conditional variance")
    mc = mc or MCConfig()

    total = 0.0
    for index, count in _blocks(mc.samples):
        rng = core.stream(mc.seed, StreamTag.CAPACITY_GAIN, index)
        a = np.asarray(gain_sampler(rng, count), dtype=float)
        if a.shape != (count,):
            raise ValueError("gain_sampler must return a 1-D array of the requested length")
        if not np.all(np.isfinite(a)) or np.any(a < 0.0):
            raise ValueError("gains must be finite and nonnegative")
        cond_var = sv * nv / (a * a * sv + nv)
        if np.any(cond_var < d):
            raise DomainError(
                "distortion exceeds the conditional variance for some gain draw, "
                "need 0 < D <= signal_var*noise_var/(a^2 signal_var + noise_var)"
            )
        total += float(np.sum(np.log2(cond_var / d)))
    return total / mc.samples
