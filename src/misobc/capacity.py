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
estimate is bit-identical for any worker count.  Each cross product
sum v_i v_k of a block is one ``np.einsum`` reduction, not a BLAS dot
whose summation split follows the BLAS thread count, so estimates are
bit-identical under any BLAS thread setting too.  By default one
worker runs per usable CPU; no call runs more workers than there are
usable CPUs or blocks.  A block runs in a scratch set: the four Exp(1)
rows, in which the moments and the kernel rows are built in place, and
one row of log-rates per quantity.  The calling thread allocates one set per
worker before any block runs, and the blocks of one ``estimate`` call
take turns with them, so for k quantities transient memory is
workers * (4 + k) * 2^16 * 8 bytes at any sample count; with the
default that grows with the host's CPU count.  A power at which a rate
argument overflows a double, or a nonzero estimate's squared error bar
underflows one, raises ``DomainError``.

``estimate`` runs its blocks through ``core.run_tasks``: w > 1 workers
are w pool threads, and one worker or one block runs inline in the
calling thread with no pool.

``c21_oracle``, ``c22d_oracle`` and ``rq_oracle`` evaluate the three
quantities in closed form, as sums of scaled exponential integrals
e^z E_m(z) computed with the standard library alone: references for
the estimator, and the rates that size the scheme's phase 3.  Result
tables write CSV and JSON through one path: ``write_csv`` and the
``_Table`` base class, which ``regions`` shares.

The module also carries ``ergodic_wyner_rate``, the ergodic conditional
rate-distortion rate with decoder side information, at a gain that is a
constant number or, for None, Rayleigh |CN(0, 1)| drawn from the seeded
``StreamTag.CAPACITY_GAIN`` streams; the closed-form scalar helpers
(reverse waterfilling and the one-level rate) are in :mod:`misobc.rd`.
"""

from __future__ import annotations

import math
import queue
import sys
from dataclasses import dataclass

import numpy as np

from . import (DEFAULT_SAMPLES, DEFAULT_SEED, DomainError, _fmt, _integer, _number, _real,
               _round12, _seed, core)
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
    usable CPUs or blocks: w workers run on w pool threads, and one
    worker or one block runs inline in the calling thread.
    Each scratch set holds (4 + k) * 2^16 float64 values for k
    quantities; the calling thread allocates one per worker before any
    block runs.  Results are bit-identical for any worker count and any
    BLAS thread setting, since the package makes no BLAS call.
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


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A sample mean with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


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


def _draw_moments(rng: np.random.Generator, count: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Draw the moments of ``count`` i.i.d. 2x2 CN(0, 1) matrices, exactly.

    Every |h_ij|^2 is Exp(1), so norm1 = E1 + E2.  CN(0, I) rows are
    invariant under unitary maps, so rotating row 2 by a unitary that
    depends only on row 1, with first column (-h12, h11) / sqrt(norm1),
    leaves its components i.i.d. CN(0, 1) and independent of row 1.  The
    first rotated component is det H / sqrt(norm1), hence norm2 = E3 + E4
    and |det H|^2 = norm1 E4.

    The four Exp(1) rows are drawn into ``out`` (a C-ordered (4, count)
    float64 array) if given and become (norm1, E2, norm2, det2) in place;
    that (4, count) array is returned.
    """
    e = rng.standard_exponential((4, count), out=out)
    e[0] += e[1]
    e[2] += e[3]
    e[3] *= e[0]
    return e


def _check_quantity(quantity: str, distortion) -> None:
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
    if quantity != "c21":
        _real(distortion, f"distortion for {quantity}", positive=quantity == "rq")


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

    The scratch sets are allocated in the calling thread, and the blocks
    run through ``core.run_tasks``: on w pool threads for w > 1 workers,
    inline for one.  The block sums are added in block order, so the
    totals do not depend on the worker count, and an error surfaces only
    once every pool thread has stopped."""
    mc = mc or MCConfig()
    if distortion is not None and set(quantities) == {"c21"}:
        raise ValueError("c21 takes no distortion parameter")
    for q in quantities:
        _check_quantity(q, distortion)
    npow = len(grid.points)
    nker = len(quantities)
    jobs = _blocks(mc.samples)
    workers = core.thread_count(len(jobs), mc.workers)

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
            m = _draw_moments(core.stream(mc.seed, StreamTag.CAPACITY_CHANNEL, index), count,
                              out=flat[:4 * count].reshape(4, count))
            polys = _rate_polys(m, quantities, distortion)
            v = rows[:, :count]
            s1 = np.empty((npow, nker))
            s2 = np.empty((npow, nker, nker))
            # a rate argument that overflows is reported below, as a DomainError
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
                            s2[j, i, k] = s2[j, k, i] = np.einsum("i,i->", v[i], v[k])
        finally:
            scratch.put((flat, rows))
        return s1, s2

    S1 = np.zeros((npow, nker))
    S2 = np.zeros((npow, nker, nker))
    for s1, s2 in core.run_tasks(block, jobs, workers):
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
    p = _real(power, "power")
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
    p = _real(power, "power")
    _check_quantity("rq", distortion)
    if p == 0.0:
        return 0.0
    z = 2.0 * (float(distortion) / p)
    if z == 0.0:
        raise DomainError(f"rq is not finite at P = {p:g}: its rate argument overflows a double")
    return sum(_scaled_expint(m, z) for m in range(1, 5)) / LN2


_C22D_SERIES_CUT = 0.5


def c22d_oracle(power: float, distortion: float) -> float:
    """Closed-form value of c22d, independent of the sampling path.

    Whitening the noise makes c22d = E log2 det(I + (P/2) W), with W a
    complex Wishart matrix of 2 degrees of freedom and covariance
    diag(1, b), b = 1/(1 + D).  One unordered eigenvalue of W has density
    g(x) = [b (x - b) e^-x - (x - 1) e^(-x/b)] / (2 b (1 - b)) (the
    one-sided correlated case of Chiani, Win & Zanella, IEEE Trans. IT
    2003), and integrating 2 ln(1 + P x/2) g(x) term by term gives, with
    S_m(z) = e^z E_m(z), z1 = 2/P and z2 = 2 (1 + D)/P,

        c22d ln 2 = S1(z1) + S1(z2) + ((1 + D) S2(z1) - S2(z2)) / D.

    The last term is 0/0 at D = 0 and loses digits as D falls.  Where
    D max(1, z1) < 1/2 it is summed instead as its Taylor series in D,
    S2(z1) - sum over k >= 1 of z1^k S2^(k)(z1) D^(k-1) / k!, whose
    derivatives follow from d S_m/dz = S_m - S_(m-1) and, for m <= 0,
    S_m = (1 - m S_(m+1))/z; at D = 0 it is the limit
    2 S1(z) + S2(z) + z (S1(z) - S2(z)).  Beyond z1 = 1e9 every S_m(w)
    is 1/(w + m) to within m/w^2, as in ``_scaled_expint``, and the last
    term is the rational function that gives, with D cancelled.  The
    result is within 3e-14 relative of 40-digit mpmath for P from 1e-2
    to 1e6 at D from 0 to 4; below P = 1e-2, z1 (S1 - S2) in the series
    loses digits like 1/P (4e-11 at P = 1e-6, D = 0).  ``distortion`` is
    checked as ``c22d`` checks it.  The value is finite for every finite
    power, so unlike ``rq_oracle`` it raises no DomainError.
    """
    p = _real(power, "power")
    _check_quantity("c22d", distortion)
    if p == 0.0:
        return 0.0
    d = float(distortion)
    z, z2 = 2.0 / p, 2.0 * (1.0 + d) / p
    if z > 1e9:
        return (1.0 / (z + 1.0) + 1.0 / (z2 + 1.0)
                + (2.0 + d + 2.0 / z) / ((z + 2.0) * (1.0 + d + 2.0 / z))) / LN2
    edge = _scaled_expint(1, z) + _scaled_expint(1, z2)
    if d * max(1.0, z) >= _C22D_SERIES_CUT:
        return (edge + ((1.0 + d) * _scaled_expint(2, z) - _scaled_expint(2, z2)) / d) / LN2
    # r[j] = z^(j-1) S_(2-j)(z) stays finite as z -> 0, and
    # z^k S2^(k)(z) = sum over j of C(k, j) (-1)^j z^(k-j+1) r[j]
    r = [_scaled_expint(2, z) / z, _scaled_expint(1, z)]
    total = z * r[0]
    dk = fact = 1.0
    for k in range(1, _EXPINT_MAX_TERMS):
        if k >= 2:
            r.append(z ** (k - 2) + (k - 2) * r[-1])
        fact *= k
        term = dk * sum(math.comb(k, j) * (-1) ** j * z ** (k - j + 1) * r[j]
                        for j in range(k + 1)) / fact
        total -= term
        dk *= d
        if dk == 0.0 or abs(term) <= abs(total) * 2.0**-53:
            return (edge + total) / LN2
    raise ArithmeticError(f"the c22d series did not converge at P = {p!r}, D = {d!r}")


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


# ---------------------------------------------------------------------------
# Ergodic rate-distortion rate with decoder side information


def _gain(value) -> float | None:
    """A constant side-information gain as a float, checked, or None (Rayleigh)."""
    return None if value is None else _real(value, "gain")


def ergodic_wyner_rate(
    signal_var: float,
    noise_var: float,
    distortion: float,
    gain: float | None,
    mc: MCConfig | None = None,
) -> float:
    """Average rate to describe X at distortion D given Y = a X + U at the decoder.

    X ~ N(0, signal_var), U ~ N(0, noise_var), and the gain a is ``gain``,
    a finite nonnegative number, in every realization, or for None
    |z| with z ~ CN(0, 1), drawn per realization: block k of the fixed
    sample blocks comes from ``core.stream(seed, StreamTag.CAPACITY_GAIN,
    k)``.  Each realization has conditional variance cv = signal_var
    noise_var / (a^2 signal_var + noise_var) and contributes log2(cv / D)
    bits; the distortion must satisfy 0 < D <= cv for every realization,
    otherwise the quantity is outside its validity domain.  The gain is
    checked first, then the variances and the distortion.  A finite rate
    is returned where signal_var noise_var, a^2 signal_var or cv / D
    overflows a double.
    """
    gain = _gain(gain)
    sv = _real(signal_var, "signal_var", positive=True)
    nv = _real(noise_var, "noise_var", positive=True)
    d = _number(distortion, "distortion")
    if not math.isfinite(d) or d <= 0.0:
        raise DomainError("distortion must satisfy 0 < D <= conditional variance")
    mc = mc or MCConfig()

    # where only an intermediate overflows, the rate is priced another way:
    # cv as 1 / (a^2 / noise_var + 1 / signal_var), log2(cv / D) as a
    # difference of logs
    product = sv * nv
    total = 0.0
    for index, count in _blocks(mc.samples):
        if gain is None:
            a = np.abs(core.sample_cn01(core.stream(mc.seed, StreamTag.CAPACITY_GAIN, index),
                                        count))
        else:
            a = np.full(count, gain)
        with np.errstate(over="ignore"):
            denom = a * a * sv + nv
            if math.isfinite(product) and np.isfinite(denom).all():
                cond_var = product / denom
            else:
                cond_var = 1.0 / (a / nv * a + 1.0 / sv)
            ratio = cond_var / d
        if np.any(cond_var < d):
            raise DomainError(
                "distortion exceeds the conditional variance for some gain draw, "
                "need 0 < D <= signal_var*noise_var/(a^2 signal_var + noise_var)"
            )
        rates = np.log2(ratio) if np.isfinite(ratio).all() else np.log2(cond_var) - math.log2(d)
        total += float(np.sum(rates))
    return total / mc.samples
