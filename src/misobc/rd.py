"""Scalar rate-distortion helpers for the quantizer sizing arguments.

Exact reverse waterfilling over parallel Gaussian components and the
rate of one fixed-step quantizer run at the budget everywhere.  Both are
closed forms over a short list of variances, so this module works on
Python floats and imports only the standard library: a command that
prices a variance list loads no NumPy.  Where the rate overflows a
double, both raise ``DomainError``, as ``capacity.estimate`` does for an
overflowing rate.  The ergodic rate with decoder side information draws
samples and lives in :mod:`misobc.capacity`.
"""

from __future__ import annotations

import math
from itertools import accumulate

from . import LN2, DomainError, _number, _real


def _rd_inputs(variance_samples, distortion_budget) -> tuple[list[float], float]:
    """Validated variances, from any flat iterable of numbers (a 1-D NumPy
    array too), and distortion budget."""
    try:
        v = [_number(x, "variance") for x in variance_samples]
    except (TypeError, ValueError):
        raise ValueError("variances must be a flat iterable of numbers, "
                         f"got {variance_samples!r}") from None
    if not v:
        raise ValueError("need at least one variance sample")
    for x in v:
        _real(x, "variances")
    return v, _real(distortion_budget, "distortion_budget", positive=True)


def _finite(rate: float) -> float:
    if not math.isfinite(rate):
        raise DomainError("the rate is not finite: a variance over the budget "
                          "overflows a double")
    return rate


def rd_reverse_waterfill(variance_samples, distortion_budget: float) -> float:
    """Exact parallel-Gaussian rate at an average distortion budget, in bits.

    Solves for the water level L with (1/n) sum_i min(v_i, L) = budget,
    then returns (1/n) sum_i max(log2(v_i / L), 0).  The level is found
    exactly, in one pass over the sorted-prefix segments, no root finding.
    """
    v, budget = _rd_inputs(variance_samples, distortion_budget)
    n = len(v)
    try:
        mean = math.fsum(v) / n
    except OverflowError:
        # the rate is scale-free: price v / n at budget / n, whose sums
        # all stay below the mean variance, and compare their mean with
        # the scaled budget
        v = [x / n for x in v]
        budget /= n
        mean = math.fsum(v) / n
    if mean <= budget:
        return 0.0
    s = sorted(v)
    slack = 1e-12 * max(1.0, s[-1])
    # on segment k the k smallest variances sit below the level:
    # L = (n budget - sum_{i<k} s_i) / (n - k), valid if s_{k-1} <= L <= s_k.
    # mean(min(v, L)) is continuous and increasing in L, so a segment match
    # exists whenever the budget sits below the mean variance.
    for k, (below, lower, upper) in enumerate(zip(accumulate(s, initial=0.0),
                                                  [0.0, *s], s)):
        level = (n * budget - below) / (n - k)
        if lower - slack <= level <= upper + slack:
            break
    else:
        raise ValueError("no consistent water level found, inputs out of range")
    return _finite(math.fsum(math.log2(x / level) for x in s if x > level) / n)


def rd_suboptimal(variance_samples, distortion_budget: float) -> float:
    """Rate of one fixed-step quantizer run at distortion budget everywhere.

    Charges every sample log2(1 + v_i / budget) bits, ignoring the
    per-sample variance structure.  Always at least the waterfilling
    rate, sample by sample.
    """
    v, budget = _rd_inputs(variance_samples, distortion_budget)
    return _finite(math.fsum(math.log1p(x / budget) for x in v) / len(v) / LN2)
