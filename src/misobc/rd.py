"""Scalar rate-distortion helpers for the quantizer sizing arguments.

Exact reverse waterfilling over parallel Gaussian components, the rate
of one fixed-step quantizer run at the budget everywhere, and the
ergodic rate with decoder side information at a constant or a Rayleigh
gain.  All three are closed forms, so this module works on Python floats
and imports only the standard library: no ``rd`` mode loads NumPy, and
the Rayleigh gain loads :mod:`misobc.oracles`, standard library too, for
its exponential integral.  Where the rate overflows a double, the two
variance-list helpers raise ``DomainError``, as ``capacity.estimate``
does for an overflowing rate.
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


def ergodic_wyner_rate(signal_var: float, noise_var: float, distortion: float,
                       gain: float | None) -> float:
    """Average rate, in bits, to describe X at distortion D given Y = a X + U
    at the decoder.

    X ~ N(0, signal_var), U ~ N(0, noise_var), and the gain a, known to
    both ends, is ``gain``, a finite nonnegative number, or for None
    |z| with z ~ CN(0, 1), a Rayleigh gain.  A gain leaves the
    conditional variance cv = 1 / (a / noise_var * a + 1 / signal_var)
    and costs the Gaussian Wyner-Ziv rate log2(cv / D) where cv > D and
    nothing elsewhere.  The gain is checked first, then the variances and the
    distortion, each a finite positive number.

    A constant gain costs log2(cv) - log2(D) bits and needs D <= cv: a
    larger D raises ``DomainError``.  Where 1 / cv overflows a double (a
    true cv below about 5.6e-309, as a subnormal variance gives), the
    ratio cv / D is formed in exact rationals instead, so a D below such
    a cv is priced too.

    A Rayleigh gain costs E[log2(cv / D)]+, which exists for every D > 0:
    a realization with cv <= D needs no bits.  With a^2 ~ Exp(1),
    z = noise_var / signal_var and x0 = noise_var (1/D - 1/signal_var),
    the a^2 at which cv = D, integrating over a^2 < x0 gives

        ln 2 * rate = ln signal_var - ln D - S1(z) + e^(-x0) S1(z + x0),

    with S1(w) = e^w E1(w) (``oracles._scaled_expint``), and the rate is 0
    for D >= signal_var.  Below z = 1e-17, S1(z) is -gamma - ln z to double
    precision, and ln z is taken as ln noise_var - ln signal_var, so a z
    that underflows is priced too.  Where the three terms cancel, the
    absolute error is a few ulp of S1(z); at the inputs the tests pin it
    is within 1e-14 + 1e-13 |rate| of 40-digit quadrature.
    """
    a = None if gain is None else _real(gain, "gain")
    sv = _real(signal_var, "signal_var", positive=True)
    nv = _real(noise_var, "noise_var", positive=True)
    d = _number(distortion, "distortion")
    if not math.isfinite(d) or d <= 0.0:
        raise DomainError("distortion must satisfy 0 < D <= conditional variance")
    if a is not None:
        cv = 1.0 / (a / nv * a + 1.0 / sv)
        if cv == 0.0:
            # 1 / cv overflows a double: price the exact cv / D at D = 1
            from fractions import Fraction as F

            cv, d = 1 / (F(d) * (F(a) ** 2 / F(nv) + 1 / F(sv))), 1.0
        if cv < d:
            raise DomainError("distortion exceeds the conditional variance, need "
                              "0 < D <= signal_var*noise_var/(a^2 signal_var + noise_var)")
        return math.log2(cv) - math.log2(d)
    if d >= sv:
        return 0.0
    from .oracles import _EULER, _scaled_expint

    z, w = nv / sv, nv / d  # w = z + x0
    if z < 1e-17:
        lead = math.log(nv) - math.log(d) + _EULER
    else:
        lead = math.log(sv) - math.log(d) - _scaled_expint(1, z)
    # w overflows only with x0, and e^(-x0) S1(w) is then 0 (z - w may be inf - inf)
    tail = math.exp(z - w) * _scaled_expint(1, w) if w < math.inf else 0.0
    return (lead + tail) / LN2
