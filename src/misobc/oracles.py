"""Closed forms of the three rates that size the scheme, standard library only.

``c21_oracle``, ``c22d_oracle`` and ``rq_oracle`` evaluate the ergodic
rates that :mod:`misobc.capacity` estimates by Monte Carlo, as sums of
scaled exponential integrals e^z E_m(z) (``_scaled_expint``; c21 and rq
are the k = 2 and k = 4 cases of one Gamma(k) sum, ``_gamma_log_mean``):
references for the estimator, the rates that size the scheme's phase 3,
and, with :mod:`misobc.regions`' ``gap_closed_form``, the exact per-user
gap.  The module imports only :mod:`math` and the package, so none of
this loads NumPy.  Each oracle checks its power and distortion as the
estimator checks them, with the same messages.
"""

import math

from . import LN2, DomainError, _real

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


def _gamma_log_mean(k: int, z: float) -> float:
    """E ln(1 + X/z) for X ~ Gamma(k, 1) with an integer k >= 1 and z > 0:
    the sum of e^z E_m(z) over m = 1..k, in nats.  c21 is the k = 2 case
    and rq the k = 4 case; each caller forms its own z."""
    return sum(_scaled_expint(m, z) for m in range(1, k + 1))


def c21_oracle(power: float) -> float:
    """Closed-form value of c21, independent of the sampling path.

    For X ~ Gamma(k, 1) with integer k, E ln(1 + a X) is the sum of
    e^z E_m(z) over m = 1..k with z = 1/a (``_gamma_log_mean``).  c21 has
    k = 2 and a = power/2, so it is (e^z E1(z) + e^z E2(z)) / ln 2 with
    z = 2/power: two positive terms, which ``_scaled_expint`` evaluates
    with the standard library alone.  The result is within 4e-15 relative
    of 50-digit mpmath for powers from 1e-6 to 1e6, and finite and
    nonnegative for every finite power.
    """
    p = _real(power, "power")
    if p == 0.0:
        return 0.0
    z = 2.0 / p
    return _gamma_log_mean(2, z) / LN2


def rq_oracle(power: float, distortion: float) -> float:
    """Closed-form value of rq, independent of the sampling path.

    The fading gain of rq is Gamma(4, 1) and a = power/(2 distortion), so
    rq is the sum of e^z E_m(z) over m = 1..4, divided by ln 2, with
    z = 2 distortion/power.  ``distortion`` is checked as ``rq`` checks
    it.  A DomainError is raised where z underflows to 0, that is where
    the rate argument overflows a double, as the estimator does there.
    """
    p = _real(power, "power")
    d = _real(distortion, "distortion for rq", positive=True)
    if p == 0.0:
        return 0.0
    z = 2.0 * (d / p)
    if z == 0.0:
        raise DomainError(f"rq is not finite at P = {p:g}: its rate argument overflows a double")
    return _gamma_log_mean(4, z) / LN2


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
    d = _real(distortion, "distortion for c22d")
    if p == 0.0:
        return 0.0
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
