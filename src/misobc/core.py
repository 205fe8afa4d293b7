"""Complex channel arithmetic and reproducible random streams.

Conventions shared by every module in this package:

* A channel row (the path from the two transmit antennas to one receive
  antenna) is a length-2 complex128 vector.
* A transfer matrix is an (r, 2) complex128 array with r in {1, 2}.
* Randomness comes from counter-based Philox streams keyed by a master
  seed plus an integer stream key, so every sample sequence is a pure
  function of (seed, key) and can be regenerated independently anywhere.

Determinants of the (at most 2x2) matrices are evaluated in closed form.
That keeps the hot Monte Carlo paths free of per-sample LAPACK calls and
is exact at these dimensions.
"""

from __future__ import annotations

import numpy as np

from . import DomainError  # noqa: F401  (re-exported: misobc.core.DomainError)

LN2 = float(np.log(2.0))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for stream ``key`` under ``seed``.

    Identical (seed, key) pairs yield identical sample sequences across
    runs and platforms.  Concurrent consumers must use distinct keys;
    a generator instance is never shared.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def sample_cn01(rng: np.random.Generator, size=None):
    """Draw circularly symmetric complex Gaussians with unit variance.

    Real and imaginary parts are independent N(0, 1/2), so E|z|^2 = 1.
    Returns a complex scalar for size=None, otherwise an ndarray of the
    requested shape.  The draw makes no complex temporaries.
    """
    shape = () if size is None else (size if isinstance(size, tuple) else (int(size),))
    out = _fill_cn01(rng, np.empty(shape, dtype=np.complex128))
    return complex(out) if size is None else out


def _fill_cn01(rng: np.random.Generator, out: np.ndarray, scale: float | None = None):
    """Fill the C-contiguous complex128 array ``out`` in place with the draws
    ``sample_cn01(rng, out.shape)`` returns, times ``scale`` if given; returns ``out``.

    The normal pairs are drawn into the array's real and imaginary parts
    and scaled there, so the result does not depend on who allocated it.
    """
    pairs = out[..., None].view(np.float64)
    rng.standard_normal(out=pairs)
    pairs *= 1.0 / np.sqrt(2.0)
    if scale is not None:
        pairs *= scale
    return out


def logdet_capacity_term(transfer, power, noise_vars):
    """Per-realization log-det rate of an r x 2 channel, in bits.

    Evaluates log2 det(I_r + (power/2) S^(-1/2) H H^H S^(-1/2)) with
    S = diag(noise_vars) and H the transfer matrix.  ``transfer`` is a
    single (r, 2) matrix or a batch of shape (..., r, 2); the result is
    a float or an array of the leading shape.  Row r of H sees additive
    noise of variance noise_vars[r].

    The determinant is expanded in closed form: for r == 1 the argument
    of log2 is 1 + (power/2) |h|^2 / s0, and for r == 2 it is

        1 + (power/2) (|row0|^2/s0 + |row1|^2/s1)
          + (power/2)^2 |det H|^2 / (s0 s1).
    """
    H = np.asarray(transfer, dtype=np.complex128)
    if H.ndim < 2 or H.shape[-1] != 2 or H.shape[-2] not in (1, 2):
        raise ValueError(
            f"transfer must have shape (..., r, 2) with r in {{1, 2}}, got {H.shape}"
        )
    r = H.shape[-2]
    nv = np.asarray(noise_vars, dtype=float)
    if nv.shape != (r,):
        raise ValueError(f"noise_vars must hold {r} entries, got shape {nv.shape}")
    if not np.all(np.isfinite(nv)) or np.any(nv <= 0.0):
        raise ValueError("noise variances must be positive and finite")
    p = float(power)
    if not np.isfinite(p) or p < 0.0:
        raise ValueError("power must be nonnegative and finite")

    if r == 1:
        row0 = np.abs(H[..., 0, 0]) ** 2 + np.abs(H[..., 0, 1]) ** 2
        out = np.log1p((p / 2.0) * row0 / nv[0]) / LN2
    else:
        out = _logdet_2x2(H[..., 0, :], H[..., 1, :], p, nv[0], nv[1])
    return float(out) if np.ndim(out) == 0 else out


def _logdet_2x2(row0, row1, power, s0, s1):
    """log2 det(I + (power/2) S^(-1/2) H H^H S^(-1/2)) for the 2x2 matrices
    with rows ``row0`` and ``row1`` (arrays of shape (..., 2)) and noise
    variances S = diag(s0, s1); no input checks, no stacked copy of H."""
    c = power / 2.0
    norm0 = np.abs(row0[..., 0]) ** 2 + np.abs(row0[..., 1]) ** 2
    norm1 = np.abs(row1[..., 0]) ** 2 + np.abs(row1[..., 1]) ** 2
    det = row0[..., 0] * row1[..., 1] - row0[..., 1] * row1[..., 0]
    det2 = det.real**2 + det.imag**2
    arg = c * (norm0 / s0 + norm1 / s1) + (c * c) * det2 / (s0 * s1)
    return np.log1p(arg) / LN2
