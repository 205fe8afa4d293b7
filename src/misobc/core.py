"""Complex channel arithmetic and reproducible random streams.

Conventions shared by every module in this package:

* A channel row (the path from the two transmit antennas to one receive
  antenna) is a length-2 complex128 vector.
* A transfer matrix is an (r, 2) complex128 array with r in {1, 2}.
* Randomness comes from counter-based Philox streams keyed by a master
  seed plus an integer stream key, so every sample sequence is a pure
  function of (seed, key) and can be regenerated independently anywhere.
  The first key entry is a ``StreamTag``, one per consumer, all listed
  in this module.

One public function per primitive does the work: ``sample_cn01`` also
fills a caller's array in place, and ``logdet_capacity_term`` takes the
channel rows as separate arrays.  Determinants of the (at most 2x2)
matrices are evaluated in closed form.  That keeps the hot Monte Carlo
paths free of per-sample LAPACK calls and is exact at these dimensions.
"""

from __future__ import annotations

import enum

import numpy as np

from . import DomainError  # noqa: F401  (re-exported: misobc.core.DomainError)

LN2 = float(np.log(2.0))


@enum.unique  # a repeated value fails the import: two consumers would draw the same numbers
class StreamTag(enum.IntEnum):
    """The first stream key of every draw under a master seed, one per consumer.

    Frozen results depend on these values; never renumber one.
    """

    CAPACITY_CHANNEL = 1  # capacity.estimate's channel ensemble, one stream per block
    CAPACITY_GAIN = 2  # ergodic_wyner_rate's gain draws, one stream per block
    QUANTIZER_DITHER = 3  # the dither of a DitheredQuantizer link
    SCHEME_SIGNAL = 4  # the scheme's message grids, one stream per user
    SCHEME_CHANNEL = 5  # the scheme's channel rows
    SCHEME_NOISE = 6  # the scheme's receiver noises


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for stream ``key`` under ``seed``.

    Identical (seed, key) pairs yield identical sample sequences across
    runs and platforms.  Concurrent consumers must use distinct keys;
    a generator instance is never shared.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def sample_cn01(rng: np.random.Generator, size=None, *, out=None, scale=None):
    """Draw circularly symmetric complex Gaussians with unit variance.

    Real and imaginary parts are independent N(0, 1/2), so E|z|^2 = 1;
    ``scale``, if given, multiplies every draw.  Returns a complex scalar
    for size=None, otherwise an ndarray of the requested shape.  As in
    NumPy's ``standard_normal``, ``out`` is a C-contiguous complex128
    array that is filled and returned, and ``size`` is then omitted or
    equal to ``out.shape``.  The normal pairs are drawn and scaled in the
    array's real and imaginary parts, so there are no temporaries and
    the bits do not depend on who allocated the array.
    """
    scalar = size is None and out is None
    shape = () if size is None else (size if isinstance(size, tuple) else (int(size),))
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.complex128
              and out.flags.c_contiguous):
        raise ValueError("out must be a C-contiguous complex128 array")
    elif size is not None and shape != out.shape:
        raise ValueError(f"size {shape} does not match out.shape {out.shape}")
    pairs = out[..., None].view(np.float64)
    rng.standard_normal(out=pairs)
    pairs *= 1.0 / np.sqrt(2.0)
    if scale is not None:
        pairs *= scale
    return complex(out) if scalar else out


def logdet_capacity_term(rows, power, noise_vars):
    """Per-realization log-det rate of an r x 2 channel, in bits.

    Evaluates log2 det(I_r + (power/2) S^(-1/2) H H^H S^(-1/2)) with
    S = diag(noise_vars) and ``rows`` the r in {1, 2} rows of H, arrays
    of one shape (..., 2); an (r, 2) matrix is its own rows.  Row r sees
    additive noise of variance noise_vars[r].  The result is a float or
    an array of the leading shape; H is never stacked into one array.

    The determinant is expanded in closed form: for r == 1 the argument
    of log2 is 1 + (power/2) |h|^2 / s0, and for r == 2 it is

        1 + (power/2) (|row0|^2/s0 + |row1|^2/s1)
          + (power/2)^2 |det H|^2 / (s0 s1).
    """
    rows = [np.asarray(row, dtype=np.complex128) for row in rows]
    shapes = {row.shape for row in rows}
    r = len(rows)
    if r not in (1, 2) or len(shapes) != 1 or rows[0].shape[-1:] != (2,):
        raise ValueError(f"rows must be 1 or 2 arrays of one shape (..., 2), got {shapes}")
    nv = np.asarray(noise_vars, dtype=float)
    if nv.shape != (r,):
        raise ValueError(f"noise_vars must hold {r} entries, got shape {nv.shape}")
    if not np.all(np.isfinite(nv)) or np.any(nv <= 0.0):
        raise ValueError("noise variances must be positive and finite")
    p = float(power)
    if not np.isfinite(p) or p < 0.0:
        raise ValueError("power must be nonnegative and finite")

    c = p / 2.0
    row0 = rows[0]
    norm0 = np.abs(row0[..., 0]) ** 2
    norm0 += np.abs(row0[..., 1]) ** 2
    if r == 1:
        out = np.log1p(c * norm0 / nv[0]) / LN2
        return float(out) if np.ndim(out) == 0 else out
    # the terms accumulate in their first temporary, in the order of
    # c (norm0/s0 + norm1/s1) + (c c) det2 / (s0 s1)
    row1 = rows[1]
    s0, s1 = nv
    norm1 = np.abs(row1[..., 0]) ** 2
    norm1 += np.abs(row1[..., 1]) ** 2
    det = row0[..., 0] * row1[..., 1]
    det -= row0[..., 1] * row1[..., 0]
    arg = det.real**2
    arg += det.imag**2
    del det
    norm0 /= s0
    norm1 /= s1
    norm0 += norm1
    norm0 *= c
    arg *= c * c
    arg /= s0 * s1
    arg += norm0
    if np.ndim(arg) == 0:  # one matrix: NumPy scalars, which have no out=
        return float(np.log1p(arg) / LN2)
    np.log1p(arg, out=arg)
    arg /= LN2
    return arg
