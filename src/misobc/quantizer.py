"""Subtractive dithered scalar quantization of complex sequences.

Each complex sample is quantized per real dimension on a uniform lattice
of step q.  The dither u is uniform on [-q/2, q/2), shared between
encoder and decoder through a seeded stream, and subtracted again after
reconstruction.  The end-to-end error (reconstruction minus input) is
then uniform on [-q/2, q/2) per dimension and independent of the input,
with variance q^2/12 per dimension.  A complex target distortion D
splits evenly, D/2 per dimension, giving q = sqrt(6 D).

Instances are stateful: every call to quantize or dequantize consumes
dither from the stream in order.  The two ends of a link must therefore
hold separate instances built from the same (step, dither_seed), and
each instance must see the samples in the same order.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from . import core

_MAGIC = b"DLQ1"
_HEADER = struct.Struct("<4sdI")

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


def step_for_distortion(distortion: float) -> float:
    """Lattice step achieving mean squared error ``distortion`` per complex sample."""
    d = float(distortion)
    if not math.isfinite(d) or d <= 0.0:
        raise ValueError("distortion must be finite and positive")
    return math.sqrt(6.0 * d)


class DitheredQuantizer:
    """One end of a subtractive dithered scalar quantizer link."""

    def __init__(self, step: float, dither_seed: int):
        s = float(step)
        if not math.isfinite(s) or s <= 0.0:
            raise ValueError("step must be finite and positive")
        self.step = s
        self.dither_seed = int(dither_seed)
        self._rng = core.stream(self.dither_seed, core.StreamTag.QUANTIZER_DITHER)
        self.samples_consumed = 0

    def _next_dither(self, count: int) -> np.ndarray:
        # one (real, imag) dither pair per sample, uniform on [-step/2, step/2)
        u = self._rng.random((count, 2))
        u -= 0.5
        u *= self.step
        return u

    def _reconstruct(self, lattice: np.ndarray, u: np.ndarray) -> np.ndarray:
        # step * lattice - u, built in the C-ordered (n, 2) float64 lattice
        # buffer and returned as a complex view of it
        lattice *= self.step
        lattice -= u
        self.samples_consumed += u.shape[0]
        return lattice.view(np.complex128).ravel()

    def quantize(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Quantize a 1-D complex sequence.

        Returns (indices, reconstruction): indices is an (n, 2) int64
        array of lattice coordinates per (real, imag) dimension, and
        reconstruction is the complex sequence the decoder will produce
        from those indices with its own copy of the dither stream.  The
        reconstruction is a complex view of the float64 (n, 2) lattice
        buffer the samples are rounded in, not a separate array.
        """
        x = np.asarray(values, dtype=np.complex128).ravel().view(np.float64)
        if not np.isfinite(x).all():
            raise ValueError("samples must be finite")
        u = self._next_dither(x.size // 2)
        # round-half-up of (x + u)/step; the half-open dither interval keeps
        # the error in [-step/2, step/2) exactly
        q = x.reshape(-1, 2) + u
        q /= self.step
        q -= 0.5
        np.ceil(q, out=q)
        return q.astype(np.int64), self._reconstruct(q, u)

    def dequantize(self, indices) -> np.ndarray:
        """Reconstruct a complex sequence from (n, 2) lattice indices."""
        q = np.asarray(indices)
        if q.ndim != 2 or q.shape[1] != 2:
            raise ValueError("indices must have shape (n, 2)")
        if not np.issubdtype(q.dtype, np.integer):
            raise ValueError("indices must be integers")
        u = self._next_dither(q.shape[0])
        return self._reconstruct(q.astype(np.float64, order="C"), u)


def write_indices(fp, step: float, indices) -> None:
    """Serialize lattice indices with a 16-byte header.

    Layout, all little endian: magic ``DLQ1`` (4 bytes), the lattice
    step as a float64, the sample count as a uint32, then count pairs
    of int32 lattice coordinates (real then imaginary).
    """
    q = np.asarray(indices)
    if q.ndim != 2 or q.shape[1] != 2:
        raise ValueError("indices must have shape (n, 2)")
    if not np.issubdtype(q.dtype, np.integer):
        raise ValueError("indices must be integers")
    if q.shape[0] > 0xFFFFFFFF:
        raise ValueError("sample count overflows the uint32 header field")
    if q.size and (q.min() < INT32_MIN or q.max() > INT32_MAX):
        raise ValueError("lattice coordinates overflow int32")
    s = float(step)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError("step must be finite and positive")
    fp.write(_HEADER.pack(_MAGIC, s, q.shape[0]))
    fp.write(np.ascontiguousarray(q, dtype="<i4").data)


def read_indices(fp) -> tuple[float, np.ndarray]:
    """Inverse of write_indices; returns (step, indices as (n, 2) int64).

    The stream is read once, to its end.
    """
    data = fp.read()
    if len(data) < _HEADER.size:
        raise ValueError("truncated header")
    magic, step, count = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if not math.isfinite(step) or step <= 0.0:
        raise ValueError("header carries a nonpositive step")
    payload = len(data) - _HEADER.size
    expected = 8 * count
    if payload != expected:
        raise ValueError(
            f"index payload holds {payload} bytes but the header "
            f"promises {count} samples ({expected} bytes)"
        )
    q = np.frombuffer(data, dtype="<i4", offset=_HEADER.size).reshape(count, 2)
    return float(step), q.astype(np.int64)


def indices_to_bytes(step: float, indices) -> bytes:
    buf = io.BytesIO()
    write_indices(buf, step, indices)
    return buf.getvalue()


def indices_from_bytes(blob: bytes) -> tuple[float, np.ndarray]:
    return read_indices(io.BytesIO(blob))
