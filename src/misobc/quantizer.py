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

_DITHER_TAG = 3

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
        self._rng = core.stream(self.dither_seed, _DITHER_TAG)
        self.samples_consumed = 0

    def _next_dither(self, count: int) -> np.ndarray:
        # one (real, imag) dither pair per sample, uniform on [-step/2, step/2)
        return (self._rng.random((count, 2)) - 0.5) * self.step

    def quantize(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Quantize a 1-D complex sequence.

        Returns (indices, reconstruction): indices is an (n, 2) int64
        array of lattice coordinates per (real, imag) dimension, and
        reconstruction is the complex sequence the decoder will produce
        from those indices with its own copy of the dither stream.
        """
        x = np.asarray(values, dtype=np.complex128).ravel()
        if x.size and not np.all(np.isfinite(x.real) & np.isfinite(x.imag)):
            raise ValueError("samples must be finite")
        u = self._next_dither(x.size)
        # round-half-up of (x + u)/step; the half-open dither interval keeps
        # the error in [-step/2, step/2) exactly
        q = x.view(np.float64).reshape(-1, 2) + u
        q /= self.step
        q -= 0.5
        np.ceil(q, out=q)
        recon = self.step * q
        recon -= u
        self.samples_consumed += x.size
        return q.astype(np.int64), recon[..., 0] + 1j * recon[..., 1]

    def dequantize(self, indices) -> np.ndarray:
        """Reconstruct a complex sequence from (n, 2) lattice indices."""
        q = np.asarray(indices)
        if q.ndim != 2 or q.shape[1] != 2:
            raise ValueError("indices must have shape (n, 2)")
        if not np.issubdtype(q.dtype, np.integer):
            raise ValueError("indices must be integers")
        u = self._next_dither(q.shape[0])
        recon = self.step * q.astype(float) - u
        self.samples_consumed += q.shape[0]
        return recon[..., 0] + 1j * recon[..., 1]


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
    """Inverse of write_indices; returns (step, indices as (n, 2) int64)."""
    head = fp.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise ValueError("truncated header")
    magic, step, count = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if not math.isfinite(step) or step <= 0.0:
        raise ValueError("header carries a nonpositive step")
    payload = fp.read()
    expected = 8 * count
    if len(payload) != expected:
        raise ValueError(
            f"index payload holds {len(payload)} bytes but the header "
            f"promises {count} samples ({expected} bytes)"
        )
    q = np.frombuffer(payload, dtype="<i4").reshape(count, 2)
    return float(step), q.astype(np.int64)


def indices_to_bytes(step: float, indices) -> bytes:
    buf = io.BytesIO()
    write_indices(buf, step, indices)
    return buf.getvalue()


def indices_from_bytes(blob: bytes) -> tuple[float, np.ndarray]:
    return read_indices(io.BytesIO(blob))
