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

import math
import struct

import numpy as np

from . import DomainError, _integer, _real, _seed, core

_MAGIC = b"DLQ1"
_HEADER = struct.Struct("<4sdI")

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1


def step_for_distortion(distortion: float) -> float:
    """Lattice step achieving mean squared error ``distortion`` per complex sample.

    A distortion above about 3e307, whose step overflows a double, raises
    ``DomainError``.
    """
    d = _real(distortion, "distortion", positive=True)
    step = math.sqrt(6.0 * d)
    if step == math.inf:
        raise DomainError(f"distortion {d:g} is too large: its quantizer step "
                          "overflows a double")
    return step


class DitheredQuantizer:
    """One end of a subtractive dithered scalar quantizer link."""

    def __init__(self, step: float, dither_seed: int):
        self.step = _real(step, "step", positive=True)
        # a master seed under the rule MCConfig and SchemeConfig apply
        self.dither_seed = _seed(dither_seed, "dither_seed")
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

    def quantize(self, values, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Quantize a 1-D complex sequence.

        Returns (indices, reconstruction): indices is an (n, 2) int32
        array of lattice coordinates per (real, imag) dimension, the
        width the index stream stores, and reconstruction is the complex
        sequence the decoder will produce from those indices with its own
        copy of the dither stream.  The reconstruction is a complex view
        of the float64 (n, 2) lattice buffer the samples are rounded in,
        not a separate array.  As in ``core.sample_cn01``, ``out`` is an
        (n, 2) C-contiguous int32 array that receives the indices and is
        returned; they are the values a fresh array would hold.

        A coordinate outside the int32 range (a sample of magnitude near
        2^31 steps) raises ValueError("lattice coordinates overflow
        int32") here, rather than when the indices are written.  The
        call has drawn its dither by then, so the instance is out of step
        with its partner and should be discarded.
        """
        x = np.asarray(values, dtype=np.complex128).ravel().view(np.float64)
        if not np.isfinite(x).all():
            raise ValueError("samples must be finite")
        if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.int32
                                    and out.flags.c_contiguous and out.shape == (x.size // 2, 2)):
            raise ValueError(f"out must be a C-contiguous int32 array of shape ({x.size // 2}, 2)")
        u = self._next_dither(x.size // 2)
        # round-half-up of (x + u)/step; the half-open dither interval keeps
        # the error in [-step/2, step/2) exactly
        q = x.reshape(-1, 2) + u
        q /= self.step
        q -= 0.5
        np.ceil(q, out=q)
        if q.size and (q.min() < INT32_MIN or q.max() > INT32_MAX):
            raise ValueError("lattice coordinates overflow int32")
        if out is None:
            out = np.empty(q.shape, dtype=np.int32)
        np.copyto(out, q, casting="unsafe")
        return out, self._reconstruct(q, u)

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
    of int32 lattice coordinates (real then imaginary).  Wider integer
    indices are accepted if every coordinate fits in int32.
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
    fp.write(_HEADER.pack(_MAGIC, _real(step, "step", positive=True), q.shape[0]))
    fp.write(np.ascontiguousarray(q, dtype="<i4").data)


def read_indices(fp) -> tuple[float, np.ndarray]:
    """Inverse of write_indices; returns (step, indices).

    The stream is read once, to its end, and parsed by ``parse_indices``.
    """
    return parse_indices(fp.read())


def parse_indices(data, offset: int = 0) -> tuple[float, np.ndarray]:
    """(step, indices) of the index stream that fills ``data`` from
    ``offset`` to its end.

    ``data`` is any bytes-like object.  The indices are the stored
    little-endian int32 pairs as an (n, 2) view of ``data``, not a copy,
    read-only when ``data`` is.  ``offset`` is a non-negative integer as
    ``misobc._integer`` takes it.
    """
    offset = _integer(offset, "offset must be an integer")
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    size = len(data) - offset
    if size < _HEADER.size:
        raise ValueError("truncated header")
    magic, step, count = _HEADER.unpack_from(data, offset)
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if not math.isfinite(step) or step <= 0.0:
        raise ValueError("header carries a nonpositive step")
    payload = size - _HEADER.size
    expected = 8 * count
    if payload != expected:
        raise ValueError(
            f"index payload holds {payload} bytes but the header "
            f"promises {count} samples ({expected} bytes)"
        )
    q = np.frombuffer(data, dtype="<i4", count=2 * count,
                      offset=offset + _HEADER.size).reshape(count, 2)
    return float(step), q
