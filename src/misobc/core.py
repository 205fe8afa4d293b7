"""Complex channel arithmetic and reproducible random streams.

Conventions shared by every module in this package:

* A channel row (the path from the two transmit antennas to one receive
  antenna) is a length-2 complex128 vector, and a batch of rows an
  (m..., 2) array.
* A receiver's effective channel is a 2x2 transfer matrix, handled as
  its two rows: two row batches of one shape.
* Randomness comes from counter-based Philox streams keyed by a master
  seed plus an integer stream key, so every sample sequence is a pure
  function of (seed, key) and can be regenerated independently anywhere.
  The first key entry is a ``StreamTag``, one per consumer, all listed
  in this module.

Threads are started here only, and ``run_tasks`` is the package's only
parallel code: no module calls BLAS, whose own threads would split sums
in an order set by the environment.  ``run_tasks`` computes independent
tasks, the sample blocks of the estimator and the scheme's two data
phases, and yields their results in task order as they complete, with at most
twice as many tasks in flight as threads: on one pool thread per usable
CPU, never more than there are tasks, or inline in the calling thread
when that comes to one.  No caller sets the count; the usable CPUs are
the process's CPU affinity, so ``taskset`` restricts the threads.  Each
task draws from its own stream into arrays its caller allocated, so the
results do not depend on the thread count.

One public function per primitive does the work: ``sample_cn01``
returns an array, or fills a caller's array in place, and
``logdet_capacity_term`` takes a batch of 2x2 channels as its two row
arrays and returns an array.  The 2x2 determinants are evaluated in
closed form.  That keeps the hot Monte Carlo paths free of per-sample
LAPACK calls and is exact at this dimension.
"""

from __future__ import annotations

import enum
import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import LN2, DomainError, _integer, _real  # noqa: F401  (re-exported: misobc.core.DomainError)


@enum.unique  # a repeated value fails the import: two consumers would draw the same numbers
class StreamTag(enum.IntEnum):
    """The first stream key of every draw under a master seed, one per consumer.

    Frozen results depend on these values; never renumber one.
    """

    CAPACITY_CHANNEL = 1  # capacity.estimate's channel ensemble, one stream per block
    # 2 is retired (a Rayleigh side-information gain, now priced in closed
    # form) and never reused: a new consumer takes a new value
    QUANTIZER_DITHER = 3  # the dither of a DitheredQuantizer link
    SCHEME_SIGNAL = 4  # the scheme's message grids, one stream per user
    SCHEME_CHANNEL = 5  # the scheme's channel rows
    SCHEME_NOISE = 6  # the scheme's receiver noises


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_count(tasks: int) -> int:
    """Threads that ``run_tasks`` runs ``tasks`` tasks on: one per usable
    CPU, never more than there are tasks."""
    return min(_usable_cpus(), tasks)


def run_tasks(fn, items) -> Iterator:
    """Yield ``fn(item)`` for each item of the sequence ``items``, in item
    order, computed on ``thread_count(len(items))`` threads; the tasks run
    only while the iterator is consumed.

    One thread means no pool: each task runs inline, in the calling
    thread, when its result is asked for.  Otherwise the tasks run on a
    pool of that many threads, at most twice as many tasks in flight as
    threads, and each result is yielded once it and every result before
    it are done, so results never pile up ahead of the caller.  The first
    error in item order is raised once every pool thread has stopped; the
    tasks not yet started are cancelled.
    """
    threads = thread_count(len(items))
    if threads <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(threads) as pool:
        window = deque()
        try:
            for item in items:
                if len(window) == 2 * threads:
                    yield window.popleft().result()
                window.append(pool.submit(fn, item))
            while window:
                yield window.popleft().result()
        finally:
            for future in window:
                future.cancel()


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for stream ``key`` under ``seed``.

    Identical (seed, key) pairs yield identical sample sequences across
    runs and platforms.  Concurrent consumers must use distinct keys;
    a generator instance is never shared.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def sample_cn01(rng: np.random.Generator, size=None, *, out=None, scale=None) -> np.ndarray:
    """Draw circularly symmetric complex Gaussians with unit variance.

    Real and imaginary parts are independent N(0, 1/2), so E|z|^2 = 1;
    ``scale``, if given, multiplies every draw.  Returns an ndarray of the
    requested shape: 0-d for size=None, else ``size``, a tuple or an integer
    as ``misobc._integer`` takes it.  As in NumPy's
    ``standard_normal``, ``out`` is a C-contiguous complex128 array that
    is filled and returned, and ``size`` is then omitted or equal to
    ``out.shape``.  The normal pairs are drawn and scaled in the array's
    real and imaginary parts, so there are no temporaries and the bits do
    not depend on who allocated the array.
    """
    shape = () if size is None else (size if isinstance(size, tuple)
                                     else (_integer(size, "size must be an integer"),))
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
    return out


def logdet_capacity_term(rows, power, distortion) -> np.ndarray:
    """Per-realization log-det rate of a batch of 2 x 2 channels, in bits.

    Evaluates log2 det(I_2 + (power/2) S^(-1/2) H H^H S^(-1/2)) with
    S = diag(1, 1 + distortion) and ``rows`` the two rows of H, two arrays
    of one shape (m..., 2) with at least one leading axis; a single matrix
    h is passed as the batch of one ``h[:, None]``.  The first row sees
    unit noise and the second, the row phase 3 delivers quantized, noise
    of variance 1 + distortion.  The power and the distortion are read by
    ``misobc._real``, both nonnegative.  The result is a float array of
    the leading shape (m...); H is never stacked into one array.

    The determinant is expanded in closed form, the argument of log2 being

        1 + (power/2) (|row0|^2 + |row1|^2/s1)
          + (power/2)^2 |det H|^2 / s1,     s1 = 1 + distortion.
    """
    rows = [np.asarray(row, dtype=np.complex128) for row in rows]
    shapes = {row.shape for row in rows}
    if len(rows) != 2 or len(shapes) != 1 or rows[0].ndim < 2 or rows[0].shape[-1] != 2:
        raise ValueError(f"rows must be 2 arrays of one shape (m..., 2), got {shapes}")
    p = _real(power, "power")
    s1 = 1.0 + _real(distortion, "distortion")

    # the terms accumulate in their first temporary, in the order of
    # c (norm0 + norm1/s1) + (c c) det2 / s1
    c = p / 2.0
    row0, row1 = rows
    norm0 = np.abs(row0[..., 0]) ** 2
    norm0 += np.abs(row0[..., 1]) ** 2
    norm1 = np.abs(row1[..., 0]) ** 2
    norm1 += np.abs(row1[..., 1]) ** 2
    det = row0[..., 0] * row1[..., 1]
    det -= row0[..., 1] * row1[..., 0]
    arg = det.real**2
    arg += det.imag**2
    del det
    norm1 /= s1
    norm0 += norm1
    norm0 *= c
    arg *= c * c
    arg /= s1
    arg += norm0
    np.log1p(arg, out=arg)
    arg /= LN2
    return arg
