"""Block-level simulation of the three-phase retrospective scheme.

One run uses n blocks of n symbols per phase.  Phase 1 carries user 1's
grid, phase 2 user 2's, and phase 3 forwards a dithered quantization of
the overheard mixtures s21 + s12 that the transmitter can only form
after the fact (delayed CSI).  Each receiver subtracts its own phase
observation from the delivered mixture, leaving its partner's overheard
signal plus noise of variance 1 + D, and ends up with a 2x2 effective
channel for its own codeword.

Messages are represented by their i.i.d. Gaussian symbol grids; there
are no explicit codebooks.  Decodability is certified by accounting:
per-symbol mutual information of the effective channels (checked
against the capacity module) together with the noise variance and
independence statistics of the reconstructed observations.  Phase-3
delivery is modeled error-free at its analytic symbol budget, which
enters the rate accounting only.

``run_scheme`` is the scheme's four stages in order: ``run_phases_1_2``,
``mi_accounting``, ``run_phase_3`` and ``deinterleave_and_reconstruct``.
``run_phases_1_2`` stores the run's ``SchemeConfig`` in the transcript,
and every later stage reads it from ``transcript.config``, so a run has
one power, distortion and seed throughout.  Phases 1 and 2 draw from
disjoint (tag, key) streams, all named in ``_DRAWS``, as two tasks of
``core.run_tasks`` (up to two threads), filling arrays the caller
allocated, so a run is bit-identical for any thread count.

Phase 3's symbol budget depends only on (n, P, D, delta): it is sized
from the closed forms ``oracles.c21_oracle``, ``c22d_oracle`` and
``rq_oracle``, which are also the transcript's ``reference``.  No stage
draws a Monte Carlo ensemble.  ``run_phases_1_2`` sizes phase 3, its
budget and its quantizer step, before it draws anything, so an
infeasible configuration costs no draws.  ``SchemeConfig``,
``phase3_budget`` and the sizing, ``size_phase_3``, live in the
standard-library :mod:`misobc.config`, so a caller can refuse an
infeasible run before it loads NumPy; this module imports them from
there.

No stage holds a channel grid: each phase thread draws its channel rows
in blocks of ``_MI_ROWS`` grid rows into one buffer, which gives the
bits of one whole draw, and forms, in the same pass, the block's
overheard sums and its user's mutual-information log-dets.  Every
grid-sized array is allocated in the calling thread, the ones a finished
run keeps first.  Each stage releases what it consumes, setting its
field to None.  A finished run holds u1, u2 and the lattice indices,
18 MiB at n = 512.  Its traced peak, about 54 MiB at n = 512, is reached
both in the quantization and in the reconstruction, which forms every
statistic in two grid-sized scratch buffers (8 MiB) over the 46 MiB the
transcript then holds.

A transcript dump keeps only what cannot be derived: a header, the
message grids u1 and u2 and the quantizer index stream, 18 MiB at
n = 512.  ``read_transcript_dump`` returns u1, u2 and the indices as
read-only views of the bytes it read rather than copies, and x1, x2 as
``interleave`` views of its u grids.
"""

from __future__ import annotations

import math
import struct
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import DomainError, _real, _round12, core, quantizer
from .config import MCConfig, MonteCarloEstimate, SchemeConfig, size_phase_3
from .config import phase3_budget  # noqa: F401  (re-exported)
from .core import StreamTag

_DUMP_MAGIC = b"MBT2"
_DUMP_HEADER = struct.Struct("<4sI")


@dataclass(frozen=True)
class CausalityAudit:
    """Log of the channel coefficients the transmitter reads.

    coeff_slots[j, b, :] holds global symbol slots during which
    phase-(j+1) coefficients of block b were on the air, and read_slots[b]
    is the slot at which the phase-3 encoder of block b reads them.
    Delayed CSI demands coeff < read everywhere.  A block's coefficients
    in one phase sit in consecutive slots, so ``run_phase_3`` logs only
    the last of them, the one that binds: coeff_slots has shape (2, n, 1),
    2n slots in place of 2n^2.  A full (2, n, n) log gives the same
    verdicts, since both checks broadcast over the last axis.
    """

    coeff_slots: np.ndarray
    read_slots: np.ndarray

    def ok(self) -> bool:
        return bool(np.all(self.coeff_slots < self.read_slots[None, :, None]))

    def min_margin(self) -> int:
        return int(np.min(self.read_slots[None, :, None] - self.coeff_slots))


@dataclass(frozen=True)
class SchemeStats:
    """Empirical noise and independence statistics of one run."""

    noise_var_user1: float
    noise_var_user2: float
    autocorr_user1: float
    autocorr_user2: float
    signal_corr_user1: float
    signal_corr_user2: float
    noise_cross_corr_user1: float
    noise_cross_corr_user2: float
    quant_error_var: float


@dataclass(frozen=True)
class MIReport:
    user1: MonteCarloEstimate
    user2: MonteCarloEstimate


class _Draw(NamedTuple):
    """One drawn transcript array: the stream it is drawn from under the
    run's seed, the shape after its leading (n, n), and whether it is
    scaled by the per-antenna signal amplitude sqrt(P/2)."""

    phase: int
    tag: StreamTag
    key: int
    trailing: tuple
    scaled: bool = False


_DRAWS = {
    "u1": _Draw(1, StreamTag.SCHEME_SIGNAL, 1, (2,), scaled=True),
    "h1": _Draw(1, StreamTag.SCHEME_CHANNEL, 1, (2,)),
    "g1": _Draw(1, StreamTag.SCHEME_CHANNEL, 2, (2,)),
    "z11": _Draw(1, StreamTag.SCHEME_NOISE, 1, ()),
    "z21": _Draw(1, StreamTag.SCHEME_NOISE, 2, ()),
    "u2": _Draw(2, StreamTag.SCHEME_SIGNAL, 2, (2,), scaled=True),
    "h2": _Draw(2, StreamTag.SCHEME_CHANNEL, 3, (2,)),
    "g2": _Draw(2, StreamTag.SCHEME_CHANNEL, 4, (2,)),
    "z12": _Draw(2, StreamTag.SCHEME_NOISE, 3, ()),
    "z22": _Draw(2, StreamTag.SCHEME_NOISE, 4, ()),
}
"""Every array a run draws, by transcript name, and the one place its
stream is named.  Under the run's seed the (StreamTag, key) pairs are

    phase 1: u1 (SCHEME_SIGNAL, 1), h1 (SCHEME_CHANNEL, 1),
             g1 (SCHEME_CHANNEL, 2), z11 (SCHEME_NOISE, 1), z21 (SCHEME_NOISE, 2)
    phase 2: u2 (SCHEME_SIGNAL, 2), h2 (SCHEME_CHANNEL, 3),
             g2 (SCHEME_CHANNEL, 4), z12 (SCHEME_NOISE, 3), z22 (SCHEME_NOISE, 4)

``run_phases_1_2`` fills its arrays from these streams.
"""


_CHANNELS = {1: ("h1", "g1"), 2: ("g2", "h2")}
"""Each phase's channel rows as (direct, overheard): the rows from its
user to its own receiver and to the other one.  They are also the two
rows of that user's effective channel, whose log-dets ``run_phases_1_2``
forms for ``mi_accounting``."""


_MI_ROWS = 32
"""Grid rows per channel block of phases 1 and 2 and per
``core.logdet_capacity_term`` call, so the block buffers take 0.5 MiB
per phase and the log-det temporaries 0.75 MiB at n = 512, not 12 MiB."""


def _stream(cfg: SchemeConfig, name: str) -> np.random.Generator:
    d = _DRAWS[name]
    return core.stream(cfg.seed, d.tag, d.key)


def _draw(cfg: SchemeConfig, name: str, out: np.ndarray, rng=None) -> np.ndarray:
    """Draw the array ``name`` of a run at ``cfg`` into ``out``, or, given
    ``rng``, the stream of ``name``, its next ``len(out)`` grid rows."""
    d = _DRAWS[name]
    return core.sample_cn01(_stream(cfg, name) if rng is None else rng, out.shape, out=out,
                            scale=math.sqrt(cfg.power / 2.0) if d.scaled else None)


@dataclass
class SchemeTranscript:
    """Everything one simulated run produces, filled in stage order.

    The message grids and noises (see ``_DRAWS``), the transmitter's
    overheard sums s21 and s12 and phase 3's delivery are plain array
    fields, None until the stage that makes them has run: at most 9
    arrays, 44 MiB at n = 512.  ``logdets`` holds each user's (n, n)
    float log-dets, 4 MiB at n = 512, from phases 1-2 until
    ``mi_accounting`` reduces them to ``mi``.  The channel rows are
    never stored.  Each stage releases what it consumes, setting the
    field to None, so a finished run holds what its dump holds, 18 MiB
    at n = 512, and ``mi_accounting``, ``run_phase_3`` or
    ``deinterleave_and_reconstruct`` called on it raises ValueError.
    ``run_phases_1_2`` allocates the int32 lattice indices (2 MiB) next
    to u1 and u2, and phase 3 fills them; until then they are a private
    buffer and ``quant_indices`` reads None.  The causality audit's 3n
    slots add 12 KiB.

    ``reference`` maps c21, c22d and rq to their exact values (floats,
    in bits) at the run's power and distortion, which size phase 3.

    The transmit grids x1 and x2 are read-only properties, ``interleave``
    views of u1 and u2 that read None until phases 1-2 have run.
    """

    config: SchemeConfig
    # message-domain signal grids, (n, n, 2)
    u1: np.ndarray = None
    u2: np.ndarray = None
    # receiver noises, (n, n);  index [receiver, phase]
    z11: np.ndarray = None
    z21: np.ndarray = None
    z12: np.ndarray = None
    z22: np.ndarray = None
    # noiseless overheard sums, (n, n)
    s21: np.ndarray = None
    s12: np.ndarray = None
    # each user's effective-channel log-dets, two (n, n) float arrays
    logdets: tuple = None
    # what phase 3 delivers, (n, n)
    delivered: np.ndarray = None
    # phase 3
    audit: CausalityAudit = None
    phase3_budget: int = None
    quant_step: float = None
    quant_indices: np.ndarray = None
    reference: dict = field(default_factory=dict)
    _indices: np.ndarray = field(default=None, init=False, repr=False)
    # reconstruction
    stats: SchemeStats = None
    mi: MIReport = None

    # transmit-domain signal grids, (n, n, 2): views of the message grids
    @property
    def x1(self):
        return None if self.u1 is None else interleave(self.u1)

    @property
    def x2(self):
        return None if self.u2 is None else interleave(self.u2)


def interleave(u: np.ndarray) -> np.ndarray:
    """Swap block and time axes: out[b][t] = u[t][b].  Its own inverse.

    Returns a view of ``u``; callers copy it where they keep it.
    """
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[0] != u.shape[1]:
        raise ValueError("grid must be square in its first two axes")
    return np.swapaxes(u, 0, 1)


def run_phases_1_2(cfg: SchemeConfig) -> SchemeTranscript:
    """Size phase 3, then draw signals, channels and noises and transmit
    phases 1 and 2.

    The phase-3 budget, ``transcript.reference`` and the quantizer step
    ``transcript.quant_step`` come first, from the closed forms at the
    run's power and distortion (``config.size_phase_3``, then
    ``quantizer.step_for_distortion``): if rq does not clear c21 - delta,
    the forwarding link cannot keep up, and if the step overflows a
    double, the distortion cannot be met; either way the DomainError is
    raised before a single stream is opened.

    Each phase draws its arrays of ``_DRAWS``: the message grid and the
    two noises whole, the two channel arrays (``_CHANNELS``) in blocks of
    ``_MI_ROWS`` grid rows into one block buffer, each from its own
    stream, which gives the bits of one whole draw.  The same pass forms
    the block's rows of the overheard mixture the transmitter keeps for
    phase 3 (s21 = g1.x1, s12 = h2.x2) and of its user's log-dets (see
    ``mi_accounting``) in ``transcript.logdets``, so no channel grid is
    ever held.

    The two phases draw from disjoint (tag, key) streams and share no
    array, so they run as two tasks of ``core.run_tasks``: on two threads
    when at least two CPUs are usable, otherwise one after the other in
    the caller's thread with no pool.  Every array is allocated here, in
    the calling thread, and the tasks only fill them in place
    (``core.sample_cn01`` with ``out=``), so the phases make no
    grid-sized temporaries and their bits do not depend on the thread
    count.  The block buffers go when the phases end.  ``cfg`` becomes
    ``transcript.config``.
    """
    reference, budget = size_phase_3(cfg)
    step = quantizer.step_for_distortion(cfg.distortion)
    n = cfg.n
    t = SchemeTranscript(config=cfg, phase3_budget=budget, quant_step=step, reference=reference)

    def grid(name):
        setattr(t, name, np.empty((n, n) + _DRAWS[name].trailing, dtype=np.complex128))

    # What a finished run keeps first (the message grids, then the lattice
    # indices), then noises, sums and log-dets, so that what the stages
    # release lies in one span of the heap above them: the other orders
    # tried raised simulate's peak RSS by 4-21%.
    grid("u1")
    grid("u2")
    t._indices = np.empty((n * n, 2), dtype=np.int32)
    for name, d in _DRAWS.items():
        if d.tag == StreamTag.SCHEME_NOISE:
            grid(name)
    t.s21, t.s12 = (np.empty((n, n), dtype=np.complex128) for _ in range(2))
    t.logdets = tuple(np.empty((n, n)) for _ in _CHANNELS)
    buffers = [np.empty((2, min(n, _MI_ROWS), n, 2), dtype=np.complex128) for _ in _CHANNELS]

    def phase(job):
        number, x, overheard = job
        channels = _CHANNELS[number]
        for name, d in _DRAWS.items():
            if d.phase == number and name not in channels:
                _draw(cfg, name, getattr(t, name))
        streams = [_stream(cfg, name) for name in channels]
        for start in range(0, n, _MI_ROWS):
            block = slice(start, min(start + _MI_ROWS, n))
            rows = buffers[number - 1][:, :block.stop - start]
            for name, rng, out in zip(channels, streams, rows):
                _draw(cfg, name, out, rng)
            # overheard[b, t] = <row[b, t], x[b, t]> without conjugation
            np.einsum("bta,bta->bt", rows[1], x[block], out=overheard[block])
            t.logdets[number - 1][block] = core.logdet_capacity_term(
                rows, cfg.power, cfg.distortion)

    list(core.run_tasks(phase, ((1, t.x1, t.s21), (2, t.x2, t.s12))))  # runs as it is consumed
    return t


def run_phase_3(transcript: SchemeTranscript) -> SchemeTranscript:
    """Quantize the overheard mixtures and deliver them error-free.

    Logs the causality audit, then quantizes s21 + s12 with the dithered
    quantizer of distortion D, dithered from the run's seed, into the
    lattice-index buffer that ``run_phases_1_2`` allocated, and stores
    the indices and the delivery.  The step, ``transcript.quant_step``,
    and the symbol budget that carries the indices,
    ``transcript.phase3_budget``, were sized before phases 1 and 2 drew
    anything.
    """
    if transcript.s21 is None:
        raise ValueError("phases 1 and 2 must run first (s21 is None: not made or released)")
    # The encoder reads the phase-1/2 coefficients of block b when its
    # phase 3 starts; log the slot of each phase's last coefficient, which
    # binds, to make causality auditable.
    cfg = transcript.config
    n = cfg.n
    base = 3 * n * np.arange(n, dtype=np.int64)
    coeff_slots = np.stack((base + n - 1, base + 2 * n - 1))[:, :, None]
    read_slots = base + 2 * n
    transcript.audit = CausalityAudit(coeff_slots, read_slots)

    mixture = transcript.s21 + transcript.s12
    encoder = quantizer.DitheredQuantizer(transcript.quant_step, dither_seed=cfg.seed)
    indices, recon = encoder.quantize(mixture.ravel(), out=transcript._indices)
    transcript._indices = None
    transcript.quant_indices = indices
    transcript.delivered = recon.reshape(n, n)
    return transcript


def _complex_scratch(h: np.ndarray, shape: tuple) -> np.ndarray:
    """The first prod(shape) complex values of the float scratch ``h``, shaped."""
    return h.view(np.complex128)[:math.prod(shape)].reshape(shape)


def _power(a: np.ndarray, h: np.ndarray) -> float:
    """E|a|^2 over every entry of a complex array: the squares of its real
    and imaginary parts are formed in the two float halves of ``h``."""
    half = h.size // 2
    re, im = h[:a.size], h[half:half + a.size]
    np.square(a.real, out=re.reshape(a.shape))
    np.square(a.imag, out=im.reshape(a.shape))
    return float(np.mean(np.add(re, im, out=re)))


class _Moments(NamedTuple):
    """A complex sequence with its mean and E|.|^2."""

    seq: np.ndarray
    mean: complex
    power: float


def _moments(seq: np.ndarray, h: np.ndarray) -> _Moments:
    """``seq``'s mean, taken over a contiguous array in its C order (a
    strided ``seq`` is copied into ``h`` first), and its power, which
    overwrites ``h``."""
    flat = seq
    if not seq.flags.c_contiguous:
        flat = _complex_scratch(h, seq.shape)
        flat[...] = seq
    mean = flat.ravel().mean()
    return _Moments(seq, mean, _power(seq, h))


def _corr(a: _Moments, b: _Moments, h: np.ndarray) -> float:
    """Magnitude of the Pearson correlation of two complex sequences of one
    shape; the product conj(b)·a is formed in ``h``."""
    prod = _complex_scratch(h, a.seq.shape)
    np.conjugate(b.seq, out=prod)
    np.multiply(a.seq, prod, out=prod)
    num = prod.ravel().mean() - a.mean * np.conj(b.mean)
    va = float(a.power - (a.mean.real**2 + a.mean.imag**2))
    vb = float(b.power - (b.mean.real**2 + b.mean.imag**2))
    if va <= 0.0 or vb <= 0.0:
        return 0.0
    # va * vb passes the largest double once the variances reach about
    # 1.3e154; only then are the square roots taken apart
    vv = va * vb
    scale = math.sqrt(vv) if math.isfinite(vv) else math.sqrt(va) * math.sqrt(vb)
    return float(abs(num) / scale)


def deinterleave_and_reconstruct(transcript: SchemeTranscript) -> SchemeTranscript:
    """Each receiver strips its own phase observation from the delivery.

    Receiver 1 forms ytilde21 = delivered - y12 = s21 + (quantization
    error - z12), a view of the overheard phase-1 signal through noise
    of variance 1 + D; receiver 2 symmetrically.  The residuals are then
    de-interleaved and summarized: variances, lag-1 autocorrelation in
    the message domain, correlation against the transmit-signal
    coordinates and against the direct observation noises.  Each
    residual, (delivered - (s12 + z12)) - s21 for user 1, overwrites
    the noise it consumes, z12 for user 1 and z21 for user 2.  Once the
    statistics are formed, the noises, the overheard sums and the
    delivery are released.

    Beyond the residuals, every statistic is formed in two grid-sized
    scratch buffers allocated once per call, 8 MiB at n = 512: ``c``, n^2
    complex values, holds one strided sequence gathered contiguous (each
    transmit-antenna coordinate, for both users, then each de-interleaved
    residual, whose lag-1 views read it) and at last the quantization
    error; ``h``, 2n^2 floats, takes the squares of a power in its two
    halves, or a correlation's product conj(b)·a, or a strided sequence
    copied for its mean.  Each mean is one mean over a contiguous array
    in the sequence's C order, so the statistics have the bits of
    whole-array formulas.
    """
    if transcript.delivered is None:
        raise ValueError("phase 3 must run first (delivered is None: not made or released)")
    t = transcript
    n = t.config.n
    c = np.empty((n, n), dtype=np.complex128)
    h = np.empty(2 * n * n)
    resid = []
    for heard, noise, own in zip((t.s12, t.s21), (t.z12, t.z21), (t.s21, t.s12)):
        r = np.add(heard, noise, out=noise)
        np.subtract(t.delivered, r, out=r)
        resid.append(_moments(np.subtract(r, own, out=r), h))
    resid1, resid2 = resid

    def lag1(resid):
        if n < 2:
            return 0.0
        np.copyto(c, interleave(resid.seq))  # message domain
        return _corr(_moments(c[:, 1:], h), _moments(c[:, :-1], h), h)

    signal1 = [_corr(resid1, _moments(t.s21, h), h)]
    signal2 = [_corr(resid2, _moments(t.s12, h), h)]
    for x in (t.x1, t.x2):
        for antenna in (0, 1):
            np.copyto(c, x[..., antenna])
            ref = _moments(c, h)
            signal1.append(_corr(resid1, ref, h))
            signal2.append(_corr(resid2, ref, h))

    t.stats = SchemeStats(
        noise_var_user1=resid1.power,
        noise_var_user2=resid2.power,
        autocorr_user1=lag1(resid1),
        autocorr_user2=lag1(resid2),
        signal_corr_user1=max(signal1),
        signal_corr_user2=max(signal2),
        noise_cross_corr_user1=_corr(resid1, _moments(t.z11, h), h),
        noise_cross_corr_user2=_corr(resid2, _moments(t.z22, h), h),
        quant_error_var=_power(np.subtract(t.delivered, np.add(t.s21, t.s12, out=c), out=c), h),
    )
    for name in ("z11", "z21", "z12", "z22", "s21", "s12", "delivered"):
        setattr(t, name, None)
    return transcript


def mi_accounting(transcript: SchemeTranscript) -> MIReport:
    """Per-symbol mutual information of each user's effective 2x2 channel.

    For user 1 the rows are (h1, g1) with noise variances
    (1, 1 + D); the grid average estimates the per-symbol rate and must
    agree with capacity.c22d at the power and distortion of ``transcript.config``.
    Phases 1 and 2 formed the log-dets block by block while they drew the
    channel rows, with ``core.logdet_capacity_term`` at that power and D,
    one (n, n) array per user in ``transcript.logdets``.
    Each array's mean and standard error are taken over the whole array,
    so the bits are those of one whole-grid call, wherever and whenever
    the blocks ran; then the log-dets are released.  A mean that is not
    finite, at a power where the log-dets overflow a double, raises a
    DomainError.
    """
    if transcript.logdets is None:
        raise ValueError("phases 1 and 2 must run first (logdets is None: not made or released)")
    t = transcript
    cfg = t.config
    count = cfg.n * cfg.n

    def estimate(vals):
        vals = vals.ravel()
        mean = float(np.mean(vals))
        if not math.isfinite(mean):  # checked before np.std, which warns on inf - inf
            raise DomainError(f"mutual information is not finite at P = {cfg.power:g}")
        stderr = float(np.std(vals, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        return MonteCarloEstimate(mean, stderr, count, cfg.seed)

    user1, user2 = t.logdets
    t.mi = MIReport(user1=estimate(user1), user2=estimate(user2))
    t.logdets = None
    return t.mi


def _rates(c22d_value, rq_value, c21_value) -> tuple[float, float, float]:
    """c22d, rq and c21 as floats: numbers, finite, c21 positive and the
    others nonnegative, else a ValueError."""
    return (_real(c22d_value, "c22d_value"), _real(rq_value, "rq_value"),
            _real(c21_value, "c21_value", positive=True))


def achieved_rate_pair(c22d_value: float, rq_value: float, c21_value: float):
    """Symmetric rate point c22d / (2 + rq/c21) per user.

    Spending n rq / c21 extra symbols on forwarding stretches 2n data
    slots to (2 + rq/c21) n, so each user keeps a 1/(2 + rq/c21) share
    of its per-symbol rate.  When rq <= c21 this is at least c22d / 3.
    """
    c22dv, rqv, c21v = _rates(c22d_value, rq_value, c21_value)
    r = c22dv / (2.0 + rqv / c21v)
    return (r, r)


def rate_floor(c22d_value: float, rq_value: float, c21_value: float):
    """The guaranteed symmetric rate c22d/3, available whenever rq <= c21;
    the rates are validated as ``achieved_rate_pair`` validates them."""
    c22dv, rqv, c21v = _rates(c22d_value, rq_value, c21_value)
    return c22dv / 3.0 if rqv / c21v <= 1.0 else None


def run_scheme(cfg: SchemeConfig, ref_mc: MCConfig | None = None) -> SchemeTranscript:
    """Full pipeline: ``run_phases_1_2``, ``mi_accounting``,
    ``run_phase_3`` and ``deinterleave_and_reconstruct``, in that order,
    on one transcript.

    Phase 3 is sized before anything is drawn, so an infeasible
    configuration raises its DomainError at once.  ``ref_mc`` is
    accepted for existing callers and read by nothing.  A failing stage
    raises the first error of the stage order (budget, accounting,
    quantization, reconstruction), and no pool thread outlives the call.

    Each stage releases what it consumes, so the finished transcript
    holds u1, u2 and the lattice indices, what its dump holds (18 MiB at
    n = 512), and every released field reads None.  The traced peak at
    n = 512, about 54 MiB, is reached in the quantization and again in
    the reconstruction, whose two scratch grids (8 MiB) come over the
    46 MiB the transcript then holds.
    """
    t = run_phases_1_2(cfg)
    mi_accounting(t)
    run_phase_3(t)
    return deinterleave_and_reconstruct(t)


def _estimate_dict(e: MonteCarloEstimate) -> dict:
    return {
        "value": _round12(e.value),
        "stderr": _round12(e.stderr),
        "samples": e.samples,
        "seed": e.seed,
    }


def summary(transcript: SchemeTranscript) -> dict:
    """Machine-readable run report (floats rounded to 12 significant digits)."""
    t = transcript
    if t.stats is None or t.mi is None:
        raise ValueError("run the full pipeline before summarizing")
    ref = t.reference
    pair = achieved_rate_pair(ref["c22d"], ref["rq"], ref["c21"])
    floor = rate_floor(ref["c22d"], ref["rq"], ref["c21"])
    r12 = _round12
    return {
        "config": asdict(t.config),
        "phase3_budget": t.phase3_budget,
        "noise_var_user1": r12(t.stats.noise_var_user1),
        "noise_var_user2": r12(t.stats.noise_var_user2),
        "residual_autocorr": {
            "user1": r12(t.stats.autocorr_user1),
            "user2": r12(t.stats.autocorr_user2),
        },
        "mi_user1": _estimate_dict(t.mi.user1),
        "mi_user2": _estimate_dict(t.mi.user2),
        "achieved_rate_pair": [r12(pair[0]), r12(pair[1])],
        "reference": {name: r12(value) for name, value in ref.items()},
        "diagnostics": {
            "quant_error_var": r12(t.stats.quant_error_var),
            "residual_signal_corr": {
                "user1": r12(t.stats.signal_corr_user1),
                "user2": r12(t.stats.signal_corr_user2),
            },
            "noise_cross_corr": {
                "user1": r12(t.stats.noise_cross_corr_user1),
                "user2": r12(t.stats.noise_cross_corr_user2),
            },
            "rate_floor": None if floor is None else r12(floor),
            "causality_ok": t.audit.ok(),
            "causality_min_margin": t.audit.min_margin(),
        },
    }


def check_stats(transcript: SchemeTranscript) -> list[str]:
    """Return human-readable violations of the run's statistical invariants.

    Checks, at the configured distortion D: residual variance within 5%
    of 1 + D for both users, quantization error variance within 5% of D,
    and every tracked correlation magnitude below 0.02.  An empty list
    means the run is clean.
    """
    t = transcript
    if t.stats is None:
        raise ValueError("run the pipeline before checking statistics")
    d = t.config.distortion
    out = []

    def within(label, value, target, frac):
        if abs(value - target) > frac * target:
            out.append(f"{label} = {value:.6g}, expected {target:.6g} within {frac:.0%}")

    within("noise_var_user1", t.stats.noise_var_user1, 1.0 + d, 0.05)
    within("noise_var_user2", t.stats.noise_var_user2, 1.0 + d, 0.05)
    within("quant_error_var", t.stats.quant_error_var, d, 0.05)
    for label, value in (
        ("residual_autocorr_user1", t.stats.autocorr_user1),
        ("residual_autocorr_user2", t.stats.autocorr_user2),
        ("residual_signal_corr_user1", t.stats.signal_corr_user1),
        ("residual_signal_corr_user2", t.stats.signal_corr_user2),
        ("noise_cross_corr_user1", t.stats.noise_cross_corr_user1),
        ("noise_cross_corr_user2", t.stats.noise_cross_corr_user2),
    ):
        if value >= 0.02:
            out.append(f"{label} = {value:.6g}, expected below 0.02")
    if not t.audit.ok():
        out.append("causality audit failed: a channel coefficient was read early")
    return out


def dump_transcript(transcript: SchemeTranscript, fp) -> None:
    """Binary dump of what a run drew for its messages and what phase 3 sent.

    Layout, all little endian: magic ``MBT2`` (4 bytes) and n as a
    uint32, then the message grids u1 and u2, each n*n*2 complex128
    written straight from its buffer, then the quantizer index stream
    in its own framed format (``quantizer.write_indices``).  The transmit
    grids are not stored: x = interleave(u), so the reader derives them.
    """
    t = transcript
    if t.quant_indices is None:
        raise ValueError("phase 3 must run before dumping")
    fp.write(_DUMP_HEADER.pack(_DUMP_MAGIC, t.config.n))
    for grid in (t.u1, t.u2):
        fp.write(np.ascontiguousarray(grid, dtype="<c16").data)
    quantizer.write_indices(fp, t.quant_step, t.quant_indices)


def read_transcript_dump(fp) -> dict:
    """Inverse of dump_transcript; returns the four signal grids plus
    (step, indices).

    The stream is read once, to its end.  u1 and u2 are read-only views
    of the bytes read, x1 and x2 their ``interleave`` views, and the
    indices the stored int32 pairs, parsed in place by
    ``quantizer.parse_indices``: reading an ``io.BytesIO`` of a dump from
    its start shares the dump's own bytes for all four grids and the
    indices.
    """
    data = fp.read()
    if len(data) < _DUMP_HEADER.size:
        raise ValueError("truncated header")
    magic, n = _DUMP_HEADER.unpack_from(data)
    if magic != _DUMP_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    count = n * n * 2
    start = _DUMP_HEADER.size
    end = start + 2 * 16 * count
    if len(data) < end:
        raise ValueError("truncated signal grid")
    u1, u2 = (np.frombuffer(data, "<c16", count=count, offset=offset).reshape(n, n, 2)
              for offset in (start, start + 16 * count))
    step, indices = quantizer.parse_indices(data, end)
    if indices.shape[0] != n * n:
        raise ValueError(f"index stream holds {indices.shape[0]} samples, "
                         f"expected n^2 = {n * n}")
    return {"u1": u1, "u2": u2, "x1": interleave(u1), "x2": interleave(u2),
            "quant_step": step, "quant_indices": indices}
