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

``run_phases_1_2`` stores the run's ``SchemeConfig`` in the transcript,
and every later stage reads it from ``transcript.config``, so a run has
one power, distortion and seed throughout.  Phases 1 and 2 draw from
disjoint (tag, key) streams, all named in ``_DRAWS``, on up to two
threads, filling arrays the caller allocated, so a run is bit-identical
for any thread count.  The stages store only the draws, the overheard
sums and phase 3's output; everything else is derived on access.

``run_scheme`` starts phase 3's reference estimate right after phases 1
and 2 and collects it last: with more than one estimator worker its
blocks run on the estimator's pool while the calling thread does the
mutual-information accounting (which reads only the channel rows), the
quantization and the reconstruction, then runs the blocks the pool has
not started, and sets the phase-3 budget.
Every array is allocated in the calling thread.  It releases each
array after its last reader, setting its field to None.  A finished
run holds u1, u2 and the lattice indices, 18 MiB at n = 512, and its
traced peak (about 83 MiB with the default reference on two CPUs) is
reached in the accounting, over the 72 MiB the phases drew and the
reference's scratch sets.  Callers that run the stages one at a time
keep every array.

A transcript dump keeps only what cannot be derived: a header, the
message grids u1 and u2 and the quantizer index stream, 18 MiB at
n = 512.  ``read_transcript_dump`` returns u1, u2 and the indices as
read-only views of the bytes it read rather than copies, and x1, x2 as
``interleave`` views of its u grids.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import (DEFAULT_SEED, MAX_BLOCKS, DomainError, _integer, _number, _round12, _seed,
               capacity, core, quantizer)
from .capacity import MCConfig, MonteCarloEstimate, PowerGrid
from .core import StreamTag

_DUMP_MAGIC = b"MBT2"
_DUMP_HEADER = struct.Struct("<4sI")


@dataclass(frozen=True)
class SchemeConfig:
    """Run parameters: n blocks per phase, transmit power, quantizer distortion,
    phase-3 margin delta, and the master seed (a non-negative integer, as
    ``MCConfig`` takes it).  Power, distortion and delta take any real
    number type, NumPy's too, and are stored as float; None or a string
    is rejected with a ValueError that names the field."""

    n: int
    power: float
    distortion: float = 4.0
    delta: float = 0.1
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        n = _integer(self.n, "n must be an integer")
        if not 1 <= n <= MAX_BLOCKS:
            raise ValueError(f"n must be between 1 and {MAX_BLOCKS}")
        object.__setattr__(self, "n", n)
        for name in ("power", "distortion", "delta"):
            value = _number(getattr(self, name), name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", _seed(self.seed))


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


def _draw(cfg: SchemeConfig, name: str, out: np.ndarray) -> np.ndarray:
    """Draw the array ``name`` of a run at ``cfg`` into ``out``."""
    d = _DRAWS[name]
    return core.sample_cn01(core.stream(cfg.seed, d.tag, d.key), (cfg.n, cfg.n) + d.trailing,
                            out=out, scale=math.sqrt(cfg.power / 2.0) if d.scaled else None)


@dataclass
class SchemeTranscript:
    """Everything one simulated run produces, filled in phase order.

    The draws (see ``_DRAWS``), the transmitter's overheard sums s21 and
    s12 and phase 3's delivery are plain array fields, None until the
    stage that makes them has run: 13 arrays, 76 MiB at n = 512, plus
    the int32 lattice indices (2 MiB) and the causality audit, whose 3n
    slots add 12 KiB.  ``run_scheme`` releases each of them after its
    last reader except u1 and u2, setting the field to None, so a
    finished run holds what its dump holds, 18 MiB at n = 512, and
    ``mi_accounting``, ``run_phase_3`` or ``deinterleave_and_reconstruct``
    called on it raises ValueError.  Callers that run the stages one at
    a time keep every array.

    The transmit grids, the receivers' observations, the reconstructed
    observations and the quantization error are read-only properties,
    computed on each access (x1 and x2 are views of u1 and u2, the
    others fresh arrays).  Each reads None until the stage that makes
    its inputs has run, and all but x1 and x2 read None once
    ``run_scheme`` has released their inputs.
    """

    config: SchemeConfig
    # message-domain signal grids, (n, n, 2)
    u1: np.ndarray = None
    u2: np.ndarray = None
    # channel rows per receiver and phase, (n, n, 2);  h -> receiver 1, g -> receiver 2
    h1: np.ndarray = None
    g1: np.ndarray = None
    h2: np.ndarray = None
    g2: np.ndarray = None
    # receiver noises, (n, n);  index [receiver, phase]
    z11: np.ndarray = None
    z21: np.ndarray = None
    z12: np.ndarray = None
    z22: np.ndarray = None
    # noiseless overheard sums, (n, n)
    s21: np.ndarray = None
    s12: np.ndarray = None
    # what phase 3 delivers, (n, n)
    delivered: np.ndarray = None
    # phase 3
    audit: CausalityAudit = None
    phase3_budget: int = None
    quant_step: float = None
    quant_indices: np.ndarray = None
    reference: dict = field(default_factory=dict)
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

    # receiver observations, (n, n);  index [receiver, phase]
    @property
    def y11(self):
        return None if self.h1 is None else _receive(self.h1, self.x1) + self.z11

    @property
    def y21(self):
        return None if self.s21 is None else self.s21 + self.z21

    @property
    def y12(self):
        return None if self.s12 is None else self.s12 + self.z12

    @property
    def y22(self):
        return None if self.g2 is None else _receive(self.g2, self.x2) + self.z22

    # what each receiver keeps of the delivery once its own observation is gone
    @property
    def ytilde21(self):
        return None if self.delivered is None else self.delivered - self.y12

    @property
    def ytilde12(self):
        return None if self.delivered is None else self.delivered - self.y21

    @property
    def quant_error(self):
        return None if self.delivered is None else self.delivered - (self.s21 + self.s12)


def _release(t: SchemeTranscript, *names: str) -> None:
    """Let go of the arrays ``names``: each field reads None from then on."""
    for name in names:
        setattr(t, name, None)


def interleave(u: np.ndarray) -> np.ndarray:
    """Swap block and time axes: out[b][t] = u[t][b].  Its own inverse.

    Returns a view of ``u``; callers copy it where they keep it.
    """
    u = np.asarray(u)
    if u.ndim < 2 or u.shape[0] != u.shape[1]:
        raise ValueError("grid must be square in its first two axes")
    return np.swapaxes(u, 0, 1)


def _receive(rows: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # y[b, t] = <rows[b, t], x[b, t]> without conjugation
    return np.einsum("bta,bta->bt", rows, x, out=out)


def run_phases_1_2(cfg: SchemeConfig) -> SchemeTranscript:
    """Draw signals, channels and noises; transmit phases 1 and 2.

    Each phase draws its arrays of ``_DRAWS``, and the transmitter keeps
    the noiseless overheard mixtures s21 = g1.x1 and s12 = h2.x2 for
    phase 3.  Only the draws and these sums are stored, 72 MiB at
    n = 512; the receivers' direct (unit noise variance) observations of
    both phases, y = row.x + z, are derived from them on access.

    The two phases draw from disjoint (tag, key) streams and share no
    array, so they run as two tasks: on two threads when at least two
    CPUs are usable, otherwise one after the other in the caller's
    thread with no pool.  Every array is allocated here, in the calling
    thread, and the tasks only fill them in place (``core.sample_cn01``
    with ``out=``), so the phases make no temporaries and their bits do
    not depend on the thread count.  ``cfg`` becomes ``transcript.config``.
    """
    n = cfg.n
    t = SchemeTranscript(config=cfg)
    for name, d in _DRAWS.items():
        setattr(t, name, np.empty((n, n) + d.trailing, dtype=np.complex128))
    # the sums after the draws: allocated first, they raised peak RSS 4% (heap layout)
    t.s21, t.s12 = (np.empty((n, n), dtype=np.complex128) for _ in range(2))

    def phase(number, rows, x, overheard):
        for name, d in _DRAWS.items():
            if d.phase == number:
                _draw(cfg, name, getattr(t, name))
        _receive(rows, x, out=overheard)

    tasks = (lambda: phase(1, t.g1, t.x1, t.s21), lambda: phase(2, t.h2, t.x2, t.s12))
    if capacity._thread_count(len(tasks)) > 1:
        with ThreadPoolExecutor(len(tasks)) as pool:
            for done in [pool.submit(task) for task in tasks]:
                done.result()  # re-raises a task's error here
    else:
        for task in tasks:
            task()
    return t


def phase3_budget(n: int, rq_value: float, c21_value: float, delta: float) -> int:
    """Symbols per block needed to forward the quantized mixture.

    The n overheard samples per block cost n rq bits, carried by a link
    of rate c21 - delta; the budget is the ceiling of their quotient.
    Requires rq < c21 - delta, otherwise forwarding cannot keep up.
    """
    rq = _number(rq_value, "rq_value")
    margin = _number(c21_value, "c21_value") - _number(delta, "delta")
    if margin <= 0.0 or rq >= margin:
        raise DomainError(
            f"phase-3 forwarding needs rq < c21 - delta, got rq = {rq:.6g}, "
            f"c21 - delta = {margin:.6g}"
        )
    return math.ceil(n * rq / margin)


def _reference(transcript: SchemeTranscript, ref_mc: MCConfig | None) -> capacity._Pending:
    """Start the estimate of c21, c22d and rq that sizes phase 3, under
    ``ref_mc`` (default: the run's seed) at the run's power and distortion."""
    cfg = transcript.config
    return capacity._start(("c21", "c22d", "rq"), PowerGrid.single(cfg.power),
                           ref_mc or MCConfig(seed=cfg.seed), cfg.distortion)


def _set_budget(transcript: SchemeTranscript, reference: capacity._Pending) -> None:
    """Finish the reference estimate, store it and size phase 3 from it."""
    (point,) = capacity._finish(reference)
    c21e, c22de, rqe = point.estimates
    transcript.reference = {"c21": c21e, "c22d": c22de, "rq": rqe}
    cfg = transcript.config
    try:
        transcript.phase3_budget = phase3_budget(cfg.n, rqe.value, c21e.value, cfg.delta)
    except DomainError as err:
        raise DomainError(f"{err} at P = {cfg.power:g}, D = {cfg.distortion:g}") from err


def _quantize(transcript: SchemeTranscript) -> None:
    """Log the causality audit, quantize the overheard mixtures and store
    the indices and the delivery."""
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
    step = quantizer.step_for_distortion(cfg.distortion)
    encoder = quantizer.DitheredQuantizer(step, dither_seed=cfg.seed)
    indices, recon = encoder.quantize(mixture.ravel())
    transcript.quant_step = step
    transcript.quant_indices = indices
    transcript.delivered = recon.reshape(n, n)


def run_phase_3(transcript: SchemeTranscript, ref_mc: MCConfig | None = None) -> SchemeTranscript:
    """Quantize the overheard mixtures and deliver them error-free.

    The phase-3 symbol budget per block is ceil(n rq / (c21 - delta)),
    with rq and c21 estimated under ``ref_mc`` (default: the run's seed)
    at the power and distortion of ``transcript.config``.  If rq does not
    clear c21 - delta, the forwarding link cannot keep up and the run aborts.
    """
    if transcript.s21 is None:
        raise ValueError("phases 1 and 2 must run first (s21 is None: not made or released)")
    _set_budget(transcript, _reference(transcript, ref_mc))
    _quantize(transcript)
    return transcript


def _power(a: np.ndarray) -> float:
    """E|a|^2 over every entry of a complex array."""
    p = a.real**2
    p += a.imag**2
    return float(np.mean(p))


class _Moments(NamedTuple):
    """A complex sequence, raveled, with its mean and E|.|^2."""

    seq: np.ndarray
    mean: complex
    power: float


def _moments(a: np.ndarray) -> _Moments:
    a = np.asarray(a).ravel()
    return _Moments(a, a.mean(), _power(a))


def _corr(a: _Moments, b: _Moments) -> float:
    """Magnitude of the Pearson correlation of two complex sequences."""
    prod = np.conj(b.seq)
    np.multiply(a.seq, prod, out=prod)
    num = np.mean(prod) - a.mean * np.conj(b.mean)
    va = a.power - (a.mean.real**2 + a.mean.imag**2)
    vb = b.power - (b.mean.real**2 + b.mean.imag**2)
    if va <= 0.0 or vb <= 0.0:
        return 0.0
    return float(abs(num) / math.sqrt(va * vb))


def deinterleave_and_reconstruct(transcript: SchemeTranscript) -> SchemeTranscript:
    """Each receiver strips its own phase observation from the delivery.

    Receiver 1 forms ytilde21 = delivered - y12 = s21 + (quantization
    error - z12), a view of the overheard phase-1 signal through noise
    of variance 1 + D; receiver 2 symmetrically.  The residuals are then
    de-interleaved and summarized: variances, lag-1 autocorrelation in
    the message domain, correlation against the transmit-signal
    coordinates and against the direct observation noises.
    """
    if transcript.delivered is None:
        raise ValueError("phase 3 must run first (delivered is None: not made or released)")
    t = transcript
    n = t.config.n
    resid1 = _moments(t.ytilde21 - t.s21)
    resid2 = _moments(t.ytilde12 - t.s12)

    def lag1(resid):
        if n < 2:
            return 0.0
        msg = interleave(resid.reshape(n, n))  # message domain
        return _corr(_moments(msg[:, 1:]), _moments(msg[:, :-1]))

    # each transmit-signal coordinate is raveled once, for both users
    signal1 = [_corr(resid1, _moments(t.s21))]
    signal2 = [_corr(resid2, _moments(t.s12))]
    for x in (t.x1, t.x2):
        for antenna in (0, 1):
            ref = _moments(x[..., antenna])
            signal1.append(_corr(resid1, ref))
            signal2.append(_corr(resid2, ref))
    del ref  # a grid-sized copy, not needed while the statistics below run

    t.stats = SchemeStats(
        noise_var_user1=resid1.power,
        noise_var_user2=resid2.power,
        autocorr_user1=lag1(resid1.seq),
        autocorr_user2=lag1(resid2.seq),
        signal_corr_user1=max(signal1),
        signal_corr_user2=max(signal2),
        noise_cross_corr_user1=_corr(resid1, _moments(t.z11)),
        noise_cross_corr_user2=_corr(resid2, _moments(t.z22)),
        quant_error_var=_power(t.quant_error),
    )
    return transcript


_MI_ROWS = 32
"""Grid rows per ``core.logdet_capacity_term`` call in ``mi_accounting``,
so its temporaries take 0.75 MiB at n = 512, not 12 MiB."""


def mi_accounting(transcript: SchemeTranscript) -> MIReport:
    """Per-symbol mutual information of each user's effective 2x2 channel.

    For user 1 the rows are the grids (h1, g1) with noise variances
    (1, 1 + D); the grid average estimates the per-symbol rate and must
    agree with capacity.c22d at the power and distortion of ``transcript.config``.
    It reads only the channel rows, so it can run as soon as phases 1
    and 2 have, and ``run_scheme`` runs it then, before phase 3; its bits
    do not depend on when it runs.  The log-det is evaluated over blocks
    of ``_MI_ROWS`` grid rows into one (n, n) array, and the mean and
    standard deviation are taken over the whole array, so the blocks
    leave the bits as one whole-grid call would give them.  A mean that
    is not finite, at a power where the log-dets overflow a double,
    raises a DomainError.
    """
    if transcript.h1 is None:
        raise ValueError("phases 1 and 2 must run first (h1 is None: not drawn or released)")
    t = transcript
    cfg = t.config
    n = cfg.n
    count = n * n

    def report(rows_direct, rows_overheard):
        vals = np.empty((n, n))
        for start in range(0, n, _MI_ROWS):
            rows = slice(start, start + _MI_ROWS)
            vals[rows] = core.logdet_capacity_term((rows_direct[rows], rows_overheard[rows]),
                                                   cfg.power, (1.0, 1.0 + cfg.distortion))
        vals = vals.ravel()
        mean = float(np.mean(vals))
        if not math.isfinite(mean):  # checked before np.std, which warns on inf - inf
            raise DomainError(f"mutual information is not finite at P = {cfg.power:g}")
        stderr = float(np.std(vals, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
        return MonteCarloEstimate(mean, stderr, count, cfg.seed)

    mi = MIReport(user1=report(t.h1, t.g1), user2=report(t.g2, t.h2))
    transcript.mi = mi
    return mi


def _rates(c22d_value, rq_value, c21_value) -> tuple[float, float, float]:
    """c22d, rq and c21 as floats: numbers, finite, c21 positive and the
    others nonnegative, else a ValueError."""
    c22dv = _number(c22d_value, "c22d_value")
    rqv = _number(rq_value, "rq_value")
    c21v = _number(c21_value, "c21_value")
    if not math.isfinite(c22dv) or c22dv < 0.0:
        raise ValueError("c22d must be finite and nonnegative")
    if not math.isfinite(rqv) or rqv < 0.0:
        raise ValueError("rq must be finite and nonnegative")
    if not math.isfinite(c21v) or c21v <= 0.0:
        raise ValueError("c21 must be finite and positive")
    return c22dv, rqv, c21v


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
    """Full pipeline: phases 1-2, accounting, phase 3, reconstruction.

    The reference estimate of phase 3 starts right after phases 1 and 2
    and is collected only after the reconstruction, so with more than
    one worker its blocks run on the estimator's pool while this thread
    does the accounting, the quantization and the reconstruction; this
    thread then runs the blocks the pool has not started, and the
    phase-3 budget is set last.  With one worker (the CLI's) every block
    runs in this thread at that point.  Every array is allocated in this
    thread.  If a stage raises, the reference is still finished first,
    and its error, else the budget's, else the stage's is raised: the
    first error of the stage order (reference, budget, quantization,
    reconstruction).  No pool thread outlives the call.

    Each array is released right after its last reader: the channel rows
    once ``mi_accounting`` has run, before phase 3 allocates, and the
    noises, the overheard sums and the delivery after the reconstruction.
    The finished transcript holds u1, u2 and the lattice indices, what
    its dump holds (18 MiB at n = 512); every released field reads None,
    and so does every property derived from one.  The traced peak, about
    83 MiB at n = 512 with the default reference, is reached while the
    accounting runs over the 72 MiB of draws beside the reference's
    scratch sets.
    """
    t = run_phases_1_2(cfg)
    reference = _reference(t, ref_mc)
    try:
        mi_accounting(t)
        _release(t, "h1", "g1", "h2", "g2")
        _quantize(t)
        deinterleave_and_reconstruct(t)
        _release(t, "z11", "z21", "z12", "z22", "s21", "s12", "delivered")
    finally:
        # the reference and the budget precede the other stages, so their
        # errors win; finishing here also shuts the pool down on every path
        _set_budget(t, reference)
    return t


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
    pair = achieved_rate_pair(ref["c22d"].value, ref["rq"].value, ref["c21"].value)
    floor = rate_floor(ref["c22d"].value, ref["rq"].value, ref["c21"].value)
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
        "reference": {name: _estimate_dict(est) for name, est in ref.items()},
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
