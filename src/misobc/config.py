"""Run parameters of the estimator and the scheme, and the sizing of phase 3.

``MCConfig`` and ``MonteCarloEstimate`` are what :mod:`misobc.capacity`
takes and returns, and ``SchemeConfig`` is what :mod:`misobc.scheme`
runs.  ``size_phase_3`` prices a scheme run's phase 3 from the closed
forms of :mod:`misobc.oracles`, and ``phase3_budget`` turns the rates
into a symbol budget, so whether a run is feasible is known from its
``SchemeConfig`` alone.  The module imports only the standard library
and the package, so the command line checks these parameters and
refuses an infeasible ``simulate`` before it loads NumPy;
``capacity`` and ``scheme`` import every name from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import (DEFAULT_SAMPLES, DEFAULT_SEED, MAX_BLOCKS, DomainError, _integer, _real, _seed,
               oracles)


@dataclass(frozen=True)
class MCConfig:
    """Sample count and master seed for one estimator run.

    ``samples`` (at least 1) and ``seed`` (non-negative) are integers of
    any integer type, NumPy's too, and are stored as int; a bool, float or
    string is rejected with a ValueError that names the field.  Nothing
    here sets a thread count: ``capacity.estimate`` runs its fixed sample
    blocks on ``core.thread_count`` workers, one per usable CPU and never
    more than there are blocks, and the results are bit-identical for
    any count and any BLAS thread setting, since the package makes no
    BLAS call.  Of the commands only ``rq`` still takes ``--workers``, and
    no field here reads it: the benchmark's cli workload passes it.
    """

    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        samples = _integer(self.samples, "samples must be an integer")
        if samples < 1:
            raise ValueError("samples must be at least 1")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "seed", _seed(self.seed))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A sample mean with its standard error and provenance."""

    value: float
    stderr: float
    samples: int
    seed: int


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
            object.__setattr__(self, name, _real(getattr(self, name), name, positive=True))
        object.__setattr__(self, "seed", _seed(self.seed))


def phase3_budget(n: int, rq_value: float, c21_value: float, delta: float) -> int:
    """Symbols per block needed to forward the quantized mixture.

    The n overheard samples per block cost n rq bits, carried by a link
    of rate c21 - delta; the budget is the ceiling of their quotient.
    n is an integer of at least 1, rq and c21 are checked as
    ``scheme.achieved_rate_pair`` checks them, and delta is finite and
    nonnegative, else a ValueError.  Requires rq < c21 - delta, otherwise
    forwarding cannot keep up and a DomainError is raised.
    """
    n = _integer(n, "n must be an integer")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    rq = _real(rq_value, "rq_value")
    c21 = _real(c21_value, "c21_value", positive=True)
    delta = _real(delta, "delta")
    margin = c21 - delta
    if margin <= 0.0 or rq >= margin:
        raise DomainError(
            f"phase-3 forwarding needs rq < c21 - delta, got rq = {rq:.6g}, "
            f"c21 - delta = {margin:.6g}"
        )
    return math.ceil(n * rq / margin)


def size_phase_3(cfg: SchemeConfig) -> tuple[dict, int]:
    """The exact c21, c22d and rq at the power and distortion of ``cfg``
    and the phase-3 budget they give, or the budget's DomainError, which
    names the power and distortion."""
    reference = {"c21": oracles.c21_oracle(cfg.power),
                 "c22d": oracles.c22d_oracle(cfg.power, cfg.distortion),
                 "rq": oracles.rq_oracle(cfg.power, cfg.distortion)}
    try:
        budget = phase3_budget(cfg.n, reference["rq"], reference["c21"], cfg.delta)
    except DomainError as err:
        raise DomainError(f"{err} at P = {cfg.power:g}, D = {cfg.distortion:g}") from err
    return reference, budget
