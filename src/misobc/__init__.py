"""Rate and simulation toolkit for a two-user broadcast channel with delayed CSI.

The package certifies, numerically, that a three-phase retrospective
transmission scheme with a fixed-distortion quantizer stays within a
constant per-user gap of an outer bound on a power grid:

* :mod:`misobc.core`      reproducible random streams, closed-form
  log-det arithmetic for batches of 2x2 channels, and the task runner
  that every thread of the package runs under
* :mod:`misobc.config`    the estimator's and the scheme's run parameters
  and the sizing of the scheme's phase 3, standard library only
* :mod:`misobc.capacity`  Monte Carlo rate curves and paired sweeps
* :mod:`misobc.oracles`   closed forms of the three rates c21, c22d and
  rq, standard library only
* :mod:`misobc.rd`        closed-form scalar rate-distortion helpers
  (reverse waterfilling, the one-level rate and the ergodic rate with
  decoder side information), standard library only
* :mod:`misobc.quantizer` subtractive dithered scalar quantization with
  a binary index stream format
* :mod:`misobc.regions`   rate-region polytopes, erosion and the
  per-user gap between achievable and outer regions
* :mod:`misobc.scheme`    block-level simulation of the three-phase
  scheme with causality auditing and mutual-information accounting
* :mod:`misobc.cli`       command line front end

This module imports only :mod:`math` and :mod:`operator`.  At module
level, :mod:`misobc.cli`, :mod:`misobc.config`, :mod:`misobc.rd`,
:mod:`misobc.oracles` and :mod:`misobc.regions` import nothing beyond the
standard library and each other, so the exact rates and the gap algebra
run without NumPy, and the command line parses its flags, prints usage
errors and ``--help``, and refuses a gap distortion below the certified
floor or an infeasible ``simulate`` without loading it; each subcommand
loads the modules it runs, and every ``rd`` mode loads only
:mod:`misobc.rd` (with :mod:`misobc.oracles` at a Rayleigh gain).  The
error type, ``LN2``, the constants that the command line shows in its
flags and help, number formatting and the CSV/JSON table writer
(``write_csv`` and ``_Table``), the validators of number, real (finite
and nonnegative or positive), integer and seed arguments and the gap
distortion check are defined here, once, and the other modules import
them from here.
"""

import math
import operator

# Master seed and Monte Carlo sample count used when none is given.
DEFAULT_SEED = 0xC517
DEFAULT_SAMPLES = 10**6

# Certified per-user gap constant for the default distortion choice.
GAP_BOUND = 1.81

# Distortion floor under which the gap sweep refuses to run unless overridden;
# below it the achievable-region coefficient can lose its sign guarantee.
MIN_CERTIFIED_DISTORTION = 4.0

# Largest number of blocks per phase that a scheme run accepts.
MAX_BLOCKS = 512

LN2 = math.log(2.0)


class DomainError(ValueError):
    """Raised when inputs leave the validity domain of a quantity."""


def _fmt(x) -> str:
    """A number as every CSV cell and text line writes it: 12 significant digits."""
    return format(float(x), ".12g")


def _round12(x: float) -> float:
    """``x`` rounded as ``_fmt`` writes it, for JSON output."""
    return float(_fmt(x))


def write_csv(fp, columns, rows) -> None:
    """A header of ``columns``, then one line per row of values: floats as
    ``_fmt`` writes them, ints and labels as they are."""
    fp.write(",".join(columns) + "\n")
    for row in rows:
        fp.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


class _Table:
    """Result rows written as CSV or JSON under ``columns``; a table gives
    ``columns`` and ``values(row)``, the row's cells in that order."""

    def to_csv(self, fp) -> None:
        write_csv(fp, self.columns, map(self.values, self.rows))

    def to_json(self) -> list[dict]:
        """One ``{column: value}`` record per row, floats rounded by ``_round12``."""
        return [{c: _round12(v) if isinstance(v, float) else v
                 for c, v in zip(self.columns, self.values(r))} for r in self.rows]


def _is_bool(value) -> bool:
    """A Python or NumPy bool, the latter told by its dtype without importing NumPy."""
    return isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", None) == "b"


def _number(value, name: str) -> float:
    """``float(value)``, but a ValueError naming ``name`` for None, a string,
    a bool and other non-numbers."""
    if not isinstance(value, (str, bytes)) and not _is_bool(value):
        try:
            return float(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _real(value, name: str, positive: bool = False) -> float:
    """``_number(value, name)`` if it is finite and nonnegative, or positive
    when ``positive``; else a ValueError naming ``name``."""
    v = _number(value, name)
    if not math.isfinite(v) or v < 0.0 or (positive and v == 0.0):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}")
    return v


def _integer(value, message: str) -> int:
    """``value`` as an int: any integer type, NumPy's too, but not a bool,
    float or string, which raise ValueError(f"{message}, got {value!r}")."""
    if not _is_bool(value):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{message}, got {value!r}")


def _seed(value, name: str = "seed") -> int:
    """``value`` as a master seed: a non-negative integer, as ``_integer``
    takes it; errors name the argument ``name``."""
    seed = _integer(value, f"{name} must be an integer")
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")
    return seed


def check_gap_distortion(distortion, allow_small: bool = False,
                         override: str = "allow_small_distortion=True") -> float:
    """``distortion`` as a float, if the gap sweep may run at it.

    The value must be a number, finite and positive, and at least
    ``MIN_CERTIFIED_DISTORTION`` unless ``allow_small``; otherwise a
    ValueError is raised.  A refusal below the floor tells the caller to
    pass ``override``, the spelling of the override in the caller's terms.
    """
    d = _real(distortion, "distortion", positive=True)
    if d < MIN_CERTIFIED_DISTORTION and not allow_small:
        raise ValueError(
            f"distortion {d:g} is below the certified choice "
            f"{MIN_CERTIFIED_DISTORTION:g}; pass {override} to run anyway"
        )
    return d


__all__ = ["DEFAULT_SAMPLES", "DEFAULT_SEED", "GAP_BOUND", "MAX_BLOCKS",
           "MIN_CERTIFIED_DISTORTION", "DomainError", "check_gap_distortion"]
__version__ = "0.1.0"
