"""Rate and simulation toolkit for a two-user broadcast channel with delayed CSI.

The package certifies, numerically, that a three-phase retrospective
transmission scheme with a fixed-distortion quantizer stays within a
constant per-user gap of an outer bound at every transmit power:

* :mod:`misobc.core`      reproducible random streams and closed-form
  log-det arithmetic for 1x2 and 2x2 channels
* :mod:`misobc.capacity`  ergodic rate curves, paired sweeps and the
  ergodic rate-distortion rate with decoder side information
* :mod:`misobc.rd`        closed-form scalar rate-distortion helpers
  (reverse waterfilling and the one-level rate), standard library only
* :mod:`misobc.quantizer` subtractive dithered scalar quantization with
  a binary index stream format
* :mod:`misobc.regions`   rate-region polytopes, erosion and the
  per-user gap between achievable and outer regions
* :mod:`misobc.scheme`    block-level simulation of the three-phase
  scheme with causality auditing and mutual-information accounting
* :mod:`misobc.cli`       command line front end

This module imports only :mod:`math` and :mod:`operator`, and
:mod:`misobc.cli` nothing beyond the standard library, so the command
line parses its flags, prints usage errors and ``--help``, and refuses a
gap distortion below the certified floor without loading NumPy; each
subcommand loads the modules it runs, and
``rd --mode waterfill|suboptimal`` loads only :mod:`misobc.rd`.  The
error type, the constants that the command line shows in its flags and
help, number formatting, the validators of number, integer and seed
arguments and the gap distortion check are defined here, once, and the
numerical modules import them from here.
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


class DomainError(ValueError):
    """Raised when inputs leave the validity domain of a quantity."""


def _fmt(x) -> str:
    """A number as every CSV cell and text line writes it: 12 significant digits."""
    return format(float(x), ".12g")


def _round12(x: float) -> float:
    """``x`` rounded as ``_fmt`` writes it, for JSON output."""
    return float(_fmt(x))


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
    d = _number(distortion, "distortion")
    if not math.isfinite(d) or d <= 0.0:
        raise ValueError("distortion must be finite and positive")
    if d < MIN_CERTIFIED_DISTORTION and not allow_small:
        raise ValueError(
            f"distortion {d:g} is below the certified choice "
            f"{MIN_CERTIFIED_DISTORTION:g}; pass {override} to run anyway"
        )
    return d


__all__ = ["DEFAULT_SAMPLES", "DEFAULT_SEED", "GAP_BOUND", "MAX_BLOCKS",
           "MIN_CERTIFIED_DISTORTION", "DomainError", "check_gap_distortion"]
__version__ = "0.1.0"
