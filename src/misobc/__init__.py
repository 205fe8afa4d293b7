"""Rate and simulation toolkit for a two-user broadcast channel with delayed CSI.

The package certifies, numerically, that a three-phase retrospective
transmission scheme with a fixed-distortion quantizer stays within a
constant per-user gap of an outer bound at every transmit power:

* :mod:`misobc.core`      reproducible random streams and closed-form
  log-det arithmetic for 1x2 and 2x2 channels
* :mod:`misobc.capacity`  ergodic rate curves, paired sweeps and scalar
  rate-distortion helpers
* :mod:`misobc.quantizer` subtractive dithered scalar quantization with
  a binary index stream format
* :mod:`misobc.regions`   rate-region polytopes, erosion and the
  per-user gap between achievable and outer regions
* :mod:`misobc.scheme`    block-level simulation of the three-phase
  scheme with causality auditing and mutual-information accounting
* :mod:`misobc.cli`       command line front end

This module imports nothing, and neither does :mod:`misobc.cli` beyond
the standard library, so the command line parses its flags and prints
usage errors and ``--help`` without loading NumPy; each subcommand loads
the numerical modules it runs.  The error type and the constants that
the command line shows in its flags and help are defined here, once,
and the numerical modules import them from here.
"""

# Master seed and Monte Carlo sample count used when none is given.
DEFAULT_SEED = 0xC517
DEFAULT_SAMPLES = 10**6

# Certified per-user gap constant for the default distortion choice.
GAP_BOUND = 1.81

# Largest number of blocks per phase that a scheme run accepts.
MAX_BLOCKS = 512


class DomainError(ValueError):
    """Raised when inputs leave the validity domain of a quantity."""


__all__ = ["DEFAULT_SAMPLES", "DEFAULT_SEED", "GAP_BOUND", "MAX_BLOCKS", "DomainError"]
__version__ = "0.1.0"
