"""Exception and warning types shared across the package, and its one number
rule: a number is a `numbers.Real` and no bool, so the checks below refuse a
JSON `true` and a numeric string, and return any number they pass as given."""

from numbers import Integral, Real
from sys import float_info


class LepskiError(Exception):
    """Base class for all package errors."""


class GridEmpty(LepskiError):
    """No observation falls within the largest bandwidth around the estimation point."""


class EmptyWindow(LepskiError):
    """Requested a kernel average over a window with zero occupation time."""


class ExplosiveChain(LepskiError):
    """An autoregressive path exceeded the configured magnitude guard."""


class SampleError(LepskiError, ValueError):
    """A sample whose covariates, responses or sigma, or weighted sums, are not finite."""


class ConfigError(LepskiError):
    """Invalid campaign configuration (maps to CLI exit code 2)."""


class InsufficientOmegaPrime(LepskiError):
    """Fewer than the required number of replications landed in the well-defined event."""


class CensoredPathsWarning(UserWarning):
    """The stopping-time cap bound on more than 0.1% of simulated paths."""


def check_finite(value, what: str):
    """value, if it is a finite number (no NaN, no int beyond the floats); else ValueError."""
    if isinstance(value, bool) or not (isinstance(value, Real) and abs(value) <= float_info.max):
        raise ValueError(f"{what} must be a finite number; got {value!r}")
    return value


def check_positive(value, what: str):
    """value, if it is a finite number above 0; else ValueError."""
    if not check_finite(value, what) > 0:
        raise ValueError(f"{what} must be positive; got {value!r}")
    return value


def check_count(value, what: str, least: int = 1):
    """value, if it is an integer of at least `least` and no bool; else ValueError."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= least):
        raise ValueError(f"{what} must be an integer of at least {least}; got {value!r}")
    return value
