"""Exception and warning types shared across the package."""


class LepskiError(Exception):
    """Base class for all package errors."""


class GridEmpty(LepskiError):
    """No observation falls within the largest bandwidth around the estimation point."""


class EmptyWindow(LepskiError):
    """Requested a kernel average over a window with zero occupation time."""


class ExplosiveChain(LepskiError):
    """An autoregressive path exceeded the configured magnitude guard."""


class ConfigError(LepskiError):
    """Invalid campaign configuration (maps to CLI exit code 2)."""


class InsufficientOmegaPrime(LepskiError):
    """Fewer than the required number of replications landed in the well-defined event."""


class CensoredPathsWarning(UserWarning):
    """The stopping-time cap bound on more than 0.1% of simulated paths."""
