"""Exception types shared across the package.

Two broad failure families matter to callers: a problem was posed outside
the supported parameter range (configuration), or a numerical routine could
not deliver a trustworthy answer (factorization failure, a negative metric
radicand, a non-finite kernel, Monte Carlo resolution).  The command line maps the first family to exit
code 2 and the second to exit code 3.
"""


class ConfigurationError(ValueError):
    """Parameters outside the range the model or routine supports."""


class NumericalError(ArithmeticError):
    """A numerical routine failed to produce a reliable result."""


class FactorizationError(NumericalError):
    """Covariance factorization failed even after jitter escalation."""


class InsufficientResolutionError(NumericalError):
    """Monte Carlo estimate hit 0 or 1; no slope information available."""


class KernelError(NumericalError):
    """Potential kernel returned non-finite values away from the origin."""
