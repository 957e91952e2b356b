"""Numerical laboratory for gauge-function potential theory and the
fractional-colored heat field: exact covariances, capacities, Hausdorff
premeasures, and Monte Carlo hitting experiments.

Submodules load on first attribute access, so a run imports only the
modules it uses.
"""

from importlib import import_module

__all__ = ["cli", "errors", "gauges", "heat", "mc", "potential"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
