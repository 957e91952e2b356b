"""scipy's compiled routines without the import of their packages.

LAPACK ``dpotrf`` and BLAS ``dtrmm`` (the sampler) and the ufunc ``hyp1f1``
(alpha > 0 models) live in compiled modules of ``scipy.linalg`` and
``scipy.special``.  Those packages' imports pull in ``numpy.f2py``,
``numpy.testing`` and ``numpy.ma``, 0.16-0.25 s and tens of MB per run; the
three modules load in about 27 ms.  Each is imported by its dotted name
under a bare stand-in for its package (a module with only ``__path__``),
removed afterwards, so a later import of the package finds the module in
``sys.modules`` and re-exports the same objects: the same bits.  scipy's
module layout is private; on ``ImportError`` the public package serves.
"""

from __future__ import annotations

import os
import sys
from functools import cache
from importlib import import_module
from types import ModuleType

# routine -> (compiled module, public module that re-exports it)
_HOMES = {
    "dpotrf": ("scipy.linalg._flapack", "scipy.linalg.lapack"),
    "dtrmm": ("scipy.linalg._fblas", "scipy.linalg.blas"),
    "hyp1f1": ("scipy.special._ufuncs", "scipy.special"),
}


def _load(name: str):
    """Import the compiled module ``name`` without running its package's
    ``__init__`` when that package is not loaded yet."""
    import scipy

    package = name.rpartition(".")[0]
    if package in sys.modules:
        return import_module(name)
    sub = package.rpartition(".")[2]
    stand_in = ModuleType(package)
    stand_in.__path__ = [os.path.join(root, sub) for root in scipy.__path__]
    sys.modules[package] = stand_in
    try:
        return import_module(name)
    finally:
        if sys.modules.get(package) is stand_in:
            del sys.modules[package]
        # vars, not getattr: scipy's lazy __getattr__ would import the package
        if vars(scipy).get(sub) is stand_in:
            delattr(scipy, sub)


@cache
def scipy_routine(name: str):
    """scipy's ``dpotrf``, ``dtrmm`` or ``hyp1f1``, loaded once per process."""
    compiled, public = _HOMES[name]
    try:
        module = _load(compiled)
    except ImportError:
        module = import_module(public)
    return getattr(module, name)
