"""axibeam: dimension-generic axisymmetric directivity and panning design.

Evaluate ultraspherical polynomials for any real dimension 2 <= D <= 64, generate
the classic Ambisonic order-weighting designs (basic/max-DI, max-rE,
supercardioid, inphase, max-flat, spherical caps), compute their
P/E/Q/rV/rE/FBR metrics both analytically and by quadrature, and verify
t-design node sets on the sphere S^{D-1} exactly, for any integer D.

Each module's `__all__` is its public surface and the one declaration of
its public names.  Importing the package loads `errors`, `ultraspherical`,
`designs` and `metrics` and republishes their `__all__` by wildcard import;
the package `__all__` is those four lists plus the names in `_LAZY`.  The
public names of `quadrature` (the integration oracle) and `sampling` (node
sets and t-design checks) resolve on first access, through the module
`__getattr__` below: no `weights`, `metrics` or `pattern` command
calls either module, and a short CLI process spends most of its time
importing, so each module is compiled only by a process that uses it.  When
such a module is imported, by a first access here or by any import of it,
all of its public names are bound in this namespace, so later reads are
plain attribute reads.
"""

import sys
from importlib import import_module
from types import ModuleType

from . import designs, errors, metrics, ultraspherical
from .designs import *
from .errors import *
from .metrics import *
from .ultraspherical import *

__version__ = "0.1.0"

# public names of the modules loaded on first access, by module
_LAZY = {
    "quadrature": ("integrate_axisym", "transform_coeffs"),
    "sampling": (
        "DiscreteMetrics",
        "NodeSet",
        "TDesignReport",
        "circle_nodes",
        "discrete_metrics",
        "load_nodes",
        "platonic",
        "tdesign_check",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in (module, *names)}

__all__ = ["__version__", *sorted(
    name for names in (errors.__all__, ultraspherical.__all__, designs.__all__,
                       metrics.__all__, *_LAZY.values())
    for name in names)]


class _Package(ModuleType):
    """The package module; binds a lazy module's names the moment it is imported.

    The import system sets each submodule as an attribute of its package once
    the submodule has run, before any caller can patch it (a test double or a
    tracing wrapper), so the names bound here are always the module's own.
    """

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        for attr in _LAZY.get(name, ()):
            super().__setattr__(attr, getattr(value, attr))


sys.modules[__name__].__class__ = _Package


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(f".{module}", __name__)  # binds the module and its names, see _Package
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
