"""axibeam: dimension-generic axisymmetric directivity and panning design.

Evaluate ultraspherical polynomials for any real dimension 2 <= D <= 64, generate
the classic Ambisonic order-weighting designs (basic/max-DI, max-rE,
supercardioid, inphase, max-flat, spherical caps), compute their
P/E/Q/rV/rE/FBR metrics both analytically and by quadrature, and verify
t-design node sets on the sphere S^{D-1} exactly, for any integer D.

Importing the package loads only `errors`, which imports no numpy, and
republishes its `__all__` by wildcard import; the package `__all__` is that
list plus the names in `_LAZY`.  `_LAZY` below is the one declaration of the
public names of the numpy modules, `ultraspherical`, `designs`, `metrics`,
`quadrature` (the integration oracle) and `sampling` (node sets and
t-design checks): each module's `__all__` is read from it (`sampling` adds
two constants).  Those names resolve on first access, through the module
`__getattr__` below.  A short CLI process spends most of its time
importing, so `python -m axibeam` reaches its entry point (`__main__.run`)
before numpy loads, and each module is compiled only by a process that
uses it: no `weights`, `metrics` or `pattern` command imports `quadrature`
or `sampling`.  When such a module is imported, by a first access here or
by any import of it, all of its public names are bound in this namespace,
so later reads are plain attribute reads.
"""

import sys
from importlib import import_module
from types import ModuleType

from . import errors
from .errors import *

__version__ = "0.1.0"

# public names of the modules loaded on first access, by module; each
# module's `__all__` reads its own entry
_LAZY = {
    "ultraspherical": (
        "Dimension",
        "beta_coeff",
        "cd_kernel",
        "derivative",
        "eval_sequence",
        "gram_front",
        "norm_squared",
        "norm_squared_gamma",
        "norms_squared",
        "power_series_coeffs",
        "surface_area",
        "value_at_zero",
    ),
    "designs": (
        "MaxReSolution",
        "Normalization",
        "WeightVector",
        "basic",
        "cap",
        "cap_trapezoid",
        "inphase",
        "max_re",
        "maxflat",
        "supercardioid",
        "supercardioid_approx",
    ),
    "metrics": ("PatternMetrics", "compute_metrics", "compute_metrics_numeric", "eval_pattern"),
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
    name for names in (errors.__all__, *_LAZY.values()) for name in names)]


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
