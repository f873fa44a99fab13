"""Catalan-type constants by several independent representations.

The package computes three related families: the plain Catalan numbers,
a two-parameter deformation C2(n; a, b), and its fractional-order
extension cf(n; a, b, p), together with the auxiliary series Q(n, y, p)
the extension rests on. Every quantity has multiple closed forms plus
two oracle routes (adaptive half-line quadrature, generating-function
power series); the `catalankit` CLI cross-validates them.

Exact arithmetic is used whenever the inputs allow it: rational a, b, p
with rational sqrt(b) or b^p produce Fraction results.
"""

__version__ = "0.1.0"

# The public names are each module's __all__; the package re-exports them,
# in this module order, and loads the modules on the first such name.
_MODULES = ("catalan2", "exact", "functional", "hyper", "qfunc", "quad", "series")


def __getattr__(name: str):
    from importlib import import_module
    from importlib.machinery import PathFinder

    # A private name or a submodule is never a re-export. Refusing it here,
    # before anything loads, lets `from . import cli` import that one module.
    if name.startswith("_") and name != "__all__" or PathFinder.find_spec(
            f"{__name__}.{name}", __path__):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    names = []
    for module in (import_module(f"{__name__}.{m}") for m in _MODULES):
        globals().update((public, getattr(module, public)) for public in module.__all__)
        names += module.__all__
    globals()["__all__"] = [*names, "__version__"]
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
