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

from . import catalan2, exact, functional, hyper, qfunc, quad, series

__version__ = "0.1.0"

# The public names are each module's __all__; the package re-exports them.
__all__ = []
for _module in (catalan2, exact, functional, hyper, qfunc, quad, series):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
__all__.append("__version__")
del _module
