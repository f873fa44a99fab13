"""The package namespace: the public names are the modules' __all__ lists."""

import catalankit
from catalankit import catalan2, exact, functional, hyper, qfunc, quad, series

MODULES = (catalan2, exact, functional, hyper, qfunc, quad, series)


def test_package_exports_the_module_all_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))  # no name has two owners
    assert sorted(catalankit.__all__) == sorted([*names, "__version__"])


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(catalankit, name) is getattr(module, name)
    assert isinstance(catalankit.__version__, str)
    namespace = {}
    exec("from catalankit import *", namespace)
    assert set(catalankit.__all__) <= set(namespace)
