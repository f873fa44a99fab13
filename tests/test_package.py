"""The package namespace: the public names are the modules' __all__ lists."""

import catalankit
from catalankit import catalan2, exact, functional, hyper, qfunc, quad, series

MODULES = (catalan2, exact, functional, hyper, qfunc, quad, series)

# The selftest and errata oracles, each under the route module it left.
ORACLES = {
    qfunc: ("q_recurrence_check", "q_derivative_form_check", "boyadzhiev_check",
            "pochhammer_derivative_check", "zform_bracket", "zform_check"),
    quad: ("beta_halfline", "beta_cases", "euler_integral_2f1_check"),
    catalan2: ("printed_table_value", "c2_table_check"),
    functional: ("cf_half_reduction_check",),
    exact: ("geometric_inverse_check",),
}


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


def test_the_oracles_live_in_checks_alone():
    from catalankit import checks

    for module, names in ORACLES.items():
        for name in names:
            assert not hasattr(module, name) and not hasattr(catalankit, name)
            assert callable(getattr(checks, name))
