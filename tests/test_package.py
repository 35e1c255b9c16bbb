"""The package namespace: every public name declared once, by its module."""

import condrisk
from condrisk import divergence, dual, niveloid, oce, probspace


def test_all_is_the_modules_lists_in_order():
    modules = (probspace, divergence, oce, dual, niveloid)
    expected = [name for m in modules for name in m.__all__]
    expected += ["SolverError", "UnboundedObjective", "__version__"]
    assert condrisk.__all__ == expected


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(set(condrisk.__all__)) == len(condrisk.__all__)
    for name in condrisk.__all__:
        assert getattr(condrisk, name) is not None, name
    for m in (probspace, divergence, oce, dual, niveloid):
        for name in m.__all__:
            assert getattr(condrisk, name) is getattr(m, name), name
