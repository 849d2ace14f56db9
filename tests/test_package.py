"""The package surface: each module's ``__all__``, re-exported in import order."""

import pqbaskakov
from pqbaskakov import analysis, baskakov, cli, core, functions, quadrature

MODULES = (core, functions, quadrature, baskakov, analysis, cli)


def test_all_is_the_version_then_each_module_list_in_import_order():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert pqbaskakov.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_exported_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pqbaskakov, name) is getattr(module, name), (module.__name__, name)


def test_the_package_exposes_no_other_public_name():
    public = {name for name in dir(pqbaskakov) if not name.startswith("_")}
    modules = {module.__name__.rpartition(".")[2] for module in MODULES}
    assert public == set(pqbaskakov.__all__[1:]) | modules
