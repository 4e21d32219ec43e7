"""The package's public names are its modules' ``__all__`` lists, republished.

Each public name is declared once, in the ``__all__`` of the module that
defines it; ``perronkit/__init__.py`` re-exports those lists.  These checks
hold the re-export to that without spelling the names out a second time.
The modules the package does not republish (``examples``, ``verification``
and ``selfcheck``) are held to their own ``__all__`` in the same way.
"""

import pytest

import perronkit
from perronkit import (
    examples,
    generator,
    graph,
    partition,
    perron,
    selfcheck,
    spectral,
    tensor,
    verification,
)

MODULES = (tensor, graph, partition, spectral, perron, generator)
UNPUBLISHED = (examples, verification, selfcheck)


def test_no_duplicate_names():
    assert len(perronkit.__all__) == len(set(perronkit.__all__))


def test_every_module_name_is_republished():
    republished = set(perronkit.__all__)
    for module in MODULES:
        assert set(module.__all__) <= republished, module.__name__


def test_each_name_is_its_defining_module_object():
    assert perronkit.__all__[0] == "__version__"
    for name in perronkit.__all__[1:]:
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == 1, (name, owners)
        (owner,) = owners
        obj = getattr(perronkit, name)
        assert obj is getattr(owner, name), name
        if hasattr(obj, "__module__"):
            assert obj.__module__ == owner.__name__, name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from perronkit import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(perronkit.__all__)


@pytest.mark.parametrize("module", UNPUBLISHED, ids=lambda m: m.__name__)
def test_unpublished_module_names_are_its_own(module):
    assert len(module.__all__) == len(set(module.__all__))
    for name in module.__all__:
        obj = getattr(module, name)
        if hasattr(obj, "__module__"):
            assert obj.__module__ == module.__name__, name


@pytest.mark.parametrize("module", UNPUBLISHED, ids=lambda m: m.__name__)
def test_unpublished_star_import_binds_exactly_all(module):
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(module.__all__)
