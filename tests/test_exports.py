"""Every exported name resolves, so deleting a definition cannot leave a
stale entry in an ``__all__`` list."""

import importlib
import pkgutil

import pytest

import hybridcc

# Every submodule but __main__, which runs the command line when imported.
MODULES = [hybridcc] + [
    importlib.import_module(f"hybridcc.{info.name}")
    for info in pkgutil.iter_modules(hybridcc.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = []
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError:
            missing.append(name)
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
