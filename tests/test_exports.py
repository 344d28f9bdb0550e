"""Every exported name resolves, so deleting a definition cannot leave a
stale entry in an ``__all__`` list."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_does_not_load_scipy_stats():
    """``scipy.stats`` takes about half of a cold ``import hybridcc``; the
    package takes its one t-distribution call from ``scipy.special``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hybridcc.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import hybridcc, hybridcc.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy.stats' "
        "or m.startswith('scipy.stats.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
