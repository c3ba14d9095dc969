"""Every module must import cleanly and carry a docstring."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def _all_modules() -> list[str]:
    modules = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC.parent)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if parts[-1] == "__main__":
            continue  # importing it would execute the CLI
        modules.append(".".join(parts))
    return modules


MODULES = _all_modules()


def test_module_inventory_is_substantial():
    assert len(MODULES) > 40


@pytest.mark.parametrize("module_name", MODULES)
def test_imports_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} lacks a module docstring"
    )


def test_version_exposed():
    import repro

    assert repro.__version__


def test_program_imports_leave_numpy_out():
    """A fresh ``repro`` process imports no numpy: Steps 3-4 are stdlib."""
    workloads = pytest.importorskip("perfbench.workloads")
    code = (
        f"import sys, {workloads.PROGRAM_MODULES}\n"
        "assert 'numpy' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
