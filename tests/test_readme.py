"""The README's Python examples run as written, and its export count,
solver constants and cited call forms are the package's."""

import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import pytest

import fdjcas
from fdjcas import optimizer

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
# every `NAME` = value the README states, each an fdjcas.optimizer constant
CONSTANTS = re.findall(r"`([A-Z][A-Z0-9_]*)` = (\d+(?:\.\d+)?(?:e[-+]?\d+)?)", README)
# every `name(arg, ...)` call form the README cites
CALLS = re.findall(r"`([A-Za-z_]\w*)\(([\w, ]*)\)`", README)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_export_count_matches_the_package():
    (stated,) = re.findall(r"The package exports (\d+) names", README)
    public = [
        name for name in dir(fdjcas)
        if not name.startswith("_") and not isinstance(getattr(fdjcas, name), types.ModuleType)
    ]
    assert int(stated) == len(public)


def test_stated_constants_match_the_optimizer():
    assert CONSTANTS
    for name, value in CONSTANTS:
        assert getattr(optimizer, name, None) == float(value), (name, value)


def package_functions() -> dict:
    """Every function of the fdjcas modules and every ``_Lockstep`` method,
    a list of them by name."""
    found = {}
    for info in pkgutil.iter_modules(fdjcas.__path__):
        module = importlib.import_module(f"fdjcas.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found.setdefault(name, []).append(obj)
    for name, obj in vars(optimizer._Lockstep).items():
        if inspect.isfunction(obj):
            found.setdefault(name, []).append(obj)
    return found


def test_cited_calls_name_the_real_parameters():
    functions = package_functions()
    cited = [(name, args) for name, args in CALLS if name in functions]
    assert cited
    for name, args in cited:
        names = [arg.strip() for arg in args.split(",") if arg.strip()]
        real = [[p for p in inspect.signature(f).parameters if p != "self"] for f in functions[name]]
        assert names in real, f"README cites {name}({args}); the parameters are {real}"
