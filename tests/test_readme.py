"""The README's Python examples run as written, and its export count and
solver constants are the package's."""

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
