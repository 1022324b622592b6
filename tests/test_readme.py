"""The README's Python examples run as written, and its export count is the package's."""

import re
import types
from pathlib import Path

import pytest

import fdjcas

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)


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
