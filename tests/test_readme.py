"""The README's Python examples run as written, each in a fresh namespace."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ditherseek

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": f"readme_block_{index + 1}"})


def _bounds() -> list[tuple[str, int]]:
    """Every module-level ``MAX_*`` constant that a ditherseek module assigns."""
    out = []
    for info in pkgutil.iter_modules(ditherseek.__path__):
        module = importlib.import_module(f"ditherseek.{info.name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                out += [(f"{info.name}.{target.id}", getattr(module, target.id))
                        for target in node.targets
                        if isinstance(target, ast.Name) and target.id.startswith("MAX_")]
    return out


def test_readme_bounds_table_lists_every_max_constant():
    # a new bound cannot land undocumented: each has a row `name` | value
    text = README.read_text(encoding="utf-8")
    bounds = _bounds()
    assert len(bounds) >= 8
    for name, value in bounds:
        assert f"| `{name}` | {value:,} |" in text, name
