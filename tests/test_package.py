"""Tests for the package's public names: imzv.__all__ against what
src/imzv/__init__.py imports."""

import ast
from pathlib import Path

import imzv

INIT = Path(__file__).resolve().parents[1] / "src" / "imzv" / "__init__.py"


def test_all_is_sorted_resolves_and_lists_exactly_the_imported_names():
    names = imzv.__all__
    assert names == sorted(set(names))
    assert all(hasattr(imzv, name) for name in names)
    imported = {alias.asname or alias.name
                for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(names) == imported
