"""The package's export list: every public import is exported, once."""

import ast
from pathlib import Path

import maserline


def test_all_lists_every_public_import_once():
    exported = maserline.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    unresolved = [name for name in exported if not hasattr(maserline, name)]
    assert unresolved == [], f"__all__ names with no binding: {unresolved}"
    tree = ast.parse(Path(maserline.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    missing = sorted(name for name in imported if not name.startswith("_") and name not in exported)
    assert missing == [], f"public imports missing from __all__: {missing}"
