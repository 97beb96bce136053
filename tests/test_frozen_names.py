"""tests/_frozen.py holds one frozen reference per live route: a top-level
name there that no test module imports is a copy nothing compares with."""

import ast
from pathlib import Path

HERE = Path(__file__).parent


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))


def test_every_frozen_name_is_imported_by_a_test():
    names = {n for n in _top_level_names(ast.parse((HERE / "_frozen.py").read_text())) if not n.startswith("_")}
    imported = set()
    for path in HERE.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "_frozen":
                imported.update(alias.name for alias in node.names)
    assert sorted(names - imported) == []
