import ast
from pathlib import Path

import lowcon


def _imported_public_names():
    tree = ast.parse(Path(lowcon.__file__).read_text())
    return [[alias.name for alias in node.names] for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_all_lists_each_imported_name_once_in_order():
    groups = _imported_public_names()
    for names in groups:
        assert names == sorted(names)
    imported = [name for names in groups for name in names]
    assert lowcon.__all__ == sorted(imported)
    assert len(set(lowcon.__all__)) == len(lowcon.__all__)


def test_every_exported_name_resolves():
    for name in lowcon.__all__:
        assert getattr(lowcon, name) is not None


def test_star_import():
    namespace: dict = {}
    exec("from lowcon import *", namespace)
    assert set(lowcon.__all__) <= set(namespace)
