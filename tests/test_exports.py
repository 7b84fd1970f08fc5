import ast
from pathlib import Path

import tlradapt


def test_all_is_sorted_unique_and_matches_imports():
    tree = ast.parse(Path(tlradapt.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert tlradapt.__all__ == sorted(set(tlradapt.__all__))
    assert set(tlradapt.__all__) == imported
