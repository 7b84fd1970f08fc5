import ast
import os
import subprocess
import sys
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


def test_import_leaves_sparse_linalg_unloaded():
    # lanczos_basis imports scipy.sparse.linalg on first call, not at package import
    src = str(Path(tlradapt.__file__).parents[1])
    probe = "import sys, tlradapt; print('scipy.sparse.linalg' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
