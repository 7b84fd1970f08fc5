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
    # _blas.eigsh imports scipy.sparse.linalg on first call, not at package import
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


def test_no_module_rebinds_globals_or_swaps_warning_filters():
    """Process-wide state has one writer, _blas's lock-scoped hold.

    So no module has a global statement or names a warnings-filter swap,
    as an attribute, a name or an import.
    """
    swaps = {"catch_warnings", "simplefilter", "filterwarnings"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(tlradapt.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
        or {getattr(node, field, None) for field in ("attr", "id", "name")} & swaps
    ]
    assert found == []


TRACED_MARK = "# noqa: F401  traced by perfbench/spans.py"


def test_every_import_is_used():
    """Each name a module imports is used there, unless its line is marked as kept for the tracer."""
    unused, traced = set(), set()
    for path in sorted(Path(tlradapt.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(
            element.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
            for element in node.value.elts
        )
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            marked = any(TRACED_MARK in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    (traced if marked else unused).add(f"{path.stem}.{name}")
    assert unused == set()
    # perfbench/spans.py wraps these two by module attribute; both go when the spans move
    assert traced == {"bench.eigen_basis", "tlr.mmd_matrix"}
