import ast
import os
import subprocess
import sys
from pathlib import Path

import tlradapt
from tlradapt import bench, cli, dataset, reference, tlr


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
REEXPORT_MARK = "# noqa: F401  fixed API, defined in reference"

# the dense reference chain: reference defines it, tlr and the package root re-export it
ORACLE = {
    "SolverMatrices",
    "build_AB",
    "eigen_basis",
    "objective_expanded",
    "objective_raw",
    "solve_W",
    "stationarity_residual",
}


def test_every_import_is_used():
    """Each name a module imports is used there, unless its line is marked as kept.

    A line is kept for the tracer or as tlr's re-export of the reference chain.
    """
    unused, traced, reexported = set(), set(), set()
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
            text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            kept = traced if TRACED_MARK in text else reexported if REEXPORT_MARK in text else unused
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    kept.add(f"{path.stem}.{name}")
    assert unused == set()
    # perfbench/spans.py wraps these two by module attribute; both go when the spans move
    assert traced == {"bench.eigen_basis", "tlr.mmd_matrix"}
    # tests/test_acceptance.py imports the chain from tlr, which must not use it itself
    assert reexported == {f"tlr.{name}" for name in ORACLE}


def _definition(module, qualname: str) -> ast.AST:
    node = ast.parse(Path(module.__file__).read_text())
    for part in qualname.split("."):
        node = next(
            child
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == part
        )
    return node


def test_live_path_stays_out_of_the_reference_chain():
    """The live solver and the dense oracle the tests compare it with stay apart.

    No live entry point names an oracle function, bare or as an attribute,
    reference imports no module that holds the live path, and every oracle
    name is one object under tlr, reference and the package root.
    """
    live = [
        (tlr, "fit"),
        (tlr, "TlrModel.embed"),
        (tlr, "lanczos_basis"),
        (bench, "grid_search"),
        (bench, "_score_run"),
        (bench, "_range_factor"),
        (bench, "_accuracy_by_width"),
    ]
    trees = {f"{module.__name__}.{name}": _definition(module, name) for module, name in live}
    trees[cli.__name__] = ast.parse(Path(cli.__file__).read_text())
    reached = {
        where: sorted(
            {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
            & ORACLE
        )
        for where, tree in trees.items()
    }
    assert reached == {where: [] for where in trees}

    tree = ast.parse(Path(reference.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports)  # no function-level import
    modules = {
        part
        for node in imports
        for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
        for part in name.split(".")
    }
    assert modules & {"tlr", "bench", "cli"} == set()

    # perfbench/spans.py looks the names up in tlr.__dict__, so each must be a real attribute
    for name in sorted(ORACLE):
        assert tlr.__dict__[name] is reference.__dict__[name] is tlradapt.__dict__[name], name


def test_tlr_has_one_dense_solve():
    """Within tlr, fit alone calls pencil_blocks and leading_basis, once each.

    Every dense solve, on the range factor or on K, goes through that one call
    pair, so a second copy of the solve beside it fails here.
    """
    solvers = {"pencil_blocks", "leading_basis"}
    calls = sorted(
        (getattr(node, "name", "<module>"), call.func.id)
        for node in ast.parse(Path(tlr.__file__).read_text()).body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in solvers
    )
    assert calls == [("fit", "leading_basis"), ("fit", "pencil_blocks")]


def test_each_reader_names_its_file_at_one_site():
    """The input readers format {path} only at the sites that name the file.

    _parse_fields and read_report_csv prefix it to every rejection in one
    except each. load_model has three sites: a file it cannot open as an
    archive, a missing field, and every other rejected stored value.
    _expand_config names the config file. cli.main reports every error
    through one print, so a per-field or per-row copy of a prefix fails here.
    """
    sites = {}
    for module in (bench, cli, dataset, tlr):
        for node in ast.parse(Path(module.__file__).read_text()).body:
            count = sum(
                isinstance(part, ast.FormattedValue) and getattr(part.value, "id", None) == "path"
                for text in ast.walk(node)
                if isinstance(text, ast.JoinedStr)
                for part in text.values
            )
            if count:
                sites[getattr(node, "name", "<module>")] = count
    assert sites == {"_expand_config": 1, "_parse_fields": 1, "load_model": 3, "read_report_csv": 1}
    main = next(
        node for node in ast.parse(Path(cli.__file__).read_text()).body
        if getattr(node, "name", None) == "main"
    )
    errors = [
        node.lineno for node in ast.walk(main)
        if isinstance(node, ast.Constant) and str(node.value).startswith("error:")
    ]
    assert len(errors) == 1
