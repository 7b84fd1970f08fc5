import ast
from pathlib import Path

import tlradapt

PACKAGE = Path(tlradapt.__file__).parent


def test_library_never_prints():
    """Only the command line writes to the terminal; the library reports through logging."""
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert PACKAGE.joinpath("cli.py").is_file()
    assert calls == []
