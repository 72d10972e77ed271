"""Source-level rules for the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cdcodes"


def test_no_assert_statements_in_src():
    # invariants must hold under python -O, which strips assert statements
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")) and not offenders, offenders
