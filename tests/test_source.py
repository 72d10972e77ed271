"""Source-level rules for the package."""

import ast
import types
from pathlib import Path

import cdcodes

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


def test_all_matches_public_names():
    public = {
        name for name, value in vars(cdcodes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(cdcodes.__all__) == sorted(public)
    namespace = {}
    exec("from cdcodes import *", namespace)
    assert set(namespace) - {"__builtins__"} == public


def test_only_the_lazy_module_imports_numpy():
    # `cdc bound` and `cdc table` touch no array; an eager numpy import would
    # charge them its ~0.1 s anyway (cdcodes._numpy defers it to first use)
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level else []

    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "_numpy.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(name.split(".")[0] == "numpy" for name in imported(node))
    ]
    assert (SRC / "_numpy.py").exists() and not offenders, offenders


def test_only_linalg_assigns_a_chunk_budget():
    # every array kernel chunks by one byte budget, linalg._CHUNK_BYTES, through
    # linalg.per_chunk; a second budget constant would split that policy again
    def budget(name):
        return name.endswith("_CHUNK_BYTES") or name in ("_CHUNK", "_DRAW_CHUNK")

    def assigned(path):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            yield from (t.id for t in targets if isinstance(t, ast.Name) and budget(t.id))

    offenders = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
                 if path.name != "linalg.py" for name in assigned(path)]
    assert list(assigned(SRC / "linalg.py")) == ["_CHUNK_BYTES"] and not offenders, offenders
