"""numpy loads on the first array operation, not on import: `bound` and `table`
run without it, in a fresh interpreter each."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEADER = f"""\
import contextlib, hashlib, io, json, sys
sys.path.insert(0, {str(ROOT / "src")!r})
def numpy_loaded():
    return sorted(m for m in sys.modules if m.startswith("numpy."))
"""


def run_fresh(body: str):
    """The JSON value the last line of body prints, run in an isolated interpreter."""
    done = subprocess.run([sys.executable, "-I", "-c", HEADER + body], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_bound_and_table_never_load_numpy(tmp_path):
    path = tmp_path / "lifted.jsonl"
    out = run_fresh(f"""
import cdcodes.cli
from cdcodes.gf import extension_field, field_of_order
field_of_order(3), extension_field(3, 3)
seen = [numpy_loaded()]
for argv in (["bound", "multiblock", "--q", "2", "--n", "8", "--t", "4", "--s", "2"],
             ["bound", "anticode", "--q", "2", "--n", "4", "--delta", "1", "--k", "2"],
             ["table", "2", "--check"]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append(cdcodes.cli.main(argv))
    seen.append(numpy_loaded())
with contextlib.redirect_stdout(io.StringIO()):
    seen.append(cdcodes.cli.main(["construct", "lifted", "--q", "3", "--n", "3", "--t", "1",
                                  "-o", {str(path)!r}]))
seen.append(bool(numpy_loaded()))
seen.append(hashlib.sha256(open({str(path)!r}, "rb").read()).hexdigest())
print(json.dumps(seen))
""")
    expected = json.loads((ROOT / "cdcbench" / "expected.json").read_text())
    sha = expected["workloads"]["q3-exhaustive"]["file_sha256"]
    assert out == [[], 0, [], 0, [], 0, [], 0, True, sha]


def test_numpy_imported_first_is_the_module_cdcodes_uses():
    assert run_fresh("""
import numpy
import cdcodes._numpy
print(json.dumps(cdcodes._numpy.np is numpy))
""")


def test_numpy_imported_after_cdcodes_works():
    assert run_fresh("""
import cdcodes.cli
import numpy
print(json.dumps([numpy is cdcodes._numpy.np, int(numpy.arange(4).sum()), numpy.__version__ != ""]))
""") == [True, 6, True]


def test_a_missing_numpy_is_named_on_import():
    assert run_fresh("""
sys.modules["numpy"] = None  # as if numpy were not installed
try:
    import cdcodes
except ModuleNotFoundError as exc:
    print(json.dumps(exc.name))
""") == "numpy"
