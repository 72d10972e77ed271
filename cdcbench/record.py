"""Write ``expected.json``, the outputs the benchmark's gate compares against.

Run from the repository root on a commit whose outputs are known good::

    python3 cdcbench/record.py

Code files and verify reports do not depend on the seed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from cdcbench import run, workloads  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from cdcodes import tables

    table_rows = {str(tid): len(getattr(tables, f"TABLE{tid}")) for tid in (2, 3, 4, 5)}
    rc, table1, err = run.run_cli(["table", "1"])
    if rc:
        raise SystemExit(f"cdc table 1 failed: {err}")
    expected = {"tables": {"table_rows": table_rows, "table1_sha256": workloads.sha256_text(table1)},
                "workloads": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".cdcbench-") as tmp:
        path = Path(tmp) / "code.jsonl"
        for name, wl in {**workloads.WORKLOADS, workloads.TOY.name: workloads.TOY}.items():
            rc, _out, err = run.run_cli(wl.construct + ("-o", str(path)))
            if rc:
                raise SystemExit(f"{name}: construct failed: {err}")
            with open(path, encoding="utf-8") as fh:
                members = json.loads(fh.readline())["count"]
            entry = {"file_sha256": workloads.sha256_file(path), "members": members}
            rc, out, err = run.run_cli(["verify", str(path)])
            if rc:
                raise SystemExit(f"{name}: verify failed: {err}")
            entry["report"] = workloads.report_fields(json.loads(out))
            entry["report_sha256"] = workloads.sha256_text(out)
            expected["workloads"][name] = entry
            print(name, members, entry["report"], file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
