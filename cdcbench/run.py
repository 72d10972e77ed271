"""Benchmark of the `cdc` pipelines, run in-process through `cdcodes.cli.main`.

Usage, from the repository root::

    python3 cdcbench/run.py --workload multiblock-exhaustive --seed 1 --seconds 55 --trace 0
    python3 cdcbench/run.py --workload all --seed 1 --seconds 55

One process runs one workload as a closed loop with a single caller: each
`cdc` command starts when the previous one has returned.  An untimed
warm-up touches every path on a toy code first.  Each timed iteration
runs, with a full garbage collection before each timed step:

1. ``cdc construct ... -o FILE`` and ``cdc verify FILE ...``;
2. cold passes over ``cdc table 2..5 --check`` and ``cdc table 1``;
3. one slice of the workload's seeded grid of ``cdc bound`` evaluations,
   each evaluation timed on its own.

Set-up (importing `cdcodes.cli` and building the workload's fields) is
measured in fresh interpreters, SETUP_PROBES times spread over the run.
Every output goes through the gate in `workloads.py`; a failed check
counts against ``fail_ratio`` and makes the command exit 1.

``--trace 0`` prints the end-to-end metrics: the best sample of each
timing (see `end_to_end`), with its median and sample count alongside,
the median set-up time and the peak resident memory.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics: traced
iterations wrap the entry points of each `cdcodes` module in spans (see
`spans.py`).  Per-layer values are means per traced iteration, so the
layer self times add up to ``trace.wall_s`` less ``trace.gap_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric with its unit, the environment and ``fail_ratio``.
``--workload all`` runs every workload, untraced and traced, each in its
own process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
sys.path.insert(0, str(ROOT))

from cdcbench import spans, workloads  # noqa: E402

SETUP_PROBES = 40  # fresh interpreters, evenly spread over the run
PROBE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cdcodes.cli
t1 = time.perf_counter()
from cdcodes.gf import extension_field, field_of_order
field_of_order(int(sys.argv[2]))
extension_field(int(sys.argv[2]), int(sys.argv[3]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "field_s": t2 - t1, "module": cdcodes.cli.__file__}))
"""

END_TO_END_UNITS = {
    "setup_s": "s", "construct_s": "s", "verify_s": "s", "pipeline_s": "s",
    "tables_s": "s", "bounds_per_s": "1/s", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "gf.setup_s": "s", "gf.self_s": "s",
    "qpoly.enumerate_s": "s", "qpoly.maps": "count",
    "linalg.self_s": "s",
    "linalg.rref_calls.construct": "count", "linalg.rref_calls.read": "count",
    "linalg.rref_s.construct": "s", "linalg.rref_s.read": "s",
    "construct.self_s": "s", "construct.members": "count", "construct.dedup_ratio": "ratio",
    "cli.self_s": "s", "cli.write_s": "s", "cli.read_s": "s", "cli.read_self_s": "s",
    "cli.file_bytes": "bytes",
    "verify.self_s": "s", "verify.masks_s": "s", "verify.mask_bytes": "bytes",
    "verify.oracle_s": "s", "verify.pairs": "count", "verify.pairs_per_s": "1/s",
    "rankdist.s": "s", "rankdist.cache_hit_ratio": "ratio",
    "bounds.s": "s", "bounds.evals": "count", "bounds.digits": "digits",
    "tables.rows_checked": "count",
    "trace.wall_s": "s", "trace.gap_s": "s", "trace.overhead_s": "s",
}
# Printed with the per-layer metrics but left out of the JSON result: each
# is zero or undefined on the workloads that do not take its path.
PATH_LAYER_UNITS = {
    "qpoly.filtration_keep_ratio": "ratio",
}
# Layers whose self times add up to the traced wall time; `tables` is data
# only, so it has rows checked but no time of its own.
TIMED_LAYERS = ("gf", "qpoly", "linalg", "rankdist", "construct", "cli", "verify", "bounds")
_clock = time.perf_counter


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "np_bitwise_count": hasattr(np, "bitwise_count"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_probe(q: int, n: int) -> dict:
    """Set-up times of one fresh interpreter: import_s and field_s."""
    argv = [sys.executable, "-I", "-c", PROBE, str(SRC), str(q), str(n)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `cdc argv`, in this process."""
    from cdcodes import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a crash is a failed operation, not the end of the run
        return -1, out.getvalue(), err.getvalue() + traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


class Bench:
    """One workload's iterations and the gate's bookkeeping."""

    def __init__(self, wl, seed: int, expected: dict, workdir: Path):
        from cdcodes import rankdist

        self.wl = wl
        self.exp = expected["workloads"][wl.name]
        self.tables_exp = expected["tables"]
        self.code_path = workdir / "code.jsonl"
        self.points = wl.grid(seed)
        self.caches = (rankdist.gaussian_binomial, rankdist.delsarte_distribution)
        for fn in self.caches:
            fn.cache_clear()
        self.attempted = self.failed = 0
        self.cache_hits = self.cache_lookups = 0
        self.rows_checked = self.digits = self.bound_evals = 0
        self.file_bytes = 0

    def op(self, what: str, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            for msg in fails:
                print(f"FAIL {self.wl.name} {what}: {msg}", file=sys.stderr)

    def cold_caches(self) -> None:
        """Empty the rankdist memo caches, as a fresh process has them."""
        for fn in self.caches:
            info = fn.cache_info()
            self.cache_hits += info.hits
            self.cache_lookups += info.hits + info.misses
            fn.cache_clear()

    def gate_size_bound(self) -> None:
        """The code's member count equals `cdc bound` for the same construction."""
        argv = self.wl.size_bound
        if argv:
            rc, out, err = run_cli(argv)
            value = workloads.bound_value(rc, out)
            self.op("size bound", [] if value == self.exp["members"] else [
                f"`cdc {' '.join(argv)}` gave {value} ({err.strip()}), "
                f"the code has {self.exp['members']} members"])

    def iteration(self, index: int) -> dict:
        """Run iteration `index`, gate its outputs; return its timings."""
        wl, exp = self.wl, self.exp
        gc.collect()
        t0 = _clock()
        rc, _out, err = run_cli(wl.construct + ("-o", str(self.code_path)))
        t1 = _clock()
        self.op("construct", workloads.check_construct(exp, rc, self.code_path)
                + ([err.strip()] if rc else []))
        self.file_bytes = self.code_path.stat().st_size if rc == 0 else 0
        gc.collect()
        t2 = _clock()
        rc, out, err = run_cli(["verify", str(self.code_path)])
        t3 = _clock()
        self.op("verify", workloads.check_verify(exp, rc, out) + ([err.strip()] if rc else []))
        times = {"construct_s": t1 - t0, "verify_s": t3 - t2,
                 "pipeline_s": (t1 - t0) + (t3 - t2), "tables_s": [], "bounds": []}

        for _ in range(wl.table_passes):
            self.cold_caches()
            gc.collect()
            a = _clock()
            results = [(tid, run_cli(["table", str(tid), "--check"])) for tid in (2, 3, 4, 5)]
            results.append((1, run_cli(["table", "1"])))
            times["tables_s"].append(_clock() - a)
            for tid, (rc, out, err) in results:
                fails = workloads.check_table(self.tables_exp, tid, rc, out)
                self.op(f"table {tid}", fails + ([err.strip()] if rc else []))
                if tid != 1 and not fails:
                    self.rows_checked += self.tables_exp["table_rows"][str(tid)]

        self.cold_caches()
        gc.collect()
        for p in self.points[index % workloads.GRID_SLICES::workloads.GRID_SLICES]:
            values = []
            for argv in (p.lower, p.upper):
                a = _clock()
                rc, out, _err = run_cli(argv)
                times["bounds"].append((argv, _clock() - a))
                values.append(workloads.bound_value(rc, out))
                self.bound_evals += 1
                self.digits += len(out.split(None, 1)[0]) if out.strip() else 0
            self.op(" ".join(p.lower), workloads.check_bound(p, *values))
        times["wall_s"] = (times["pipeline_s"] + sum(times["tables_s"])
                           + sum(t for _argv, t in times["bounds"]))
        return times


def warm_up(expected: dict, workdir: Path) -> None:
    """Run every stage once on the toy code, untimed."""
    Bench(workloads.TOY, 0, expected, workdir).iteration(0)


def _spread_note(values: list[float]) -> str:
    """Sample count, median, and the highest percentile with ten samples beyond it."""
    note = f"best of {len(values)}; median {statistics.median(values):.6g}"
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            return note + f"; p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g}"
    return note


def end_to_end(runs: list[dict], setup: list[dict]) -> tuple[dict, dict]:
    """Best sample of each timing, median set-up time, peak memory; notes on the spread.

    Other tenants of a shared machine only ever slow a sample down, and on
    the 2-vCPU host this was tuned on they change its speed by up to 1.7x
    over seconds.  The best of many short samples spread over the run is
    therefore the steadiest estimate of the code's own cost: with a fixed
    25 ms loop, the fastest sample of 25-second windows ranged over 7% while
    their medians ranged over 35%.  ``bounds_per_s`` divides the grid's
    evaluation count by the sum of each evaluation's best time.
    """
    samples = {
        "construct_s": [r["construct_s"] for r in runs],
        "verify_s": [r["verify_s"] for r in runs],
        "pipeline_s": [r["pipeline_s"] for r in runs],
        "tables_s": [t for r in runs for t in r["tables_s"]],
    }
    metrics, notes = {}, {}
    for key, values in samples.items():
        metrics[key] = {"value": min(values), "unit": END_TO_END_UNITS[key]}
        notes[key] = _spread_note(values)
    evals: dict[tuple, list[float]] = {}
    for r in runs:
        for argv, seconds in r["bounds"]:
            evals.setdefault(argv, []).append(seconds)
    best = sum(min(v) for v in evals.values())
    typical = sum(statistics.median(v) for v in evals.values())
    metrics["bounds_per_s"] = {"value": len(evals) / best, "unit": "1/s"}
    notes["bounds_per_s"] = (f"{len(evals)} evaluations timed {sum(map(len, evals.values()))} "
                             f"times; {len(evals) / typical:.6g} at their median times")
    setup_s = [p["import_s"] + p["field_s"] for p in setup]
    metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    notes["setup_s"] = f"median of {len(setup_s)}; best {min(setup_s):.6g}"
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return metrics, notes


def per_layer(bench: Bench, rec: spans.SpanRecorder, untraced: list[dict], traced: list[dict],
              setup: list[dict], iterations: int) -> dict:
    st = rec.self_times()
    n = len(traced)

    def self_of(*names):
        return sum(st[name][1] for name in names if name in st) / n

    def calls(name):
        return st[name][2] / n if name in st else 0

    layer_s = {layer: sum(v[1] for name, v in st.items() if name.split(".", 1)[0] == layer) / n
               for layer in TIMED_LAYERS}
    c = rec.counters
    members = c["construct.members"] // n
    pairs = members * (members - 1) // 2  # every workload verifies exhaustively
    oracle = self_of("verify.min_distance_exhaustive")
    wall = sum(r["wall_s"] for r in traced) / n
    values = {
        "gf.setup_s": min(p["field_s"] for p in setup),
        "gf.self_s": layer_s["gf"],
        "qpoly.enumerate_s": layer_s["qpoly"],
        "qpoly.maps": c["qpoly.maps"] // n,
        "linalg.self_s": layer_s["linalg"],
        "linalg.rref_calls.construct": calls("linalg.rref.construct"),
        "linalg.rref_calls.read": calls("linalg.rref.read"),
        "linalg.rref_s.construct": self_of("linalg.rref.construct"),
        "linalg.rref_s.read": self_of("linalg.rref.read"),
        "construct.self_s": layer_s["construct"],
        "construct.members": members,
        "construct.dedup_ratio": c["construct.members"] / c["construct.yielded"],
        "cli.self_s": layer_s["cli"],
        "cli.write_s": self_of("cli.write_codeset"),
        "cli.read_s": st.get("cli.read_codeset", (0.0,))[0] / n,
        "cli.read_self_s": self_of("cli.read_codeset"),
        "cli.file_bytes": bench.file_bytes,
        "verify.self_s": layer_s["verify"],
        "verify.masks_s": self_of("verify.membership_masks"),
        "verify.mask_bytes": c["verify.mask_bytes"] // n,
        "verify.oracle_s": oracle,
        "verify.pairs": pairs,
        "verify.pairs_per_s": pairs / oracle,
        "rankdist.s": layer_s["rankdist"],
        "rankdist.cache_hit_ratio": bench.cache_hits / bench.cache_lookups,
        "bounds.s": layer_s["bounds"],
        "bounds.evals": calls("bounds.evaluate"),
        "bounds.digits": bench.digits / bench.bound_evals,
        "tables.rows_checked": bench.rows_checked / iterations,
        "trace.wall_s": wall,
        "trace.gap_s": wall - sum(layer_s.values()),
        "trace.overhead_s": min(r["pipeline_s"] for r in traced)
        - min(r["pipeline_s"] for r in untraced),
        "qpoly.filtration_keep_ratio": (c["qpoly.filtration_kept"] / c["qpoly.filtration_seen"]
                                        if c["qpoly.filtration_seen"] else float("nan")),
    }
    units = {**LAYER_UNITS, **PATH_LAYER_UNITS}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = workloads.WORKLOADS[name]
    expected = workloads.load_expected()
    setup_probe(wl.q, wl.n)  # untimed: the first import may compile

    sys.path.insert(0, str(SRC))
    import cdcodes

    module = Path(cdcodes.__file__).resolve()
    if not module.is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported cdcodes from {module}, not from {SRC}")
    from cdcodes.gf import extension_field, field_of_order

    field_of_order(wl.q)
    extension_field(wl.q, wl.n)

    workdir = Path(tempfile.mkdtemp(dir=ROOT, prefix=".cdcbench-"))
    rec = spans.SpanRecorder()
    setup, untraced, traced = [], [], []
    try:
        warm_up(expected, workdir)
        bench = Bench(wl, seed, expected, workdir)
        bench.gate_size_bound()
        start = _clock()
        iterations = 0
        while iterations < wl.min_iterations or _clock() - start < seconds:
            if len(setup) < SETUP_PROBES and _clock() - start >= len(setup) * seconds / SETUP_PROBES:
                setup.append(setup_probe(wl.q, wl.n))
            if trace and iterations % 2:
                with spans.Instrumentation(rec):
                    traced.append(bench.iteration(iterations))
            else:
                untraced.append(bench.iteration(iterations))
            iterations += 1
        elapsed = _clock() - start
        while len(setup) < SETUP_PROBES:
            setup.append(setup_probe(wl.q, wl.n))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    notes = {"verify.mask_bytes": "computed from the mask shape"}
    if trace:
        metrics = per_layer(bench, rec, untraced, traced, setup, iterations)
    else:
        metrics, notes = end_to_end(untraced, setup)
    print(f"workload {name}, seed {seed}: {iterations} iterations in {elapsed:.1f} s "
          f"({len(traced)} traced); closed loop, one caller")
    print("env " + json.dumps(environment(), sort_keys=True))
    for key, m in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:30s} {m['value']:>16.6g} {m['unit']}{note}")
    print(f"{'fail_ratio':30s} {bench.failed / bench.attempted:>16.6g} ratio"
          f"  ({bench.failed} of {bench.attempted} operations failed)")
    if trace:
        print(f"layer self times add up to {metrics['trace.wall_s']['value'] - metrics['trace.gap_s']['value']:.6f} s "
              f"of {metrics['trace.wall_s']['value']:.6f} s traced wall per iteration")
        for key in PATH_LAYER_UNITS:
            del metrics[key]
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if bench.failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    attempted = failed = 0
    metrics = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(done.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"workload {name} (trace {trace}) exited {done.returncode} without a result",
                      file=sys.stderr)
                attempted += 1
                failed += 1
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}:{k}": v for k, v in result["metrics"].items()})
    print(f"all workloads: fail_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long; at least the workload's minimum iterations run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, here and in every child
        os.environ[var] = "1"
    if not (SRC / "cdcodes" / "cli.py").is_file():
        print(f"error: no cdcodes sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
