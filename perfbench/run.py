"""Layered verdict-time benchmark for mapmerge.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation of the workload is one
fresh `python3 perfbench/op.py` process calling `mapmerge.cli.main(argv)`,
one at a time and with `--workers`/MAPMERGE_WORKERS unset.  Operations
repeat in whole cycles until S seconds have passed (at least one cycle).

With --trace 0 the last stdout line reports the end-to-end metrics (medians
over cycles); with --trace 1 it reports the per-layer metrics of a traced
cycle, and the spans are written to perfbench/traces/.  Every operation's
output is checked in both modes; a wrong one counts in "failed".  The line
before the last records the workload, seed, Python version and source
revision of the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_SCRIPT = HERE / "op.py"
SETUP_REPEATS = 5
OP_TIMEOUT_S = 170


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def spawn(args: list) -> tuple:
    """Run `python3 perfbench/op.py ARGS` to completion.  Returns wall
    seconds, CPU seconds and peak RSS in MB of that process alone, and its
    exit code."""
    # A fixed hash seed makes the step counts repeat exactly: is_enabled
    # stops at the first refusing participant of a frozenset, whose order
    # follows string hashing.
    env = {k: v for k, v in os.environ.items() if k != "MAPMERGE_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(OP_SCRIPT), *map(str, args)], cwd=ROOT, env=env, stdout=subprocess.DEVNULL
    )
    signal.alarm(OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except OpTimeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        raise
    finally:
        signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def source_revision() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = git.stdout.strip() or None
    return {"git_revision": revision, "src_sha256": digest.hexdigest()[:16]}


def run_cycle(workloads, ops: list, workdir: Path, run_id: str, trace: bool) -> dict:
    cycle = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "failed": 0, "ops": [], "dumps": []}
    for op in ops:
        result_file = workdir / f"{run_id}-{op.name}.json"
        wall, cpu, rss, code = spawn(["run", result_file, f"{run_id}-{op.name}", int(trace), "--", *op.argv])
        ok = False
        if code == 0 and result_file.is_file():
            result = json.loads(result_file.read_text())
            ok = workloads.output_ok(op, result["exit_code"], result["sha256"], result["stdout"], workdir)
            if trace:
                cycle["dumps"].append(result["trace"])
        cycle["wall_s"] += wall
        cycle["cpu_s"] += cpu
        cycle["peak_rss_mb"] = max(cycle["peak_rss_mb"], rss)
        cycle["failed"] += not ok
        cycle["ops"].append({"op": op.name, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "ok": ok})
    return cycle


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mapmerge" / "cli.py").is_file():
        print(f"perfbench: no mapmerge sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_walls = []
        for _ in range(SETUP_REPEATS):
            wall, _, _, code = spawn(["setup", args.workload, args.seed, workdir])
            if code != 0:
                print(f"perfbench: setup of {args.workload} failed", file=sys.stderr)
                return 1
            setup_walls.append(wall)

        ops = workloads.operations(args.workload, workdir)
        cycles = []
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < args.seconds:
            run_id = f"{args.workload}-s{args.seed}-c{len(cycles)}"
            cycles.append(run_cycle(workloads, ops, workdir, run_id, bool(args.trace)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def median(key):
        return statistics.median(c[key] for c in cycles)

    if args.trace:
        from tracer import layer_metrics

        per_cycle = [layer_metrics(c["dumps"]) for c in cycles]
        layers = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([d for c in cycles for d in c["dumps"]])
        )
        layers["trace.wall_s"] = median("wall_s")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = {m["name"]: metric(layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        metrics = {
            "wall_s": metric(median("wall_s"), "s"),
            "cpu_s": metric(median("cpu_s"), "s"),
            "peak_rss_mb": metric(median("peak_rss_mb"), "MB"),
            "setup_s": metric(statistics.median(setup_walls), "s"),
        }

    failed = sum(c["failed"] for c in cycles)
    attempted = sum(len(c["ops"]) for c in cycles)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        **source_revision(),
        "setup_s": setup_walls,
        "cycles": [c["ops"] for c in cycles],
    }
    print(json.dumps(provenance))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
