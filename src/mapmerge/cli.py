"""Command-line front end: exploration with property checks, scenario
regression, trace checking, and state-graph export.

Exit codes: 0 pass, 1 property violation, failed scenario, unreadable
input / unwritable output or memory run out, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

from .events import InvalidEventError, from_json, is_internal, label, reject_repeated_keys, validate_event
from .explorer import (
    TraceQuery,
    check_inevitable,
    explore,
    find_deadlocks,
    find_hidden_divergence,
    has_trace,
    label_nondeterminism_report,
)
from .export import export_graph
from .scenarios import builtin_scenarios, check_scenario, load_scenarios
from .world import ConfigurationError, all_maps_merged, initial_config

USAGE_ERROR = 2
CHECK_FAILED = 1


def _add_common(p: argparse.ArgumentParser, *, max_states=True, max_depth=True, report=True) -> None:
    """The model flags, plus the bound and report flags the command reads."""
    p.add_argument("--agents", type=int, default=3, metavar="N", help="agent count (default 3)")
    if max_states:
        p.add_argument("--max-states", type=int, default=None, metavar="K")
    if max_depth:
        p.add_argument("--max-depth", type=int, default=None, metavar="D")
    p.add_argument("--no-harness", action="store_true", help="drop the done/terminate harness")
    p.add_argument("--merge-set-max", type=int, default=1, metavar="M")
    if report:
        p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
        p.add_argument(
            "--timings",
            action="store_true",
            help="include durations in --json output (breaks byte-stability)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mapmerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explore", help="exhaustive exploration with property checks")
    _add_common(p)
    p.set_defaults(run=cmd_explore)

    p = sub.add_parser("scenarios", help="run the validation scenario regression")
    _add_common(p, max_states=False, max_depth=False)
    p.add_argument("--name", metavar="NAME", help="run a single scenario")
    p.add_argument("--scenario-file", metavar="PATH", help="JSON file of extra scenarios")
    p.set_defaults(run=cmd_scenarios)

    p = sub.add_parser("trace-check", help="has-trace check for a trace file")
    _add_common(p, max_depth=False)
    p.add_argument("trace_file", metavar="FILE", help="one JSON event object per line")
    p.add_argument("--alphabet-file", metavar="PATH", help="JSONL of visible events (default: all)")
    p.set_defaults(run=cmd_trace_check)

    p = sub.add_parser("export", help="explore and serialize the state graph")
    _add_common(p, report=False)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    p.set_defaults(run=cmd_export)

    return parser


def _config(args):
    return initial_config(
        args.agents,
        harness=not args.no_harness,
        merge_set_max=args.merge_set_max,
    )


def _check(name: str, ok: bool, detail: str, ms: float) -> dict:
    """One check entry of a report, timed by the work that decides it."""
    return {"name": name, "verdict": "pass" if ok else "fail", "detail": detail, "duration_ms": round(ms, 3)}


def _report(checks: list, **fields) -> dict:
    """A report of `fields` and `checks`: it passes iff every check passes."""
    return {**fields, "checks": checks, "verdict": "pass" if all(c["verdict"] == "pass" for c in checks) else "fail"}


def _timed(fn, *args, **kwargs) -> tuple:
    """`fn(*args, **kwargs)` and the milliseconds it took."""
    t = time.perf_counter()
    return fn(*args, **kwargs), (time.perf_counter() - t) * 1000.0


def _strip_timings(report: dict) -> dict:
    """`report` without its checks' durations, the only fields that vary between runs."""
    return {**report, "checks": [{k: v for k, v in c.items() if k != "duration_ms"} for c in report["checks"]]}


def _finish(report: dict, args) -> int:
    """Print `report`, as JSON under `--json`, and return its exit code."""
    if args.json:
        print(json.dumps(report if args.timings else _strip_timings(report), sort_keys=True, separators=(",", ":")))
    else:
        _print_human(report)
    return 0 if report["verdict"] == "pass" else CHECK_FAILED


def _print_human(report: dict) -> None:
    print(f"command: {report['command']}  agents: {report['agents']}")
    if "state_count" in report:
        print(f"states: {report['state_count']}  transitions: {report['transition_count']}")
    for chk in report["checks"]:
        print(f"  [{'pass' if chk['verdict'] == 'pass' else 'FAIL'}] {chk['name']}  ({chk['duration_ms']:.0f} ms)")
        if chk["detail"]:
            print(f"         {chk['detail']}")
        if "witness" in chk:
            print("         witness:", ", ".join(chk["witness"]) or "(empty)")
    if report.get("witness") is not None:
        print("witness:", ", ".join(report["witness"]) or "(empty)")
    print(f"verdict: {report['verdict']}")


def verify(c0, *, max_states=None, max_depth=None) -> dict:
    """Explore from `c0` and run every check behind the verdict once: the
    invariants, deadlock freedom, divergence freedom and the inevitability
    of the goal, all maps merged.  The invariants run inside `explore`, so
    their check is timed with it.  Returns the report."""
    g, ms = _timed(explore, c0, max_states=max_states, max_depth=max_depth)
    broken = "; ".join(f"{v.check}: {v.message}" for v in g.violations[:3])
    checks = [_check("invariants", not g.violations, broken, ms)]
    deadlocks, ms = _timed(find_deadlocks, g)
    checks.append(_check("deadlock-freedom", not deadlocks, f"{len(deadlocks)} deadlocks" if deadlocks else "", ms))
    div, ms = _timed(find_hidden_divergence, g, is_internal)
    cycle = "" if div is None else "hidden cycle: " + ", ".join(label(e) for e in div.cycle)
    checks.append(_check("divergence-freedom", div is None, cycle, ms))
    inev, ms = _timed(check_inevitable, g, all_maps_merged)
    why = "" if inev.value is True else "exploration incomplete" if inev.value is None else "goal avoidable"
    checks.append(_check("goal-inevitable", inev.value is True, why, ms))
    return _report(
        checks,
        agents=c0.params.n,
        state_count=g.state_count,
        transition_count=g.transition_count,
        complete=g.complete,
        choice_report=label_nondeterminism_report(g),
        violations=[{"check": v.check, "message": v.message} for v in g.violations],
    )


def check_scenarios(scenarios, c0) -> dict:
    """Search for each scenario's trace from `c0`: a scenario passes iff its
    trace is found exactly when expected, and one found against expectation
    carries its witness.  Returns the report."""
    checks = []
    for s in scenarios:
        r, ms = _timed(check_scenario, s, c0)
        detail = f"[{s.requirement_tag}] trace {'found' if r.found else 'absent'}, expected {s.expected}"
        checks.append(_check(s.name, r.found == s.expected, detail, ms))
        if r.found and not s.expected:
            checks[-1]["witness"] = [label(e) for e in r.witness]
    passed = sum(c["verdict"] == "pass" for c in checks)
    return _report(checks, agents=c0.params.n, passed=passed, total=len(checks))


def cmd_explore(args) -> int:
    report = verify(_config(args), max_states=args.max_states, max_depth=args.max_depth)
    return _finish({"command": "explore", **report}, args)


def cmd_scenarios(args) -> int:
    scenarios = list(builtin_scenarios())
    if args.scenario_file is not None:
        text = _read_text(args.scenario_file)
        builtin = {s.name for s in scenarios}
        try:
            for s in load_scenarios(text):
                if s.name in builtin:
                    raise ValueError(f"scenario {s.name!r} reuses the name of a built-in scenario")
                for e in s.query.trace + tuple(s.query.alphabet or ()):
                    validate_event(e, args.agents)
                scenarios.append(s)
        except (ValueError, RecursionError) as exc:  # bad JSON (too deep, a repeated key), scenario or event
            raise InvalidEventError(f"{args.scenario_file}: {exc}") from exc
    if args.name is not None:
        scenarios = [s for s in scenarios if s.name == args.name]
        if not scenarios:
            raise ConfigurationError(f"unknown scenario {args.name!r}")
    return _finish({"command": "scenarios", **check_scenarios(scenarios, _config(args))}, args)


def _read_text(path: str) -> str:
    """The text of an input file; one that is not UTF-8 is a parse error."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise InvalidEventError(f"{path}: {exc}") from exc


def _read_jsonl_events(path: str, n: int) -> list:
    """The events of a JSONL file; each must lie in the n-agent universe."""
    events = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            e = from_json(json.loads(line, object_pairs_hook=reject_repeated_keys))
            validate_event(e, n)
        except (ValueError, RecursionError) as exc:  # bad JSON (too deep, a repeated key) or event
            raise InvalidEventError(f"{path}:{lineno}: {exc}") from exc
        events.append(e)
    return events


def cmd_trace_check(args) -> int:
    trace = _read_jsonl_events(args.trace_file, args.agents)
    alphabet = None if args.alphabet_file is None else frozenset(_read_jsonl_events(args.alphabet_file, args.agents))
    try:
        query = TraceQuery(tuple(trace), alphabet)
    except InvalidEventError as exc:
        raise InvalidEventError(f"{args.trace_file}: {exc}") from exc
    result, ms = _timed(has_trace, _config(args), query, max_states=args.max_states)
    check = _check("has-trace", result.found, "" if result.complete else "search truncated by bounds", ms)
    witness = None if result.witness is None else [label(e) for e in result.witness]
    report = _report([check], command="trace-check", agents=args.agents, trace_length=len(trace), witness=witness)
    return _finish(report, args)


def cmd_export(args) -> int:
    c0 = _config(args)
    # --out opens before the search, as a shell's `>` does: a bad path fails at once, not after the search.
    with open(args.out, "w") if args.out is not None else nullcontext(sys.stdout) as out:
        export_graph(explore(c0, max_states=args.max_states, max_depth=args.max_depth, checks=[]), args.format, out)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigurationError as exc:
        print(f"mapmerge: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvalidEventError as exc:
        print(f"mapmerge: parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"mapmerge: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except MemoryError as exc:
        what = str(exc) or "out of memory"
        print(f"mapmerge: {what}; bound the search with --max-states, or use fewer --agents", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
