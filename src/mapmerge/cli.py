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

from .events import InvalidEventError, from_json, is_internal, label, validate_event
from .explorer import (
    ExploreMemoryError,
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
    p.add_argument("--dot", metavar="PATH", help="also write the state graph as DOT")
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


def _emit(report: dict, args) -> None:
    if args.json:
        if not args.timings:
            report = _strip_timings(report)
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        _print_human(report)


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if not k.startswith("duration")}
    if isinstance(obj, list):
        return [_strip_timings(x) for x in obj]
    return obj


def _print_human(report: dict) -> None:
    print(f"command: {report['command']}  agents: {report['agents']}")
    if "state_count" in report:
        print(f"states: {report['state_count']}  transitions: {report['transition_count']}")
    for chk in report.get("checks", ()):
        dur = f"  ({chk['duration_ms']:.0f} ms)" if "duration_ms" in chk else ""
        print(f"  [{'pass' if chk['verdict'] == 'pass' else 'FAIL'}] {chk['name']}{dur}")
        if chk.get("detail"):
            print(f"         {chk['detail']}")
    print(f"verdict: {report['verdict']}")


def verify(c0, *, max_states=None, max_depth=None) -> tuple:
    """Explore from `c0` and run every check behind the verdict once: the
    invariants, deadlock freedom, divergence freedom and the inevitability
    of the goal, all maps merged.  Returns the graph and the report."""
    t0 = time.perf_counter()
    g = explore(c0, max_states=max_states, max_depth=max_depth)
    explore_ms = (time.perf_counter() - t0) * 1000.0
    checks = []

    def record(name, fn):
        t = time.perf_counter()
        ok, detail = fn()
        checks.append(
            {
                "name": name,
                "verdict": "pass" if ok else "fail",
                "detail": detail,
                "duration_ms": round((time.perf_counter() - t) * 1000.0, 3),
            }
        )
        return ok

    def check_invariants():
        detail = "; ".join(f"{v.check}: {v.message}" for v in g.violations[:3])
        return not g.violations, detail

    def check_deadlocks():
        deadlocks = find_deadlocks(g)
        return not deadlocks, "" if not deadlocks else f"{len(deadlocks)} deadlocks"

    def check_divergence():
        div = find_hidden_divergence(g, is_internal)
        if div is None:
            return True, ""
        return False, "hidden cycle: " + ", ".join(label(e) for e in div.cycle)

    def check_goal():
        inev = check_inevitable(g, all_maps_merged)
        if inev.value is True:
            return True, ""
        return False, "exploration incomplete" if inev.value is None else "goal avoidable"

    ok = True
    ok &= record("invariants", check_invariants)
    ok &= record("deadlock-freedom", check_deadlocks)
    ok &= record("divergence-freedom", check_divergence)
    ok &= record("goal-inevitable", check_goal)

    report = {
        "agents": c0.params.n,
        "state_count": g.state_count,
        "transition_count": g.transition_count,
        "complete": g.complete,
        "choice_report": label_nondeterminism_report(g),
        "checks": checks,
        "violations": [
            {"check": v.check, "message": v.message} for v in g.violations
        ],
        "duration_ms": round(explore_ms, 3),
        "verdict": "pass" if ok and g.complete else "fail",
    }
    return g, report


def cmd_explore(args) -> int:
    g, report = verify(_config(args), max_states=args.max_states, max_depth=args.max_depth)
    if args.dot:
        with open(args.dot, "w") as f:
            export_graph(g, "dot", f)
    _emit({"command": "explore", **report}, args)
    return 0 if report["verdict"] == "pass" else CHECK_FAILED


def cmd_scenarios(args) -> int:
    scenarios = list(builtin_scenarios())
    if args.scenario_file:
        text = _read_text(args.scenario_file)
        builtin = {s.name for s in scenarios}
        try:
            for s in load_scenarios(text):
                if s.name in builtin:
                    raise ValueError(f"scenario {s.name!r} reuses the name of a built-in scenario")
                for e in s.trace + tuple(s.alphabet or ()):
                    validate_event(e, args.agents)
                scenarios.append(s)
        except ValueError as exc:  # malformed JSON, scenario or event objects
            raise InvalidEventError(f"{args.scenario_file}: {exc}") from exc
    if args.name:
        scenarios = [s for s in scenarios if s.name == args.name]
        if not scenarios:
            print(f"mapmerge scenarios: unknown scenario {args.name!r}", file=sys.stderr)
            return USAGE_ERROR
    c0 = _config(args)
    reports = [check_scenario(s, c0) for s in scenarios]
    passed = sum(r.verdict for r in reports)
    report = {
        "command": "scenarios",
        "agents": args.agents,
        "checks": [
            {
                "name": r.name,
                "verdict": "pass" if r.verdict else "fail",
                "detail": f"[{r.requirement_tag}] trace {'found' if r.found else 'absent'}, expected {r.expected}",
                "duration_ms": round(r.duration_ms, 3),
            }
            for r in reports
        ],
        "passed": passed,
        "total": len(reports),
        "verdict": "pass" if passed == len(reports) else "fail",
    }
    _emit(report, args)
    return 0 if report["verdict"] == "pass" else CHECK_FAILED


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
            e = from_json(json.loads(line))
            validate_event(e, n)
        except (json.JSONDecodeError, InvalidEventError) as exc:
            raise InvalidEventError(f"{path}:{lineno}: {exc}") from exc
        events.append(e)
    return events


def cmd_trace_check(args) -> int:
    trace = _read_jsonl_events(args.trace_file, args.agents)
    alphabet = frozenset(_read_jsonl_events(args.alphabet_file, args.agents)) if args.alphabet_file else None
    c0 = _config(args)
    t0 = time.perf_counter()
    result = has_trace(c0, TraceQuery(tuple(trace), alphabet), max_states=args.max_states)
    dt = (time.perf_counter() - t0) * 1000.0
    report = {
        "command": "trace-check",
        "agents": args.agents,
        "trace_length": len(trace),
        "checks": [
            {
                "name": "has-trace",
                "verdict": "pass" if result.found else "fail",
                "detail": "" if result.complete else "search truncated by bounds",
                "duration_ms": round(dt, 3),
            }
        ],
        "witness": None if result.witness is None else [label(e) for e in result.witness],
        "verdict": "pass" if result.found else "fail",
    }
    _emit(report, args)
    return 0 if result.found else CHECK_FAILED


def cmd_export(args) -> int:
    c0 = _config(args)
    g = explore(c0, max_states=args.max_states, max_depth=args.max_depth, checks=[])
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        export_graph(g, args.format, out)
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
        what = exc if isinstance(exc, ExploreMemoryError) else "out of memory"
        print(f"mapmerge: {what}; bound the search with --max-states, or use fewer --agents", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
