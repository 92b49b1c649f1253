#!/usr/bin/env python3
"""Run the full verification sweep and print a summary table.

For each agent count, the report of `mapmerge explore` (`cli.verify`):
state and transition counts, each check's verdict and time (the invariants take
the exploration's), their sum, and the peak RSS so far (ru_maxrss); then, for
n >= 3, the check entries of `mapmerge scenarios` (`cli.check_scenarios`).

Usage:
    python scripts/run_verification.py [--max-agents 4]
"""

import argparse
import resource
import sys

from mapmerge.cli import check_scenarios, verify
from mapmerge.scenarios import builtin_scenarios
from mapmerge.world import MAX_AGENTS, MIN_AGENTS, initial_config


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-agents", type=int, default=4)
    args = ap.parse_args()
    if not MIN_AGENTS <= args.max_agents <= MAX_AGENTS:
        print(f"run_verification: --max-agents must be in [{MIN_AGENTS}, {MAX_AGENTS}], got {args.max_agents}",
              file=sys.stderr)
        return 2

    ok = True
    for n in range(2, args.max_agents + 1):
        r = verify(initial_config(n))
        if n == 2:  # the header names the checks of the first report
            print(f"{'n':>2} {'states':>8} {'transitions':>12} " + " ".join(f"{c['name']:>18}" for c in r["checks"])
                  + f" {'time':>8} {'peak RSS':>9}")
        ok &= r["verdict"] == "pass"
        cells = " ".join(f"{c['verdict']} {c['duration_ms']:.0f}ms".rjust(18) for c in r["checks"])
        seconds = sum(c["duration_ms"] for c in r["checks"]) / 1000.0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{n:>2} {r['state_count']:>8} {r['transition_count']:>12} {cells} {seconds:>7.1f}s {rss_mb:>6.0f} MB")

    ns = range(3, args.max_agents + 1)
    reports = [check_scenarios(builtin_scenarios(), initial_config(n)) for n in ns]
    ok &= all(r["verdict"] == "pass" for r in reports)
    if ns:  # scenarios need n >= 3
        print()
        print(f"{'scenario':<12} {'req':<5} " + " ".join(f"{f'n={n}':>11}" for n in ns))  # as wide as "FAIL    1ms"
        for s, *row in zip(builtin_scenarios(), *(r["checks"] for r in reports)):
            cells = (f"{'ok' if c['verdict'] == 'pass' else 'FAIL':<4} {c['duration_ms']:4.0f}ms" for c in row)
            print(f"{s.name:<12} {s.requirement_tag:<5} " + " ".join(cells))

    print()
    print("overall:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except MemoryError as exc:
        sys.exit(f"run_verification: {str(exc) or 'out of memory'}; lower --max-agents (mapmerge explore --max-states bounds one run)")
