#!/usr/bin/env python3
"""Run the full verification sweep and print a summary table.

For each agent count, the report of `mapmerge explore` (`cli.verify`):
state and transition counts, each check's verdict and time, the time taken
and the peak RSS so far (ru_maxrss); then the six scenario regressions with timings.

Usage:
    python scripts/run_verification.py [--max-agents 4]
"""

import argparse
import resource
import sys

from mapmerge.cli import verify
from mapmerge.explorer import ExploreMemoryError
from mapmerge.scenarios import builtin_scenarios, check_scenario
from mapmerge.world import MAX_AGENTS, MIN_AGENTS, initial_config

CHECKS = ("invariants", "deadlock-freedom", "divergence-freedom", "goal-inevitable")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-agents", type=int, default=4)
    args = ap.parse_args()
    if not MIN_AGENTS <= args.max_agents <= MAX_AGENTS:
        print(f"run_verification: --max-agents must be in [{MIN_AGENTS}, {MAX_AGENTS}], got {args.max_agents}",
              file=sys.stderr)
        return 2

    print(f"{'n':>2} {'states':>8} {'transitions':>12} " + " ".join(f"{c:>18}" for c in CHECKS)
          + f" {'time':>8} {'peak RSS':>9}")
    ok = True
    for n in range(2, args.max_agents + 1):
        _, r = verify(initial_config(n))
        ok &= r["verdict"] == "pass"
        verdicts = {c["name"]: f"{c['verdict']} {c['duration_ms']:.0f}ms" for c in r["checks"]}
        seconds = (r["duration_ms"] + sum(c["duration_ms"] for c in r["checks"])) / 1000.0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{n:>2} {r['state_count']:>8} {r['transition_count']:>12} "
              + " ".join(f"{verdicts[c]:>18}" for c in CHECKS) + f" {seconds:>7.1f}s {rss_mb:>6.0f} MB")

    print()
    print(f"{'scenario':<12} {'req':<5} " + " ".join(
        f"{'n=' + str(n):>8}" for n in range(3, args.max_agents + 1)))
    for s in builtin_scenarios():
        cells = []
        for n in range(3, args.max_agents + 1):
            rep = check_scenario(s, initial_config(n))
            ok &= rep.verdict
            cells.append(f"{'ok' if rep.verdict else 'FAIL'} {rep.duration_ms:4.0f}ms")
        print(f"{s.name:<12} {s.requirement_tag:<5} " + " ".join(f"{c:>8}" for c in cells))

    print()
    print("overall:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except MemoryError as exc:
        what = exc if isinstance(exc, ExploreMemoryError) else "out of memory"
        sys.exit(f"run_verification: {what}; lower --max-agents (mapmerge explore --max-states bounds one run)")
