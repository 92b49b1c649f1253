"""Workload definitions: the CLI invocations each workload runs, the inputs
built from the seed, and the checks that decide whether an output is right.

Every workload keeps the model's default merge_set_max=1.  At n=3,
`explore --merge-set-max 2` returns fail (one deadlock, goal avoidable): all
three leaders sit in Refusing, each owing a remove_reasoning_about to an
agent an earlier refusal already cleared.  That is a model finding for a
later fix, so it must not be a benchmark input whose expected verdict would
change under that fix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from mapmerge.events import ConfirmMerge, from_json, label, to_json
from mapmerge.ids import universe
from mapmerge.world import apply_event, enabled_events, initial_config

WORKLOADS = ("explore-n4", "export-n4", "trace-n4")
AGENTS = 4
MAX_WALK_STEPS = 10_000

# sha256 prefixes of the CLI's stdout on the seed code (the first three are
# listed in ROADMAP.md).
GOLDEN_EXPLORE = "c164f860b72db640"
GOLDEN_EXPORT = "16650e983c4d0d4b"
GOLDEN_SCENARIOS = "bfbe8d22d02bda68"
GOLDEN_NEGATIVE = "aa42aaee8f602b72"

# The deep positive query's cost depends strongly on its walk (6-14 s for
# walk seeds 1-12; seeded, it spread wall_s by 29% over ten benchmark seeds),
# so its walk seed is fixed.  The benchmark's seed picks the shallow query,
# whose search costs well under a second whatever the seed.
DEEP_WALK_SEED = 5
DEEP_CONFIRMS = 3
SHALLOW_CONFIRMS = 1

NEGATIVE_FILE = "negative.jsonl"
DEEP_FILE = "deep.jsonl"
SHALLOW_FILE = "shallow.jsonl"
ALPHABET_FILE = "alphabet.jsonl"


def confirm_alphabet(n: int) -> frozenset:
    """Every confirm_merge event of an n-agent model (n*(n-1) of them)."""
    ids = universe(n)
    return frozenset(ConfirmMerge(a, b) for a in ids for b in ids if a != b)


def negative_query() -> tuple:
    """REQ1: a lower-priority leader never confirms towards a higher one."""
    a1, a2 = universe(2)
    return (ConfirmMerge(a2, a1),)


def positive_query(seed: int, confirms: int, n: int = AGENTS) -> tuple:
    """The first `confirms` confirm_merge events of a seeded random walk of
    the n-agent model.  The walk itself witnesses the query under the
    confirm_merge alphabet, so has_trace must find it."""
    rng = random.Random(seed)
    c = initial_config(n)
    out = []
    for _ in range(MAX_WALK_STEPS):
        e = rng.choice(enabled_events(c))
        c = apply_event(c, e)
        if isinstance(e, ConfirmMerge):
            out.append(e)
            if len(out) == confirms:
                return tuple(out)
    raise RuntimeError(f"seed {seed}: fewer than {confirms} confirm_merge events in {MAX_WALK_STEPS} steps")


def witness_projects_to(witness_labels: list, query: tuple, alphabet: frozenset, n: int) -> bool:
    """Replay a has_trace witness from the initial configuration with
    apply_event and compare its projection onto `alphabet` with `query`."""
    c = initial_config(n)
    projected = []
    for text in witness_labels:
        by_label = {label(e): e for e in enabled_events(c)}
        e = by_label.get(text)
        if e is None:
            return False
        c = apply_event(c, e)
        if e in alphabet:
            projected.append(e)
    return tuple(projected) == query


def _write_events(path: Path, events) -> None:
    path.write_text("".join(json.dumps(to_json(e), sort_keys=True) + "\n" for e in events))


def read_events(path: Path) -> tuple:
    return tuple(from_json(json.loads(line)) for line in path.read_text().splitlines() if line)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the output it must produce."""

    name: str
    argv: tuple
    exit_code: int
    golden: Optional[str] = None  # stdout sha256 prefix
    query_file: Optional[str] = None  # trace-check whose witness must replay to this query


def build_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the files the workload's operations read."""
    if workload != "trace-n4":
        return
    _write_events(workdir / ALPHABET_FILE, sorted(confirm_alphabet(AGENTS), key=label))
    _write_events(workdir / NEGATIVE_FILE, negative_query())
    _write_events(workdir / DEEP_FILE, positive_query(DEEP_WALK_SEED, DEEP_CONFIRMS))
    _write_events(workdir / SHALLOW_FILE, positive_query(seed, SHALLOW_CONFIRMS))


def operations(workload: str, workdir: Path) -> list:
    n = str(AGENTS)
    if workload == "explore-n4":
        return [Op("explore", ("explore", "--agents", n, "--json"), 0, GOLDEN_EXPLORE)]
    if workload == "export-n4":
        return [Op("export", ("export", "--agents", n, "--format", "json"), 0, GOLDEN_EXPORT)]
    if workload == "trace-n4":
        check = ("trace-check", "--agents", n, "--json", "--alphabet-file", str(workdir / ALPHABET_FILE))
        return [
            Op("scenarios", ("scenarios", "--agents", n, "--json"), 0, GOLDEN_SCENARIOS),
            Op("negative", check + (str(workdir / NEGATIVE_FILE),), 1, GOLDEN_NEGATIVE),
            Op("deep", check + (str(workdir / DEEP_FILE),), 0, query_file=DEEP_FILE),
            Op("shallow", check + (str(workdir / SHALLOW_FILE),), 0, query_file=SHALLOW_FILE),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def output_ok(op: Op, exit_code: int, digest: str, stdout: str, workdir: Path) -> bool:
    """Exit code, golden hash and, for a positive query, the replayed
    witness."""
    if exit_code != op.exit_code:
        return False
    if op.golden is not None and digest != op.golden:
        return False
    if op.query_file is not None:
        report = json.loads(stdout)
        if report["verdict"] != "pass" or report["witness"] is None:
            return False
        query = read_events(workdir / op.query_file)
        alphabet = frozenset(read_events(workdir / ALPHABET_FILE))
        return witness_projects_to(report["witness"], query, alphabet, AGENTS)
    return True
