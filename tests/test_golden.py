"""Golden outputs: sha256 prefixes of CLI stdout.

A change to successor order or content, to the checks or to the report
format shows up here; ROADMAP.md lists the full set of golden hashes.  The
n=4 explore case covers the whole search core and takes a few seconds.
"""

import hashlib
import json
import sys

import pytest

from mapmerge.cli import main
from mapmerge.events import ConfirmMerge, label, to_json
from mapmerge.ids import universe


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, golden",
    [
        ("explore --agents 3 --json", "5a4d12dcb4d14f06"),
        ("explore --agents 4 --json", "c164f860b72db640"),
        ("export --agents 3 --format json", "f1f05c70d6d503ce"),
        ("export --agents 3 --format dot", "0db214820b132132"),
        ("export --agents 3 --no-harness --format json", "270f6caab9c75f77"),
        # The only exports whose labels carry two-agent merge sets.
        ("export --agents 3 --merge-set-max 2 --format json", "0f935805ef751010"),
        ("export --agents 3 --merge-set-max 2 --format dot", "0e2f566808ed6bf4"),
        ("scenarios --agents 4 --json", "bfbe8d22d02bda68"),
    ],
)
def test_golden_stdout(capsys, argv, golden):
    assert main(argv.split()) == 0
    assert digest(capsys.readouterr().out) == golden


class HashingSink:
    """Stands in for stdout: hashes what is written and keeps none of it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def test_golden_export_json_n4(monkeypatch):
    # The 53 MB graph document, hashed as it is streamed.
    sink = HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["export", "--agents", "4", "--format", "json"]) == 0
    assert sink.sha.hexdigest()[:16] == "16650e983c4d0d4b"


def write_events(path, events) -> str:
    path.write_text("".join(json.dumps(to_json(e), sort_keys=True) + "\n" for e in events))
    return str(path)


def trace_check(tmp_path, n: int, trace: list) -> list:
    """trace-check argv for `trace`, given as (requester, other) agent indices, under every n-agent confirm_merge."""
    ids = universe(n)
    alphabet = sorted((ConfirmMerge(a, b) for a in ids for b in ids if a != b), key=label)
    alphabet_file = write_events(tmp_path / "alphabet.jsonl", alphabet)
    trace_file = write_events(tmp_path / "trace.jsonl", [ConfirmMerge(ids[a - 1], ids[b - 1]) for a, b in trace])
    return ["trace-check", "--agents", str(n), "--json", "--alphabet-file", alphabet_file, trace_file]


def test_golden_negative_trace_check_n4(capsys, tmp_path):
    # REQ1 at n=4: A2 never confirms towards A1, seen through every
    # confirm_merge; the search must exhaust the hidden state space.
    assert main(trace_check(tmp_path, 4, [(2, 1)])) == 1
    assert digest(capsys.readouterr().out) == "aa42aaee8f602b72"


@pytest.mark.parametrize(
    "n, trace, golden",
    [
        # perfbench's deep query; its witness has 15 events.
        (4, [(3, 4), (2, 3), (1, 2)], "66eebc10bb472353"),
        # A 13-event witness.
        (3, [(1, 3), (1, 2)], "d62a44729bc161a9"),
    ],
)
def test_golden_positive_trace_check(capsys, tmp_path, n, trace, golden):
    # A positive verdict pins its witness byte for byte.
    assert main(trace_check(tmp_path, n, trace)) == 0
    assert digest(capsys.readouterr().out) == golden
