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


def test_golden_negative_trace_check_n4(capsys, tmp_path):
    # REQ1 at n=4: A2 never confirms towards A1, seen through every
    # confirm_merge; the search must exhaust the hidden state space.
    ids = universe(4)
    alphabet = sorted((ConfirmMerge(a, b) for a in ids for b in ids if a != b), key=label)
    alphabet_file = write_events(tmp_path / "alphabet.jsonl", alphabet)
    trace_file = write_events(tmp_path / "negative.jsonl", [ConfirmMerge(ids[1], ids[0])])
    argv = ["trace-check", "--agents", "4", "--json", "--alphabet-file", alphabet_file, trace_file]
    assert main(argv) == 1
    assert digest(capsys.readouterr().out) == "aa42aaee8f602b72"
