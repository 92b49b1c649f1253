"""Golden outputs: sha256 prefixes of CLI stdout at small agent counts.

A change to successor order or content, to the checks or to the report
format shows up here; ROADMAP.md lists the full set of golden hashes.
"""

import hashlib

import pytest

from mapmerge.cli import main


@pytest.mark.parametrize(
    "argv, golden",
    [
        ("explore --agents 3 --json", "5a4d12dcb4d14f06"),
        ("export --agents 3 --format json", "f1f05c70d6d503ce"),
        ("scenarios --agents 4 --json", "bfbe8d22d02bda68"),
    ],
)
def test_golden_stdout(capsys, argv, golden):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == golden
