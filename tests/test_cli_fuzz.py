"""Random command lines through `cli.main`, in-process: whatever the
subcommand, flags, values and input files, the CLI ends with exit 0, 1 or 2
(argparse's SystemExit(2) included) and raises nothing else."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mapmerge.cli import main

from conftest import BUILTIN_JSON

# Agent counts stay at 3 and below, so that every run is quick.
NUMBERS = st.sampled_from(["1", "2", "2", "3", "3", "-1", "0", "x", "2.5"])
# Placeholders for paths in the example's directory: two written inputs, a
# file of too deeply nested JSON, one of an int too long for json.loads, a
# missing file, a file in a missing directory, and the directory itself.
PATHS = st.sampled_from(["@jsonl", "@scenarios", "@nested", "@digits", "@missing", "@missing/out", "@dir", "@out"])


def flags(numbers, bare, **valued):
    """One flag of a command: a number flag, a bare flag, or a flag with a value drawn from its strategy."""
    return st.one_of(
        st.tuples(st.sampled_from(["--agents", "--merge-set-max", *numbers]), NUMBERS),
        st.tuples(st.sampled_from(["--no-harness", *bare])),
        *(st.tuples(st.just(f), v) for f, v in valued.items()),
    )


# The flags each command reads.
OWN = {
    "explore": flags(["--max-states", "--max-depth"], ["--json", "--timings"]),
    "scenarios": flags(
        [],
        ["--json", "--timings"],
        **{"--name": st.sampled_from(["scenario1", "scenario4a", "nope"]), "--scenario-file": PATHS},
    ),
    "trace-check": flags(["--max-states"], ["--json", "--timings"], **{"--alphabet-file": PATHS}),
    "export": flags(
        ["--max-states", "--max-depth"], [], **{"--format": st.sampled_from(["dot", "json", "svg"]), "--out": PATHS}
    ),
    "frobnicate": flags([], []),
}
# Mostly nothing; else an unknown flag, a flag of another command, a value or one positional too many.
STRAY = st.sampled_from([()] * 14 + [("--bogus",), ("-x",), ("--dot", "@out"), ("--name", "nope"), ("3",), ("@jsonl",)])
ARGV = st.sampled_from([c for c in sorted(OWN) for _ in range(1 if c == "frobnicate" else 3)]).flatmap(
    lambda c: st.tuples(
        st.just([c] + ["@jsonl"] * (c == "trace-check")), st.lists(OWN[c], max_size=4), STRAY
    )
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(["A1", "A2", "A3", "A0", "request_merge", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
EVENTS = [e for d in BUILTIN_JSON.values() for e in d["trace"]]


def edited(d: dict, values) -> st.SearchStrategy:
    """`d` with some of its fields replaced by drawn values."""
    return st.dictionaries(st.sampled_from(sorted(d)), values).map(lambda edit: {**d, **edit})


EVENT_LINE = st.one_of(
    st.sampled_from(EVENTS).map(json.dumps),
    st.sampled_from(EVENTS).flatmap(lambda e: edited(e, JSON)).map(json.dumps),
    JSON.map(json.dumps),
    st.text(max_size=12),
)
JSONL = st.lists(EVENT_LINE, max_size=4).map("\n".join)
SCENARIOS = st.one_of(
    st.lists(
        st.sampled_from(list(BUILTIN_JSON.values())).flatmap(
            lambda d: edited(d, JSON | st.lists(st.sampled_from(EVENTS)))
        ),
        max_size=2,
    ).map(json.dumps),
    JSON.map(json.dumps),
    st.text(max_size=12),
)


@settings(max_examples=60, deadline=None)
@given(ARGV, JSONL, SCENARIOS, st.booleans())
def test_cli_exits_0_1_or_2_on_any_command_line(argv, jsonl, scenarios, two_agents):
    head, drawn, stray = argv
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "jsonl").write_text(jsonl, encoding="utf-8", errors="surrogatepass")
        (d / "scenarios").write_text(scenarios, encoding="utf-8", errors="surrogatepass")
        (d / "nested").write_text("[" * 200_000)
        (d / "digits").write_text("1" * 5_000)
        written = ("@jsonl", "@scenarios", "@nested", "@digits", "@missing", "@missing/out", "@out")
        paths = {p: str(d / p[1:]) for p in written}
        paths["@dir"] = tmp
        tokens = head + ["--agents", "2"] * two_agents + [a for f in drawn for a in f] + list(stray)
        args = [paths.get(a, a) for a in tokens]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (args, err.getvalue())
