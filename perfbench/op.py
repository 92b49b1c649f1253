"""Child process of the benchmark: one fresh interpreter per operation.

    python3 perfbench/op.py setup WORKLOAD SEED WORKDIR
        import the CLI and write the workload's inputs into WORKDIR.
    python3 perfbench/op.py run RESULT_FILE RUN_ID TRACE -- CLI_ARGS...
        call mapmerge.cli.main(CLI_ARGS) with stdout hashed instead of
        printed, and write the exit code, the hash and (when TRACE is 1) the
        spans to RESULT_FILE.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mapmerge.cli  # noqa: E402

KEEP_STDOUT_BYTES = 1 << 16  # enough for every report except the graph export


class HashingStdout:
    """Stands in for sys.stdout: hashes what the CLI prints and keeps the
    first KEEP_STDOUT_BYTES of it, so a 53 MB export costs no memory."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0
        self.head: list = []

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        if self.size < KEEP_STDOUT_BYTES:
            self.head.append(text)
        self.size += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def run(result_file: str, run_id: str, trace: bool, argv: list) -> None:
    out = HashingStdout()
    result: dict = {}
    real_stdout, sys.stdout = sys.stdout, out
    try:
        if trace:
            from tracer import Tracer, installed

            with installed(Tracer(run_id)) as tracer:
                code = mapmerge.cli.main(argv)
            result["trace"] = tracer.dump()
        else:
            code = mapmerge.cli.main(argv)
    finally:
        sys.stdout = real_stdout
    result.update(
        exit_code=code,
        sha256=out.sha.hexdigest()[:16],
        stdout_bytes=out.size,
        stdout="".join(out.head) if out.size <= KEEP_STDOUT_BYTES else None,
    )
    Path(result_file).write_text(json.dumps(result))


def main(args: list) -> int:
    if args[:1] == ["setup"] and len(args) == 4:
        from workloads import build_inputs

        build_inputs(args[1], int(args[2]), Path(args[3]))
        return 0
    if args[:1] == ["run"] and len(args) >= 5 and args[4] == "--":
        run(args[1], args[2], args[3] == "1", args[5:])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
