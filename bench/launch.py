"""Traced verb launcher: runs one qlmrank verb with span recording.

Usage: python3 bench/launch.py TRACE_JSON <qlmrank arguments>

It imports qlmrank.cli exactly as `python3 -m qlmrank.cli` would, notes
the time the import finished, installs the span wrappers, runs
qlmrank.cli.main inside a `cli.main` span and writes the spans to
TRACE_JSON. The exit code is the verb's.
"""

import sys
import time

import qlmrank.cli

READY = time.monotonic()

import spans  # noqa: E402  (after the timed import)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return recorder.call("cli.main", qlmrank.cli.main, (argv,), {})
    finally:
        recorder.dump(trace_path, READY)


if __name__ == "__main__":
    sys.exit(main())
