"""Child process of the benchmark: the `soupstock` console entry point plus a timestamp.

    python3 launch.py STAMP_FILE TRACE_FILE|- [soupstock arguments...]

Imports `soupstock.cli` from the checkout's `src/`, runs `main` with the
remaining arguments and exits with its code. STAMP_FILE receives the
CLOCK_MONOTONIC times at which `main` became callable and at which it
returned. With no soupstock arguments it exits after the import (a set-up
probe). With a TRACE_FILE it first wraps the layer functions (see tracer.py)
and writes their spans there after `main`.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    stamp_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, SRC)
    import soupstock.cli

    ready = time.monotonic()
    if os.path.dirname(os.path.abspath(soupstock.cli.__file__)) != os.path.join(SRC, "soupstock"):
        print(f"soupstock imported from {soupstock.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    if not argv:
        _write_stamps(stamp_path, ready)
        return 0
    recorder = None
    entry = soupstock.cli.main
    if trace_path != "-":
        from tracer import ROOT_SPAN, Recorder

        recorder = Recorder()
        missing = recorder.install()
        if missing:
            print("not traced (absent): " + ", ".join(missing), file=sys.stderr)
        entry = recorder.wrap(ROOT_SPAN, entry)
    try:
        return entry(argv)
    finally:
        main_end_ns = time.monotonic_ns()
        _write_stamps(stamp_path, ready, main_end_ns / 1e9)
        if recorder is not None:
            recorder.dump(trace_path, run_id=f"{os.getpid()}:{' '.join(argv)}")


def _write_stamps(path: str, *stamps: float) -> None:
    with open(path, "w") as fh:
        fh.write(" ".join(repr(t) for t in stamps))


if __name__ == "__main__":
    sys.exit(main())
