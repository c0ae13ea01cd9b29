"""Run ``homcat.cli.main`` with the span tracer installed.

usage: python3 bench/cli_launcher.py SPANS-FILE SPAWNED-AT COMMAND SESSION-FILE [ARGS...]

SPAWNED-AT is the parent's ``time.monotonic()`` just before it started
this process; the time from then to entering ``main`` is written out as
the process start-up.  The exit code and stdout are those of ``homcat``.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

import homcat.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def launch(argv: list[str]) -> int:
    spans_file, spawned_at, *cli_args = argv
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    main_start = time.monotonic()
    try:
        return homcat.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file, {"startup_s": main_start - float(spawned_at)})


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
