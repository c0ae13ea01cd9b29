"""The measured loop of the ``cli_p31`` workload.

It starts one ``python -m homcat.cli`` child per operation, one at a
time, until the time limit, the op limit or the end of the plan.  Each
child's stdout goes to a file that run.py checks afterwards.  With
``--sample-setup`` it also times ``homcat --help`` round trips at even
steps through the loop (see loop.py).  With ``--trace`` each child runs
through cli_launcher.py and leaves its spans in ``spansJ.json``.

This process imports no numpy and keeps no outputs in memory, so its own
peak RSS stays below that of any homcat child.  That matters because
Linux counts a parent's peak into a child's ``ru_maxrss`` across exec:
children spawned from run.py, which holds the generated inputs, would
report run.py's peak rather than their own.

usage: python3 bench/cli_loop.py WORKDIR --seconds S [--limit N] [--trace] [--sample-setup]
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

from loop import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# the peak RSS over the children is read after this many operations, so a
# faster program that fits more operations into a run is not charged for
# the extra inputs
RSS_AT = 30
CHILD_TIMEOUT = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--limit", type=int, default=10**9)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--sample-setup", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.workdir)
    ops = json.loads((work / "plan.json").read_text())["ops"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    def help_round_trip() -> float:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "homcat.cli", "--help"], env=env, cwd=ROOT,
                              capture_output=True, timeout=CHILD_TIMEOUT)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or not done.stdout.startswith(b"usage"):
            raise RuntimeError(f"homcat --help failed: {done.stderr.decode(errors='replace')[-2000:]}")
        return elapsed

    prefix = "traced" if args.trace else "out"
    latencies, codes = [], []
    rss_kb = None
    clock = Clock(args.seconds, help_round_trip if args.sample_setup else None)
    for j in range(min(args.limit, len(ops))):
        if not clock.running():
            break
        k, command = ops[j]
        argv = [command[0], str(work / f"session{k}.json"), *command[1:]]
        if args.trace:
            cmd = [sys.executable, str(BENCH / "cli_launcher.py"), str(work / f"spans{j}.json"),
                   repr(time.monotonic()), *argv]
        else:
            cmd = [sys.executable, "-m", "homcat.cli", *argv]
        with open(work / f"{prefix}{j}.txt", "wb") as out, open(work / f"{prefix}{j}.err", "wb") as err:
            t0 = time.perf_counter()
            done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=out, stderr=err, timeout=CHILD_TIMEOUT)
            latencies.append(time.perf_counter() - t0)
        codes.append(done.returncode)
        if j + 1 == RSS_AT:
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if rss_kb is None:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"setups": clock.finish(), "latencies": latencies, "codes": codes, "rss_kb": rss_kb,
              "exhausted": len(latencies) == len(ops)}
    with open(work / "result.pickle", "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
