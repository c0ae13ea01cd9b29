"""The measured process of the library workloads.

It imports homcat from the checkout, parses the workload's first
session (the set-up it times), then runs one operation at a time,
timing each call into homcat, until the time limit, the op limit or the
end of the generated operations is reached; no operation is repeated
unless the workload's plan repeats it.  Sessions the operations need
later are parsed between operations, and ``roofs_q`` first runs each of
its pairs once, both outside any timing.  With ``--sample-setup`` it
also times the set-up of fresh processes at even steps through the loop,
outside the timed calls (see loop.py).  Results go to a pickle that the parent
``run.py`` checks.

usage: python3 bench/worker.py WORKDIR --seconds S [--limit N] [--trace] [--sample-setup] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import pickle
import subprocess
import sys
from pathlib import Path
from time import perf_counter

_START = perf_counter()
BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from loop import Clock, peak_rss_kb  # noqa: E402

# peak RSS is read after this many operations, so a faster program that
# fits more operations into a run is not charged for the extra inputs
RSS_AT = 100
CHILD_TIMEOUT = 60


def fresh_setup(work: Path) -> float:
    """The set-up time of a fresh worker process on the same inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), str(work), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout)["setup_s"]


def as_array(m) -> np.ndarray:
    """A homcat Matrix as the array type of bench/exact.py."""
    if m.field.kind == "prime":
        return np.array(m.entries, dtype=np.int64).reshape(m.rows, m.cols)
    out = np.empty((m.rows, m.cols), dtype=object)
    for k, x in enumerate(m.entries):
        out[k // m.cols, k % m.cols] = x
    return out


def homotopy_output(witness) -> list | None:
    if witness is None:
        return None
    return [as_array(witness.component(i)) for i in range(0, 5)]


def roofs_output(roof, qis: bool, exact: bool) -> dict:
    apex = roof.apex
    degrees = range(apex.lo - 1, apex.hi + 2)
    return {
        "dims": {i: apex.dim(i) for i in degrees},
        "diff": {i: as_array(apex.d(i)) for i in degrees},
        "denom": {i: as_array(roof.denom.component(i)) for i in degrees},
        "numer": {i: as_array(roof.numer.component(i)) for i in degrees},
        "qis": qis,
        "exact": exact,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--limit", type=int, default=10**9)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--sample-setup", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.workdir)
    plan = json.loads((work / "plan.json").read_text())

    def text(i: int) -> str:
        return (work / plan["sessions"][i]).read_text(encoding="utf-8")

    import homcat

    if Path(homcat.__file__).resolve().parent != SRC / "homcat":
        sys.stderr.write(f"homcat imported from {homcat.__file__}, not from {SRC}\n")
        return 2
    tracer = None
    if args.trace:
        # installed before the set-up parse, so validation at parse is traced too
        sys.path.insert(0, str(BENCH))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    parsed = {0: homcat.parse_session(text(0))}
    setup_s = perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def session(i: int):
        if i not in parsed:
            parsed[i] = homcat.parse_session(text(i))
        return parsed[i]

    ops = plan["ops"]
    if plan["workload"] == "homotopy_gf5":
        def prepare(op):
            s = session(op[0])
            return s.maps[op[1]].value, s.maps[op[2]].value

        call, output = homcat.find_homotopy, homotopy_output
    else:
        def prepare(op):
            roofs = session(0).roofs
            return roofs[op[0]].value, roofs[op[1]].value

        def call(r1, r2):
            composite = homcat.compose_roofs(r1, r2)
            qis = homcat.is_quasi_iso(composite.denom)
            return composite, qis, homcat.check_les_exact(homcat.cone_triangle(composite.numer))

        def output(result):
            return roofs_output(*result)

        # one untimed pass over every pair fills the caches first, so the
        # share of first-time operations does not depend on how many fit
        for op in dict.fromkeys(map(tuple, ops)):
            try:
                call(*prepare(op))
            except Exception:  # the timed pass meets the same failure and counts it
                pass

    latencies, outputs = [], []
    rss_kb = None
    clock = Clock(args.seconds, (lambda: fresh_setup(work)) if args.sample_setup else None, (setup_s,))
    for j in range(min(args.limit, len(ops))):
        if j == RSS_AT:
            rss_kb = peak_rss_kb()
        if not clock.running():
            break
        if tracer is not None:
            tracer.op = j
        inputs = prepare(ops[j])
        t0 = perf_counter()
        try:
            result = call(*inputs)
        except Exception as e:  # a failed operation is counted by the checker, not fatal
            latencies.append(perf_counter() - t0)
            outputs.append({"error": f"{type(e).__name__}: {e}"})
            continue
        latencies.append(perf_counter() - t0)
        outputs.append(output(result))
    if rss_kb is None:
        rss_kb = peak_rss_kb()
    result = {"setups": clock.finish(), "latencies": latencies, "outputs": outputs, "rss_kb": rss_kb,
              "exhausted": len(latencies) == len(ops), "trace": None}
    if tracer is not None:
        tracer.dump(str(work / "spans.json"))
        result["trace"] = tracer.summary()
    with open(work / "result.pickle", "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
