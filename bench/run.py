"""Seeded end-to-end benchmark of homcat.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; homcat is imported from its ``src``.
Workloads (see bench/README.md for why each exists):

  homotopy_gf5  find_homotopy on fresh parallel pairs over GF(5)
  roofs_q       compose_roofs + is_quasi_iso + check_les_exact over Q
  cli_p31       one ``python -m homcat.cli`` process per operation over GF(2^31-1)

Each is a closed loop with one caller: the next operation starts when
the previous one returns.  Every output is checked after the loop by
bench/check.py.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced replay with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import check  # noqa: E402
import gen  # noqa: E402
from tracer import COUNTERS, LAYERS, QUALNAMES, REPEATS  # noqa: E402

WORKLOADS = ("homotopy_gf5", "roofs_q", "cli_p31")
# operations generated per run, at least five times what a 30 s run at the
# seed commit gets through; no input is reused beyond the plan, and a run
# that uses them all up ends its timed loop early and says so on its "#" line
POOL = {"homotopy_gf5": 2560, "roofs_q": 2400, "cli_p31": 400}
# the traced replay covers this fixed prefix, so its counts repeat exactly
TRACE_OPS = {"homotopy_gf5": 100, "roofs_q": 60, "cli_p31": 16}
CLI_FILES = 16
CHILD_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# -- inputs -------------------------------------------------------------------------


def write_inputs(workload: str, seed: int, work: Path):
    """Write the workload's sessions and plan into ``work``; return (truth, ops, sha256 of both)."""
    digest = hashlib.sha256()
    if workload == "cli_p31":
        files = []
        for k in range(CLI_FILES):
            size = 4 + round(10 * k / (CLI_FILES - 1))
            files.append(gen.cli_file(seed, k, size))
        ops = [[int(u * CLI_FILES), list(check.COMMANDS[int(v * len(check.COMMANDS))])]
               for u, v in gen.spread(POOL[workload], dims=2)]
        texts = [f.text for f in files]
        truth = files
    elif workload == "homotopy_gf5":
        texts, op_list = gen.homotopy_gf5(seed, POOL[workload])
        ops = [[op.session, op.f, op.g] for op in op_list]
        truth = op_list
    else:
        texts, pool, op_list = gen.roofs_q(seed, POOL[workload])
        ops = [[op.r1, op.r2] for op in op_list]
        truth = (pool, op_list)
    names = []
    for i, text in enumerate(texts):
        names.append(f"session{i}.json")
        (work / names[-1]).write_text(text, encoding="utf-8")
        digest.update(text.encode())
    plan = json.dumps({"workload": workload, "sessions": names, "ops": ops})
    (work / "plan.json").write_text(plan, encoding="utf-8")
    digest.update(plan.encode())
    return truth, ops, digest.hexdigest()


# -- measured passes -----------------------------------------------------------------


def _pass(workload: str, work: Path, *extra: str) -> dict:
    """One pass of the measured loop, in its own process (worker.py or cli_loop.py)."""
    script = "cli_loop.py" if workload == "cli_p31" else "worker.py"
    cmd = [sys.executable, str(BENCH / script), str(work), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise BenchError(f"{script} failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    with open(work / "result.pickle", "rb") as fh:
        return pickle.load(fh)


def _verdicts(workload: str, work: Path, truth, ops: list, res: dict, traced: bool) -> list[bool]:
    if workload == "homotopy_gf5":
        return [check.homotopy(truth[j], out) for j, out in enumerate(res["outputs"])]
    if workload == "roofs_q":
        pool, op_list = truth
        return [check.roofs(pool, op_list[j], out) for j, out in enumerate(res["outputs"])]
    prefix = "traced" if traced else "out"
    return [check.cli(truth[k], tuple(command), code, (work / f"{prefix}{j}.txt").read_bytes())
            for j, ((k, command), code) in enumerate(zip(ops, res["codes"]))]


def measure(workload: str, work: Path, truth, ops: list, seconds: float, trace: bool) -> dict:
    """The end-to-end pass, or with ``trace`` an untraced and a traced replay of a fixed prefix."""
    if not trace:
        res = _pass(workload, work, "--seconds", str(seconds), "--sample-setup")
        res["verdicts"] = _verdicts(workload, work, truth, ops, res, False)
        return res
    res = _pass(workload, work, "--seconds", str(seconds / 2), "--limit", str(TRACE_OPS[workload]))
    traced = _pass(workload, work, "--trace", "--seconds", str(4 * seconds), "--limit", str(len(res["latencies"])))
    res["verdicts"] = (_verdicts(workload, work, truth, ops, res, False)
                       + _verdicts(workload, work, truth, ops, traced, True))
    res["overhead"] = sum(traced["latencies"]) / sum(res["latencies"])
    if workload == "cli_p31":
        docs = [json.loads((work / f"spans{j}.json").read_text()) for j in range(len(traced["latencies"]))]
        res["trace"] = [doc["summary"] for doc in docs]
        res["startup"] = sum(doc["startup_s"] for doc in docs)
    else:
        res["trace"] = [traced["trace"]]
        res["startup"] = 0.0
    return res


# -- metrics -------------------------------------------------------------------------


def end_to_end(res: dict) -> dict:
    lat = res["latencies"]
    correct = sum(res["verdicts"][: len(lat)])
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return {
        "throughput_ops_s": {"value": correct / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * p90, "unit": "ms"},
        "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
        "peak_rss_mb": {"value": res["rss_kb"] / 1024, "unit": "MB"},
    }


def per_layer(res: dict) -> tuple[dict, list]:
    """Sum the traced summaries (one per process) into the per-layer metrics."""
    calls, self_s, counts, repeats, absent = {}, {}, {}, {}, set()
    for s in res["trace"]:
        for table, part in ((calls, s["calls"]), (self_s, s["self_s"]), (counts, s["counts"]),
                            (repeats, s["repeats"])):
            for key, value in part.items():
                table[key] = table.get(key, 0) + value
        absent.update(s["absent"])
    metrics = {}
    for name in QUALNAMES:
        metrics[f"{name}.calls"] = {"value": calls.get(name, 0), "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s.get(name, 0.0), "unit": "s"}
    for layer, fns in LAYERS.items():
        total = sum(self_s.get(f"{layer}.{fn}", 0.0) for fn in fns)
        metrics[f"{layer}.self_s"] = {"value": total, "unit": "s"}
    for name in COUNTERS:
        metrics[name] = {"value": counts.get(name, 0), "unit": "bytes" if name.endswith(".bytes") else "count"}
    for name in REPEATS:
        n = calls.get(name, 0)
        metrics[f"{name}.repeat_ratio"] = {"value": repeats.get(name, 0) / n if n else 0.0, "unit": "ratio"}
    metrics["cli.startup_s"] = {"value": res["startup"], "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": res["overhead"], "unit": "ratio"}
    return metrics, sorted(absent)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "homcat" / "__init__.py").is_file():
        sys.stderr.write(f"no homcat sources at {SRC}; run from the root of a homcat checkout\n")
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    truth, ops, sha = write_inputs(args.workload, args.seed, work)
    try:
        res = measure(args.workload, work, truth, ops, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    attempted = len(res["verdicts"])
    failed = attempted - sum(res["verdicts"])
    lat = res["latencies"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} inputs_sha256={sha}")
    print(f"# samples={len(lat)} timed_s={sum(lat):.3f} attempted={attempted} failed={failed} "
          f"error_ratio={failed / attempted:.6f} setup_samples={[round(x, 4) for x in res['setups']]}")
    if res["exhausted"]:
        print(f"# all {len(ops)} generated operations were used before {args.seconds} s: the timed loop ended early")
    if args.trace:
        metrics, absent = per_layer(res)
        print(f"# traced ops={len(lat)} absent={absent} spans in {work}")
    else:
        metrics = end_to_end(res)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
