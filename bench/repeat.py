"""Run one workload over a range of seeds, in interleaved sets, and summarize.

Usage, from the root of a checkout:

    python3 bench/repeat.py --workload alpha-sweep --seeds 0-9 --out bench/baseline/alpha-sweep.json

Each run is `python3 bench/run.py ... --trace 0` in its own process, one
after another, always with the same code and BENCHMARK.json's run_seconds.
There are two sets, interleaved: every seed runs once in each set before
the next seed starts, so a drift of the machine's speed falls on both alike.

For every metric of each set the summary gives the median, the quartiles as
statistics.quantiles(values, n=4) computes them, and the spread: the
distance between the quartiles as a share of the median.  Each end-to-end
metric's median in the second set is compared with the first set's against
the metric's bound in BENCHMARK.json: an A/A check of the benchmark itself.
Each run's result is kept with the environment run.py recorded for it
(Python, CPU count, revision, load average before and after).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def agreement(first: dict, second: dict, bounds: dict) -> dict:
    """How much worse each bounded metric's median is in `second` than in
    `first`, as a share of the first median; negative means better."""
    out = {}
    for name, spec in bounds.items():
        base, median = first[name]["median"], second[name]["median"]
        worse = (median - base) / base if spec["better"] == "lower" else (base - median) / base
        out[name] = {"bound": spec["bound"], "worse_by": worse, "within_bound": worse <= spec["bound"]}
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        raise SystemExit("seed %d exited with %d" % (seed, proc.returncode))
    record = json.loads((ROOT / ".bench_out" / ("%s-seed%d-trace0.json" % (workload, seed))).read_text())
    record.pop("items", None)  # per-item times stay in the run's own .bench_out/ record
    return record


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sets: list[list[dict]] = [[] for _ in range(SETS)]
    for seed in seed_list(args.seeds):
        for k, runs in enumerate(sets):
            record = run_once(args.workload, seed, config["run_seconds"])
            runs.append(record)
            print("set %d seed %d: %s" % (k + 1, seed, ", ".join("%s=%.4g" % (n, v["value"])
                                                                 for n, v in record["metrics"].items())), flush=True)
    summaries = [summarize(runs) for runs in sets]
    for k, summary in enumerate(summaries):
        for name, s in summary.items():
            print("set %d  %-14s median %-12.6g spread %.4f" % (k + 1, name, s["median"], s["spread"]))
    bounds = {m["name"]: m for m in config["end_to_end"]}
    check = agreement(summaries[0], summaries[1], bounds)
    for name, c in check.items():
        print("set 2 vs set 1  %-14s worse by %+.4f  bound %.2f  %s" % (
            name, c["worse_by"], c["bound"], "ok" if c["within_bound"] else "OUTSIDE BOUND"))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"workload": args.workload, "seconds": config["run_seconds"], "seeds": args.seeds,
                                    "sets": [{"summary": s, "runs": r} for s, r in zip(summaries, sets)],
                                    "set_2_against_set_1": check}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
