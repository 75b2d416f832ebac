"""Write reference.json: the frozen digests of the seed-0 exact outputs.

For every input that a run can check against a frozen answer it records the
digest of the canonical serialization that run.py computes:

- littlewood-scan: ScanSummary.to_json_dict() of scan(6) and scan(11);
- alpha-sweep: the figure-1 CSV row plus report_to_dict JSON for every alpha
  of the 1999-point figure-1 grid;
- algebraic-maxima: report_to_dict JSON for all 169 pool parameters.

It also writes alpha_pool_order.txt, the pool sorted by the time maxima()
took here, which the algebraic-maxima workload cuts into cost strata.  The
pool is timed in COST_ROUNDS interleaved rounds, each time scaled to the
reference speed as run.py scales it, and ranked by the median, so that a
slow spell of a shared machine does not skew the ranking; every round must
give the same digest.

Before writing, it checks once, over the whole grid, that the rows it digests
match the rows `takagi figure 1` writes byte for byte, and that every item
passes the workload's own cross-checks.  Only rerun it when an output is
meant to change, and say why in the change that commits the new file.

Run from the root of a checkout (about fifteen minutes):

    python3 bench/freeze.py
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

COST_ROUNDS = 3


def figure1_rows(m) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        if m.cli.main(["figure", "1", "--points", str(wl.SWEEP_POINTS), "--out-dir", tmp]) != 0:
            raise SystemExit("takagi figure 1 failed")
        text = (Path(tmp) / "fig1_maximizer_curve.csv").read_bytes().decode()
    return [row + "\r\n" for row in text.split("\r\n")[1:-1]]


def all_items(m, workload) -> list[wl.Item]:
    if isinstance(workload, wl.AlgebraicMaxima):
        return [wl.Item(spec, alpha, spec) for spec, alpha in wl.read_pool(m)]
    if isinstance(workload, wl.AlphaSweep):  # a pass holds only part of the grid
        return [wl.Item(str(a), a, str(a)) for a in m.landsberg.default_grid(wl.SWEEP_POINTS)]
    items = workload.build(m, 0, smoke=False)
    if isinstance(workload, wl.LittlewoodScan):
        items += workload.build(m, 0, smoke=True)
    return items


def main() -> int:
    m = wl.import_takagi()
    reference, problems = {}, []
    for workload in (wl.WORKLOADS[n] for n in ("littlewood-scan", "alpha-sweep", "algebraic-maxima")):
        t0 = perf_counter()
        digests, rows, cost = {}, {}, {}
        rounds = COST_ROUNDS if isinstance(workload, wl.AlgebraicMaxima) else 1
        for _ in range(rounds):
            kernel = run.kernel_seconds()
            for item in all_items(m, workload):
                t1 = perf_counter()
                output = workload.run(m, item)
                seconds, before, kernel = perf_counter() - t1, kernel, run.kernel_seconds()
                cost.setdefault(item.ref_key, []).append(seconds * run.CAL_REFERENCE_S * 2 / (before + kernel))
                problems += workload.check(m, item, output)
                got = wl.digest(workload.text(m, item, output))
                if digests.setdefault(item.ref_key, got) != got:
                    problems.append("%s: digest differs between rounds" % item.id)
                if isinstance(workload, wl.AlphaSweep):
                    rows[item.input] = output[2]
        if rows:
            cli_rows = figure1_rows(m)
            mine = [rows[alpha] for alpha in m.landsberg.default_grid(wl.SWEEP_POINTS)]
            bad = sum(1 for a, b in zip(mine, cli_rows) if a != b) + abs(len(mine) - len(cli_rows))
            if bad:
                problems.append("figure 1: %d rows differ from takagi figure 1" % bad)
        reference[workload.name] = dict(sorted(digests.items()))
        if isinstance(workload, wl.AlgebraicMaxima):
            cost_order = sorted(cost, key=lambda key: statistics.median(cost[key]))
        print("%s: %d digests in %.1f s" % (workload.name, len(digests), perf_counter() - t0), flush=True)
    if problems:
        for p in problems[:20]:
            print("FAIL %s" % p, file=sys.stderr)
        return 1
    wl.REFERENCE_FILE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    header = "# the %d pool specs from cheapest to costliest maxima(), median of %d scaled timings by freeze.py\n"
    wl.POOL_ORDER_FILE.write_text(header % (len(cost_order), COST_ROUNDS) + "\n".join(cost_order) + "\n")
    print("wrote %s and %s" % (wl.REFERENCE_FILE, wl.POOL_ORDER_FILE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
