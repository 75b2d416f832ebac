"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload alpha-sweep --seed 0 --seconds 30 --trace 0

The workload runs as a closed loop (one item at a time, no pool, no threads)
over whole passes of its inputs: at least MIN_PASSES, then more while they
fit in --seconds of item time.  On a shared 2-CPU host the same code ran up
to three quarters slower for stretches of ten seconds to minutes, so every
timing is scaled to a fixed speed of the machine: a fixed
exact-arithmetic kernel is timed every CAL_INTERVAL_S of item time, and a
call's time is multiplied by CAL_REFERENCE_S over the kernel's time around
it.  An item's time is then the median over the passes, and setup_s the
median of the set-ups, each scaled by the kernel's time just before it.
The wall-clock figures are printed and recorded too.  Every item's exact
output is checked: against the
digests frozen in reference.json where the item has one, and by the
workload's own cross-checks.  With --trace 0 the end-to-end metrics are
printed.  With --trace 1 the same pass runs untraced, then with every layer
function wrapped, then untraced again; the per-layer metrics and the tracing
overhead are printed.  --smoke runs one pass at tiny size, for the
benchmark's own tests.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit codes: 0 all gates passed, 1 a gate
failed or an item raised, 2 the benchmark could not set up (for example, no
sources to measure).  A full record with the environment is written to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 8  # before the passes, and again after them
MIN_PASSES = 3
CAL_INTERVAL_S = 0.5
CAL_REFERENCE_S = 0.0025  # about the kernel's time in the machine's fast stretches
OUT_DIR = wl.ROOT / ".bench_out"
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 90.0)


@dataclass
class Record:
    item: wl.Item
    seconds: float
    errors: list
    counts: dict  # the workload's exact per-layer counts for this output
    scale: float = 1.0  # CAL_REFERENCE_S over the kernel's time around the call


def calibration_kernel() -> Fraction:
    """Fixed exact rational arithmetic of the kind the package does, in code
    that no change to the package touches."""
    x = Fraction(0)
    for i in range(1, 800):
        x += Fraction(i % 97 + 1, 3 * i + 1)
    return x


def kernel_seconds() -> float:
    """The machine's speed now: the median of three timings of the kernel."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        calibration_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_revision() -> str:
    if not (wl.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_reference(path: Path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise wl.SetupError("cannot read reference digests %s: %s" % (path, exc)) from exc


def setup(workload, seed: int, smoke: bool):
    """Import takagi afresh and build the inputs; the time is scaled to the
    reference speed (see the module docstring) and also returned as is."""
    kernel = kernel_seconds()
    # A user imports into a fresh heap; drop the garbage of earlier set-ups
    # first, so that no collection of it lands inside the timing.
    gc.collect()
    t0 = perf_counter()
    m = wl.import_takagi()
    items = workload.build(m, seed, smoke)
    wall = perf_counter() - t0
    return m, items, wall * CAL_REFERENCE_S / kernel, wall


def gate(workload, m, reference: dict, item: wl.Item, output) -> list[str]:
    if isinstance(output, BaseException):
        return ["%s raised %s: %s" % (item.id, type(output).__name__, output)]
    errors = workload.check(m, item, output)
    text = workload.text(m, item, output)
    if text is not None and item.ref_key is not None:
        want = reference.get(workload.name, {}).get(item.ref_key)
        got = wl.digest(text)
        if want is None:
            errors.append("%s: no frozen digest" % item.id)
        elif got != want:
            errors.append("%s: output digest %s, frozen %s" % (item.id, got, want))
    return errors


def run_loop(workload, m, items, reference, seconds=None, tracer=None) -> list[Record]:
    """Closed loop over whole passes of `items`.

    Runs MIN_PASSES passes, then more while the mean pass time still fits in
    `seconds` of item time; with no `seconds`, one pass.  Gates run outside
    the timed region.  The kernel is timed before the first call, after the
    last, and between calls every CAL_INTERVAL_S of item time; each record's
    scale comes from the mean of the two kernel timings around it.
    """
    records: list[Record] = []
    marks, kernels = [0], [kernel_seconds()]  # kernel timed before record marks[k]
    since_mark = 0.0
    spent = 0.0
    passes = 0
    while passes == 0 or (seconds is not None and (passes < MIN_PASSES or spent + spent / passes <= seconds)):
        for item in items:
            if since_mark > CAL_INTERVAL_S:
                marks.append(len(records))
                kernels.append(kernel_seconds())
                since_mark = 0.0
            t0 = perf_counter()
            try:
                if tracer is None:
                    output = workload.run(m, item)
                else:
                    output = tracer.root(item.id, workload.run, m, item)
            except Exception as exc:  # noqa: BLE001 - an item failure is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                output = exc
            dt = perf_counter() - t0
            errors = gate(workload, m, reference, item, output)
            counts = {} if isinstance(output, BaseException) else workload.layer_counts(output)
            records.append(Record(item, dt, errors, counts))
            spent += dt
            since_mark += dt
        passes += 1
    marks.append(len(records))
    kernels.append(kernel_seconds())
    for i, r in enumerate(records):
        k = bisect.bisect_right(marks, i)  # marks[k - 1] <= i < marks[k]
        r.scale = CAL_REFERENCE_S / ((kernels[k - 1] + kernels[k]) / 2)
    return records


def latency_tail(seconds: list[float]) -> tuple[str, float]:
    """Nearest-rank latency at the highest listed percentile that leaves at
    least 10 samples beyond it; the median when there are too few samples."""
    values = sorted(seconds)
    n = len(values)
    for p in TAIL_PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p% of n)
        if n - rank >= 10:
            return "p%g" % p, values[rank - 1]
    return "p50", statistics.median(values)


def item_timings(workload, records, scaled: bool) -> tuple[float, float, str, float]:
    """items_per_s, p50 and tail (label, seconds) over the items of a pass,
    each item timed by the median of its passes."""
    per_item: dict[str, list[float]] = {}
    for r in records:
        per_item.setdefault(r.item.id, []).append(r.seconds * (r.scale if scaled else 1.0))
    units = {r.item.id: workload.units(r.item) for r in records}
    times = [statistics.median(v) for v in per_item.values()]
    label, tail = latency_tail(times)
    return sum(units.values()) / sum(times), statistics.median(times), label, tail


def end_to_end(workload, records, setups, peak_rss_mb) -> tuple[dict, dict, dict]:
    """The bounded metrics, scaled to the reference speed; notes; and the
    same timings in wall-clock time."""
    rate, p50, label, tail = item_timings(workload, records, scaled=True)
    metrics = {
        "setup_s": (statistics.median(scaled for scaled, _ in setups), "s"),
        "items_per_s": (rate, "1/s"),
        "item_p50_ms": (p50 * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    rate, p50, _, tail = item_timings(workload, records, scaled=False)
    wall = {
        "setup_s": statistics.median(w for _, w in setups),
        "items_per_s": rate,
        "item_p50_ms": p50 * 1e3,
        "item_tail_ms": tail * 1e3,
    }
    items = len({r.item.id for r in records})
    scales = sorted(r.scale for r in records)
    notes = {
        "setup_s": "median of %d set-ups" % len(setups),
        "items_per_s": "%d items, each the median of %d passes" % (items, len(records) // items),
        "item_tail_ms": "%s of %d items" % (label, items),
    }
    notes.update({name: notes.get(name, "") + "  wall clock %.6g" % value for name, value in wall.items()})
    notes["scale"] = "kernel scale min %.3f median %.3f max %.3f" % (scales[0], statistics.median(scales), scales[-1])
    return metrics, notes, wall


def per_layer(workload, tracer: Tracer, traced: list[Record], overhead: float) -> dict:
    metrics = tracer.metrics()
    for name in ("littlewood.polys", "littlewood.roots", "littlewood.step_roots"):
        metrics[name] = (sum(r.counts.get(name, 0) for r in traced), "count")
    polys = metrics.pop("littlewood.polys")[0]
    for name, fn in (("chains_per_poly", "intpoly.sturm_chain"), ("dyadic_signs_per_poly", "intpoly.sign_at_dyadic")):
        metrics["littlewood." + name] = (metrics[fn + ".calls"][0] / polys if polys else 0.0, "ratio")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def figure_check(workload, m) -> tuple[int, list[str]]:
    OUT_DIR.mkdir(exist_ok=True)
    # `takagi figure 1` runs `git describe` for its sidecar; keep git's
    # repository search inside the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(wl.ROOT.parent)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        return wl.figure1_mismatches(m, workload, tmp)


def main(argv=None, reference_path: Path = wl.REFERENCE_FILE) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, each item once")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": git_revision(),
        "loadavg_before": read_loadavg(),
    }
    try:
        reference = load_reference(reference_path)
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            m, items, *timed = setup(workload, args.seed, args.smoke)
            setups.append(timed)
    except wl.SetupError as exc:
        print("benchmark set-up failed: %s" % exc, file=sys.stderr)
        return 2

    seconds = None if args.smoke else args.seconds
    attempted_checks, check_errors = 0, []  # checks that are not items
    if args.trace:
        untraced = run_loop(workload, m, items, reference)
        tracer = Tracer(m)
        tracer.install()
        try:
            tracer.root("setup", workload.build, m, args.seed, args.smoke)
            traced = run_loop(workload, m, items, reference, tracer=tracer)
        finally:
            tracer.uninstall()
        again = run_loop(workload, m, items, reference)
        records = untraced + traced + again
        for root, rec in zip(tracer.roots, [None] + traced):
            if not root["ok"]:
                message = "trace accounting for %s: self times sum to %d ns, wall %d ns" % (
                    root["id"], root["wrapped_self_ns"], root["wall_ns"])
                (check_errors if rec is None else rec.errors).append(message)
        attempted_checks += 1
        # scaled times, and untraced passes before and after, so that a change
        # of the machine's speed cancels
        overhead = 2 * sum(r.seconds * r.scale for r in traced) / sum(r.seconds * r.scale for r in untraced + again)
        metrics = per_layer(workload, tracer, traced, overhead)
        notes = {"trace.overhead": "traced pass over the mean of the untraced passes before and after it"}
        wall = {}
    else:
        records = run_loop(workload, m, items, reference, seconds=seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if isinstance(workload, wl.AlphaSweep):
        rows, mismatches = figure_check(workload, m)
        attempted_checks += rows
        check_errors += mismatches
    if not args.trace:
        # Last, since each set-up imports takagi afresh and `m` must not mix
        # two imports.
        for _ in range(SETUP_REPEATS):
            setups.append(setup(workload, args.seed, args.smoke)[2:])
        metrics, notes, wall = end_to_end(workload, records, setups, peak_rss_mb)
    errors = check_errors + [e for r in records for e in r.errors]
    failed = len(check_errors) + sum(1 for r in records if r.errors)
    attempted = len(records) + attempted_checks
    env["loadavg_after"] = read_loadavg()

    print("workload %s  seed %d  trace %d%s" % (args.workload, args.seed, args.trace, "  smoke" if args.smoke else ""))
    for key, value in env.items():
        print("env %-15s %s" % (key, value))
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %-6s %s" % (name, value, unit, notes.get(name, "")))
    print("%-44s %14.6g %-6s %d of %d" % ("failed_frac", failed / attempted, "ratio", failed, attempted))
    if "scale" in notes:
        print(notes["scale"])
    for message in errors[:20]:
        print("FAIL %s" % message, file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  smoke=args.smoke, env=env, notes=notes, wall_clock=wall, setups_s=setups, errors=errors,
                  items=[[r.item.id, r.seconds, r.scale] for r in records])
    if args.trace:
        record["spans"] = tracer.to_json()
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace, "-smoke" if args.smoke else "")
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
