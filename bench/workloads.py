"""The four benchmark workloads: inputs from a seed, the timed call, the gates.

Every workload is a closed loop: one caller runs one item at a time in this
process, with no pool and no threads.  `build` returns one pass: the items a
run goes through, whole, as many times as its time allows.  A pass is cut
short enough for a run to time every item at least three times (see
run.py).  Item costs within a workload differ
by up to twenty times, and runs made with different seeds are compared with
each other, so every seed's pass has the same mix of cheap and costly items:
the seed varies the inputs only within fixed cost classes (see each
workload).

See README.md in this directory for why each workload exists and which layers
it exercises or bypasses.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
POOL_FILE = BENCH_DIR / "alpha_pool.txt"
POOL_SIZE = 169
POOL_ORDER_FILE = BENCH_DIR / "alpha_pool_order.txt"
POOL_STRATA = 8
SERIES_PERIODS = (36, 60)  # doubling-orbit periods of the series-eval denominators
SERIES_STRIDE = 4  # a pass takes every fourth of those denominators
REFERENCE_FILE = BENCH_DIR / "reference.json"

SWEEP_POINTS = 1999  # the figure-1 grid
SWEEP_STRIDE = 4  # a pass takes every fourth grid point ...
SWEEP_OFFSETS = 3  # ... from offset 0, 1 or 2, each giving 500 points
SCAN_DEGREE = 11
FIGURE_CHECK_POINTS = 15  # default_grid(15) is a subset of default_grid(1999)
SERIES_WIDTH = Fraction(1, 10**12)
RADEMACHER_WIDTH = Fraction(1, 2**10)
SERIES_MAX_Q = 400
DIGITS = 30
KNOWN_SCAN_TOTALS = {6: (184, 30)}  # (distinct roots, step roots)


class SetupError(Exception):
    """The benchmark cannot run here: no sources, bad pool or reference."""


@dataclass(frozen=True)
class Item:
    id: str
    input: object
    ref_key: str | None = None  # key that must have a frozen digest


def import_takagi() -> SimpleNamespace:
    """Import ``takagi`` afresh from this checkout's ``src/``.

    ``takagi`` and ``mpmath`` are dropped from ``sys.modules`` first, so every
    call pays the import a user pays.
    """
    if not (SRC / "takagi" / "__init__.py").is_file():
        raise SetupError("no takagi sources under %s" % SRC)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in list(sys.modules):
        if name.split(".")[0] in ("takagi", "mpmath"):
            del sys.modules[name]
    importlib.invalidate_caches()
    takagi = importlib.import_module("takagi")
    if Path(takagi.__file__).resolve().parent != SRC / "takagi":
        raise SetupError("imported takagi from %s, not from %s" % (takagi.__file__, SRC))
    names = ("intpoly", "scalars", "evaluate", "step_engine", "landsberg", "littlewood", "cli")
    return SimpleNamespace(**{n: importlib.import_module("takagi." + n) for n in names})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stratified_sample(by_cost: list, strata: int, rng: random.Random) -> list:
    """One pick from each of `strata` equal slices of a cost-sorted list.

    One seeded fraction u places the pick at u of the way through the even
    slices and at 1 - u through the odd ones (antithetic picks), so a seed
    that draws costly items in one slice draws cheap ones in the next, and
    the pass total and median cost barely move with the seed.
    """
    u = rng.random()
    picks = []
    for s in range(strata):
        lo, hi = len(by_cost) * s // strata, len(by_cost) * (s + 1) // strata
        f = u if s % 2 == 0 else 1 - u
        picks.append(by_cost[lo + min(hi - lo - 1, int(f * (hi - lo)))])
    return picks


class Workload:
    name = ""

    def build(self, m, seed: int, smoke: bool) -> list[Item]:
        """One pass of inputs for this seed; the workload's share of set-up."""
        raise NotImplementedError

    def run(self, m, item: Item):
        """The timed call for one item."""
        raise NotImplementedError

    def units(self, item: Item) -> int:
        """Items counted by items_per_s for one call."""
        return 1

    def text(self, m, item: Item, output) -> str | None:
        """Canonical serialization of the exact output, or None if it has none."""
        return None

    def check(self, m, item: Item, output) -> list[str]:
        """Checks that need no frozen reference; failure messages."""
        return []

    def layer_counts(self, output) -> dict:
        """Exact counts the traced run reports from the output itself."""
        return {}


class LittlewoodScan(Workload):
    """littlewood.scan over every degree 1..11; exhaustive, so the seed is unused.

    Degree 11, not 14: one call takes under a second on a 2-CPU host, short
    enough for the kernel timings around it to tell the machine's speed
    during it (see run.py).  With scan(13), 4 s to 7 s a call there, the
    scaled times of ten runs still spread 0.15 to 0.19; scan(14) takes 12 s.
    """

    name = "littlewood-scan"

    def build(self, m, seed, smoke):
        degree = 6 if smoke else SCAN_DEGREE
        return [Item("scan(%d)" % degree, degree, str(degree))]

    def run(self, m, item):
        return m.littlewood.scan(item.input, jobs=1)

    def units(self, item):
        return (1 << (item.input + 1)) - 2  # polynomials of degree 1..d with coeffs[0] = +1

    def text(self, m, item, output):
        return canonical(output.to_json_dict())

    def layer_counts(self, output):
        return {
            "littlewood.polys": (1 << (output.max_degree + 1)) - 2,
            "littlewood.roots": output.total_roots,
            "littlewood.step_roots": output.total_step_roots,
        }

    def check(self, m, item, output):
        known = KNOWN_SCAN_TOTALS.get(item.input)
        got = (output.total_roots, output.total_step_roots)
        if known is not None and got != known:
            return ["%s: totals %s, expected %s" % (item.id, got, known)]
        return []


def figure_row(m, tp, report) -> str:
    """One `takagi figure 1` CSV row, formatted as cli.cmd_figure writes it."""
    card = report.cardinality
    if card.kind == "finite":
        card_text = "finite:%d" % card.count
    elif card.kind == "continuum":
        card_text = "continuum"
    else:
        card_text = "unknown"
    rational = m.scalars.RationalScalar
    decimal = m.scalars.scalar_decimal
    mid = (report.value_lo + report.value_hi) / 2
    buf = io.StringIO()
    csv.writer(buf).writerow(
        [
            decimal(tp.alpha, DIGITS),
            decimal(rational(tp.sharp), DIGITS),
            decimal(rational(tp.flat), DIGITS),
            decimal(rational(mid), DIGITS),
            card_text,
            "%d/%d" % (card.hausdorff_dim.numerator, card.hausdorff_dim.denominator) if card.hausdorff_dim else "",
            int(tp.exact),
            tp.regime,
        ]
    )
    return buf.getvalue()


class AlphaSweep(Workload):
    """The figure-1 maximizer curve: tau_point, maxima and report_to_dict per alpha.

    A pass is every fourth point of the figure-1 grid, 500 points.  Seed 0
    starts at the first; any other seed at a seeded offset 0, 1 or 2, and
    shifts every alpha up by the same seeded fraction k/16 of one grid step,
    k in 1..8.  Small
    denominators keep the cost per item close to the grid's.  The shift stays
    within half a step because of a cost cliff below alpha = -1: there the
    neg_steep window index n grows like 0.55/(-1 - alpha), and a report costs
    about n^3 (0.25 s at -1.002, 1.3 s at -1.001, 72 s at -1.00025), so a
    larger shift would let one item overrun a run's time limit.
    """

    name = "alpha-sweep"

    def build(self, m, seed, smoke):
        grid = m.landsberg.default_grid(SWEEP_POINTS)
        rng = random.Random(seed)
        offset, shift = 0, Fraction(0)
        if seed:
            offset = rng.randrange(SWEEP_OFFSETS)
            shift = Fraction(rng.randrange(1, 9), 16) * Fraction(4, SWEEP_POINTS + 1)
        alphas = [a + shift for a in grid[offset :: 333 if smoke else SWEEP_STRIDE]]
        return [Item(str(a), a, None if seed else str(a)) for a in alphas]

    def run(self, m, item):
        tp = m.landsberg.tau_point(item.input)
        report = m.landsberg.maxima(tp.alpha)
        return tp, report, figure_row(m, tp, report), m.cli.report_to_dict(report)

    def text(self, m, item, output):
        _tp, _report, row, report_dict = output
        return row + canonical(report_dict)

    def check(self, m, item, output):
        tp, report, _row, _d = output
        errors = []
        if not report.value_lo <= report.value_hi:
            errors.append("%s: empty value enclosure" % item.id)
        if tp.sharp != report.smallest.approx:
            errors.append("%s: tau_point sharp %s, maxima smallest %s" % (item.id, tp.sharp, report.smallest.approx))
        if not tp.sharp <= tp.flat <= Fraction(1, 2):
            errors.append("%s: tau_point out of order: %s, %s" % (item.id, tp.sharp, tp.flat))
        return errors


def figure1_mismatches(m, workload: AlphaSweep, out_dir: str) -> tuple[int, list[str]]:
    """Compare this benchmark's rows with `takagi figure 1` CSV rows, byte for byte.

    Returns (rows compared, mismatch messages).
    """
    with contextlib.redirect_stdout(io.StringIO()):
        code = m.cli.main(["figure", "1", "--points", str(FIGURE_CHECK_POINTS), "--out-dir", out_dir])
    if code != 0:
        return 0, ["takagi figure 1 exited with %d" % code]
    with open(Path(out_dir) / "fig1_maximizer_curve.csv", newline="") as f:
        cli_rows = f.read().split("\r\n")[1:-1]
    alphas = m.landsberg.default_grid(FIGURE_CHECK_POINTS)
    errors = []
    if len(cli_rows) != len(alphas):
        errors.append("figure 1: %d rows, expected %d" % (len(cli_rows), len(alphas)))
    for alpha, cli_row in zip(alphas, cli_rows):
        mine = workload.run(m, Item(str(alpha), alpha))[2]
        if mine != cli_row + "\r\n":
            errors.append("figure 1 row for alpha=%s differs: %r != %r" % (alpha, mine, cli_row))
    return len(alphas), errors


def read_pool(m) -> list[tuple[str, object]]:
    """Parse the committed pool of algebraic parameters with cli.parse_alpha."""
    try:
        lines = POOL_FILE.read_text().splitlines()
    except OSError as exc:
        raise SetupError("cannot read %s: %s" % (POOL_FILE, exc)) from exc
    specs = [ln.strip() for ln in lines if ln.strip() and not ln.startswith("#")]
    if len(specs) != POOL_SIZE:
        raise SetupError("%s holds %d specs, expected %d" % (POOL_FILE.name, len(specs), POOL_SIZE))
    return [(spec, m.cli.parse_alpha(spec)) for spec in specs]


class AlgebraicMaxima(Workload):
    """landsberg.maxima at algebraic critical-regime parameters from the pool.

    A report costs from 0.3 s to 5 s on a 2-CPU host.  A pass must fit
    three times in a run, so it draws from the cheaper half of the pool
    (0.3 s to 1.7 s) and holds only POOL_STRATA reports; a plain random
    sample would make throughput depend on the seed.  That half of the
    pool's cost order (alpha_pool_order.txt, cheapest first, written with
    the reference) is cut into POOL_STRATA slices and the seed picks one
    parameter from each slice (see stratified_sample).
    """

    name = "algebraic-maxima"

    def build(self, m, seed, smoke):
        pool = dict(read_pool(m))
        order = read_cost_order(pool)[: POOL_SIZE // 2]
        specs = stratified_sample(order, POOL_STRATA, random.Random(seed))
        return [Item(spec, pool[spec], spec) for spec in specs[: 2 if smoke else None]]

    def run(self, m, item):
        return m.cli.report_to_dict(m.landsberg.maxima(item.input))

    def text(self, m, item, output):
        return canonical(output)


def read_cost_order(pool: dict) -> list[str]:
    try:
        order = [ln.strip() for ln in POOL_ORDER_FILE.read_text().splitlines() if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise SetupError("cannot read %s: %s" % (POOL_ORDER_FILE, exc)) from exc
    if sorted(order) != sorted(pool):
        raise SetupError("%s is not an ordering of the pool" % POOL_ORDER_FILE.name)
    return order


def doubling_period(q: int) -> int:
    """Multiplicative order of 2 mod odd q: the period of t = k/q's orbit."""
    k, x = 1, 2 % q
    while x != 1:
        x = 2 * x % q
        k += 1
    return k


class SeriesEval(Workload):
    """f(t) for c_m = 1/(m+1)^2 by eval_series and by eval_from_rademacher.

    Each item is t = k/q in lowest terms with q odd, 3 <= q < 400.  A point
    costs about the period of its doubling orbit times 12 ms here, and on top
    of that up to 30% more or less with k.  Of the 44 q whose period lies in
    SERIES_PERIODS (0.3 s to 0.8 s a point), a pass takes every fourth,
    from a seeded start, each with a seeded k: points of like cost keep the
    median steady, which a spread of periods would leave to the one or two
    points in the middle.
    """

    name = "series-eval"

    def build(self, m, seed, smoke):
        lo, hi = SERIES_PERIODS
        qs = [q for q in range(3, SERIES_MAX_Q, 2) if lo <= doubling_period(q) <= hi]
        rng = random.Random(seed)
        qs = qs[rng.randrange(SERIES_STRIDE) :: SERIES_STRIDE]
        sequence = m.evaluate.PowerSquared()
        items = []
        for q in qs[: 2 if smoke else None]:
            k = rng.randrange(1, q)
            while math.gcd(k, q) != 1:
                k = rng.randrange(1, q)
            t = Fraction(k, q)
            items.append(Item(str(t), (sequence, t)))
        return items

    def run(self, m, item):
        sequence, t = item.input
        series = m.evaluate.eval_series(sequence, t, SERIES_WIDTH)
        rho = m.evaluate.rademacher_of(t)[0]
        return series, m.evaluate.eval_from_rademacher(sequence, rho, RADEMACHER_WIDTH)

    def check(self, m, item, output):
        return enclosure_errors(item.id, *output)


def enclosure_errors(item_id: str, series, rademacher) -> list[str]:
    """The series-eval gate: both widths within request, enclosures overlap."""
    errors = []
    if not 0 <= series.hi - series.lo <= SERIES_WIDTH:
        errors.append("%s: eval_series width %s exceeds %s" % (item_id, series.hi - series.lo, SERIES_WIDTH))
    if not 0 <= rademacher.hi - rademacher.lo <= RADEMACHER_WIDTH:
        errors.append("%s: eval_from_rademacher width %s exceeds %s" % (item_id, rademacher.hi - rademacher.lo, RADEMACHER_WIDTH))
    if max(series.lo, rademacher.lo) > min(series.hi, rademacher.hi):
        errors.append("%s: enclosures [%s, %s] and [%s, %s] do not overlap" % (item_id, series.lo, series.hi, rademacher.lo, rademacher.hi))
    return errors


WORKLOADS = {w.name: w for w in (LittlewoodScan(), AlphaSweep(), AlgebraicMaxima(), SeriesEval())}
