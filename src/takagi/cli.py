"""Command-line interface: extrema reports, Littlewood scans, figure data.

Subcommands
-----------
maximize / minimize   extremizer report for --alpha or --seq
classify              parameter regime and extremizer cardinality
eval                  certified evaluation of f(t)
littlewood            scan | steproots | gaps
figure                1 | 2 | 3 | 4  (plottable CSV reproduction data)
selftest              quick internal consistency battery

Exit codes: 0 success, 1 usage, 2 unresolved precision, 3 budget exceeded.
All decimal output uses 30 significant digits; every file written gets a
`.meta.json` sidecar recording the invocation and source revision.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from fractions import Fraction

from . import landsberg, littlewood, oracle, step_engine
from .evaluate import (
    BudgetError,
    DomainError,
    DyadicRational,
    FiniteSupport,
    Geometric,
    PowerSquared,
    eval_periodic,
    eval_series,
    is_dyadic,
)
from .scalars import (
    PrecisionError,
    RationalScalar,
    Scalar,
    algebraic,
    frac_str,
    scalar_decimal,
    scalar_enclosure,
    scalar_to_json,
)

DIGITS = 30

EXIT_USAGE = 1
EXIT_UNRESOLVED = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def parse_alpha(text: str) -> Scalar:
    """Parameter spec: rational, decimal, named constant, or root:<poly>:<lo>:<hi>."""
    text = text.strip()
    if text == "sqrt2":
        return algebraic([-2, 0, 1], 1, 2)
    if text == "golden":
        return algebraic([-1, -1, 1], 1, 2)
    if text.startswith("root:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError("expected root:<comma-separated poly>:<lo>:<hi>")
        poly = [int(c) for c in parts[1].split(",")]
        return algebraic(poly, parse_rational(parts[2]), parse_rational(parts[3]))
    return RationalScalar(parse_rational(text))


def parse_sequence(args) -> object:
    if args.alpha is not None:
        return Geometric(parse_alpha(args.alpha))
    if args.seq == "power-squared":
        return PowerSquared()
    if args.seq.startswith("file:"):
        path = args.seq[5:]
        with open(path) as f:
            data = json.load(f)
        if not isinstance(data, list):
            raise ValueError("%s does not hold a JSON list" % path)
        values = [parse_rational(str(v)) for v in data]
        return FiniteSupport(values)
    raise ValueError("unknown sequence spec %r" % args.seq)


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _write_sidecar(path: str, args) -> None:
    meta = {
        "argv": sys.argv[1:],
        "config": {k: v for k, v in vars(args).items() if k != "func" and v is not None},
        "revision": _git_describe(),
    }
    with open(path + ".meta.json", "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True, default=str)


def _location_dict(loc: step_engine.Location) -> dict:
    out = {
        "exact": frac_str(loc.exact) if loc.exact is not None else None,
        "approx": frac_str(loc.approx),
        "error": frac_str(loc.error),
        "decimal": scalar_decimal(RationalScalar(loc.approx), DIGITS),
    }
    if loc.exact is None and is_dyadic(loc.approx):
        out["dyadic"] = DyadicRational.from_fraction(loc.approx).to_json_dict()
    return out


def report_to_dict(report: step_engine.ExtremaReport) -> dict:
    card = report.cardinality
    return {
        "kind": report.kind,
        "smallest": _location_dict(report.smallest),
        "largest": _location_dict(report.largest),
        "value": {
            "lo": scalar_decimal(RationalScalar(report.value_lo), DIGITS),
            "hi": scalar_decimal(RationalScalar(report.value_hi), DIGITS),
        },
        "cardinality": {
            "kind": card.kind,
            "count": card.count,
            "block_length": card.block_length,
            "hausdorff_dim": frac_str(card.hausdorff_dim) if card.hausdorff_dim else None,
            "certified_depth": card.depth,
        },
        "locations": [
            {"exact": frac_str(t), "decimal": scalar_decimal(RationalScalar(t), DIGITS)}
            for t in report.locations
        ]
        if report.locations
        else None,
        "zero_indices": list(report.evidence.zero_indices),
        "depth": report.evidence.depth,
    }


def _print_report(report, fmt: str) -> None:
    d = report_to_dict(report)
    if fmt == "json":
        print(json.dumps(d, indent=1))
        return
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        card = d["cardinality"]
        w.writerow(["kind", "smallest", "largest", "value_lo", "value_hi", "cardinality", "count", "dim"])
        w.writerow(
            [
                d["kind"],
                d["smallest"]["exact"] or d["smallest"]["approx"],
                d["largest"]["exact"] or d["largest"]["approx"],
                d["value"]["lo"],
                d["value"]["hi"],
                card["kind"],
                card["count"] if card["count"] is not None else "",
                card["hausdorff_dim"] or "",
            ]
        )
        return
    card = d["cardinality"]
    print("kind:        %s" % d["kind"])
    print("smallest:    %s  (%s)" % (d["smallest"]["exact"] or "~" + d["smallest"]["approx"], d["smallest"]["decimal"]))
    print("largest:     %s  (%s)" % (d["largest"]["exact"] or "~" + d["largest"]["approx"], d["largest"]["decimal"]))
    print("value in:    [%s, %s]" % (d["value"]["lo"], d["value"]["hi"]))
    if card["kind"] == "finite":
        print("cardinality: finite, %d extremizer(s) in [0,1]" % card["count"])
    elif card["kind"] == "continuum":
        print(
            "cardinality: continuum; perfect set, block length %d, Hausdorff dimension %s"
            % (card["block_length"], card["hausdorff_dim"])
        )
    else:
        print("cardinality: unknown beyond depth %s" % card["certified_depth"])
    if d["locations"]:
        print("locations:   %s" % ", ".join(l["exact"] for l in d["locations"]))


def cmd_maximize(args) -> int:
    return _cmd_extrema(args, "max")


def cmd_minimize(args) -> int:
    return _cmd_extrema(args, "min")


def _cmd_extrema(args, kind: str) -> int:
    c = parse_sequence(args)
    if isinstance(c, Geometric):
        report = landsberg.maxima(c.alpha, args.depth) if kind == "max" else landsberg.minima(c.alpha, args.depth)
    else:
        report = step_engine.classify_extrema(c, kind, args.depth)
    _print_report(report, args.format)
    return 0


def cmd_classify(args) -> int:
    alpha = parse_alpha(args.alpha)
    regime = landsberg.classify_alpha(alpha)
    report = landsberg.maxima(alpha, args.depth)
    out = {
        "alpha": scalar_to_json(alpha),
        "alpha_decimal": scalar_decimal(alpha, DIGITS),
        "regime": regime.variant,
        "window": regime.n,
        "boundary": regime.boundary,
        "maxima": report_to_dict(report),
    }
    if args.format == "json":
        print(json.dumps(out, indent=1))
    else:
        print("alpha  = %s" % out["alpha_decimal"])
        print("regime = %s%s%s" % (
            regime.variant,
            " (window n=%d)" % regime.n if regime.n is not None else "",
            " at boundary x_n" if regime.boundary else "",
        ))
        _print_report(report, "pretty")
    return 0


def cmd_eval(args) -> int:
    c = parse_sequence(args)
    t = parse_rational(args.t)
    width = parse_rational(args.width)
    if isinstance(c, Geometric):
        value = eval_periodic(c, t)
        lo, hi = scalar_enclosure(value, width)
        exact = scalar_to_json(value)
    else:
        enc = eval_series(c, t, width)
        lo, hi = enc.lo, enc.hi
        exact = None
    out = {
        "t": frac_str(t),
        "lo": scalar_decimal(RationalScalar(lo), DIGITS),
        "hi": scalar_decimal(RationalScalar(hi), DIGITS),
        "exact": exact,
    }
    print(json.dumps(out, indent=1) if args.format == "json" else "f(%s) in [%s, %s]" % (args.t, out["lo"], out["hi"]))
    return 0


# ---------------------------------------------------------------------------
# littlewood


def cmd_littlewood_scan(args) -> int:
    summary = littlewood.scan(
        args.max_degree,
        jobs=args.jobs,
        bins=args.bins,
        collect_roots=args.out is not None,
    )
    print(json.dumps(summary.to_json_dict(), indent=1))
    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["degree", "mask", "root", "is_step_root"])
            for rec in littlewood.root_records(summary.roots_seen):
                w.writerow([rec.degree, rec.poly.mask(), scalar_decimal(rec.root, DIGITS), rec.is_step_root])
        _write_sidecar(args.out, args)
    return 0


def cmd_littlewood_steproots(args) -> int:
    records = littlewood.step_root_records(args.max_degree, jobs=args.jobs)
    rows = []
    for rec in records:
        rows.append(
            {
                "degree": rec.degree,
                "poly": "".join("+" if c > 0 else "-" for c in rec.poly.coeffs),
                "root": scalar_decimal(rec.root, DIGITS),
            }
        )
    print(json.dumps(rows, indent=1))
    return 0


def cmd_littlewood_gaps(args) -> int:
    resolution = parse_rational(args.resolution)
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    summary = littlewood.scan(args.max_degree, jobs=args.jobs, collect_roots=True)
    gaps = [[frac_str(lo), frac_str(hi)] for lo, hi in littlewood.root_gaps(summary.roots_seen, resolution)]
    print(json.dumps({"resolution": args.resolution, "gaps": gaps}, indent=1))
    return 0


# ---------------------------------------------------------------------------
# figures


def _open_csv(path: str, args):
    f = open(path, "w", newline="")
    _write_sidecar(path, args)
    return f


def cmd_figure(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    if args.which == "1":
        grid = landsberg.default_grid(args.points)
        path = os.path.join(args.out_dir, "fig1_maximizer_curve.csv")
        with _open_csv(path, args) as f:
            w = csv.writer(f)
            w.writerow(["alpha", "tau_sharp", "tau_flat", "max_value", "cardinality", "dim", "exact", "regime"])
            for alpha in grid:
                report = landsberg.maxima(alpha, args.depth)
                card, smallest, largest = report.cardinality, report.smallest, report.largest
                mid = (report.value_lo + report.value_hi) / 2
                w.writerow(
                    [scalar_decimal(x, DIGITS) for x in (alpha, smallest.approx, largest.approx, mid)]
                    + [
                        "finite:%d" % card.count if card.kind == "finite" else card.kind,
                        frac_str(card.hausdorff_dim) if card.hausdorff_dim else "",
                        int(smallest.exact is not None and largest.exact is not None),
                        landsberg.classify_alpha(alpha).variant,
                    ]
                )
        print(path)
    elif args.which == "2":
        c = PowerSquared()
        path = os.path.join(args.out_dir, "fig2_power_squared.csv")
        with _open_csv(path, args) as f:
            w = csv.writer(f)
            w.writerow(["t", "f"])
            n = 1 << 10
            for k in range(n + 1):
                t = Fraction(k, n)
                enc = eval_series(c, t, Fraction(1, 10**12))
                mid = (enc.lo + enc.hi) / 2
                w.writerow([scalar_decimal(RationalScalar(t), DIGITS), scalar_decimal(RationalScalar(mid), DIGITS)])
        report = step_engine.classify_extrema(c, "max", args.depth)
        mpath = os.path.join(args.out_dir, "fig2_maximizers.csv")
        with _open_csv(mpath, args) as f:
            w = csv.writer(f)
            w.writerow(["t"])
            for t in report.locations or ():
                w.writerow([scalar_decimal(RationalScalar(t), DIGITS)])
        print(path)
        print(mpath)
    elif args.which == "3":
        named = [
            ("1/2", RationalScalar(Fraction(1, 2))),
            ("4/5", RationalScalar(Fraction(4, 5))),
            ("1", RationalScalar(Fraction(1))),
            ("sqrt2", algebraic([-2, 0, 1], 1, 2)),
        ]
        path = os.path.join(args.out_dir, "fig3_landsberg_graphs.csv")
        with _open_csv(path, args) as f:
            w = csv.writer(f)
            w.writerow(["series", "t", "f"])
            n = 1 << 9
            for label, a in named:
                for sign, tag in ((1, ""), (-1, "-")):
                    c = Geometric(step_engine.scalars.scalar_mul(a, sign))
                    for k in range(n + 1):
                        t = Fraction(k, n)
                        v = eval_periodic(c, t)
                        lo, hi = scalar_enclosure(v, Fraction(1, 10**34))
                        w.writerow(
                            [
                                "f_%s%s" % (tag, label),
                                scalar_decimal(RationalScalar(t), DIGITS),
                                scalar_decimal(RationalScalar((lo + hi) / 2), DIGITS),
                            ]
                        )
        print(path)
    else:
        summary = littlewood.scan(args.max_degree, jobs=args.jobs, bins=args.bins)
        path = os.path.join(args.out_dir, "fig4_histograms.csv")
        with _open_csv(path, args) as f:
            w = csv.writer(f)
            w.writerow(["component", "bin_lo", "bin_hi", "roots", "step_roots"])
            for comp, lo, hi, hr, hs in (
                ("negative", littlewood.NEG_LO, littlewood.NEG_HI, summary.hist_neg_roots, summary.hist_neg_steps),
                ("positive", littlewood.POS_LO, littlewood.POS_HI, summary.hist_pos_roots, summary.hist_pos_steps),
            ):
                width = (hi - lo) / summary.bins
                for i in range(summary.bins):
                    w.writerow(
                        [comp, float(lo + i * width), float(lo + (i + 1) * width), hr[i], hs[i]]
                    )
        print(json.dumps({"total_roots": summary.total_roots, "total_step_roots": summary.total_step_roots}))
        print(path)
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            fn()
            print("PASS %s" % name)
        except Exception as exc:  # noqa: BLE001 - report and count
            failures += 1
            print("FAIL %s: %s" % (name, exc))

    def takagi_max():
        r = landsberg.maxima(RationalScalar(Fraction(1)))
        assert r.smallest.exact == Fraction(1, 3)
        assert r.cardinality.hausdorff_dim == Fraction(1, 2)
        assert r.value_lo <= Fraction(2, 3) <= r.value_hi

    def neg_regime():
        r = landsberg.maxima(RationalScalar(Fraction(-3, 2)))
        assert r.locations == (Fraction(19, 40), Fraction(21, 40))
        m = landsberg.minima(RationalScalar(Fraction(-3, 2)))
        assert m.value_lo == m.value_hi == Fraction(-8, 35)

    def oracle_agrees():
        coeffs = [Fraction(1), Fraction(1, 2), Fraction(1, 4)]
        report = step_engine.classify_extrema(FiniteSupport(coeffs), "max", 16)
        top = max(oracle.f_truncated(coeffs, 10, d.to_fraction()) for d in oracle.grid_argmax(coeffs, 10))
        assert report.value_lo <= top <= report.value_hi

    def littlewood_small():
        s = littlewood.scan(6)
        assert (s.total_roots, s.total_step_roots) == (184, 30), (s.total_roots, s.total_step_roots)

    check("takagi-classical-maximum", takagi_max)
    check("negative-regime-closed-forms", neg_regime)
    check("oracle-engine-agreement", oracle_agrees)
    check("littlewood-degree-6-totals", littlewood_small)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# wiring


_OPTIONS = {
    "--depth": dict(type=int, default=step_engine.DEFAULT_DEPTH),
    "--format": dict(choices=["json", "pretty"], default="pretty"),
    "--jobs": dict(type=int, default=1),
    "--max-degree": dict(type=int, default=12),
    "--bins": dict(type=int, default=200),
    "--out-dir": dict(default="figures"),
    "--points": dict(type=int, default=1999),
}


def _add_options(p, *names):
    """Attach the shared options that the subcommand's handler reads."""
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def _add_sequence(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--alpha", help="rational, decimal, sqrt2, golden, or root:<poly>:<lo>:<hi>")
    g.add_argument("--seq", help="power-squared or file:<path> (JSON list of rationals)")


def build_parser() -> _Parser:
    top = _Parser(prog="takagi", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    for name, fn in (("maximize", cmd_maximize), ("minimize", cmd_minimize)):
        p = sub.add_parser(name)
        _add_options(p, "--depth")
        p.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
        _add_sequence(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("classify")
    _add_options(p, "--depth", "--format")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval")
    _add_options(p, "--format")
    _add_sequence(p)
    p.add_argument("--t", required=True)
    p.add_argument("--width", default="1/1000000000000")
    p.set_defaults(func=cmd_eval)

    lp = sub.add_parser("littlewood")
    lsub = lp.add_subparsers(dest="subcommand", required=True)
    p = lsub.add_parser("scan")
    _add_options(p, "--jobs", "--max-degree", "--bins")
    p.add_argument("--out", help="CSV path for per-root records")
    p.set_defaults(func=cmd_littlewood_scan)
    p = lsub.add_parser("steproots")
    _add_options(p, "--jobs")
    p.add_argument("--max-degree", type=int, default=10)
    p.set_defaults(func=cmd_littlewood_steproots)
    p = lsub.add_parser("gaps")
    _add_options(p, "--jobs", "--max-degree")
    p.add_argument("--resolution", default="1/100")
    p.set_defaults(func=cmd_littlewood_gaps)

    fsub = sub.add_parser("figure").add_subparsers(dest="which", required=True)
    # every figure takes --out-dir, and each the options its branch reads
    figures = {"1": ("--depth", "--points"), "2": ("--depth",), "3": (), "4": ("--max-degree", "--bins", "--jobs")}
    for which, names in figures.items():
        p = fsub.add_parser(which)
        _add_options(p, "--out-dir", *names)
        p.set_defaults(func=cmd_figure)

    p = sub.add_parser("selftest")
    p.set_defaults(func=cmd_selftest)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except PrecisionError as exc:
        print("unresolved precision: %s" % exc, file=sys.stderr)
        return EXIT_UNRESOLVED
    except (DomainError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
