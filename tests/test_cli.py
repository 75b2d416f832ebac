"""CLI surface: subcommands, formats, exit codes, file outputs."""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from takagi import cli
from takagi import littlewood as lw


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_alpha_forms():
    assert cli.parse_alpha("-3/2") == cli.RationalScalar(F(-3, 2))
    assert cli.parse_alpha("0.25") == cli.RationalScalar(F(1, 4))
    s = cli.parse_alpha("sqrt2")
    assert cli.scalar_decimal(s, 12).startswith("1.41421356237")
    g = cli.parse_alpha("golden")
    assert cli.scalar_decimal(g, 12).startswith("1.61803398875")
    r = cli.parse_alpha("root:1,-1,-1,-1,1:1/2:1")
    assert cli.scalar_decimal(r, 12).startswith("0.580691831993")
    with pytest.raises(ValueError):
        cli.parse_alpha("root:1,-1")


def test_maximize_json(capsys):
    code, out, _ = run(capsys, "maximize", "--alpha", "1", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["smallest"]["exact"] == "1/3"
    assert d["largest"]["exact"] == "5/12"
    assert d["cardinality"]["hausdorff_dim"] == "1/2"
    assert d["value"]["lo"].startswith("0.6666666")


def test_maximize_power_squared(capsys):
    code, out, _ = run(capsys, "maximize", "--seq", "power-squared", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert [l["exact"] for l in d["locations"]] == ["11/24", "13/24"]
    assert d["cardinality"] == {
        "kind": "finite",
        "count": 2,
        "block_length": None,
        "hausdorff_dim": None,
        "certified_depth": None,
    }


def test_minimize_alpha_minus_one(capsys):
    code, out, _ = run(capsys, "minimize", "--alpha=-1", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["cardinality"]["hausdorff_dim"] == "1/2"
    assert d["value"]["lo"] == "0" == d["value"]["hi"]


def test_classify_pretty(capsys):
    code, out, _ = run(capsys, "classify", "--alpha=-3/2")
    assert code == 0
    assert "neg_steep" in out and "19/40" in out


def test_eval_sequence_file(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(["1", "1/2", "-1/4"]))
    code, out, _ = run(
        capsys, "eval", "--seq", "file:%s" % path, "--t", "1/2", "--width", "1/1000000"
    )
    assert code == 0
    assert "f(1/2)" in out


def test_eval_geometric_exact(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", "sqrt2", "--t", "1/3", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["lo"].startswith("1.138071187457") and d["exact"]["type"] == "algebraic"


def test_exit_codes(capsys):
    code, _, err = run(capsys, "maximize", "--alpha", "7/2")
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "littlewood", "scan", "--max-degree", "30")
    assert code == cli.EXIT_BUDGET
    code, _, err = run(capsys, "maximize", "--alpha", "root:1,-1,-1:0:1", "--depth", "4")
    assert code == 0  # resolvable algebraic input works at tiny depth


def test_linear_root_outside_the_interval_is_a_usage_error(capsys):
    code, _, err = run(capsys, "maximize", "--alpha", "root:1,-1:1:2")
    assert code == cli.EXIT_USAGE == 1
    assert err == "error: algebraic: linear polynomial has no root in interval\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["maximize", "--alpha", "1/0"],
        ["classify", "--alpha=1/0"],
        ["eval", "--alpha", "1/2", "--t", "1/0"],
        ["littlewood", "gaps", "--resolution", "1/0"],
        ["littlewood", "gaps", "--resolution", "0"],
        ["littlewood", "gaps", "--resolution=-1/100"],
        ["maximize", "--alpha", "root:1,-1,-1:1/2:1/0"],
        ["maximize", "--alpha", "1/2", "--seq", "power-squared"],
        ["maximize"],
    ],
)
def test_malformed_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_USAGE, "") and "Traceback" not in err, argv


@pytest.mark.parametrize("content", ["5", '{"1": 2}'])
def test_sequence_file_must_hold_a_list(tmp_path, capsys, content):
    path = tmp_path / "coeffs.json"
    path.write_text(content)
    code, out, err = run(capsys, "eval", "--seq", "file:%s" % path, "--t", "1/2")
    assert (code, out) == (cli.EXIT_USAGE, "") and "does not hold a JSON list" in err


def test_unread_option_is_a_usage_error(capsys):
    unread = [
        ["selftest", "--jobs", "2"],
        ["figure", "1", "--jobs", "2"],
        ["figure", "1", "--bins", "3"],
        ["figure", "2", "--points", "7"],
        ["figure", "2", "--max-degree", "2"],
        ["figure", "4", "--depth", "5"],
        ["figure", "4", "--points", "7"],
    ]
    unread += [["figure", "3", name, value] for name, value in (
        ("--points", "7"), ("--max-degree", "2"), ("--bins", "3"), ("--jobs", "4"), ("--depth", "5")
    )]
    for argv in unread:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_USAGE == 1, argv


def test_unresolved_interval_exit(monkeypatch, capsys):
    from takagi import scalars as sc

    monkeypatch.setattr(
        cli, "parse_alpha", lambda text: sc.interval(F(54, 100), F(55, 100))
    )
    code, _, err = run(capsys, "maximize", "--alpha", "x")
    assert code == cli.EXIT_UNRESOLVED
    assert "unresolved" in err


def test_narrow_interval_alpha_exits_unresolved(monkeypatch, capsys):
    # the locations are exact, but the default value width is narrower than
    # alpha = -3/2 +- 10^-9 allows
    from takagi import scalars as sc

    alpha = sc.interval(F(-3, 2) - F(1, 10**9), F(-3, 2) + F(1, 10**9))
    monkeypatch.setattr(cli, "parse_alpha", lambda text: alpha)
    for cmd in ("maximize", "minimize"):
        code, _, err = run(capsys, cmd, "--alpha", "x")
        assert code == cli.EXIT_UNRESOLVED == 2
        assert "unresolved" in err


def test_littlewood_scan_json(capsys):
    code, out, _ = run(capsys, "littlewood", "scan", "--max-degree", "5")
    assert code == 0
    d = json.loads(out)
    assert d["total_roots"] == 88 and d["max_degree"] == 5



@pytest.mark.parametrize("bins", ["0", "-3"])
def test_nonpositive_bins_is_a_usage_error(tmp_path, capsys, bins):
    for argv in (("littlewood", "scan"), ("figure", "4", "--out-dir", str(tmp_path))):
        code, _, err = run(capsys, *argv, "--max-degree", "3", "--bins", bins)
        assert code == cli.EXIT_USAGE and "bins must be at least 1" in err, argv
    assert not (tmp_path / "fig4_histograms.csv").exists()


def test_littlewood_steproots(capsys):
    code, out, _ = run(capsys, "littlewood", "steproots", "--max-degree", "4")
    assert code == 0
    rows = json.loads(out)
    polys = {r["poly"] for r in rows}
    assert "+--" in polys  # 1 - x - x^2 with both step roots
    assert any(r["root"].startswith("-1.618") for r in rows)


def test_littlewood_scan_csv_output(tmp_path, capsys):
    out = tmp_path / "roots.csv"
    code, stdout, _ = run(capsys, "littlewood", "scan", "--max-degree", "3", "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "degree,mask,root,is_step_root"
    assert len(rows) == 1 + 16  # distinct roots at degree <= 3
    assert (tmp_path / "roots.csv.meta.json").exists()
    assert any(r.split(",")[2].startswith("-1.6180339887498948") for r in rows[1:])


def test_littlewood_gaps(capsys):
    code, out, _ = run(capsys, "littlewood", "gaps", "--max-degree", "4", "--resolution", "1/10")
    assert code == 0
    d = json.loads(out)
    assert d["resolution"] == "1/10"
    gaps = [(F(lo), F(hi)) for lo, hi in d["gaps"]]
    assert gaps == lw.root_gaps(lw.scan(4, collect_roots=True).roots_seen, F(1, 10)) != []


def test_figure_outputs_and_sidecars(tmp_path, capsys):
    code, out, _ = run(
        capsys, "figure", "4", "--max-degree", "3", "--out-dir", str(tmp_path), "--bins", "10"
    )
    assert code == 0
    path = tmp_path / "fig4_histograms.csv"
    assert path.exists()
    meta = json.loads((tmp_path / "fig4_histograms.csv.meta.json").read_text())
    assert "revision" in meta and meta["config"]["max_degree"] == 3
    rows = path.read_text().splitlines()
    assert rows[0] == "component,bin_lo,bin_hi,roots,step_roots"
    assert len(rows) == 1 + 20


def test_figure_one_small_grid(tmp_path, capsys):
    code, out, _ = run(
        capsys, "figure", "1", "--points", "7", "--depth", "24", "--out-dir", str(tmp_path)
    )
    assert code == 0
    rows = (tmp_path / "fig1_maximizer_curve.csv").read_text().splitlines()
    assert rows[0] == "alpha,tau_sharp,tau_flat,max_value,cardinality,dim,exact,regime"
    assert len(rows) == 8
    takagi_row = [r for r in rows if r.startswith("1.0,") or r.startswith("1,")]
    if takagi_row:
        assert "continuum" in takagi_row[0] and "1/2" in takagi_row[0]


def test_figure_determinism(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _, _ = run(
            capsys, "figure", "1", "--points", "5", "--depth", "16",
            "--out-dir", str(tmp_path / sub),
        )
        assert code == 0
    a = (tmp_path / "a" / "fig1_maximizer_curve.csv").read_bytes()
    b = (tmp_path / "b" / "fig1_maximizer_curve.csv").read_bytes()
    assert a == b


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_eval_nonpositive_width_is_an_error(tmp_path, capsys):
    # 600 coefficients outrun the direct sum, so width 0 reaches the rounded
    # prefix, which cannot round to it; an algebraic alpha's closed form
    # cannot be enclosed to it either
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(["1/%d" % (m + 1) ** 2 for m in range(600)]))
    for seq in (["--seq", "file:%s" % path], ["--seq", "power-squared"], ["--alpha", "sqrt2"]):
        for width in ("0", "-1"):
            code, out, err = run(capsys, "eval", *seq, "--t", "1/3", "--width=" + width)
            assert code == cli.EXIT_USAGE and out == ""
            assert err.startswith("error: ")


def test_eval_short_finite_support_at_width_zero(tmp_path, capsys):
    # a short support is summed exactly, so width 0 is within reach
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps(["1", "1/2", "-1/4"]))
    code, out, _ = run(capsys, "eval", "--seq", "file:%s" % path, "--t", "1/3", "--width", "0", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["lo"] == d["hi"] == "0.416666666666666666666666666667"


@pytest.mark.parametrize("width", ["0", "-1"])
def test_eval_nonpositive_width_is_rejected_before_bisecting(monkeypatch, capsys, width):
    # before this check, width <= 0 bisected sqrt2 to depth 65,536
    from takagi import intpoly

    calls = []
    refine, enclosure = intpoly.refine_bracket, cli.scalar_enclosure

    def counted_enclosure(*args):
        calls.clear()  # Geometric's check that alpha < 2 may refine first
        return enclosure(*args)

    monkeypatch.setattr(intpoly, "refine_bracket", lambda *a: calls.append(a) or refine(*a))
    monkeypatch.setattr(cli, "scalar_enclosure", counted_enclosure)
    run(capsys, "eval", "--alpha", "sqrt2", "--t", "1/3", "--width=" + width)
    assert calls == []


def test_eval_past_the_bisection_depth_limit_is_unresolved(monkeypatch, capsys):
    from takagi import scalars as sc

    monkeypatch.setattr(sc, "_REFINE_STEP_LIMIT", 16)
    code, out, err = run(capsys, "eval", "--alpha", "sqrt2", "--t", "1/3")
    assert code == cli.EXIT_UNRESOLVED == 2 and out == ""
    assert "depth 16" in err


def test_algebraic_report_and_eval_digests(capsys):
    # sha256 of the maxima reports at the 24 cheapest pool roots and of
    # `eval --format json` at three algebraic alphas, before the one bracket
    # walker; the pool file is only read
    from takagi import landsberg

    pool = Path(__file__).resolve().parents[1] / "bench" / "alpha_pool_order.txt"
    specs = [s for s in pool.read_text().split("\n") if s and not s.startswith("#")][:24]
    reports = [cli.report_to_dict(landsberg.maxima(cli.parse_alpha(s))) for s in specs]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "f2fc1d067679b9b4fe319f230c44d3ebc14ec579c020ee50074bcc66dbf9d1f0"
    outs = []
    for alpha in ("sqrt2", "golden", "root:1,-1,-1,-1,1:1/2:1"):
        for t in ("1/3", "5/7", "11/37"):
            code, out, _ = run(capsys, "eval", "--alpha", alpha, "--t", t, "--format", "json")
            assert code == 0
            outs.append(out)
    digest = hashlib.sha256("".join(outs).encode()).hexdigest()
    assert digest == "69315c105a677170acac4b1cf78301835850fe4e4b3787f77ad66cc817d2e00e"


# every 10th pool root whose maxima report is `unknown`, in the pool's order:
# their value enclosures come from `step_engine._value_near`
UNKNOWN_POOL_ROOTS = [
    "root:1,1,-1,-1,-1:1/2:1",
    "root:1,-1,1,-1,-1,-1,-1,-1:1/2:1",
    "root:1,-1,1,1,1,-1,-1,-1,-1:1/2:1",
    "root:1,-1,1,-1,-1,-1,1,-1:1/2:1",
    "root:1,-1,-1,-1,1,-1,1,1,1:3/4:1",
    "root:1,-1,-1,-1,1,-1,-1,-1,-1:1/2:1",
    "root:1,1,1,-1,-1,-1,1,-1,-1:1/2:1",
    "root:1,1,-1,-1,-1,-1,-1,1,-1:1/2:1",
    "root:1,1,-1,-1,-1,-1,-1,1:1/2:1",
    "root:1,-1,-1,1,-1,-1,1,1,1:3/4:1",
]


def test_unknown_report_digests():
    # sha256 of the maxima and minima reports, both from one parsed alpha,
    # as written before the shared algebraic root
    from takagi import landsberg

    reports = []
    for spec in UNKNOWN_POOL_ROOTS:
        alpha = cli.parse_alpha(spec)
        reports.append([cli.report_to_dict(landsberg.maxima(alpha)), cli.report_to_dict(landsberg.minima(alpha))])
    assert [r[0]["cardinality"]["kind"] for r in reports] == ["unknown"] * 10
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "244c540c06496f1c2f1bc21b55b304d32692d4b28f0364a6570b71aa3c570170"


def test_csv_format_is_for_maximize_and_minimize_only(capsys):
    for argv in (["classify", "--alpha", "1"], ["eval", "--alpha", "1", "--t", "1/3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--format", "csv"])
        assert exc.value.code == cli.EXIT_USAGE == 1, argv
        assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_maximize_csv_and_pretty_continuum(capsys):
    code, out, _ = run(capsys, "maximize", "--alpha", "1", "--format", "csv")
    assert code == 0
    third = "0." + "6" * 29 + "7"
    assert out.splitlines() == [
        "kind,smallest,largest,value_lo,value_hi,cardinality,count,dim",
        "max,1/3,5/12,%s,%s,continuum,,1/2" % (third, third),
    ]
    code, out, _ = run(capsys, "maximize", "--alpha", "1")
    assert code == 0
    assert "cardinality: continuum; perfect set, block length 2, Hausdorff dimension 1/2\n" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--alpha=-3/2", "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert (d["regime"], d["window"], d["boundary"]) == ("neg_steep", 1, False)
    assert [l["exact"] for l in d["maxima"]["locations"]] == ["19/40", "21/40"]
    assert d["alpha"] == {"type": "rational", "num": "-3", "den": "2"}


def test_figure_two_and_three_digests(tmp_path, capsys):
    # sha256 of the CSVs as written before the closed-form table
    digests = {
        "fig2_power_squared.csv": "be7fcf979182d99e744a13c676ca9cca6e2d34e034d196c3564669aa7d604a3e",
        "fig2_maximizers.csv": "94dfc3e86360b41d26d734671e6d6323b12ae3b398fe7df06b8ca2bc803cf291",
        "fig3_landsberg_graphs.csv": "6cb43ae0f3ddb5766a8242fff98def4aab4852acb80a7aa3c8970f0d815cd6fc",
    }
    for which in ("2", "3"):
        code, _, _ = run(capsys, "figure", which, "--out-dir", str(tmp_path))
        assert code == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_littlewood_and_figure_one_digests(tmp_path, capsys):
    # sha256 of four outputs as written when each root was isolated twice:
    # once by the scan and again by real_roots; the gaps as their exact ends
    # since the report reads the scan's cells
    def digest(data):
        return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()

    code, out, _ = run(capsys, "littlewood", "steproots", "--max-degree", "10")
    assert code == 0
    assert digest(out) == "a78b484e5e090135f1bb648d466baae5430c682d3655b3c1517020f6098ac352"
    code, _, _ = run(capsys, "littlewood", "scan", "--max-degree", "10", "--out", str(tmp_path / "roots.csv"))
    assert code == 0
    assert digest((tmp_path / "roots.csv").read_bytes()) == "ee18ac1f4c61127ed2732546afad15147f3b58ca90a01f182560bce801c82d8c"
    code, out, _ = run(capsys, "littlewood", "gaps", "--max-degree", "10")
    assert code == 0
    assert digest(out) == "87cc121b9a81b3cb3e206742d982c7b1f2445c5cef9f3a1fdbc210827c545919"  # exact cell ends
    code, _, _ = run(capsys, "figure", "1", "--points", "99", "--out-dir", str(tmp_path))
    assert code == 0
    assert digest((tmp_path / "fig1_maximizer_curve.csv").read_bytes()) == "14d03818374a2f00b0a70fa129228754a582cbb0892fe3d08ba9accea866f601"
