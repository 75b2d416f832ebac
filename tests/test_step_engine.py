"""Step recursions, periodicity certificates, and extremizer classification."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takagi import evaluate as ev
from takagi import oracle
from takagi import scalars as sc
from takagi import step_engine as se


def geometric(a):
    return ev.Geometric(sc._as_scalar(a))


SQRT2 = sc.algebraic([-2, 0, 1], 1, 2)
QUARTIC = sc.algebraic([1, -1, -1, -1, 1], F(1, 2), 1)
ALPHA2 = sc.algebraic([1, -1, -1], 0, 1)
X1 = sc.algebraic([1, -2, 0, 1], -2, -1)


# ---------------------------------------------------------------------------
# build_rho / build_lambda


def test_build_rho_power_squared_prefix():
    tr = se.build_rho(ev.PowerSquared(), "sharp", 32)
    assert tr.signs.take(9) == (1, -1, -1, -1, 1, -1, 1, -1, 1)
    assert tr.certified and tr.tail_zero_free
    assert ev.t_map_fraction(tr.signs) == F(11, 24)
    # the first partial sums match the worked recursion
    sums = [s.value for s in tr.partial_sums[:5]]
    assert sums == [1, F(1, 2), F(1, 18), F(-4, 9), F(44, 225)]


def test_build_rho_alpha2_period():
    tr = se.build_rho(geometric(ALPHA2), "sharp", 48)
    assert tr.signs.period is not None
    assert ev.t_map_fraction(tr.signs) == F(3, 7)
    assert tr.zero_indices and tr.zero_indices[0] == 2


def test_build_rho_zero_alpha():
    tr = se.build_rho(geometric(0), "sharp", 16)
    assert ev.t_map_fraction(tr.signs) == F(1, 2)
    assert tr.signs.take(4) == (1, -1, -1, -1)


def test_build_rho_construction_passes_check():
    rng = random.Random(31)
    for _ in range(40):
        vals = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
        c = ev.FiniteSupport(vals)
        for variant in ("sharp", "flat"):
            tr = se.build_rho(c, variant, 14)
            res = se.check_step_condition(c, tr.signs, 14)
            assert res.status == "holds", (vals, variant, res)
            lam = se.build_lambda(c, variant, 14)
            assert se.check_step_condition(c, lam.signs, 14, kind="min").status == "holds"


def test_check_step_condition_examples():
    takagi = geometric(1)
    rho = ev.SignSequence((), (0, (1, -1)))
    assert se.check_step_condition(takagi, rho, 24).status == "holds"

    half = ev.SignSequence((1,), (1, (-1,)))
    res = se.check_step_condition(geometric(F(3, 4)), half, 24)
    assert res.status == "violated"

    bad = ev.SignSequence((1, 1), (2, (-1,)))  # rho_1 * c_0 * rho_0 > 0
    res = se.check_step_condition(ev.FiniteSupport([F(1)]), bad, 8)
    assert res.status == "violated" and res.index == 1

    with pytest.raises(ValueError):
        se.check_step_condition(takagi, ev.SignSequence((1, -1)), 8)


def test_ordering_sharp_below_flat():
    rng = random.Random(13)
    for _ in range(25):
        vals = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        c = ev.FiniteSupport(vals)
        sharp = se.build_rho(c, "sharp", 16)
        flat = se.build_rho(c, "flat", 16)
        if sharp.certified and flat.certified:
            ts, tf = ev.t_map_fraction(sharp.signs), ev.t_map_fraction(flat.signs)
            assert ts <= tf
            if not sharp.zero_indices:
                assert ts == tf


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=5
    ),
    st.integers(min_value=1, max_value=10),
)
def test_negation_closure(vals, depth):
    c = ev.FiniteSupport(vals)
    tr = se.build_rho(c, "sharp", depth)
    prefix = ev.SignSequence(tr.signs.take(depth + 1))
    res = se.check_step_condition(c, prefix, depth)
    assert res.status == "holds"
    res_neg = se.check_step_condition(c, prefix.negated(), depth)
    assert res_neg.status == "holds"


# ---------------------------------------------------------------------------
# classification battery (values verified against the closed forms)


CASES = [
    # alpha, kind, smallest, largest, cardinality kind, count-or-dim, value
    (F(1), "max", F(1, 3), F(5, 12), "continuum", F(1, 2), F(2, 3)),
    (F(-1, 2), "max", F(1, 2), F(1, 2), "finite", 1, F(1, 2)),
    (F(-3, 2), "max", F(19, 40), F(19, 40), "finite", 2, F(661, 1120)),
    (F(-3, 2), "min", F(1, 5), F(1, 5), "finite", 2, F(-8, 35)),
    (F(-1), "min", F(0), F(1, 4), "continuum", F(1, 2), F(0)),
    (F(3, 2), "max", F(1, 3), F(1, 3), "finite", 2, F(4, 3)),
    (F(1, 2), "min", F(0), F(0), "finite", 2, F(0)),
]


@pytest.mark.parametrize("alpha,kind,small,large,ckind,cparam,value", CASES)
def test_classify_rational_battery(alpha, kind, small, large, ckind, cparam, value):
    r = se.classify_extrema(geometric(alpha), kind)
    assert r.smallest.exact == small
    assert r.largest.exact == large
    assert r.cardinality.kind == ckind
    if ckind == "finite":
        assert r.cardinality.count == cparam
    else:
        assert r.cardinality.hausdorff_dim == cparam
    assert r.value_lo <= value <= r.value_hi


def test_classify_power_squared():
    r = se.classify_extrema(ev.PowerSquared(), "max", 40)
    assert r.cardinality == se.Cardinality.finite(2)
    assert r.locations == (F(11, 24), F(13, 24))
    ref = F("0.592292837097556960305619870363")
    assert r.value_lo <= ref <= r.value_hi
    m = se.classify_extrema(ev.PowerSquared(), "min", 40)
    assert m.locations == (F(0), F(1))
    assert m.value_lo <= 0 <= m.value_hi


def test_classify_quartic_continuum():
    r = se.classify_extrema(geometric(QUARTIC), "max")
    assert r.smallest.exact == F(14, 31)
    assert r.largest.exact == F(451, 992)
    assert r.cardinality.kind == "continuum"
    assert r.cardinality.block_length == 5
    assert r.cardinality.hausdorff_dim == F(1, 5)
    assert r.evidence.signs.take(10) == (1, -1, -1, -1, 1, 1, -1, -1, -1, 1)


def test_classify_boundary_x1():
    r = se.classify_extrema(geometric(X1), "max")
    assert r.cardinality == se.Cardinality.finite(4)
    assert r.locations == (F(2, 5), F(19, 40), F(21, 40), F(3, 5))
    # all four locations attain the same exact value
    c = ev.Geometric(X1)
    v0 = ev.eval_periodic(c, F(2, 5))
    for t in r.locations[1:]:
        assert sc.scalar_is_zero(sc.scalar_sub(ev.eval_periodic(c, t), v0))


def test_classify_sqrt2():
    r = se.classify_extrema(geometric(SQRT2), "max")
    assert r.cardinality == se.Cardinality.finite(2)
    assert r.smallest.exact == F(1, 3)
    target = sc.scalar_div(sc.scalar_add(SQRT2, F(2)), sc.rational(3))
    lo, hi = sc.scalar_enclosure(target, F(1, 2**70))
    assert r.value_lo <= hi and lo <= r.value_hi


def test_multi_zero_enumeration():
    # c = (0, 0, 1): maximizers of tent(4t) are {1/8, 3/8, 5/8, 7/8}
    c = ev.FiniteSupport([F(0), F(0), F(1)])
    r = se.classify_extrema(c, "max", 16)
    assert r.cardinality == se.Cardinality.finite(4)
    assert r.locations == (F(1, 8), F(3, 8), F(5, 8), F(7, 8))


def test_single_zero_dyadic_collapse():
    # c = (0, 1): maximizers of tent(2t) are {1/4, 3/4}; both expansions of 1/4
    # satisfy the step condition, so 2^|Z| = 2 collapses to one point in [0,1/2]
    c = ev.FiniteSupport([F(0), F(1)])
    r = se.classify_extrema(c, "max", 16)
    assert r.cardinality == se.Cardinality.finite(2)
    assert r.locations == (F(1, 4), F(3, 4))
    assert len(r.evidence.zero_indices) == 1


def test_terminal_zero_reports_unknown():
    # f = tent + tent(2.)/2 is maximal on the whole interval [1/4, 3/4]: after
    # the support ends with a vanishing sum every continuation works, the
    # block machinery does not apply, and cardinality stays unknown
    c = ev.FiniteSupport([F(1), F(1, 2)])
    tr = se.build_rho(c, "sharp", 12)
    assert tr.zero_indices
    r = se.classify_extrema(c, "max", 12)
    assert r.cardinality.kind == "unknown"
    assert r.smallest.exact is not None  # locations still exact
    assert r.smallest.exact == F(1, 4)


def test_unknown_beyond_depth_for_generic_critical():
    r = se.classify_extrema(geometric(F(7, 10)), "max", 48)
    assert r.cardinality.kind == "unknown"
    assert r.smallest.exact is None
    assert r.smallest.error <= F(1, 2**48)
    assert r.value_hi - r.value_lo < F(1, 2**20)


def test_interval_alpha_aborts():
    # an interval alpha keeps scalar_pow's per-term enclosures, so the abort
    # index and width stay those of weight(n)
    c = geometric(sc.interval(F(54, 100), F(55, 100)))
    with pytest.raises(se.AbortUnresolved) as info:
        se.build_rho(c, "sharp", 24)
    assert (info.value.index, info.value.width) == (3, F(29811, 1000000))


# ---------------------------------------------------------------------------
# nonneg_check


def test_nonneg_examples():
    assert se.nonneg_check(geometric(-1)).status == "nonneg_certified"
    assert se.nonneg_check(geometric(F(1, 2))).status == "nonneg_certified"
    res = se.nonneg_check(geometric(F(-3, 2)))
    assert res.status == "negative_witness"
    assert res.witness == F(1, 5)
    assert se.nonneg_check(ev.FiniteSupport([F(1)])).status == "nonneg_certified"
    res = se.nonneg_check(ev.FiniteSupport([F(1), F(-2)]))
    assert res.status == "negative_witness"
    c = ev.Custom(lambda m: F(1, 2**m), lambda n: F(1, 2**n))
    assert se.nonneg_check(c, 20).status == "unknown"


def test_nonneg_grid_matches_threshold():
    for i in range(-19, 20, 2):
        alpha = F(i, 10)
        res = se.nonneg_check(geometric(alpha))
        if alpha >= -1:
            assert res.status == "nonneg_certified", alpha
        else:
            assert res.status == "negative_witness", alpha


def test_nonneg_witness_near_minus_two():
    # the witness 1/5 is an exact location (doubling period 4); its value is
    # certified in closed form, not by summing thousands of series terms
    res = se.nonneg_check(geometric(F(-199, 100)))
    assert res.status == "negative_witness"
    assert res.witness == F(1, 5)


# ---------------------------------------------------------------------------
# agreement with the dyadic-grid oracle


def test_engine_value_matches_grid_oracle():
    rng = random.Random(77)
    for _ in range(12):
        nterms = rng.randint(1, 5)
        vals = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nterms)]
        if all(v == 0 for v in vals):
            vals[0] = F(1)
        c = ev.FiniteSupport(vals)
        report = se.classify_extrema(c, "max", 12)
        n = 10
        best = max(
            oracle.f_truncated(vals, n, d.to_fraction()) for d in oracle.grid_argmax(vals, n)
        )
        assert report.value_lo - F(1, 2**40) <= best <= report.value_hi + F(1, 2**40)
        if report.smallest.exact is not None:
            assert oracle.f_truncated(vals, n, report.smallest.exact) == best


def test_algebraic_recursion_takes_one_product_per_weight(monkeypatch):
    calls = []
    vec_mul = sc._vec_mul

    def counted(*args):
        calls.append(args)
        return vec_mul(*args)

    monkeypatch.setattr(sc, "_vec_mul", counted)
    se.classify_extrema(geometric(QUARTIC), "max", 48)
    assert len(calls) <= 4 * 48
