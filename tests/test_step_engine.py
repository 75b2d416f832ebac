"""Step recursions, periodicity certificates, and extremizer classification."""

import random
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from takagi import evaluate as ev
from takagi import landsberg as lb
from takagi import littlewood as lw
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


NEAR_HALF = sc.interval(F(1, 2) - F(1, 10**60), F(1, 2) + F(1, 10**60))
NEAR_MINUS_3_2 = sc.interval(F(-3, 2) - F(1, 10**9), F(-3, 2) + F(1, 10**9))


def _refinable_half(bits: int):
    return F(1, 2) - F(1, 2**bits), F(1, 2) + F(1, 2**bits)


@pytest.mark.parametrize(
    "alpha", [NEAR_HALF, sc.interval(*_refinable_half(20), _refinable_half)], ids=["narrow", "refinable"]
)
def test_interval_alpha_sums_are_flat_bounds(alpha):
    # an interval sum is enclosed once and keeps no refinement hook, so a
    # sign query never re-walks the weights; the phase limits at alpha = 1/2
    # are exactly 0 and straddle at every width
    tr = se.build_rho(geometric(alpha), "sharp", 40)
    assert tr.partial_sums[0] == sc.RationalScalar(F(1))
    assert len(tr.partial_sums) == 41
    for s in tr.partial_sums[1:]:
        assert isinstance(s, sc.IntervalScalar) and s.refine_fn is None


def test_interval_first_coefficient_aborts():
    # S_1 = c_0 - 1 straddles 0: the coefficients are too coarse to decide
    c = ev.FiniteSupport([sc.interval(F(99, 100), F(101, 100)), F(1, 2), F(1, 4)])
    with pytest.raises(se.AbortUnresolved) as info:
        se.build_rho(c, "sharp", 8)
    assert (info.value.index, info.value.width) == (1, F(1, 50))


def test_interval_alpha_extrema_at_exact_locations():
    # alpha = -3/2 +- 10^-9: the recursion certifies the exact locations of
    # alpha = -3/2, and their values are series enclosures, not closed forms
    c = geometric(NEAR_MINUS_3_2)
    width = F(1, 10**6)
    r = se.classify_extrema(c, "max", value_width=width)
    assert r.locations == (F(19, 40), F(21, 40))
    exact = ev.eval_periodic(geometric(F(-3, 2)), F(19, 40)).value
    assert r.value_lo <= exact <= r.value_hi
    r = se.classify_extrema(c, "min", value_width=width)
    assert r.locations == (F(1, 5), F(4, 5))
    assert r.value_lo <= F(-8, 35) <= r.value_hi
    res = se.nonneg_check(c)
    assert (res.status, res.witness) == ("negative_witness", F(1, 5))
    # the default 10^-15 is narrower than alpha's own interval allows
    with pytest.raises(sc.PrecisionError):
        se.classify_extrema(c, "max")


def test_interval_alpha_signs_pass_the_step_check():
    c = geometric(NEAR_MINUS_3_2)
    tr = se.build_rho(c, "sharp", 64)
    assert tr.certified
    assert se.check_step_condition(c, tr.signs, 64) == se.StepCheckResult("holds")


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


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_nonneg_uncertified_witness_is_unknown(k):
    # just below -1 the depth-8 min trace is not yet periodic: its dyadic
    # location is too coarse to certify f < 0, which is an exhausted budget,
    # not an error; depth 16 finds the exact witness 1/5
    alpha = -1 - F(1, 2**k)
    assert se.nonneg_check(geometric(alpha), 8) == se.NonnegResult("unknown", None, 8)
    assert se.nonneg_check(geometric(alpha), 16) == se.NonnegResult("negative_witness", F(1, 5), 16)


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
    reduce_int = sc._reduce_int

    def counted(*args):
        calls.append(args)
        return reduce_int(*args)

    monkeypatch.setattr(sc, "_reduce_int", counted)
    se.classify_extrema(geometric(QUARTIC), "max", 48)
    assert len(calls) <= 4 * 48


# ---------------------------------------------------------------------------
# the integer recursion of a Geometric sequence against Scalar arithmetic


def _forced_run(c, kind, tie, depth, overrides):
    """The recursion over `se._partial_sums` with the choice at each n in `overrides`
    forced: (choices, sums, signs, the n whose S_{n-1} vanishes)."""
    sums = se._partial_sums(c)
    rho, sgn, zeros = [1], [], []
    for n in range(1, depth + 1):
        s = sums.sign(n - 1)
        sgn.append(s)
        if s == 0:
            zeros.append(n)
        choice = overrides.get(n, se._decide(kind, tie, s))
        rho.append(choice)
        sums.push(choice)
    sgn.append(sums.sign(depth))
    return rho, sums, sgn, zeros


def _scalar_run(c, kind, tie, depth, overrides):
    """The recursion with every partial sum a Scalar, the reference for `_PrefixSums`."""
    weights = c.weights()
    rho, sums, sgn, zeros = [1], [next(weights)], [], []
    for n in range(1, depth + 1):
        s = sc.scalar_sign(sums[-1]).sign
        sgn.append(s)
        if s == 0:
            zeros.append(n)
        choice = overrides.get(n, se._decide(kind, tie, s))
        rho.append(choice)
        sums.append(sc.scalar_add(sums[-1], sc.scalar_mul(next(weights), choice)))
    sgn.append(sc.scalar_sign(sums[-1]).sign)
    return rho, sums, sgn, zeros


def _scalar_certify_geometric(alpha, weights, rho, sums, sgn, depth):
    """The geometric certificate in Scalars: every start of every period, alpha^p built."""
    alpha_neg = sc.scalar_sign(alpha).sign < 0
    s_lo = sc.scalar_sign(sc.scalar_add(alpha, F(1))).sign
    s_hi = sc.scalar_sign(sc.scalar_sub(alpha, F(1))).sign
    abs_lt_1 = s_lo > 0 and s_hi < 0
    for p, alpha_p in zip(range(1, (depth + 1) // 3 + 1), weights[1:]):
        if alpha_neg and p % 2:
            continue
        one_minus = sc.scalar_sub(F(1), alpha_p)
        for start in range(0, depth - 3 * p + 2):
            if any(rho[k + p] != rho[k] for k in range(start, depth - p + 1)):
                continue
            lo_anchor = max(start - 1, 0)
            if any(sgn[k + p] != sgn[k] for k in range(lo_anchor, depth - p + 1)):
                continue
            zero_phases, reasons = [], []
            for r in range(p):
                i = depth - p - ((depth - p - (lo_anchor + r)) % p)
                d = sc.scalar_sub(sums[i + p], sums[i])
                sd, si = sc.scalar_sign(d).sign, sgn[i]
                if sd == 0:
                    if si == 0:
                        zero_phases.append(r)
                    reasons.append("phase %d: increment zero, sum persists" % r)
                elif si != 0 and sd == si:
                    reasons.append("phase %d: reinforcing increments" % r)
                elif si != 0 and abs_lt_1 and sc.scalar_sign(
                    sc.scalar_add(sc.scalar_mul(sums[i], one_minus), d)
                ).sign in (si, 0):
                    reasons.append("phase %d: dominated opposing increments" % r)
                else:
                    break
            else:
                cert = se.PeriodCertificate(start, p, tuple(sorted(zero_phases)), tuple(reasons))
                return cert, tuple(rho[start : start + p])
    return None


LITTLEWOOD_ROOTS = [
    r
    for degree in range(1, 7)
    for mask in range(1 << degree)
    for r in lw.real_roots(lw.LittlewoodPoly.from_mask(degree, mask))
]
NON_MONIC = sc.algebraic([-1, 0, 3], 0, 1)  # 1/sqrt(3)
NON_BASE = sc.scalar_sub(SQRT2, F(1, 2))  # value (-1/2, 1) over the root sqrt(2)
UNREDUCED = sc.scalar_add(sc.scalar_sub(SQRT2, SQRT2), F(3, 4))  # value (3/4, 0)
NEGATIVE_LEAD = sc.scalar_mul(sc.algebraic([1, 0, -3], 0, 1), F(-5, 3))  # over 1 - 3x^2


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.fractions(min_value=F(-79, 40), max_value=F(79, 40), max_denominator=40).map(sc.rational),
        st.sampled_from(LITTLEWOOD_ROOTS),
        st.just(NON_MONIC),
        st.sampled_from([NON_BASE, UNREDUCED, NEGATIVE_LEAD]),
    ),
    st.sampled_from(["max", "min"]),
    st.sampled_from(["sharp", "flat"]),
    st.integers(min_value=1, max_value=36),
    st.dictionaries(st.integers(min_value=1, max_value=36), st.sampled_from([1, -1]), max_size=2),
)
@example(X1, "max", "sharp", 30, {})  # a zero that does not recur: the sign period starts late
@example(UNREDUCED, "min", "flat", 8, {})
def test_integer_recursion_matches_scalar_sums(alpha, kind, tie, depth, overrides):
    c = ev.Geometric(alpha)
    rho, sums, sgn, zeros = _forced_run(c, kind, tie, depth, overrides)
    ref_rho, ref_sums, ref_sgn, ref_zeros = _scalar_run(c, kind, tie, depth, overrides)
    assert (rho, sgn, zeros) == (ref_rho, ref_sgn, ref_zeros)
    assert list(sums) == ref_sums
    assert se._certify_geometric(c, rho, sums, sgn, depth) == _scalar_certify_geometric(
        c.alpha, list(islice(c.weights(), depth + 1)), rho, ref_sums, sgn, depth
    )
    rho, sums, sgn = se._run(c, kind, tie, depth)
    ref_rho, ref_sums, ref_sgn, ref_zeros = _scalar_run(c, kind, tie, depth, {})
    zeros = [n for n in range(1, depth + 1) if sgn[n - 1] == 0]
    assert (rho, sgn, zeros) == (ref_rho, ref_sgn, ref_zeros)
    assert list(sums) == ref_sums


def test_geometric_run_takes_one_product_per_term_and_no_scalar_sign(monkeypatch):
    for alpha, depth in ((QUARTIC, 48), (X1, 64), (NON_MONIC, 64), (F(1234, 1999), 64), (F(-19, 10), 512)):
        c = geometric(alpha)
        products, scalar_signs = [], []
        reduce_int = sc._reduce_int

        def counted(*args):
            products.append(args)
            return reduce_int(*args)

        def no_sign(*args):
            scalar_signs.append(args)
            raise AssertionError("scalar_sign called")

        with monkeypatch.context() as m:
            m.setattr(sc, "_reduce_int", counted)
            m.setattr(sc, "scalar_sign", no_sign)
            m.setattr(se, "scalar_sign", no_sign)
            rho, sums, sgn = se._run(c, "max", "sharp", depth)
        assert len(rho) == len(sgn) == depth + 1
        assert len(products) <= depth + 1
        assert not scalar_signs


# ---------------------------------------------------------------------------
# certificate and classification branches the batteries above do not reach


def _increasing(head):
    """c_0 = head and c_m = m/2^m: the weights 1, 2, 3, ... increase from m = 1."""
    return ev.Custom(lambda m: F(head if m == 0 else m, 2**m), lambda n: F(n + 2, 2**n), increasing_from=1)


def test_alternating_certificate_passes_zero_and_wide_sums():
    # S = 10, 9, 7, 4, 0, 5, -1, ...: |S_1..S_3| >= the next weight, S_4 = 0,
    # and the envelope certifies from S_5 = 5 < w_6
    tr = se.build_rho(_increasing(10), "sharp", 16)
    assert tr.certificate == se.PeriodCertificate(6, 2, (), ("alternating envelope: increasing weights",))
    assert tr.zero_indices == (4,) and ev.t_map_fraction(tr.signs) == F(23, 48)
    report = se.classify_extrema(_increasing(10), "max", 16)
    assert report.locations == (F(23, 48), F(47, 96), F(49, 96), F(25, 48))
    # S_n = 100 - n(n+1)/2 stays above the next weight through depth 6
    tr = se.build_rho(_increasing(100), "sharp", 6)
    assert tr.certificate is None and tr.signs.prefix == (1, -1, -1, -1, -1, -1, -1)


def test_enumeration_gives_up_past_the_cap():
    # unit weights: S = 1, 0, 1, 0, ... with a fork at each of 13 zeros
    c = ev.FiniteSupport([F(1, 2**m) for m in range(27)])
    sharp = se.build_rho(c, "sharp", 30)
    assert sharp.tail_zero_free and len(sharp.zero_indices) == se.ENUMERATION_CAP + 1
    assert se.classify_extrema(c, "max", 30).cardinality == se.Cardinality.unknown(30)


def test_a_leaf_off_the_constant_tail_is_uncertified():
    # S_1 = 0 at the end of the support: the leaf that chooses -1 there breaks
    # the constant tail the tie rule gives, so no certificate and no enumeration
    c = ev.FiniteSupport([1, F(1, 2)])
    for choice, certified in ((1, True), (-1, False)):
        rho, _, sgn, _ = _forced_run(c, "max", "sharp", 2, {2: choice})
        assert (se._certify_finite_support(c, "max", "sharp", rho, sgn, 2) is not None) == certified
    assert se.classify_extrema(c, "max", 2).cardinality == se.Cardinality.unknown(2)


def _dfs_half_points(c, kind, depth):
    """T of every step sequence by forking the sharp recursion at each vanishing
    sum and certifying each leaf run; None when a leaf is uncertified or has a
    zero tail, or past ENUMERATION_CAP forks."""
    points, stack = [], [{}]
    while stack:
        overrides = stack.pop()
        rho, sums, sgn, zeros = _forced_run(c, kind, "sharp", depth, overrides)
        pending = [n for n in zeros if n not in overrides]
        if pending:
            if len(overrides) >= se.ENUMERATION_CAP:
                return None
            stack += [{**overrides, pending[0]: choice} for choice in (1, -1)]
            continue
        got = se._certify(c, kind, "sharp", rho, sums, sgn, depth)
        if got is None or got[0].zero_phases:
            return None
        cert, block = got
        points.append(ev.t_map_fraction(ev.SignSequence(tuple(rho), (cert.start, block))))
    return points


def _assert_half_points_match_the_forks(c, kind, depth):
    sharp = se._build_trace(c, kind, "sharp", depth)
    if not (sharp.certified and sharp.tail_zero_free):
        return False
    points, want = se._half_points(sharp), _dfs_half_points(c, kind, depth)
    assert (sorted(points) if points is not None else None) == (sorted(want) if want is not None else None)
    if want is not None:
        unit = sorted(set(want) | {1 - t for t in want})
        assert se.classify_extrema(c, kind, depth).locations == tuple(unit)
    return True


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([1, -1]), min_size=2, max_size=25),
    st.sampled_from(["max", "min"]),
    st.integers(min_value=8, max_value=30),
)
@example([1] * 25, "max", 30)  # 12 zeros: 4,096 leaves
@example([-1] * 27, "min", 30)  # 13 zeros: past the cap
@example([1, -1, 1, 1, -1, 1, 1, 1, -1, -1, 1, 1, 1, 1, 1], "max", 20)
def test_half_points_match_the_forked_runs_with_ties(signs, kind, depth):
    # weights +-1: integer partial sums that vanish often, up to 12 times
    c = ev.FiniteSupport([F(s, 2**m) for m, s in enumerate(signs)])
    _assert_half_points_match_the_forks(c, kind, max(depth, len(signs)))


@pytest.mark.parametrize("n", range(1, 7))
def test_half_points_match_the_forked_runs_at_x_n(n):
    # the four maximizers at alpha = x_n come from one zero
    report = lb.maxima(lb.solve_xn(n).root)
    sharp = report.evidence
    assert len(sharp.zero_indices) == 1 and report.cardinality == se.Cardinality.finite(4)
    assert _assert_half_points_match_the_forks(ev.Geometric(lb.solve_xn(n).root), "max", sharp.depth)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-60, max_value=60), st.sampled_from(["max", "min"]), st.integers(8, 30))
def test_half_points_match_the_forked_runs_on_increasing_weights(head, kind, depth):
    _assert_half_points_match_the_forks(_increasing(head), kind, depth)


def test_twelve_zeros_take_two_runs(monkeypatch):
    # unit weights: S = 1, 0, 1, 0, ... with 12 zeros, 2^12 step sequences
    # from the sharp and flat runs alone (forking at each zero takes 8,193)
    calls = []
    partial_sums = se._partial_sums

    def counted(c):
        calls.append(c)
        return partial_sums(c)

    monkeypatch.setattr(se, "_partial_sums", counted)
    r = se.classify_extrema(ev.FiniteSupport([F(1, 2**m) for m in range(25)]), "max", 30)
    assert len(r.evidence.zero_indices) == se.ENUMERATION_CAP
    assert r.cardinality == se.Cardinality.finite(4096) and len(r.locations) == 4096
    assert len(calls) == 2


@pytest.mark.parametrize(
    "values, depth, zeros",
    [
        (["-1", "-1/2"], 6, (1, 2, 3, 4, 5, 6)),  # the choices are not block periodic
        (["1", "-1/2", "0", "0"], 6, (1, 2, 3, 4, 5, 6)),  # two blocks do not fit past the start
        (["1", "-1/2", "0", "0"], 10, tuple(range(1, 11))),  # zeros off the block grid
    ],
)
def test_vanishing_tail_off_a_block_recurrence_is_unknown(values, depth, zeros):
    report = se.classify_extrema(ev.FiniteSupport([F(v) for v in values]), "min", depth)
    assert report.evidence.tail_zero_free is False and report.evidence.zero_indices == zeros
    assert se._structured_continuum(report.evidence) is None
    assert report.cardinality == se.Cardinality.unknown(depth)


def test_structured_continuum_needs_a_vanishing_tail():
    assert se._structured_continuum(se.build_rho(ev.PowerSquared(), "sharp", 32)) is None


def test_negative_witness_narrows_until_the_value_is_negative():
    # alpha = -sqrt(1 + 2^-30): the minimum at 1/5 is about -2^-32.9, inside
    # the first enclosure width 2^-24
    c = geometric(sc.algebraic([-(2**30 + 1), 0, 2**30], -2, -1))
    loc = se.Location.from_trace(se._build_trace(c, "min", "sharp", 24))
    lo, hi = se._extremum_value(c, "min", loc, F(1, 2**24))
    assert loc.exact == F(1, 5) and lo < 0 <= hi
    assert se.nonneg_check(c, 24) == se.NonnegResult("negative_witness", F(1, 5), 24)


@pytest.mark.parametrize("alpha", [F(1, 2), ALPHA2])
def test_geometric_partial_sums_slice(alpha):
    tr = se.build_rho(geometric(alpha), "sharp", 8)
    sums = tr.partial_sums
    assert sums[1:8:3] == (sums[1], sums[4], sums[7])
    assert sums[-2:] == (sums[7], sums[8])
    total = sc.rational(0)
    for m, s in enumerate(sums[:]):
        total = sc.scalar_add(total, sc.scalar_mul(sc.scalar_pow(alpha, m), tr.signs[m]))
        assert sc.scalar_eq(s, total)


def test_tie_rule_is_sharp_or_flat():
    for build in (se.build_rho, se.build_lambda):
        with pytest.raises(ValueError, match="variant must be 'sharp' or 'flat'"):
            build(ev.PowerSquared(), "round", 8)
