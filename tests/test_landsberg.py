"""Regime classification, closed forms, root solvers, and the C(alpha) curve."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from takagi import cli
from takagi import evaluate as ev
from takagi import landsberg as lb
from takagi import scalars as sc

SQRT2 = sc.algebraic([-2, 0, 1], 1, 2)
QUARTIC = sc.algebraic([1, -1, -1, -1, 1], F(1, 2), 1)


def dec(x, digits=12):
    return sc.scalar_decimal(x, digits)


# ---------------------------------------------------------------------------
# root solvers


def test_solve_xn_values():
    # x_1 is the negated golden ratio; the rest match the printed 5-decimal values
    x1 = lb.solve_xn(1).root
    neg_golden = sc.algebraic([-1, 1, 1], -2, -1)  # root of p(-x) for p = x^2-x-1
    assert sc.same_root(x1, neg_golden)
    printed = {2: "-1.29065", 3: "-1.19004", 4: "-1.14118", 5: "-1.11231"}
    for n, text in printed.items():
        approx = dec(lb.solve_xn(n).root, 6)
        assert approx.startswith(text), (n, approx)


def test_solve_xn_monotone_in_window():
    roots = [lb.solve_xn(n).root for n in range(1, 9)]
    for a, b in zip(roots, roots[1:]):
        assert sc.scalar_sign(sc.scalar_sub(b, a)).sign == 1
        assert sc.scalar_sign(sc.scalar_add(b, 1)).sign == -1
        assert sc.scalar_sign(sc.scalar_add(a, 2)).sign == 1


def test_solve_alpha_n():
    assert lb.solve_alpha_n(1) == sc.RationalScalar(F(1))
    a2 = lb.solve_alpha_n(2)
    assert dec(a2).startswith("0.61803398875")
    assert sc.scalar_sign(sc.eval_int_poly([1, -1, -1], a2)).sign == 0
    a3, a4 = lb.solve_alpha_n(3), lb.solve_alpha_n(4)
    assert sc.scalar_sign(sc.scalar_sub(a3, a2)).sign == -1
    assert sc.scalar_sign(sc.scalar_sub(a4, a3)).sign == -1


# ---------------------------------------------------------------------------
# regime classification


def test_classify_alpha_regimes():
    assert lb.classify_alpha(F(-3, 2)) == lb.AlphaRegime(lb.NEG_STEEP, 1)
    assert lb.classify_alpha(F(-199, 100)) == lb.AlphaRegime(lb.NEG_STEEP, 0)
    assert lb.classify_alpha(F(-1)).variant == lb.MIDDLE
    assert lb.classify_alpha(F(1, 2)).variant == lb.MIDDLE
    assert lb.classify_alpha(F(3, 4)).variant == lb.CRITICAL
    assert lb.classify_alpha(F(1)).variant == lb.CRITICAL
    assert lb.classify_alpha(SQRT2).variant == lb.POS_STEEP
    with pytest.raises(ev.DomainError):
        lb.classify_alpha(F(2))
    with pytest.raises(ev.DomainError):
        lb.classify_alpha(F(-2))


def test_classify_alpha_boundary_exact():
    x2 = lb.solve_xn(2).root
    regime = lb.classify_alpha(x2)
    assert regime == lb.AlphaRegime(lb.NEG_STEEP, 2, boundary=True)


def test_classify_alpha_unresolved_interval():
    close = sc.interval(F(-13, 10), F(-129, 100))  # straddles x_2
    with pytest.raises(sc.PrecisionError):
        lb.classify_alpha(close)


@pytest.mark.parametrize("lo, hi, what", [(F(199, 100), F(201, 100), "2 - alpha"), (F(-201, 100), F(-199, 100), "alpha + 2")])
def test_alpha_straddling_an_end_is_unresolved(lo, hi, what):
    # the same undecided sign is the same PrecisionError in Geometric and classify_alpha
    message = "%s unresolved (width 1/50)" % what
    for build in (ev.Geometric, lb.classify_alpha):
        with pytest.raises(sc.PrecisionError, match=r"^%s$" % re.escape(message)):
            build(sc.interval(lo, hi))
    with pytest.raises(ev.DomainError, match="alpha must"):
        ev.Geometric(F(7, 2) if lo > 0 else F(-7, 2))



def test_steep_interval_alpha_gets_a_report():
    # the closed-form check divides by an interval: 1/(3(2 - alpha)) and the
    # neg_steep value take interval reciprocals
    for alpha, locations in ((F(-3, 2), (F(19, 40), F(21, 40))), (F(3, 2), (F(1, 3), F(2, 3)))):
        r = lb.maxima(sc.interval(alpha - F(1, 10**40), alpha + F(1, 10**40)))
        assert r.locations == locations and r.cardinality.count == 2


def test_interval_alpha_without_a_decided_answer_is_unresolved():
    # at 1/4 +- 10^-15 the engine leaves the cardinality unknown; at
    # -7/4 +- 10^-15 the value cannot be enclosed to the report's width
    near = sc.interval(F(1, 4) - F(1, 10**15), F(1, 4) + F(1, 10**15))
    for extrema in (lb.maxima, lb.minima):
        with pytest.raises(sc.PrecisionError):
            extrema(near)
    with pytest.raises(sc.PrecisionError):
        lb.maxima(sc.interval(F(-7, 4) - F(1, 10**15), F(-7, 4) + F(1, 10**15)))


def _linear_classify_n(alpha):
    """(n, boundary) by trying k = 1, 2, ... in turn: the reference for the search."""
    n, k = 0, 1
    while True:
        s = sc.scalar_sign(sc.eval_int_poly(lb.q_poly(k), alpha)).sign
        if s < 0:
            return n, False
        if s == 0:
            return k, True
        n, k = k, k + 1


def test_classify_alpha_below_minus_one_matches_linear_search():
    for alpha in (F(-1001, 1000), F(-3, 2), F(-199, 100), F(-11, 10), F(-201, 200)):
        regime = lb.classify_alpha(alpha)
        assert (regime.n, regime.boundary) == _linear_classify_n(alpha), alpha


def test_classify_alpha_near_minus_one_takes_logarithmically_many_q_signs(monkeypatch):
    alpha = F(-100025, 100000)
    calls = []
    q_sign = lb._q_sign

    def counted(a, k):
        calls.append(k)
        return q_sign(a, k)

    monkeypatch.setattr(lb, "_q_sign", counted)
    regime = lb.classify_alpha(alpha)
    n = regime.n
    assert regime.variant == lb.NEG_STEEP and not regime.boundary

    def q(k):
        return 1 - 2 * alpha + alpha ** (2 * k + 1)

    assert q(n) >= 0 > q(n + 1)
    assert n > 1000 and len(calls) <= 2 * math.log2(n) + 2


def test_classify_alpha_boundary_at_every_small_xn():
    for n in range(1, 7):
        assert lb.classify_alpha(lb.solve_xn(n).root) == lb.AlphaRegime(lb.NEG_STEEP, n, boundary=True)


# ---------------------------------------------------------------------------
# maxima


def test_maxima_neg_steep_interior():
    r = lb.maxima(F(-3, 2))
    assert r.locations == (F(19, 40), F(21, 40))
    assert r.value_lo == r.value_hi == F(661, 1120)
    direct = ev.eval_periodic(ev.Geometric(sc.rational(F(-3, 2))), F(19, 40))
    assert direct.value == F(661, 1120)


def test_maxima_closed_form_vs_printed_form():
    """The published one-line maximum uses a minus sign that its own proof
    does not support; direct orbit evaluation certifies the plus sign."""
    alpha = F(-9, 5)
    n = 0  # -1.8 lies in the outermost window

    def derivation_form(a):  # resolved reading: correction added
        num = 3 * a ** (2 * n + 3) + a**3 - 4 * a
        den = (1 - a) * (a**2 - 4)
        return lb.t_location(n) + F(1, 10 * 4**n) * num / den

    def printed_form(a):  # the minus-sign reading, kept for the record
        num = 3 * a ** (2 * n + 3) + a**3 - 4 * a
        den = (1 - a) * (a**2 - 4)
        return lb.t_location(n) - F(1, 10 * 4**n) * num / den

    direct = ev.eval_periodic(ev.Geometric(sc.rational(alpha)), F(2, 5)).value
    assert direct == derivation_form(alpha) == F(22, 19)
    assert printed_form(alpha) != direct
    assert printed_form(alpha) < 0  # visibly impossible for a maximum
    lib = lb.negsteep_max_value(sc.rational(alpha), n)
    assert lib.value == direct


def test_maxima_boundary_four_locations():
    x1 = lb.solve_xn(1).root
    r = lb.maxima(x1)
    assert r.cardinality.count == 4
    assert r.locations == (F(2, 5), F(19, 40), F(21, 40), F(3, 5))


def test_maxima_middle_and_pos_steep():
    r = lb.maxima(F(-1, 2))
    assert r.locations == (F(1, 2),) and r.value_lo == r.value_hi == F(1, 2)
    r = lb.maxima(SQRT2)
    assert r.locations == (F(1, 3), F(2, 3))
    target = sc.scalar_div(sc.scalar_add(SQRT2, F(2)), sc.rational(3))
    lo, hi = sc.scalar_enclosure(target, F(1, 10**13))
    assert r.value_lo <= hi and lo <= r.value_hi


def test_maxima_critical_quartic():
    r = lb.maxima(QUARTIC)
    assert r.smallest.exact == F(14, 31)
    assert r.largest.exact == F(451, 992)
    assert r.cardinality.hausdorff_dim == F(1, 5)


def test_maxima_deep_window_closed_form():
    r = lb.maxima(F(-101, 100))
    assert r.cardinality.count == 2
    n = lb.classify_alpha(F(-101, 100)).n
    assert r.smallest.exact == lb.t_location(n)
    direct = ev.eval_periodic(ev.Geometric(sc.rational(F(-101, 100))), r.smallest.exact)
    assert r.value_lo <= direct.value <= r.value_hi


def test_beyond_cap_report_matches_the_engine(monkeypatch):
    # past the engine's depth cap the report is the closed form; forced
    # through the engine it must agree in every field but the depth
    for alpha, n in ((F(-501, 500), 274), (F(-1001, 1000), 549)):
        assert lb.classify_alpha(alpha).n == n and 2 * n + 18 > lb._ENGINE_DEPTH_CAP
        closed = cli.report_to_dict(lb.maxima(alpha))
        with monkeypatch.context() as m:
            m.setattr(lb, "_ENGINE_DEPTH_CAP", 10**6)
            engine = cli.report_to_dict(lb.maxima(alpha))
        assert (closed.pop("depth"), engine.pop("depth")) == (64, 2 * n + 18)
        assert closed == engine


def test_engine_reports_are_checked_against_the_table(monkeypatch):
    # a wrong closed-form value or pair must raise, at a boundary x_n too
    cases = ((lb.solve_xn(1).root, lb.maxima), (F(-3, 2), lb.minima), (F(3, 2), lb.maxima), (F(-1, 2), lb.minima))
    value, table = lb.extremum_value, lb.extremizers
    with monkeypatch.context() as m:
        m.setattr(lb, "extremum_value", lambda *a: sc.scalar_add(value(*a), F(1, 10**6)))
        for alpha, extrema in cases:
            with pytest.raises(AssertionError, match="value"):
                extrema(alpha)
    # at x_1 the pair swapped still has the right locations
    monkeypatch.setattr(lb, "extremizers", lambda *a: (lambda s, l, card: (l, s, card))(*table(*a)))
    with pytest.raises(AssertionError, match="extremizers"):
        lb.maxima(cases[0][0])


def test_maxima_values_exceed_half_in_negative_regime():
    for alpha in (F(-19, 10), F(-3, 2), F(-13, 10), F(-11, 10)):
        r = lb.maxima(alpha)
        assert r.value_lo > F(1, 2)


# ---------------------------------------------------------------------------
# minima


def test_minima_cases():
    r = lb.minima(F(-3, 2))
    assert r.locations == (F(1, 5), F(4, 5))
    assert r.value_lo == r.value_hi == F(-8, 35)
    r = lb.minima(F(-1))
    assert r.cardinality.kind == "continuum"
    assert r.cardinality.hausdorff_dim == F(1, 2)
    assert r.value_lo <= 0 <= r.value_hi
    for alpha in (F(-1, 2), F(1), SQRT2):
        r = lb.minima(alpha)
        assert r.locations == (F(0), F(1))
        assert r.value_lo == r.value_hi == 0


def test_minima_value_formula():
    v = lb.minima_value_neg(sc.rational(F(-3, 2)))
    assert v.value == F(-8, 35)


# ---------------------------------------------------------------------------
# tabor C


def test_tabor_c_special_and_domain():
    c1 = lb.tabor_C(sc.rational(1))
    assert (c1.lo, c1.hi) == (F(2, 3), F(2, 3))
    with pytest.raises(ev.DomainError):
        lb.tabor_C(sc.rational(F(1, 2)))
    with pytest.raises(ev.DomainError):
        lb.tabor_C(SQRT2)


def test_tabor_c_matches_maximum_at_alpha_n():
    for n in (2, 3):
        a = lb.solve_alpha_n(n)
        cv = lb.tabor_C(a, F(1, 10**10))
        r = lb.maxima(a)
        assert not (cv.hi < r.value_lo or r.value_hi < cv.lo), n


def _mpmath_tabor(alpha, prec=200):
    """C(alpha) in mpmath.iv at `prec` bits, as exact Fraction endpoints."""
    import mpmath

    def frac(mpf):
        sign, man, exp, _ = mpf
        v = F(man) * F(2) ** exp
        return -v if sign else v

    lo, hi = sc.scalar_enclosure(alpha, F(1, 2 ** (prec + 8)))
    old = mpmath.iv.prec
    try:
        mpmath.iv.prec = prec
        a = mpmath.iv.mpf([mpmath.iv.mpf(lo.numerator) / lo.denominator, mpmath.iv.mpf(hi.numerator) / hi.denominator])
        a = mpmath.iv.mpf([a.a, a.b])
        log2a = mpmath.iv.log(a) / mpmath.iv.log(2)
        c = 1 / (2 - 2 * mpmath.iv.exp((log2a - 1) / log2a * mpmath.iv.log(2 * a - 1)))
        return frac(c._mpi_[0]), frac(c._mpi_[1])
    finally:
        mpmath.iv.prec = old


def test_tabor_c_overlaps_mpmath_interval():
    # the decimal enclosure at 10^-30 against mpmath's interval log/exp
    alphas = [lb.solve_alpha_n(n) for n in range(2, 9)]
    alphas += [QUARTIC, sc.rational(F(51, 100)), sc.rational(F(3, 4)), sc.rational(F(99, 100))]
    for alpha in alphas:
        cv = lb.tabor_C(alpha, F(1, 10**30))
        assert cv.hi - cv.lo <= F(1, 10**30)
        lo, hi = _mpmath_tabor(alpha)
        assert hi - lo < F(1, 10**40)
        assert lo <= cv.hi and cv.lo <= hi, alpha


def test_tabor_c_and_maxima_without_mpmath():
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from fractions import Fraction as F\n"
        "import takagi\n"
        "q = takagi.algebraic([1, -1, -1, -1, 1], F(1, 2), 1)\n"
        "c = takagi.tabor_C(q, F(1, 10**20))\n"
        "assert F(508008, 10**6) - F(1, 10**6) < c.lo <= c.hi < F(508008, 10**6) + F(1, 10**6)\n"
        "assert takagi.maxima(q).cardinality.kind == 'continuum'\n"
        "assert 'mpmath' not in [m.split('.')[0] for m in sys.modules if sys.modules[m] is not None]\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_tabor_c_differs_from_maximum_at_quartic():
    cv = lb.tabor_C(QUARTIC, F(1, 10**8))
    assert abs((cv.lo + cv.hi) / 2 - F("0.508008")) < F(1, 10**6)
    r = lb.maxima(QUARTIC)
    assert cv.hi < r.value_lo  # enclosures disjoint: C(alpha) underestimates


# ---------------------------------------------------------------------------
# tau curve


def test_tau_points():
    assert lb.tau_point(F(-19, 10)).sharp == F(2, 5)
    assert lb.tau_point(F(0)).sharp == F(1, 2)
    assert lb.tau_point(F(3, 2)).sharp == F(1, 3)
    x1 = lb.solve_xn(1).root
    tp = lb.tau_point(x1)
    assert (tp.sharp, tp.flat) == (F(2, 5), F(19, 40))
    tp = lb.tau_point(F(7, 10))
    assert not tp.exact and abs(tp.sharp - tp.flat) < F(1, 2**40)


def test_tau_curve_grid_and_uniqueness_regions():
    grid = [F(-3, 2), F(-1, 2), F(0), F(1, 4), F(6, 5), F(19, 10)]
    points = lb.tau_curve(grid)
    assert len(points) == 6
    for tp in points:
        if tp.regime in (lb.MIDDLE, lb.POS_STEEP, lb.NEG_STEEP):
            assert tp.sharp == tp.flat  # unique maximizer off the critical zone


def test_default_grid():
    g = lb.default_grid(1999)
    assert len(g) == 1999
    assert g[0] > -2 and g[-1] < 2
    assert g[999] == 0


def test_grid_maxima_dominate_samples():
    # sampled global-maximum property: the reported value enclosure contains
    # the orbit evaluation at each reported maximizer and dominates random
    # evaluations elsewhere
    import random

    rng = random.Random(99)
    grid = [F(-39, 20) + F(i, 7) for i in range(27)]  # 27 rationals across (-2,2)
    for alpha in grid:
        if not (-2 < alpha < 2):
            continue
        c = ev.Geometric(sc.rational(alpha))
        r = lb.maxima(alpha, depth=48)
        locs = r.locations or (
            r.smallest.exact if r.smallest.exact is not None else r.smallest.approx,
        )
        for t in locs:
            lo, hi = sc.scalar_enclosure(ev.eval_periodic(c, t), F(1, 2**60))
            margin = max(r.smallest.error, F(1, 2**40))
            assert lo <= r.value_hi + margin and r.value_lo - margin <= hi, (alpha, t)
        for _ in range(8):
            t = F(rng.randint(0, 840), 840)
            lo, hi = sc.scalar_enclosure(ev.eval_periodic(c, t), F(1, 2**40))
            assert lo <= r.value_hi + F(1, 2**30), (alpha, t)


def test_critical_maximizers_never_dyadic():
    for alpha in (QUARTIC, lb.solve_alpha_n(2), lb.solve_alpha_n(5)):
        r = lb.maxima(alpha)
        for t in (r.smallest.exact, r.largest.exact):
            assert t is not None
            assert t.denominator & (t.denominator - 1) != 0  # not a power of two


# ---------------------------------------------------------------------------
# every alpha in (-2, 2) ends in a report or a named failure

# the cheapest roots in (1/2, 1) of the Littlewood parameter pool, and the
# neg_steep boundaries x_1, x_2, x_3 in (-2, -1)
POOL_ROOTS = [
    sc.algebraic(poly, F(1, 2), 1)
    for poly in ((1, -1, -1), (1, -1, -1, -1), (1, -1, -1, 1, -1), (1, 1, -1, -1, -1, -1), (1, -1, -1, -1, 1))
] + [lb.solve_xn(n).root for n in (1, 2, 3)]

# an interval alpha's series encloses each coefficient of its rounded prefix
# once, about 29,000 of them at alpha = 399/200 +- 10^-9; a hook called more
# often than this is refining inside a refinement
HOOK_CALL_BOUND = 100_000


def _alpha(center, kind: str, exponent: int, calls: list):
    """center itself, or an interval of width about 10^-exponent around it:
    flat, or with a hook that encloses center to about 2^-bits (a rational
    at every bits, a pool root down to 2^-256, a floor that ends the
    refinement loop)."""
    if kind == "exact":
        return center
    w = F(1, 10**exponent)
    lo, hi = sc.scalar_enclosure(center, w / 4)
    if kind == "flat":
        return sc.interval(lo - w / 2, hi + w / 2)

    def hook(bits):
        calls.append(bits)
        clo, chi = sc.scalar_enclosure(center, F(1, 2 ** min(bits, 256)))
        return clo - F(1, 2**bits), chi + F(1, 2**bits)

    return sc.interval(lo - w / 2, hi + w / 2, hook)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.fractions(min_value=F(-2), max_value=F(2), max_denominator=200).filter(lambda a: -2 < a < 2).map(sc.rational),
        st.sampled_from(POOL_ROOTS),
    ),
    st.sampled_from(["exact", "flat", "refinable"]),
    st.integers(9, 40),
    st.sampled_from([lb.classify_alpha, lb.maxima, lb.minima]),
)
# the value check's width there has a 15,615-bit denominator, whose str()
# raised ValueError inside the PrecisionError message
@example(sc.rational(F(-327, 196)), "flat", 16, lb.maxima)
def test_every_alpha_ends_in_a_report_or_a_named_failure(center, kind, exponent, query):
    # never TypeError, AssertionError or RecursionError: an undecidable
    # interval raises PrecisionError (AbortUnresolved is one), and one that
    # leaves (-2, 2) DomainError
    calls = []
    alpha = _alpha(center, kind, exponent, calls)
    try:
        query(alpha)
    except (sc.PrecisionError, ev.BudgetError, ev.DomainError):
        pass
    assert len(calls) <= HOOK_CALL_BOUND
