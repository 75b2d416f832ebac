"""Exact scalar tower: rationals, algebraic numbers, interval enclosures."""

import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takagi import intpoly as ip
from takagi import scalars as sc


def sqrt2():
    return sc.algebraic([-2, 0, 1], 1, 2)


def golden():
    return sc.algebraic([-1, -1, 1], 1, 2)


rationals = st.fractions(max_denominator=10**6)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_rational_ops_match_fraction(a, b):
    ra, rb = sc.rational(a), sc.rational(b)
    assert sc.scalar_add(ra, rb).value == a + b
    assert sc.scalar_mul(ra, rb).value == a * b
    assert sc.scalar_neg(ra).value == -a
    assert sc.scalar_sub(ra, rb).value == a - b


def test_thousand_random_rational_pairs():
    rng = random.Random(11)
    for _ in range(1000):
        a = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        b = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert sc.scalar_add(a, b).value == a + b
        assert sc.scalar_mul(a, b).value == a * b


def test_add_identity_and_simple_sum():
    assert sc.scalar_add(F(1, 3), F(1, 6)).value == F(1, 2)
    a = sqrt2()
    same = sc.scalar_add(a, F(0))
    assert sc.scalar_is_zero(sc.scalar_sub(same, a))


def test_sqrt2_minus_one_decimal():
    v = sc.scalar_add(sqrt2(), F(-1))
    dec = sc.scalar_decimal(v, 20)
    assert dec.startswith("0.4142135623730950488")


def test_sign_examples():
    assert sc.scalar_sign(sc.rational(0)).sign == 0
    assert sc.scalar_sign(sc.scalar_sub(sqrt2(), F(3, 2))).sign == -1
    assert sc.scalar_sign(sc.scalar_sub(sqrt2(), F(7, 5))).sign == 1
    unresolved = sc.interval(F(-1, 10**99), F(1, 10**99))
    res = sc.scalar_sign(unresolved)
    assert not res.resolved
    assert res.width == F(2, 10**99)


def test_algebraic_zero_by_remainder():
    conj = sc.algebraic([1, -1, -1], 0, 1)  # (sqrt5 - 1)/2
    val = sc.eval_int_poly([1, -1, -1], conj)
    assert sc.scalar_sign(val).sign == 0
    assert sc.scalar_is_zero(val)


def test_eval_int_poly_examples():
    assert sc.eval_int_poly([1, -2, 0, 1], sc.rational(-1)).value == 2
    assert sc.eval_int_poly([7, 3, 9], sc.rational(0)).value == 7
    v = sc.eval_int_poly([0, 0, 1], sqrt2())  # alpha^2 = 2
    assert sc.scalar_is_zero(sc.scalar_sub(v, F(2)))


def test_refinement_never_flips_sign():
    rng = random.Random(5)
    for _ in range(30):
        c = rng.randint(2, 40)
        offset = F(rng.randint(1, c * 2), 2)
        a = sc.algebraic([-c, 0, 1], 0, c)  # sqrt(c)
        if isinstance(a, sc.RationalScalar):  # perfect square
            continue
        s1 = sc.scalar_sign(sc.scalar_sub(a, offset)).sign
        refined = sc.refine(a, F(1, 2**200))
        s2 = sc.scalar_sign(sc.scalar_sub(refined, offset)).sign
        assert s1 == s2 != 0


def test_isolating_interval_always_one_root():
    with pytest.raises(ValueError):
        sc.algebraic([1, -1, -1, 0, 0, 1], F(-17, 10), F(-3, 2))
    with pytest.raises(ValueError):
        sc.algebraic([-2, 0, 1], -2, 2)  # two roots
    a = sc.algebraic([-2, 0, 1], 1, 2)
    assert isinstance(a, sc.AlgebraicScalar)


@pytest.mark.parametrize(
    "poly, lo, hi, message",
    [
        ([3], 0, 1, "polynomial must have positive degree"),
        ([], 0, 1, "polynomial must have positive degree"),
        ([-2, 0, 1], 2, 1, "empty interval"),
        ([-2, 0, 1], 1, 1, "degenerate interval is not a root"),
        ([-1, 0, 1], 1, 2, "interval endpoint is a root"),
        ([-3, 1], 0, 1, "linear polynomial has no root in interval"),
    ],
)
def test_algebraic_input_checks(poly, lo, hi, message):
    with pytest.raises(ValueError, match="algebraic: " + message):
        sc.algebraic(poly, lo, hi)


def test_algebraic_collapses_to_rational():
    assert sc.algebraic([-1, 0, 0, 1], 1, 1) == sc.RationalScalar(F(1))
    assert sc.algebraic([-2, 1], 1, 3) == sc.RationalScalar(F(2))
    assert sc.algebraic([-2, 1], 1, 3, [F(1, 2), 3]) == sc.RationalScalar(F(13, 2))


def test_algebraic_takes_one_sturm_chain_for_a_squarefree_polynomial(monkeypatch):
    chains, gcds = [], []
    sturm_chain, poly_gcd = ip.sturm_chain, ip.poly_gcd
    monkeypatch.setattr(ip, "sturm_chain", lambda p: chains.append(p) or sturm_chain(p))
    monkeypatch.setattr(ip, "poly_gcd", lambda *a: gcds.append(a) or poly_gcd(*a))
    a = sc.algebraic([1, -1, -1, -1, 1], F(1, 2), 1)
    assert isinstance(a, sc.AlgebraicScalar)
    assert len(chains) == 1 and not gcds
    # (x^2 - 2)^2: the chain of p finds the repeated part, the second is of x^2 - 2
    chains.clear()
    assert sc.algebraic([4, 0, -4, 0, 1], 1, 2) == sc.algebraic([-2, 0, 1], 1, 2)
    assert len(chains) == 3 and not gcds


def test_interval_refinement_narrows():
    calls = []

    def refine_fn(bits):
        calls.append(bits)
        return F(-1, 2**bits), F(1, 2**bits)

    iv = sc.interval(-1, 1, refine_fn)
    res = sc.scalar_sign(iv, precision_budget=2)
    assert not res.resolved
    assert calls  # refinement attempted
    lo, hi = sc.scalar_enclosure(iv, F(1, 2**10))
    assert hi - lo <= F(1, 2**10)


def test_inverse_and_division():
    conj = sc.algebraic([1, -1, -1], 0, 1)
    inv = sc.scalar_inverse(conj)
    assert sc.scalar_is_zero(sc.scalar_sub(sc.scalar_mul(conj, inv), F(1)))
    assert sc.scalar_div(F(3, 4), F(1, 2)).value == F(3, 2)
    with pytest.raises(ZeroDivisionError):
        sc.scalar_inverse(sc.rational(0))


def test_inverse_with_reducible_defining_poly():
    # (x^2 - 2)(x - 1): sqrt2 isolated; inverting (x - 1) forces localization
    a = sc.algebraic([2, -2, -1, 1], F(5, 4), F(3, 2))
    shifted = sc.scalar_sub(a, F(1))
    inv = sc.scalar_inverse(shifted)
    assert sc.scalar_is_zero(sc.scalar_sub(sc.scalar_mul(shifted, inv), F(1)))


def test_inverse_times_operand_is_one():
    rng = random.Random(7)
    for poly, lo, hi in (((1, -1, -1, -1, 1), F(1, 2), 1), ((-3, 1, 0, 0, 0, 7), F(1, 2), 1)):
        theta = sc.algebraic(poly, lo, hi)
        for _ in range(10):
            v = sc.eval_int_poly([rng.randint(-9, 9) for _ in range(len(poly))], theta)
            v = sc.scalar_div(v, rng.randint(1, 9))
            if sc.scalar_is_zero(v):
                continue
            one = sc.scalar_mul(v, sc.scalar_inverse(v))
            assert (one.nums, one.den) == ((1,), 1)


def test_interval_inverse():
    # 1/[2, 4] = [1/4, 1/2]; the hook re-encloses the operand, here 3 +- 2^-bits
    iv = sc.interval(2, 4, lambda bits: (3 - F(1, 2**bits), 3 + F(1, 2**bits)))
    inv = sc.scalar_inverse(iv)
    assert (inv.lo, inv.hi) == (F(1, 4), F(1, 2))
    lo, hi = sc.scalar_enclosure(inv, F(1, 2**100))
    assert lo <= F(1, 3) <= hi
    neg = sc.scalar_inverse(sc.interval(-4, -2))
    assert (neg.lo, neg.hi, neg.refine_fn) == (F(-1, 2), F(-1, 4), None)
    with pytest.raises(sc.PrecisionError):
        sc.scalar_inverse(sc.interval(-1, 1))


def test_mixed_base_operations_enclose():
    import mpmath

    v = sc.scalar_add(sqrt2(), golden())
    assert isinstance(v, sc.IntervalScalar)
    lo, hi = sc.scalar_enclosure(v, F(1, 2**60))
    assert hi - lo <= F(1, 2**60)
    with mpmath.workdps(50):
        expected = F(mpmath.nstr(mpmath.sqrt(2) + (1 + mpmath.sqrt(5)) / 2, 40))
    assert lo - F(1, 10**35) <= expected <= hi + F(1, 10**35)


def test_same_root():
    assert sc.same_root(sqrt2(), sc.algebraic([-2, 0, 1], F(14, 10), F(29, 20)))
    assert not sc.same_root(sqrt2(), golden())
    assert sc.same_root(sc.rational(F(1, 2)), sc.rational(F(1, 2)))
    # same number from different defining polynomials
    a = sc.algebraic([-4, 0, 0, 0, 1], 1, 2)  # x^4 = 4 -> sqrt2
    assert sc.same_root(a, sqrt2())


def test_refined_root_stays_exact_against_its_source():
    # refine puts b on a narrower root inside a's base bracket: the two unify
    # on it, as does a localizable polynomial's root with the same base as a
    a = sqrt2()
    b = sc.refine(a, F(1, 2**20))
    assert sc.same_root(a, b) and b.root != a.root
    for x in (a, sc.algebraic([-4, 0, 0, 0, 1], 1, 2)):
        d = sc.scalar_sub(x, b)
        assert isinstance(d, sc.AlgebraicScalar) and d.nums == ()
        assert sc.scalar_eq(x, b) and sc.scalar_eq(b, x)
        product = sc.scalar_mul(x, b)
        assert isinstance(product, sc.AlgebraicScalar) and sc.scalar_eq(product, 2)
    # a nested base that holds another number stays a ball
    assert isinstance(sc.scalar_sub(golden(), b), sc.IntervalScalar)


def test_serialization_forms():
    assert sc.scalar_to_json(sc.rational(F(-3, 7))) == {
        "type": "rational",
        "num": "-3",
        "den": "7",
    }
    d = sc.scalar_to_json(sqrt2())
    assert d["type"] == "algebraic" and d["poly"] == [-2, 0, 1]
    d = sc.scalar_to_json(sc.interval(0, 1))
    assert d["type"] == "interval"


def test_decimal_rendering():
    assert sc.scalar_decimal(sc.rational(F(2, 3)), 10) == "0.6666666667"
    assert sc.scalar_decimal(sqrt2(), 15) == "1.41421356237310"


# ---------------------------------------------------------------------------
# algebraic sign, enclosure and refine against step-by-step Fraction bisection


def _ref_brackets(a):
    """Brackets of one-step-at-a-time Fraction bisection; a midpoint root ends it."""
    lo, hi = a.lo, a.hi
    while True:
        yield lo, hi
        mid = (lo + hi) / 2
        sm = ip.sign_at(a.poly, mid)
        if sm == 0:
            yield mid
            return
        if sm == ip.sign_at(a.poly, lo):
            lo = mid
        else:
            hi = mid


def _ref_value_at(vec, x):
    acc = F(0)
    for c in reversed(vec):
        acc = acc * x + c
    return acc


def _ref_interval(vec, lo, hi):
    vlo = vhi = F(0)
    for c in reversed(vec):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def _ref_sign(a):
    den = math.lcm(*(c.denominator for c in a.value))
    v = ip.normalize([int(c * den) for c in a.value])
    if not v:
        return 0
    g = ip.poly_gcd(a.poly, v)
    if ip.degree(g) >= 1 and ip.sign_at(g, a.lo) * ip.sign_at(g, a.hi) < 0:
        return 0
    for br in _ref_brackets(a):
        if not isinstance(br, tuple):
            x = _ref_value_at(a.value, br)
            return (x > 0) - (x < 0)
        vlo, vhi = _ref_interval(a.value, *br)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1


def _ref_enclosure(a, width):
    for br in _ref_brackets(a):
        if not isinstance(br, tuple):
            x = _ref_value_at(a.value, br)
            return x, x
        vlo, vhi = _ref_interval(a.value, *br)
        if vhi - vlo <= width:
            return vlo, vhi


def _ref_refine(a, width):
    for br in _ref_brackets(a):
        if not isinstance(br, tuple):
            return ("root", _ref_value_at(a.value, br))
        if br[1] - br[0] <= width:
            return ("bracket", br)


def _check_against_reference(a, widths):
    assert sc.scalar_sign(a).sign == _ref_sign(a)
    for w in widths:
        assert sc.scalar_enclosure(a, w) == _ref_enclosure(a, w)
        r = sc.refine(a, w)
        if isinstance(r, sc.RationalScalar):
            assert _ref_refine(a, w) == ("root", r.value)
        else:
            assert r.value == a.value and r.poly == a.poly
            assert _ref_refine(a, w) == ("bracket", (r.lo, r.hi))


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)
widths = st.lists(
    st.one_of(
        st.integers(0, 70).map(lambda k: F(1, 2**k)),
        st.integers(0, 20).map(lambda k: F(1, 10**k)),
        st.fractions(min_value=F(1, 10**4), max_value=4, max_denominator=10**4),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=9),
    st.integers(0, 8),
    st.lists(small_fractions, min_size=1, max_size=8),
    widths,
)
def test_algebraic_queries_match_stepwise_bisection(signs, pick, vec, ws):
    p = ip.squarefree_part(tuple(signs[:-1]) + (1,))
    brackets = [iv for iv in ip.isolate_roots(p, F(-2), F(2)) if iv[0] != iv[1]]
    if not brackets:
        return
    lo, hi = brackets[pick % len(brackets)]
    a = sc.algebraic(p, lo, hi, vec)
    if isinstance(a, sc.AlgebraicScalar):
        _check_against_reference(a, ws)


def test_algebraic_queries_non_dyadic_base_interval():
    a = sc.algebraic([-2, 0, 1], F(1, 3), 2)
    ws = [F(1, 2**k) for k in (0, 1, 5, 17, 40, 64)] + [F(1, 3), F(2, 7), F(1, 10**12)]
    for vec in ([0, 1], [F(-7, 5), 1], [F(1, 3), F(-2, 9)], [5]):
        _check_against_reference(sc.algebraic([-2, 0, 1], F(1, 3), 2, vec), ws)
    assert sc.scalar_sign(sc.scalar_sub(a, F(1414213562, 10**9))).sign == 1


def test_algebraic_queries_midpoint_hits_rational_root():
    # (4x - 3)(x^2 - 2) on (1/2, 1): the first midpoint 3/4 is the root
    p = ip.mul((-3, 4), (-2, 0, 1))
    a = sc.algebraic(p, F(1, 2), 1)
    assert isinstance(a, sc.AlgebraicScalar)
    ws = [F(1), F(1, 2), F(1, 4), F(1, 2**30), F(1, 10**6)]
    for vec in ([0, 1], [F(-3, 4), 1], [1, 1, 1], [F(5, 2), F(-3, 7), 2]):
        _check_against_reference(sc.algebraic(p, F(1, 2), 1, vec), ws)
    assert sc.refine(a, F(1, 4)) == sc.RationalScalar(F(3, 4))
    assert sc.scalar_enclosure(a, F(1, 2)) == (F(1, 2), F(1))
    # (8x - 3)(x^2 - 2) on (0, 1): the midpoint of depth-2 bracket (1/4, 1/2)
    # is the root, and a width that bracket meets must still return it
    p = ip.mul((-3, 8), (-2, 0, 1))
    ws += [F(1, 3), F(1, 8)]
    for vec in ([0, 1], [F(-3, 8), 1], [1, F(2, 3)], [F(1, 5), 3, -1]):
        _check_against_reference(sc.algebraic(p, 0, 1, vec), ws)
    b = sc.algebraic(p, 0, 1)
    assert sc.scalar_enclosure(b, F(1, 4)) == (F(1, 4), F(1, 2))
    assert sc.scalar_enclosure(b, F(1, 8)) == (F(3, 8), F(3, 8))


def test_deep_sign_query_takes_logarithmically_many_evaluations(monkeypatch):
    # q is sqrt2 truncated to 200 bits, so sqrt2 - q < 2^-200 needs depth >= 200
    q = F(math.isqrt(2 << 400), 2**200)
    v = sc.scalar_sub(sqrt2(), q)
    calls = []
    kernel = ip.eval_interval_scaled

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(ip, "eval_interval_scaled", counted)
    assert sc.scalar_sign(v).sign == 1
    assert max(args[3] for args in calls).bit_length() - 1 >= 200  # the depth reached
    assert len(calls) <= 2 * math.log2(200) + 8


def _fraction_vec_mul(a, b, poly):
    """The product and reduction mod poly in Fractions, the reference for the integer kernel."""
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fraction_reduce(out, poly)


def _fraction_reduce(vec, poly):
    n = len(poly) - 1
    v = list(vec)
    while len(v) > n:
        c = v.pop() / F(poly[-1])
        if c:
            k = len(v) - n
            for i in range(n):
                v[k + i] -= c * poly[i]
    while v and v[-1] == 0:
        v.pop()
    return tuple(v) if v else (F(0),)


small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
littlewood_polys = st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=11)
non_monic_polys = st.tuples(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.integers(2, 12),
    st.sampled_from([-1, 1]),
).map(lambda t: tuple(t[0]) + (t[1] * t[2],))


@settings(max_examples=200, deadline=None)
@given(st.one_of(littlewood_polys, non_monic_polys), st.data())
def test_integer_vec_mul_matches_fraction_product(poly, data):
    poly = tuple(poly)
    n = len(poly) - 1
    vecs = st.lists(small_fractions, min_size=1, max_size=n)
    a, b = data.draw(vecs), data.draw(vecs)

    def canonical(vec):
        return sc._canonical(poly, *sc._clear_denominators(tuple(vec)), sc._Root(poly, (0, 1, 1)))

    assert sc.scalar_mul(canonical(a), canonical(b)).value == _fraction_vec_mul(a, b, poly)
    long = data.draw(st.lists(small_fractions, min_size=0, max_size=2 * n + 2))
    assert canonical(long).value == _fraction_reduce(long, poly)


def test_unreachable_width_ends_after_a_round_that_does_not_halve():
    # r = 1/3 +- 2^-20 refines to any width, but the hook-less summand
    # [0, 10^-30] cannot: 10^-40 is out of reach, and the second round,
    # which narrows only by 2^-264, ends the refinement
    calls = []

    def hook(bits):
        calls.append(bits)
        return F(1, 3) - F(1, 2**bits), F(1, 3) + F(1, 2**bits)

    r = sc.interval(F(1, 3) - F(1, 2**20), F(1, 3) + F(1, 2**20), hook)
    total = sc.scalar_add(sc.interval(0, F(1, 10**30)), r)
    with pytest.raises(sc.PrecisionError):
        sc.scalar_enclosure(total, F(1, 10**40))
    assert len(calls) == 2
    lo, hi = sc.scalar_enclosure(total, F(1, 10**29))
    assert hi - lo <= F(1, 10**29) and len(calls) == 3


# ---------------------------------------------------------------------------
# one shared root per algebraic number


POOL_SPECS = [
    s
    for s in (Path(__file__).resolve().parents[1] / "bench" / "alpha_pool_order.txt").read_text().split("\n")
    if s and not s.startswith("#")
]


def _family(alpha, which):
    """alpha^m (m <= 40), alpha/2 or 1 - alpha: scalars on alpha's root."""
    if which == "half":
        return sc.scalar_mul(alpha, F(1, 2))
    if which == "one_minus":
        return sc.scalar_sub(1, alpha)
    return sc.scalar_pow(alpha, which)


shared_root_queries = st.lists(
    st.tuples(
        st.sampled_from(["sign", "enclosure", "refine"]),
        st.one_of(st.integers(0, 40), st.sampled_from(["half", "one_minus"])),
        st.one_of(st.integers(1, 90).map(lambda k: F(1, 2**k)), st.integers(0, 27).map(lambda k: F(1, 10**k))),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(POOL_SPECS), shared_root_queries, st.randoms(use_true_random=False))
def test_shared_root_answers_match_fresh_scalars(spec, queries, rnd):
    # queries on one parsed alpha narrow the root its family shares; each
    # answer must be the one a freshly parsed scalar and stepwise bisection give
    from takagi.cli import parse_alpha

    alpha = parse_alpha(spec)
    assert isinstance(alpha, sc.AlgebraicScalar)
    rnd.shuffle(queries)
    shared = {}
    for kind, which, w in queries:
        x = shared.setdefault(which, _family(alpha, which))
        fresh = _family(parse_alpha(spec), which)
        assert x == fresh and (isinstance(x, sc.RationalScalar) or x.root is alpha.root)
        if kind == "sign":
            assert sc.scalar_sign(x) == sc.scalar_sign(fresh)
            if isinstance(x, sc.AlgebraicScalar):
                assert sc.scalar_sign(x).sign == _ref_sign(x)
        elif kind == "enclosure":
            got = sc.scalar_enclosure(x, w)
            assert got == sc.scalar_enclosure(fresh, w)
            if isinstance(x, sc.AlgebraicScalar):
                assert got == _ref_enclosure(x, w)
        else:
            got = sc.refine(x, w)
            assert got == sc.refine(fresh, w)
            if isinstance(got, sc.RationalScalar):
                assert isinstance(x, sc.RationalScalar) or _ref_refine(x, w) == ("root", got.value)
            else:
                assert _ref_refine(x, w) == ("bracket", (got.lo, got.hi))
    xs = [shared[which] for _, which, _ in queries]
    w = queries[0][2]
    assert list(sc.enclosures(xs, w)) == [sc.scalar_enclosure(_family(parse_alpha(spec), which), w) for _, which, _ in queries]


@pytest.mark.parametrize("spec", ["root:1,1,-1,-1,-1:1/2:1", "root:1,-1,-1:1/2:1", "root:1,-1,-1,1,-1:1/2:1"])
def test_maxima_on_a_narrowed_root_matches_a_fresh_one(spec):
    from takagi import cli, landsberg

    narrowed = cli.parse_alpha(spec)
    sc.scalar_enclosure(narrowed, F(1, 2**300))
    assert narrowed.root.deep[2] >= narrowed.root.base[2] << 300
    fresh = cli.parse_alpha(spec)
    assert cli.report_to_dict(landsberg.maxima(narrowed)) == cli.report_to_dict(landsberg.maxima(fresh))


def test_unknown_maxima_takes_few_bisection_steps(monkeypatch):
    # the reported enclosures of c_m = (alpha/2)^m in `_value_near` share
    # alpha's root: one walk of its bracket, not one per coefficient
    from takagi import cli, landsberg

    calls = {"refine_bracket": 0, "sign_at_scaled": 0}
    for name in calls:
        kernel = getattr(ip, name)

        def counted(*args, kernel=kernel, name=name):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(ip, name, counted)
    report = landsberg.maxima(cli.parse_alpha("root:1,1,-1,-1,-1:1/2:1"))
    assert report.cardinality.kind == "unknown"
    assert calls["refine_bracket"] <= 60 and calls["sign_at_scaled"] <= 800


def test_zero_sign_queries_do_not_deepen_the_shared_root():
    # x^2 - 2 vanishes at sqrt2 but is no multiple of (x^2 - 2)(x - 3): each
    # sign query ends in the gcd zero test after narrowing 2^5-fold, and a
    # root that kept those brackets would narrow without end over repeats
    p = ip.mul((-2, 0, 1), (-3, 1))
    zero = sc.algebraic(p, 1, 2, [-2, 0, 1])
    assert isinstance(zero, sc.AlgebraicScalar) and zero.nums
    base = zero.root.deep
    assert all(sc.scalar_sign(zero).sign == 0 for _ in range(50))
    assert zero.root.deep == base
    # a nonzero answer keeps the bracket that decided it
    near = sc.scalar_sub(sc.algebraic(p, 1, 2), F(1414213562, 10**9))
    assert sc.scalar_sign(near).sign == 1 and near.root.deep[2] > near.root.base[2] << 20


def test_roots_compare_and_hash_by_their_base_bracket():
    # p = 1 - x - x^2: the walker's root and the constructor's on one bracket
    # are one scalar, as are a refinement and the root built on its bracket
    from takagi import littlewood as lw

    p = (1, -1, -1)
    for r in lw.real_roots(lw.LittlewoodPoly(p)):
        built = sc.algebraic(p, r.lo, r.hi)
        assert built == r and hash(built) == hash(r)
        assert built.root.base == r.root.base == ip.to_bracket(r.lo, r.hi)
    # (1/2, 5/6) is (3, 5, 6): its halvings (A, A + 2, 6 2^k) can share a factor
    for lo, hi in ((F(1, 2), 1), (F(1, 2), F(5, 6))):
        for w in (F(1, 3), F(1, 5), F(1, 2**30), F(1, 10**20)):
            r = sc.refine(sc.algebraic(p, lo, hi), w)
            built = sc.algebraic(p, r.lo, r.hi)
            assert built == r and hash(built) == hash(r) and r.hi - r.lo <= w
    a, b = sc.algebraic(p, F(1, 2), 1), sc.AlgebraicScalar(p, (0, 1), 1, sc._Root(p, (2, 4, 4)))
    assert a == b and hash(a) == hash(b) and b.lo == F(1, 2)
    assert a.root is not b.root and a.root == b.root
    total = sc.scalar_add(a, b)
    assert isinstance(total, sc.AlgebraicScalar) and total == sc.scalar_mul(a, 2)
    assert a != sc.algebraic(p, F(1, 2), F(3, 4))
