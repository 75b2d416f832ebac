"""Integer polynomial toolkit: arithmetic, Sturm chains, root isolation."""

import math
import operator
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from takagi import intpoly as ip


def test_normalize_and_degree():
    assert ip.normalize([1, 2, 0, 0]) == (1, 2)
    assert ip.normalize([0, 0]) == ()
    assert ip.degree(()) == -1
    assert ip.degree((5,)) == 0


def test_arithmetic_against_sympy():
    rng = random.Random(1)
    x = sympy.Symbol("x")
    for _ in range(50):
        p = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        q = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        sp = sympy.Poly(list(reversed(p)) or [0], x)
        sq = sympy.Poly(list(reversed(q)) or [0], x)
        assert ip.mul(p, q) == tuple(reversed((sp * sq).all_coeffs())) or not ip.mul(p, q)
        assert ip.add(p, q) == ip.normalize(tuple(reversed((sp + sq).all_coeffs())))


def test_eval_fraction_and_sign():
    p = (1, -2, 0, 1)  # 1 - 2x + x^3
    assert ip.eval_fraction(p, F(-1)) == 2
    assert ip.sign_at(p, F(-2)) == -1
    assert ip.sign_at(p, F(1)) == 0
    assert ip.eval_fraction((3,), F(7, 5)) == 3


def test_dyadic_eval_matches_generic():
    rng = random.Random(2)
    for _ in range(100):
        p = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 8)))
        num = rng.randint(-40, 40)
        k = rng.randint(0, 6)
        x = F(num, 2**k)
        assert ip.sign_at_dyadic(p, num, k) == ip.sign_at(p, x)
        a, b = sorted((rng.randint(-16, 16), rng.randint(-16, 16)))
        lo1, hi1 = ip.eval_interval(p, F(a, 2**k), F(b, 2**k))
        lo2, hi2 = ip.eval_interval_dyadic(p, a, b, k)
        scale = F(2) ** (k * (len(p) - 1))
        assert lo1 == F(lo2) / scale and hi1 == F(hi2) / scale


def test_pseudo_rem_sign_matches_rational_remainder():
    rng = random.Random(3)
    x = sympy.Symbol("x")
    for _ in range(60):
        f = tuple(rng.randint(-6, 6) for _ in range(rng.randint(2, 7)))
        g = tuple(rng.randint(-6, 6) for _ in range(rng.randint(2, 5)))
        f, g = ip.normalize(f), ip.normalize(g)
        if ip.degree(g) < 1 or ip.degree(f) < ip.degree(g):
            continue
        r = ip.pseudo_rem(f, g)
        sf = sympy.Poly(list(reversed(f)), x, domain="QQ")
        sg = sympy.Poly(list(reversed(g)), x, domain="QQ")
        srem = sympy.rem(sf, sg)
        if srem.is_zero:
            assert not r
        else:
            ours = sympy.Poly(list(reversed(r)), x, domain="QQ")
            quot = sympy.div(ours, srem)[0]
            assert sympy.rem(ours, srem).is_zero
            assert quot.degree() == 0 and quot.LC() > 0


def test_gcd_and_squarefree():
    # (x-1)^2 (x+2) = x^3 - 3x + 2
    p = (2, -3, 0, 1)
    g = ip.poly_gcd(p, ip.derivative(p))
    assert g == (-1, 1)
    assert ip.squarefree_part(p) == ip.primitive(ip.mul((-1, 1), (2, 1))) or ip.squarefree_part(
        p
    ) == ip.mul((-1, 1), (2, 1))
    roots = ip.isolate_roots(p, F(-3), F(2), F(1, 64))
    assert len(roots) == 2


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=8), st.lists(st.integers(-50, 50), min_size=1, max_size=8))
def test_exact_div_undoes_mul(f, g):
    f, g = ip.normalize(f), ip.normalize(g)
    assume(g)
    assert ip.exact_div(ip.mul(f, g), g) == f


def test_exact_div_errors():
    with pytest.raises(ZeroDivisionError):
        ip.exact_div((1, 1), ())
    for f, g, message in (
        ((1,), (0, 2), "division not exact"),
        ((1, 0, 1), (1, 1), "division not exact"),
        ((1, 1), (2, 2), "quotient not integral"),
    ):
        with pytest.raises(ValueError, match="exact_div: " + message):
            ip.exact_div(f, g)


def test_has_root_is_the_gcd_zero_test():
    # sqrt2 in (7/5, 3/2): x^4 - 4 shares it with x^2 - 2, x^2 + 2 does not
    sq, bracket = (-2, 0, 1), (14, 15, 10)
    assert ip.has_root(ip.poly_gcd(sq, (-4, 0, 0, 0, 1)), bracket)
    assert not ip.has_root(ip.poly_gcd(sq, (2, 0, 1)), bracket)
    assert not ip.has_root((3,), bracket)  # a constant gcd has no root
    assert not ip.has_root((-2, 1), bracket)  # x - 2: no sign change across the bracket


def test_sturm_count_against_sympy():
    rng = random.Random(4)
    x = sympy.Symbol("x")
    for _ in range(40):
        p = ip.normalize(tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 9))))
        if ip.degree(p) < 1:
            continue
        lo, hi = F(-3), F(3)
        if ip.sign_at(p, lo) == 0 or ip.sign_at(p, hi) == 0:
            continue
        chain = ip.sturm_chain(p)
        count = ip.count_roots(chain, lo, hi)
        expected = len(
            [r for r in sympy.Poly(list(reversed(p)), x).real_roots() if lo < r <= hi]
        )
        # real_roots lists with multiplicity; collapse
        expected = len(
            {r for r in sympy.Poly(list(reversed(p)), x).real_roots() if lo < r <= hi}
        )
        assert count == expected, p


def test_isolate_roots_widths_and_disjoint():
    p = (1, -1, -1)  # roots (1±sqrt5)/2... actually 1-x-x^2: roots -(1±sqrt5)/2
    ivs = ip.isolate_roots(p, F(-2), F(2), F(1, 2**30))
    assert len(ivs) == 2
    for lo, hi in ivs:
        assert hi - lo <= F(1, 2**30)
    assert ivs[0][1] <= ivs[1][0]


def test_isolate_exact_rational_root():
    p = (1, 0, -1)  # 1 - x^2, roots +-1
    ivs = ip.isolate_roots(p, F(-3, 2), F(3, 2), F(1, 2**10))
    assert len(ivs) == 2
    for lo, hi in ivs:
        if lo == hi:
            assert lo in (-1, 1)
        else:
            assert hi - lo <= F(1, 2**10)


def test_isolate_rejects_root_endpoint():
    with pytest.raises(ValueError):
        ip.isolate_roots((1, 0, -1), F(-1), F(2), F(1, 4))


def _fraction_isolate(p, lo, hi, width=None):
    """Root isolation in Fractions: the independent reference for the integer walker."""
    q = ip.squarefree_part(p)
    chain = ip.sturm_chain(q)

    def variations(x):
        signs = [s for s in (ip.sign_at(f, x) for f in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    out = []

    def split(a, b, va, vb):
        if va - vb == 1:
            out.append((a, b))
        elif va > vb:
            m, d = (a + b) / 2, (b - a) / 4
            while ip.sign_at(q, m) == 0:
                m, d = m + d, d / 2
            vm = variations(m)
            split(a, m, va, vm)
            split(m, b, vm, vb)

    split(lo, hi, variations(lo), variations(hi))
    if width is None:
        return out
    refined = []
    for a, b in out:
        slo = ip.sign_at(q, a)
        while b - a > width:
            m = (a + b) / 2
            sm = ip.sign_at(q, m)
            if sm == 0:
                a = b = m
                break
            a, b = (m, b) if sm == slo else (a, m)
        refined.append((a, b))
    return refined


def test_isolate_roots_matches_fraction_bisection():
    # midpoint roots (the first midpoint -1 of (-7/2, 3/2) is a root of
    # -2x - 2x^2; on (-2, 2) the midpoint 0 of x^3 - x and its first move, 1,
    # are both roots) and non-dyadic endpoints and widths, bracket for bracket
    cases = [
        ((0, -2, -2), F(-7, 2), F(3, 2)),
        ((0, -1, 0, 1), F(-2), F(2)),
        ((-1, 0, 1), F(-3), F(3)),
        ((6, -5, 1), F(-1, 3), F(17, 3)),
    ]
    rng = random.Random(5)
    while len(cases) < 300:
        p = ip.normalize([rng.randint(-6, 6) for _ in range(rng.randint(2, 8))])
        lo = F(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 6, 7, 12, 16)))
        hi = lo + F(rng.randint(1, 40), rng.choice((1, 3, 4, 7, 10)))
        if ip.degree(p) >= 1 and ip.sign_at(p, lo) and ip.sign_at(p, hi):
            cases.append((p, lo, hi))
    nudged = 0
    for p, lo, hi in cases:
        for width in (None, F(1, 2**10), F(1, 3**7)):
            assert ip.isolate_roots(p, lo, hi, width) == _fraction_isolate(p, lo, hi, width), (p, lo, hi, width)
        nudged += ip.sign_at(p, (lo + hi) / 2) == 0
    assert nudged >= 2
    assert ip.isolate_roots((0, -2, -2), F(-7, 2), F(3, 2)) == [(F(-13, 8), F(-11, 16)), (F(-11, 16), F(1, 4))]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=2, max_size=13),
    st.integers(0, 6),
    st.integers(-12, 12),
    st.integers(1, 24),
)
def test_descartes_count_bounds_the_roots_in_a_bracket(coeffs, kbits, a, w):
    # Descartes' rule on the bracket's transform: an upper bound on the roots
    # counted with multiplicity, of the same parity; 0 and 1 are exact
    p = ip.normalize(coeffs)
    assume(ip.degree(p) >= 1)
    A, B, D = a, a + w, 1 << kbits
    sa, sb = ip.sign_at_scaled(p, A, D), ip.sign_at_scaled(p, B, D)
    assume(sa != 0 and sb != 0)
    count = ip.descartes_count([sum(map(operator.mul, row, p)) for row in ip.descartes_matrix(ip.degree(p), (A, B, D))])
    x = sympy.Symbol("x")
    lo, hi = sympy.Rational(A, D), sympy.Rational(B, D)
    with_multiplicity = len([r for r in sympy.Poly(list(reversed(p)), x).real_roots() if lo < r < hi])
    assert count >= ip.count_roots(ip.sturm_chain(p), F(A, D), F(B, D))
    assert count >= with_multiplicity and (count - with_multiplicity) % 2 == 0
    if count == 0:
        assert with_multiplicity == 0
    if count == 1:
        assert with_multiplicity == 1 and sa * sb < 0


def test_repeated_parts_match_sympy_gcd():
    # sympy's gcd(p, p') has positive degree on exactly the normalized
    # Littlewood polynomials of degree <= 12 where squarefree_chain finds a
    # repeated part
    x = sympy.Symbol("x")
    ours, theirs = set(), set()
    for d in range(1, 13):
        for mask in range(2**d):
            p = (1,) + tuple(-1 if (mask >> j) & 1 else 1 for j in range(d))
            if ip.squarefree_chain(p)[2] is not None:
                ours.add((d, mask))
            sp = sympy.Poly(list(reversed(p)), x)
            if sympy.gcd(sp, sp.diff(x)).degree() > 0:
                theirs.add((d, mask))
    assert ours == theirs and len(ours) == 74


def test_squarefree_part_and_chain_match_sympy_sqf_part():
    # products of random factors, some repeated, with either leading sign;
    # sympy's sqf_part is primitive with a positive leading coefficient
    rng = random.Random(20)
    x = sympy.Symbol("x")
    cases = [(), (5,), (-3,), (0, 0, 4), (-6, 12)]
    for _ in range(60):
        p = (rng.choice((-3, -1, 1, 2)),)
        for _ in range(rng.randint(1, 3)):
            f = ip.normalize(tuple(rng.randint(-3, 3) for _ in range(rng.randint(2, 3))))
            for _ in range(rng.randint(1, 3)):
                p = ip.mul(p, f or (1,))
        cases.append(p)
    for p in cases:
        sq, chain, repeated = ip.squarefree_chain(p)
        ref = sympy.Poly(list(reversed(p)) or [0], x, domain="ZZ").sqf_part()
        ref = ip.normalize(tuple(int(c) for c in reversed(ref.all_coeffs())))
        assert sq in (ref, ip.neg(ref)), p
        assert ip.squarefree_part(p) == sq
        assert chain == ip.sturm_chain(sq)
        assert (repeated is None) == (ip.degree(ip.sturm_chain(p)[-1]) < 1)


def test_root_sign_tests_for_zero_once_at_the_second_straddle(monkeypatch):
    # x = sqrt2 in (1, 2): p = x^2 - 2 straddles 0 at every bracket, and the
    # gcd test after one 2^5-fold refinement decides it, not a walk below 2^-64
    gcds, refines = [], []
    gcd, refine = ip.poly_gcd, ip.refine_bracket
    monkeypatch.setattr(ip, "poly_gcd", lambda *a: gcds.append(a) or gcd(*a))
    monkeypatch.setattr(ip, "refine_bracket", lambda *a: refines.append(a) or refine(*a))
    sq = (-2, 0, 1)
    s, (A, B, D) = ip.root_sign((-2, 0, 1), sq, (1, 2, 1))
    assert s == 0 and len(gcds) == 1 and len(refines) == 1 and 16 * (B - A) == D
    # p(x) = x - 1.4142 > 0 takes several rounds, and one gcd test among them
    gcds.clear(), refines.clear()
    assert ip.root_sign((-7071, 5000), sq, (1, 2, 1))[0] == 1
    assert len(gcds) == 1 and len(refines) > 2


def _transform(p, bracket):
    return [sum(map(operator.mul, row, p)) for row in ip.descartes_matrix(ip.degree(p), bracket)]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=10),
    st.integers(-12, 12),
    st.integers(1, 9),
    st.sampled_from((1, 2, 3, 5, 12)),
    st.lists(st.booleans(), max_size=14),
    st.booleans(),
)
def test_descartes_children_are_the_halves_transforms(coeffs, a, w, d, path, root_at_midpoint):
    # down a path of grid cells to level 14, each child transform from the
    # Taylor shifts is the half's own descartes_matrix transform, so it has
    # its sign pattern, and the right child's constant term is 0 exactly at
    # a midpoint root; with the flag set, the last cell's midpoint is a root
    A, B, D = a, a + w, d
    for right in path:
        A, B, D = (A + B, 2 * B, 2 * D) if right else (2 * A, A + B, 2 * D)
    p = ip.normalize(coeffs)
    if root_at_midpoint:
        p = ip.mul(p, (-(A + B), 2 * D))
    assume(ip.degree(p) >= 1)
    A, B, D = a, a + w, d
    t = _transform(p, (A, B, D))
    for right in path + [None]:
        left_t, right_t = ip.descartes_children(t)
        assert left_t == _transform(p, (2 * A, A + B, 2 * D))
        assert right_t == _transform(p, (A + B, 2 * B, 2 * D))
        assert (right_t[0] == 0) == (ip.sign_at_scaled(p, A + B, 2 * D) == 0)
        A, B, D = (A + B, 2 * B, 2 * D) if right else (2 * A, A + B, 2 * D)
        t = right_t if right else left_t
    assert right_t[0] == 0 or not root_at_midpoint


def _bisect_reference(p, bracket, width):
    """`refine_bracket` as plain bisection in Fractions, for the same (A, B, D) representation."""
    A, B, D = bracket
    slo = ip.sign_at(p, F(A, D))
    while F(B - A, D) > width:
        m, D = A + B, 2 * D
        sm = ip.sign_at(p, F(m, D))
        if sm == 0:
            return m, m, D
        A, B = (m, 2 * B) if sm == slo else (2 * A, m)
    return A, B, D


def _refine_cases():
    """(p, bracket, width): brackets of both signs over non-dyadic denominators, roots on grid
    points and coefficients and ends too large for floats."""
    rng = random.Random(24)
    cases = []
    while len(cases) < 120:
        p = ip.normalize([rng.randint(-9, 9) for _ in range(rng.randint(2, 9))])
        lo = F(rng.randint(-40, 40), rng.choice((1, 3, 5, 7, 12)))
        hi = lo + F(rng.randint(1, 20), rng.choice((1, 3, 10)))
        if ip.degree(p) < 1 or ip.sign_at(p, lo) == 0 or ip.sign_at(p, hi) == 0:
            continue
        sq, brackets, _ = ip.isolate_brackets(p, [ip.to_bracket(lo, hi)])
        for b in brackets:
            cases.append((sq, b, rng.choice((F(1, 2**rng.randint(4, 40)), F(1, 3**rng.randint(3, 20))))))
    # roots on grid points of (1/3, 5/3): 1 at level 1, 7/6 at level 3, (2^16 + 60) / (3 2^16) at 16
    for num, den in ((1, 1), (7, 6), (2**16 + 60, 3 * 2**16)):
        cases += [(ip.mul((-num, den), (1, 0, 1)), (1, 5, 3), F(1, 2**30)), ((-num, den), (1, 5, 3), F(1, 2**30))]
    # 10^400 (3x^2 - 7) + x: floats overflow on the coefficients; 2x - (2 10^400 + 1) on the ends
    big = 10**400
    cases += [((-7 * big, 1, 3 * big), (1, 2, 1), F(1, 2**50)), ((-(2 * big + 1), 2), (big, big + 1, 1), F(1, 2**30))]
    return cases


def test_refine_bracket_matches_plain_bisection(monkeypatch):
    # the float proposal only speeds refinement up: whatever it proposes, a
    # right point, a wrong one, NaN, infinity, a point outside the bracket or
    # nothing, the bracket is the one plain bisection reaches
    cases = _refine_cases()
    want = [_bisect_reference(p, b, w) for p, b, w in cases]
    assert [ip.refine_bracket(p, b, w) for p, b, w in cases] == want
    assert sum(A == B for A, B, _ in want) >= 6
    assert sum(b[0] < 0 for _, b, _ in cases) > 10 and sum(b[2] & (b[2] - 1) != 0 for _, b, _ in cases) > 10
    proposals = {
        "wrong": lambda p, lo, hi, cell: (3 * lo + hi) / 4,
        "nan": lambda p, lo, hi, cell: math.nan,
        "inf": lambda p, lo, hi, cell: -math.inf,
        "outside": lambda p, lo, hi, cell: hi + 1,
        "left end": lambda p, lo, hi, cell: lo,
        "none": lambda p, lo, hi, cell: None,
    }
    for name, proposal in proposals.items():
        monkeypatch.setattr(ip, "float_root", proposal)
        assert [ip.refine_bracket(p, b, w) for p, b, w in cases] == want, name


def test_refine_bracket_takes_a_verified_proposal_in_two_signs(monkeypatch):
    # sqrt2 in (1, 2) to 2^-30: two exact signs at the proposed cell's ends
    # where bisection takes 30; a target 3 levels down is bisected
    signs = []
    sign = ip.sign_at_scaled
    monkeypatch.setattr(ip, "sign_at_scaled", lambda *a: signs.append(a) or sign(*a))
    got = ip.refine_bracket((-2, 0, 1), (1, 2, 1), F(1, 2**30))
    assert len(signs) == 2
    assert got == _bisect_reference((-2, 0, 1), (1, 2, 1), F(1, 2**30))
    signs.clear()
    assert ip.refine_bracket((-2, 0, 1), (1, 2, 1), F(1, 8), -1) == (11, 12, 8) and len(signs) == 3


def test_cell_holding_cuts_the_bracket_from_its_left_end():
    # x^2 - 2 on (1, 31/16) cut into five cells 3/16 wide: sqrt2 = 22.6/16 is in (22, 25)
    p, bracket = (-2, 0, 1), (16, 31, 16)
    assert ip.cell_holding(p, math.sqrt(2), bracket, 3) == (22, 25, 16)
    assert ip.cell_holding(p, 22 / 16, bracket, 3) == (22, 25, 16)  # a left end is in its cell
    assert ip.cell_holding(p, 25 / 16, bracket, 3) is None  # the next cell has no sign change
    for x in (math.nan, math.inf, 1.0 - 1e-9, 31 / 16):  # no number, or outside the half-open bracket
        assert ip.cell_holding((-17, 16), x, bracket, 3) is None
    assert ip.cell_holding((-15, 16), 0.9, bracket, 3) is None  # (13, 16) changes sign but is outside
    assert ip.cell_holding((-2, 1), 31 / 16, bracket, 3) is None  # so does (31, 34)
    assert ip.cell_holding((-17, 16), 1.0, bracket, 3) == (16, 19, 16)
    assert ip.cell_holding((-1, 1), 1.0, bracket, 3) is None  # a root on the cell's end: no sign change
