"""Function evaluation, Rademacher expansions, and their round trips."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate, islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from takagi import evaluate as ev
from takagi import scalars as sc


def geometric(a):
    return ev.Geometric(sc.rational(a) if not isinstance(a, sc.AlgebraicScalar) else a)


SQRT2 = sc.algebraic([-2, 0, 1], 1, 2)
QUARTIC = sc.algebraic([1, -1, -1, -1, 1], F(1, 2), 1)  # 1 - x - x^2 - x^3 + x^4


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=2000)


def test_tent_examples():
    assert ev.tent(F(3, 4)) == F(1, 4)
    assert ev.tent(F(14, 31)) == F(14, 31)
    assert ev.tent(F(8, 5)) == F(2, 5)
    assert ev.tent(F(0)) == 0 and ev.tent(F(1)) == 0 and ev.tent(F(1, 2)) == F(1, 2)


@settings(max_examples=150, deadline=None)
@given(st.fractions(max_denominator=10**4))
def test_tent_symmetry_periodicity(t):
    assert ev.tent(t) == ev.tent(-t) == ev.tent(t + 1)
    assert 0 <= ev.tent(t) <= F(1, 2)


def test_eval_truncated_examples():
    assert ev.eval_truncated(geometric(1), 10, F(1, 2)).value == F(1, 2)
    assert ev.eval_truncated(ev.PowerSquared(), 13, F(0)).value == 0
    with pytest.raises(ev.DomainError):
        ev.eval_truncated(geometric(1), 3, F(3, 2))


def test_eval_truncated_affine_on_dyadic_cells():
    rng = random.Random(21)
    c = ev.PowerSquared()
    for _ in range(25):
        n = rng.randint(0, 6)
        k = rng.randint(0, 2 ** (n + 1) - 1)
        a = F(k, 2 ** (n + 1))
        b = F(k + 1, 2 ** (n + 1))
        mid = (a + b) / 2
        fa = ev.eval_truncated(c, n, a).value
        fb = ev.eval_truncated(c, n, b).value
        fm = ev.eval_truncated(c, n, mid).value
        assert fm == (fa + fb) / 2


def test_eval_truncated_matches_independent_sum():
    # independent summation oracle with its own tent
    def tent_ref(x):
        y = x - int(x)
        return min(y, 1 - y)

    t = F(11, 24)
    expected = sum(F(1, (m + 1) ** 2) * tent_ref(F(2**m) * t) for m in range(21))
    assert ev.eval_truncated(ev.PowerSquared(), 20, t).value == expected


def test_eval_periodic_paper_values():
    assert ev.eval_periodic(geometric(1), F(1, 3)).value == F(2, 3)
    assert ev.eval_periodic(geometric(1), F(1, 2)).value == F(1, 2)
    assert ev.eval_periodic(geometric(-1), F(3, 4)).value == 0
    v = ev.eval_periodic(ev.Geometric(SQRT2), F(1, 3))
    target = sc.scalar_div(sc.scalar_add(SQRT2, F(2)), sc.rational(3))
    assert sc.scalar_is_zero(sc.scalar_sub(v, target))
    # quartic parameter at 14/31: ~0.508155 (6 printed digits)
    vq = ev.eval_periodic(ev.Geometric(QUARTIC), F(14, 31))
    lo, hi = sc.scalar_enclosure(vq, F(1, 10**9))
    assert abs((lo + hi) / 2 - F("0.508155")) < F(1, 10**6)


def test_eval_periodic_halves_for_every_alpha():
    for a in (F(-3, 2), F(-1), F(-1, 2), F(1, 2), F(1), F(3, 2)):
        assert ev.eval_periodic(geometric(a), F(1, 2)).value == F(1, 2)


def test_eval_series_encloses_periodic():
    rng = random.Random(3)
    for a in (F(1, 2), F(-1), F(1), F(-3, 2)):
        c = geometric(a)
        for _ in range(10):
            t = F(rng.randint(0, 128), 128) if rng.random() < 0.4 else F(
                rng.randint(0, 999), rng.randint(1, 999) * 3
            )
            if t > 1:
                t = 1 / t
            exact = ev.eval_periodic(c, t)
            enc = ev.eval_series(c, t, F(1, 2**40))
            lo, hi = sc.scalar_enclosure(exact, F(1, 2**60))
            assert enc.lo <= hi and lo <= enc.hi
            assert enc.hi - enc.lo <= F(1, 2**40)


def test_eval_series_slow_geometric_decay():
    # ratio -199/200: the rounded-prefix path sums about 8,200 terms
    c = geometric(F(-199, 100))
    exact = ev.eval_periodic(c, F(1, 3)).value
    enc = ev.eval_series(c, F(1, 3), F(1, 10**15))
    assert enc.lo <= exact <= enc.hi and enc.hi - enc.lo <= F(1, 10**15)


def test_eval_series_symmetry():
    rng = random.Random(9)
    c = ev.PowerSquared()
    for _ in range(15):
        t = F(rng.randint(1, 499), 500)
        e1 = ev.eval_series(c, t, F(1, 10**7))
        e2 = ev.eval_series(c, 1 - t, F(1, 10**7))
        assert e1.lo <= e2.hi and e2.lo <= e1.hi


def test_eval_series_tail_bound_failure():
    c = ev.Custom(lambda m: F(1, (m + 1) ** 2), lambda n: F(1, n + 1))
    with pytest.raises(ev.DomainError):
        ev.eval_series(c, F(1, 3), F(1, 10**30))


def test_power_squared_reference_value():
    # independent hurwitz-zeta reference for f(11/24), frozen from mpmath dps=30
    ref = F("0.592292837097556960305619870363")
    enc = ev.eval_series(ev.PowerSquared(), F(11, 24), F(1, 10**12))
    assert enc.lo <= ref <= enc.hi


def test_repr_of_a_bound_past_the_string_limit():
    # the bounds at 157/389 have about 16,000 bits, past what str() of an int allows
    enc = ev.eval_series(ev.PowerSquared(), F(157, 389), F(1, 10**12))
    assert enc.lo.numerator.bit_length() > 15_000
    assert repr(enc) == "IntervalScalar([~2^-1, ~2^-1])"
    short = ev.eval_series(ev.PowerSquared(), F(11, 24), F(1, 2))
    assert repr(short) == "IntervalScalar([%s, %s])" % (short.lo, short.hi)


def test_T_map_and_rademacher_examples():
    third = ev.rademacher_of(F(1, 3))
    assert len(third) == 1 and third[0].period is not None
    assert ev.t_map_fraction(third[0]) == F(1, 3)
    assert third[0].take(4) == (1, -1, 1, -1)

    halves = ev.rademacher_of(F(1, 2))
    assert [r.take(3) for r in halves] == [(-1, 1, 1), (1, -1, -1)]
    assert all(ev.t_map_fraction(r) == F(1, 2) for r in halves)

    zero = ev.rademacher_of(F(0))[0]
    assert ev.t_map_fraction(zero) == 0

    # period-5 block of the quartic example
    rho = ev.SignSequence((), (0, (1, -1, -1, -1, 1)))
    assert ev.t_map_fraction(rho) == F(14, 31)

    # alternating period block at n=1
    rho = ev.SignSequence((), (0, (1, -1)))
    assert ev.t_map_fraction(rho) == F(1, 3)


def test_T_map_prefix_approximant():
    rho = ev.SignSequence((1, -1, -1, 1))
    approx = ev.T_map(rho)
    assert isinstance(approx, ev.DyadicRational)
    # true value lies within 2^-4 of the approximant for any continuation
    lo = sum(F(1 - v, 2 ** (n + 2)) for n, v in enumerate(rho.prefix))
    assert abs(approx.to_fraction() - lo) <= F(1, 2**4)


@settings(max_examples=200, deadline=None)
@given(unit_rationals)
def test_round_trip_rademacher(t):
    for rho in ev.rademacher_of(t):
        assert ev.t_map_fraction(rho) == t


def test_round_trip_long_period():
    # 2 has order 12,500 mod 5^6, so the expansion has a 12,500-digit block
    t = F(339563, 10**6)
    (rho,) = ev.rademacher_of(t)
    start, block = rho.period
    assert start == 6 and len(block) == 12500
    assert ev.t_map_fraction(rho) == t


signs = st.lists(st.sampled_from((-1, 1)), max_size=12)


@settings(max_examples=150, deadline=None)
@given(signs, signs.filter(bool))
def test_rademacher_factors_are_tents(pre, block):
    # (1 - rho_m A_m)/4 = tent(2^m T(rho)), exactly, through two periods
    rho = ev.SignSequence(tuple(pre), (len(pre), tuple(block)))
    nums, den = ev._rademacher_numerators(rho)
    t = ev.t_map_fraction(rho)
    start, p = len(pre), len(block)
    assert len(nums) == start + p
    for m in range(start + 2 * p):
        f = nums[m] if m < start + p else nums[m - p]
        assert F(f, den) == ev.tent(2**m * t)


def test_three_routes_long_period():
    # 2 has order 2,500 mod 3125
    t = F(1, 3125)
    c = geometric(1)
    (rho,) = ev.rademacher_of(t)
    assert len(rho.period[1]) == 2500
    exact = ev.eval_periodic(c, t).value
    for enc in (ev.eval_series(c, t, F(1, 2**40)), ev.eval_from_rademacher(c, rho, F(1, 2**40))):
        assert enc.lo <= exact <= enc.hi and enc.hi - enc.lo <= F(1, 2**40)


def test_eleven_twentyfourths_expansion():
    rho = ev.rademacher_of(F(11, 24))[0]
    assert rho.take(9) == (1, -1, -1, -1, 1, -1, 1, -1, 1)


def test_eval_from_rademacher_agreement():
    for alpha, t in ((F(1, 2), F(1, 2)), (F(-1, 2), F(1, 3)), (F(1), F(1, 3))):
        c = geometric(alpha)
        rho = ev.rademacher_of(t)[0]
        enc = ev.eval_from_rademacher(c, rho, F(1, 2**30))
        exact = ev.eval_periodic(c, t)
        lo, hi = sc.scalar_enclosure(exact, F(1, 2**50))
        assert enc.lo <= hi and lo <= enc.hi
    # all +1 (t = 0) gives exactly 0 for any coefficients
    zero = ev.SignSequence((), (0, (1,)))
    enc = ev.eval_from_rademacher(ev.PowerSquared(), zero, F(1, 2**20))
    assert enc.lo <= 0 <= enc.hi and enc.hi - enc.lo <= F(1, 2**19)


def test_eval_from_rademacher_sqrt2_third():
    c = ev.Geometric(SQRT2)
    rho = ev.SignSequence((), (0, (1, -1)))
    enc = ev.eval_from_rademacher(c, rho, F(1, 2**24))
    target = sc.scalar_div(sc.scalar_add(SQRT2, F(2)), sc.rational(3))
    lo, hi = sc.scalar_enclosure(target, F(1, 2**40))
    assert enc.lo <= hi and lo <= enc.hi


def test_insufficient_prefix():
    rho = ev.SignSequence((1, -1, -1))
    with pytest.raises(ev.InsufficientPrefixError):
        ev.eval_from_rademacher(geometric(1), rho, F(1, 2**30))


def test_mutual_agreement_three_routes():
    rng = random.Random(17)
    cases = [(F(1, 2), 16), (F(-1, 2), 16), (F(1), 16), (F(-1), 16), (F(3, 2), 16),
             (F(-3, 2), 16), (QUARTIC, 4)]
    for a, npts in cases:
        c = ev.Geometric(sc._as_scalar(a))
        for _ in range(npts):
            t = F(rng.randint(0, 63), 63)
            e_per = ev.eval_periodic(c, t)
            plo, phi = sc.scalar_enclosure(e_per, F(1, 2**50))
            e_ser = ev.eval_series(c, t, F(1, 2**30))
            rho = ev.rademacher_of(t)[0]
            e_rad = ev.eval_from_rademacher(c, rho, F(1, 2**30))
            assert e_ser.lo <= phi and plo <= e_ser.hi
            assert e_rad.lo <= phi and plo <= e_rad.hi


def test_dyadic_rational_type():
    d = ev.DyadicRational.from_fraction(F(3, 8))
    assert (d.k, d.n) == (3, 3)
    assert d.to_fraction() == F(3, 8)
    with pytest.raises(ValueError):
        ev.DyadicRational(2, 2)  # not reduced
    with pytest.raises(ValueError):
        ev.DyadicRational.from_fraction(F(1, 3))


def test_sign_sequence_validation():
    with pytest.raises(ValueError):
        ev.SignSequence((1, 0))
    with pytest.raises(ValueError):
        ev.SignSequence((1, 1), (0, (1, -1)))  # prefix disagrees with period
    with pytest.raises(ValueError):
        ev.SignSequence((), (1, (1,)))  # start beyond prefix
    s = ev.SignSequence((1, -1), (0, (1, -1)))
    assert s[100] == 1 and s[101] == -1
    assert s.negated()[100] == -1


def test_geometric_tail_bound():
    c = geometric(F(3, 2))
    for n in (0, 3, 10):
        assert c.tail_bound(n) >= F(3, 4) ** (n + 1) / (1 - F(3, 4))
        assert c.tail_bound(n + 1) <= c.tail_bound(n)


def test_geometric_over_wide_interval_alpha():
    # alpha in [0.54, 0.55] with no refinement hook: the tail is bounded by
    # the ratio's own enclosure, max |alpha/2| = 0.275
    c = ev.Geometric(sc.interval(F(54, 100), F(55, 100)))
    assert c.tail_bound(3) == F(55, 200) ** 4 / (1 - F(55, 200))
    enc = ev.eval_series(c, F(1, 3), F(1, 10))
    assert enc.hi - enc.lo <= F(1, 10)
    for alpha in (F(54, 100), F(55, 100)):
        assert enc.lo <= ev.eval_periodic(ev.Geometric(alpha), F(1, 3)).value <= enc.hi
    # f(1/3) moves by about 3e-3 over the interval, so no certified enclosure
    # of width 10^-6 exists: the partial sum, not the ratio, is what fails
    with pytest.raises(sc.PrecisionError, match="1/2000000"):
        ev.eval_series(c, F(1, 3), F(1, 10**6))


def test_interval_geometric_tail_bound_is_rounded_up_small():
    # near alpha = 2 an interval's exact q^(n+1) would have millions of bits
    # (q's denominator times n); the bound is that value rounded up to about
    # 64 significant bits
    e = F(1, 10**25)
    c = ev.Geometric(sc.interval(F(399, 200) - e, F(399, 200) + e))
    q = max(abs(c._ratio.lo), abs(c._ratio.hi))
    previous = None
    for n in (100, 5000, 5001, 30000):
        exact = q ** (n + 1) / (1 - q)
        bound = c.tail_bound(n)
        assert exact <= bound <= exact * (1 + F(1, 2**60))
        assert bound.denominator.bit_length() < 400
        assert previous is None or bound <= previous
        previous = bound


def test_eval_series_past_orbit_cap(monkeypatch):
    # the period of 1/37 is 36; a slowly decaying sequence takes the
    # rounded-prefix path, which needs only the first n + 1 tent values
    c = ev.Geometric(F(199, 100))
    t, width = F(1, 37), F(1, 10**6)
    uncapped = ev.eval_series(c, t, width)
    lo, hi = sc.scalar_enclosure(ev.eval_periodic(c, t), F(1, 2**80))
    power = ev.PowerSquared()
    power_width = F(1, 10**3)
    power_uncapped = ev.eval_series(power, t, power_width)
    monkeypatch.setattr(ev, "ORBIT_CAP", 8)
    capped = ev.eval_series(c, t, width)
    assert capped.hi - capped.lo <= width
    assert capped.lo <= uncapped.hi and uncapped.lo <= capped.hi
    assert capped.lo <= lo and hi <= capped.hi
    # eval_periodic finds no period either, reads no tents, and sums the series
    periodic = ev.eval_periodic(c, t)
    assert isinstance(periodic, sc.IntervalScalar) and periodic.lo <= hi and lo <= periodic.hi
    # a sequence with residue-class tails falls back the same way past the cap
    power_capped = ev.eval_series(power, t, power_width)
    assert power_capped.hi - power_capped.lo <= power_width
    assert power_capped.lo <= power_uncapped.hi and power_uncapped.lo <= power_capped.hi


def test_weights_agree_with_weight():
    cases = [
        geometric(F(1, 2)),
        geometric(F(-199, 100)),
        geometric(QUARTIC),
        geometric(sc.algebraic([-3, 0, 2], 1, 2)),  # non-monic: sqrt(3/2)
        ev.PowerSquared(),
        ev.FiniteSupport([F(1, 3), -1, 0, F(5, 7)]),
    ]
    for c in cases:
        assert list(islice(c.weights(), 64)) == [c.weight(m) for m in range(64)], c


def test_series_without_residue_tails_skips_the_orbit(monkeypatch):
    # 2 has order 1,000,002 mod 1,000,003, past ORBIT_CAP; a Geometric
    # sequence has no residue-class tails, so no orbit is walked at all
    calls = []
    orbit = ev._orbit

    def counted(*args):
        calls.append(args)
        return orbit(*args)

    monkeypatch.setattr(ev, "_orbit", counted)
    c, width = geometric(F(19, 10)), F(1, 2**96)
    got = ev.eval_series(c, F(1, 1000003), width)
    assert calls == []
    assert got.hi - got.lo <= width
    # within the cap the rounded prefix gives the bounds of the periodic kernel
    c, t, width = geometric(F(199, 100)), F(1, 37), F(1, 10**6)
    residues, start = orbit(t)
    expected = ev._periodic_bounds(c, list(ev._tent_numerators(t, residues)), t.denominator, start, width)
    assert ev._series_bounds(c, t, width) == expected


def _dict_orbit(t, limit=None):
    """The orbit walk that keeps every residue in a dict until one repeats."""
    seen = {}
    for r in ev._residues(t):
        if r in seen:
            return list(seen), seen[r]
        if len(seen) == limit:
            return [], None
        seen[r] = len(seen)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den))))
def test_orbit_period_by_arithmetic_matches_the_residue_table(pair):
    t = F(*pair)
    residues, start = _dict_orbit(t)
    length = len(residues)
    for limit in (None, 1, 2, 3, length - 1, length):
        assert ev._orbit(t, limit) == _dict_orbit(t, limit), limit


def test_orbit_past_the_cap_stores_no_residues():
    # 2 has order 1,000,002 mod 1,000,003: a residue table would hold 10^6 ints
    tracemalloc.start()
    try:
        assert ev._orbit(F(1, 1000003), ev.ORBIT_CAP) == ([], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _scalar_tent_sum(c, t, terms):
    """sum_{m < terms} c_m tent(2^m t) added one Scalar term at a time."""
    total = sc.RationalScalar(F(0))
    for m, cm in zip(range(terms), c.coefficients()):
        total = sc.scalar_add(total, sc.scalar_mul(cm, ev.tent(2**m * t)))
    return total


def _closed_forms_and_scalar_sums(c, t):
    """(closed form, per-term Scalar sum) pairs for eval_truncated and eval_periodic."""
    # the periodic value against the preperiod plus the block summed as a
    # geometric series in Scalars
    residues, s = ev._orbit(t)
    p = len(residues) - s
    head = _scalar_tent_sum(c, t, s)
    block = sc.scalar_sub(_scalar_tent_sum(c, t, s + p), head)
    ratio = sc.scalar_inverse(sc.scalar_sub(F(1), c.coefficient(p)))
    return [
        (ev.eval_truncated(c, 12, t), _scalar_tent_sum(c, t, 13)),
        (ev.eval_periodic(c, t), sc.scalar_add(head, sc.scalar_mul(block, ratio))),
    ]


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=F(-79, 40), max_value=F(79, 40), max_denominator=40),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
)
def test_rational_closed_forms_match_scalar_sums(alpha, t):
    for got, want in _closed_forms_and_scalar_sums(ev.Geometric(sc.rational(alpha)), t):
        assert got == want


GOLDEN = sc.algebraic([-1, -1, 1], 1, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((SQRT2, sc.scalar_neg(SQRT2), GOLDEN, QUARTIC)),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
)
def test_algebraic_closed_forms_match_scalar_sums(alpha, t):
    for got, want in _closed_forms_and_scalar_sums(ev.Geometric(alpha), t):
        assert sc.scalar_eq(got, want)


def test_eval_periodic_interval_alpha():
    # an interval alpha gets the eval_series enclosure of width 2^-96: an
    # unrefinable 1/2 +- 2^-40 cannot reach it, a refinable one can
    e = F(1, 2**40)
    with pytest.raises(sc.PrecisionError):
        ev.eval_periodic(ev.Geometric(sc.interval(F(1, 2) - e, F(1, 2) + e)), F(1, 3))

    def refine(bits):
        w = F(1, 2**bits)
        return F(1, 2) - w, F(1, 2) + w

    got = ev.eval_periodic(ev.Geometric(sc.interval(F(1, 2) - e, F(1, 2) + e, refine)), F(1, 3))
    exact = ev.eval_periodic(ev.Geometric(F(1, 2)), F(1, 3)).value
    assert got.lo <= exact <= got.hi and got.hi - got.lo <= F(1, 2**96)


def _oracle_prefix_bounds(c, factors, den, n, width):
    """sum_{m<=n} c_m F_m for den F_m in [lo, hi], each term rounded outward
    to 2^-bits in Fractions and then added."""
    bits = 1
    while F(1, 2**bits) > width / (2 * (n + 2)):
        bits += 1
    scale = 2 ** (bits + 2)
    lo = hi = F(0)
    for m, (flo, fhi) in zip(range(n + 1), factors):
        clo, chi = sc.scalar_enclosure(c.coefficient(m), F(1, scale))
        lo += F(math.floor(min(clo * F(flo, den), clo * F(fhi, den)) * scale), scale)
        hi += F(math.ceil(max(chi * F(flo, den), chi * F(fhi, den)) * scale), scale)
    return lo, hi


def _tent_pairs(t, n):
    """(q tent(2^m t), q tent(2^m t)) for m <= n, t = k/q, from the definition."""
    out = []
    for m in range(n + 1):
        y = F(2**m) * t % 1
        v = min(y, 1 - y) * t.denominator
        out.append((int(v), int(v)))
    return out


KERNEL_SEQUENCES = [
    ev.PowerSquared(),
    geometric(F(199, 100)),
    geometric(F(-39, 20)),
    ev.FiniteSupport([F(1, 3), SQRT2, sc.scalar_neg(QUARTIC), 0, F(-5, 7), QUARTIC]),
]

prefix_pairs = st.lists(
    st.one_of(
        st.just((0, 0)),
        st.tuples(st.integers(0, 2**20), st.integers(1, 2**12)).map(lambda p: (max(p[0] - p[1], 0), p[0] + p[1])),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(KERNEL_SEQUENCES),
    st.one_of(
        st.tuples(st.just("tents"), st.fractions(min_value=0, max_value=1, max_denominator=400), st.integers(0, 90)),
        st.tuples(st.just("prefix"), prefix_pairs, st.integers(2, 40)),
    ),
    st.fractions(min_value=F(1, 10**15), max_value=1),
)
def test_rounded_prefix_kernel_matches_per_term_oracle(c, case, width):
    kind, a, b = case
    if kind == "tents":
        factors, den, n = _tent_pairs(a, b), a.denominator, b
    else:
        factors, den, n = a, 2**b, len(a) - 1
    assert ev._dyadic_prefix_bounds(c, iter(factors), den, n, width) == _oracle_prefix_bounds(
        c, factors, den, n, width
    )


def test_rounded_prefix_needs_a_positive_width():
    # the residue-tail round of t = 1/2 meets an all-zero block at once
    with pytest.raises(ev.DomainError):
        ev.eval_series(ev.PowerSquared(), F(1, 2), 0)
    with pytest.raises(ev.DomainError):
        ev._dyadic_prefix_bounds(ev.PowerSquared(), iter([(1, 1)]), 3, 0, F(-1, 8))


# `takagi eval --seq power-squared --format json`, as first printed by the
# Fraction-per-term kernel
POWER_SQUARED_EVAL_JSON = {
    "11/37": '{\n "t": "11/37",\n "lo": "0.497243051139865009977729008922",\n'
    ' "hi": "0.497243051140322748704470441923",\n "exact": null\n}\n',
    "5/59": '{\n "t": "5/59",\n "lo": "0.249798711092055159218611138303",\n'
    ' "hi": "0.249798711092368532271435671845",\n "exact": null\n}\n',
    "100/399": '{\n "t": "100/399",\n "lo": "0.406085339056069937720410325181",\n'
    ' "hi": "0.406085339056122515777326550555",\n "exact": null\n}\n',
}


@pytest.mark.parametrize("t", sorted(POWER_SQUARED_EVAL_JSON))
def test_power_squared_eval_json_is_pinned(t, capsys):
    from takagi import cli

    assert cli.main(["eval", "--seq", "power-squared", "--t", t, "--format", "json"]) == 0
    assert capsys.readouterr().out == POWER_SQUARED_EVAL_JSON[t]


def test_empty_and_one_sign_prefixes_are_insufficient():
    for signs in ((), (1,)):
        with pytest.raises(ev.InsufficientPrefixError):
            ev.eval_from_rademacher(ev.PowerSquared(), ev.SignSequence(signs), F(1, 8))


def _bounds_digest(enclosures):
    """sha256 of each enclosure's (lo, hi) numerators and denominators, in hex."""
    h = hashlib.sha256()
    for e in enclosures:
        h.update(b"%x/%x %x/%x;" % (e.lo.numerator, e.lo.denominator, e.hi.numerator, e.hi.denominator))
    return h.hexdigest()


# the seed-0 points of the benchmark's series-eval workload
SERIES_EVAL_POINTS = [F(s) for s in "49/61 54/97 6/115 67/147 131/177 125/223 208/259 245/291 184/327 299/365 112/397".split()]


def _power_squared_pair(t):
    c = ev.PowerSquared()
    return [ev.eval_series(c, t, F(1, 10**12)), ev.eval_from_rademacher(c, ev.rademacher_of(t)[0], F(1, 2**10))]


PINNED_SERIES_CASES = {
    "power-squared at the series-eval points": lambda: [e for t in SERIES_EVAL_POINTS for e in _power_squared_pair(t)],
    "power-squared at 11/37": lambda: _power_squared_pair(F(11, 37)),
    "power-squared at 157/389": lambda: [ev.eval_series(ev.PowerSquared(), F(157, 389), F(1, 10**12))],
    # a preperiod of 3 before the period 2, in both kernels' orbits
    "power-squared at 11/24": lambda: _power_squared_pair(F(11, 24)),
    # no residue-class tails: the rounded prefix over 2^15 rational terms
    "custom 1/(m+1)^2 at 11/37": lambda: [
        ev.eval_series(ev.Custom(lambda m: F(1, (m + 1) ** 2), lambda n: F(1, n + 1)), F(11, 37), F(1, 2**14))
    ],
    # algebraic terms through the rounded prefix
    "sqrt2 geometric at 1/3": lambda: [ev.eval_from_rademacher(geometric(SQRT2), ev.rademacher_of(F(1, 3))[0], F(1, 2**20))],
}

# exact bounds as first computed by the kernel that read each coefficient as a Scalar
SERIES_BOUND_DIGESTS = {
    "power-squared at the series-eval points": "a5ba2d32a73f262ce6ca3f3cdecc63c5322b8b48c51639e5e67a9d36fb0f5e24",
    "power-squared at 11/37": "0ca5ef707a626c10f37be692288c4663c0d84514e43e960db0b8f63755919d96",
    "power-squared at 157/389": "c01d73f7ee55394432f7efe482b77cc81099b7016166ed876320099b0f71cba7",
    "custom 1/(m+1)^2 at 11/37": "ec5ae1ab997fb01535b7dcda8dafd72be7c45052d2786fb4145778fdc96c22cb",
    "sqrt2 geometric at 1/3": "08bf8e37d6ed230d460e8b1a7de86b652948aa7aadfadad88a334f574a3c36ac",
    # first computed by the kernel that kept its residue-class tails as Fractions
    "power-squared at 11/24": "7dd2b35e498ff2f958bc49b48d2c799a4ed108a19293d95dca8957b6647a11c3",
}


@pytest.mark.parametrize("case", sorted(SERIES_BOUND_DIGESTS))
def test_series_bounds_are_pinned(case):
    assert _bounds_digest(PINNED_SERIES_CASES[case]()) == SERIES_BOUND_DIGESTS[case]


def _three_quarters_hook(bits):
    w = F(1, 2**bits)
    return F(3, 4) - w, F(3, 4) + w


STREAM_SEQUENCES = KERNEL_SEQUENCES + [
    ev.Custom(lambda m: F((-1) ** m, (m + 1) ** 2), lambda n: F(1, n + 1)),
    ev.Geometric(sc.interval(F(3, 4) - F(1, 2**40), F(3, 4) + F(1, 2**40), _three_quarters_hook)),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(STREAM_SEQUENCES), st.integers(0, 40), st.fractions(min_value=F(1, 10**15), max_value=1))
def test_coefficient_bounds_are_scalar_enclosures(c, n, width):
    for m, (lnum, lden, hnum, hden) in zip(range(n + 1), c.coefficient_bounds(width)):
        assert lden > 0 and hden > 0
        assert (F(lnum, lden), F(hnum, hden)) == sc.scalar_enclosure(c.coefficient(m), width)


@pytest.mark.parametrize("c, t", [(ev.PowerSquared(), F(11, 37)), (geometric(SQRT2), F(1, 3))])
def test_eval_series_hook_refines_inside_its_enclosure(c, t):
    coarse = ev.eval_series(c, t, F(1, 2**10))
    assert coarse.hi - coarse.lo <= F(1, 2**10)
    lo, hi = coarse.refine_fn(40)
    assert hi - lo <= F(1, 2**40) and coarse.lo <= lo <= hi <= coarse.hi
    if isinstance(c, ev.Geometric):
        # scalar_enclosure calls the hook at 256 bits or more, which the
        # power-squared series does not reach in reasonable time
        lo, hi = sc.scalar_enclosure(coarse, F(1, 2**40))
        assert hi - lo <= F(1, 2**40) and coarse.lo <= lo <= hi <= coarse.hi


def test_power_squared_series_builds_no_scalar_per_term(monkeypatch):
    # the rounded prefix reads PowerSquared's integer stream alone: with no
    # c_m available as a Scalar the pinned bounds still come out
    def no_scalar(self, m):
        raise AssertionError("c_%d built as a Scalar" % m)

    monkeypatch.setattr(ev.PowerSquared, "coefficient", no_scalar)
    case = "power-squared at 11/37"
    assert _bounds_digest(PINNED_SERIES_CASES[case]()) == SERIES_BOUND_DIGESTS[case]


def test_dyadic_points_stop_the_rounded_prefix_at_the_last_tent():
    # tent(2^m 3/8) is 0 from m = 3 on: of the 2^15 + 1 prefix terms the tents
    # read three coefficients, and the Rademacher factors, which run through
    # one period of the digits' +1 tail, read four
    calls = []

    def coefficient(m):
        calls.append(m)
        return F(1, (m + 1) ** 2)

    c, t, width = ev.Custom(coefficient, lambda n: F(1, n + 1)), F(3, 8), F(1, 2**14)
    exact = F(3, 8) + F(1, 4) / 4 + F(1, 9) / 2
    for got in (ev.eval_series(c, t, width), ev.eval_from_rademacher(c, ev.rademacher_of(t)[0], width)):
        assert got.lo <= exact <= got.hi and got.hi - got.lo <= width
    assert calls == [0, 1, 2] + [0, 1, 2, 3]


def test_power_squared_rounds_per_periodic_call(monkeypatch):
    # every round of the doubling walk of m0 encloses its p residue classes:
    # eval_series at 10^-12 passes on its 8th round, eval_from_rademacher at
    # 2^-10 on its 2nd; a closed-form floor of the tails' width would skip the
    # rounds that must fail, and this pin counts what it would save
    rounds = []
    enclose, periodic = ev.PowerSquared.residue_tail_enclosures, ev._periodic_bounds

    def counted_enclose(self, m0, p):
        rounds[-1] += 1
        return enclose(self, m0, p)

    def counted_periodic(*args):
        rounds.append(0)
        return periodic(*args)

    monkeypatch.setattr(ev.PowerSquared, "residue_tail_enclosures", counted_enclose)
    monkeypatch.setattr(ev, "_periodic_bounds", counted_periodic)
    case = "power-squared at the series-eval points"
    assert _bounds_digest(PINNED_SERIES_CASES[case]()) == SERIES_BOUND_DIGESTS[case]
    # (eval_series, eval_from_rademacher) at each of the 11 points
    assert rounds == [8, 2] * len(SERIES_EVAL_POINTS)


def test_power_squared_past_the_orbit_cap_is_pinned(monkeypatch):
    # with no period within the cap the rounded prefix reads the tents from
    # the residues, and 3/8's end at its first 0; t = 1, period 1, stays on
    # the periodic path; digest first computed with the tents taken through
    # `_tent_numerators`
    monkeypatch.setattr(ev, "ORBIT_CAP", 2)
    c = ev.PowerSquared()
    got = [ev.eval_series(c, t, F(1, 2**14)) for t in (F(11, 37), F(3, 8), F(1))]
    assert _bounds_digest(got) == "983770c80891033192e709b5c998eb86797fe3895fd742fa6b916ccc99321d86"


def _fraction_tails(block, den, m0, half):
    """One round of the kernel with Fraction tails: PowerSquared's class
    enclosures as Fraction pairs, the width test on the running partial sums,
    and the two tail sums; None where the round fails."""
    p = len(block)
    encl = []
    for a in range(m0 + 1, m0 + p + 1):
        hi = 30 * a**4 + 15 * p * a**3 + 5 * p**2 * a**2
        d = 30 * p * a**5
        encl.append((F(hi - 2 * p**4, d), F(hi, d)))
    widths = accumulate(f * (hi - lo) for f, (lo, hi) in zip(block, encl))
    if not all(w <= half * den for w in widths):
        return None
    return F(sum(f * lo for f, (lo, _) in zip(block, encl)), den), F(sum(f * hi for f, (_, hi) in zip(block, encl)), den)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2500),
    st.integers(2, 2**40),
    st.lists(st.integers(0, 2**40), min_size=1, max_size=60),
    st.one_of(
        st.sampled_from([F(1), 1 - F(1, 10**15), 1 + F(1, 10**15)]),
        st.fractions(min_value=F(1, 1000), max_value=1000),
    ),
    st.randoms(use_true_random=False),
)
def test_integer_tail_rounds_match_the_fraction_rounds(start, den, block, ratio, rng):
    # factors F_m = nums[m]/den in [0, 1/2]; width is ratio times twice the
    # first round's tail width, so rounds pass and fail at the edge, too
    block = [f % (den // 2 + 1) for f in block]
    nums = [rng.randrange(den // 2 + 1) for _ in range(start)] + block
    tlo, thi = _fraction_tails(block, den, start, F(10**9))
    w0 = thi - tlo
    width = 2 * ratio * w0 if w0 else F(1, 1000)
    m0, p = start, len(block)
    while (tails := _fraction_tails(block, den, m0, width / 2)) is None:
        m0 += p * max(1, m0 // p)
    prefix, real = [], ev._dyadic_prefix_bounds

    def spy(c, factors, den, n, width):
        # the same round passes (checked before a wrong one sums its prefix)
        assert n == m0 - 1
        prefix.append(real(c, factors, den, n, width))
        return prefix[-1]

    with mock.patch.object(ev, "_dyadic_prefix_bounds", spy):
        lo, hi = ev._periodic_bounds(ev.PowerSquared(), nums, den, start, width)
    # and the integer tails are the Fraction tails
    [(plo, phi)] = prefix
    assert (lo - plo, hi - phi) == tails
