"""Function evaluation, Rademacher expansions, and their round trips."""

import random
from fractions import Fraction as F
from itertools import islice

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
    factors = ev._rademacher_factors(rho)
    t = ev.t_map_fraction(rho)
    start, p = len(pre), len(block)
    assert len(factors) == start + p
    for m in range(start + 2 * p):
        f = factors[m] if m < start + p else factors[m - p]
        assert f == ev.tent(2**m * t)


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
    expected = ev._periodic_bounds(c, list(ev._tents(t, residues)), start, width)
    assert ev._series_bounds(c, t, width) == expected
