"""Regime analysis for the two-parameter family f_a(t) = sum (a/2)^m tent(2^m t).

The parameter interval (-2, 2) splits into four regimes with distinct extremum
structure:

* (-2, -1): two maximizers, at (5 - 4^-n)/10 and its reflection, where n is
  determined by the interval [x_n, x_{n+1}) between consecutive negative roots
  x_n of 1 - x - ... - x^(2n); at the boundary a = x_n there are four.
* [-1, 1/2]: the unique maximizer 1/2 with value 1/2.
* (1/2, 1]: either two maximizers or a perfect set; handled by the step
  recursion engine.
* (1, 2): two maximizers at 1/3 and 2/3 with value 1/(3(1 - a/2)).

Minima: t = 1/5 (and 4/5) with value (1+a)/(5(1-(a/2)^2)) on (-2,-1), a
dimension-1/2 perfect set of zeros at a = -1, and {0, 1} for a > -1.

Each regime's closed-form extremizers and extremum are written once, in
`extremizers` and `extremum_value`; `maxima`, `minima` and `tau_point` read
them.  Every engine report with a closed form is checked against it, and the
deep neg_steep windows past the engine's depth cap, where the report is the
closed form itself, against direct orbit evaluation, so a disagreement raises
instead of propagating.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from functools import lru_cache, partial

from . import step_engine
from .evaluate import DomainError, Geometric, eval_periodic, rademacher_of
from . import scalars
from .scalars import (
    IntervalScalar,
    eval_int_poly,
    PrecisionError,
    RationalScalar,
    Scalar,
    algebraic,
    resolved_sign,
    scalar_add,
    scalar_div,
    scalar_enclosure,
    scalar_eq,
    scalar_mul,
    scalar_pow,
    scalar_sign,
    scalar_sub,
)
from .step_engine import Cardinality, ExtremaReport

NEG_STEEP = "neg_steep"
MIDDLE = "middle"
CRITICAL = "critical"
POS_STEEP = "pos_steep"

_ENGINE_DEPTH_CAP = 512


@dataclass(frozen=True)
class AlphaRegime:
    variant: str
    n: int | None = None       # neg_steep: x_n <= alpha < x_{n+1} (x_0 = -2)
    boundary: bool = False     # alpha == x_n exactly

    def __repr__(self) -> str:
        if self.variant == NEG_STEEP:
            return f"AlphaRegime(neg_steep, n={self.n}{', boundary' if self.boundary else ''})"
        return f"AlphaRegime({self.variant})"


@dataclass(frozen=True)
class LittlewoodNegRoot:
    """x_n: the unique negative root of 1 - x - ... - x^(2n), in (-2, -1)."""

    n: int
    root: Scalar


def sum_poly(n: int) -> tuple[int, ...]:
    """Coefficients of 1 - x - x^2 - ... - x^n."""
    return (1,) + (-1,) * n


def q_poly(n: int) -> tuple[int, ...]:
    """(1 - x) * (1 - x - ... - x^(2n)) = 1 - 2x + x^(2n+1)."""
    return (1, -2) + (0,) * (2 * n - 1) + (1,)


@lru_cache(maxsize=None)
def solve_xn(n: int) -> LittlewoodNegRoot:
    """Isolate x_n by bisecting 1 - 2x + x^(2n+1) on (-2, -1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    root = algebraic(q_poly(n), Fraction(-2), Fraction(-1))
    value = eval_int_poly(sum_poly(2 * n), root)
    if scalar_sign(value).sign != 0:
        raise AssertionError("x_%d fails to zero the Littlewood polynomial" % n)
    return LittlewoodNegRoot(n, root)


@lru_cache(maxsize=None)
def solve_alpha_n(n: int) -> Scalar:
    """The unique positive root of 1 - x - ... - x^n (alpha_1 = 1 exactly)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return RationalScalar(Fraction(1))
    return algebraic(sum_poly(n), Fraction(1, 2), Fraction(1))


def _q_sign(alpha: Scalar, k: int) -> int:
    """Sign of q_{2k}(alpha) = 1 - 2 alpha + alpha^(2k+1), the power taken by squaring."""
    q = scalar_add(scalar_sub(Fraction(1), scalar_mul(alpha, 2)), scalar_pow(alpha, 2 * k + 1))
    return resolved_sign(q, "q_%d(alpha)" % (2 * k))


def classify_alpha(alpha) -> AlphaRegime:
    """Locate alpha among the four regimes; neg_steep boundaries are exact."""
    alpha = scalars._as_scalar(alpha)
    if resolved_sign(scalar_add(alpha, 2), "alpha + 2") <= 0:
        raise DomainError("alpha must lie in (-2, 2)")
    if resolved_sign(scalar_sub(Fraction(2), alpha), "2 - alpha") <= 0:
        raise DomainError("alpha must lie in (-2, 2)")
    s1 = resolved_sign(scalar_add(alpha, 1), "alpha + 1")
    if s1 < 0:
        # find the largest n with x_n <= alpha, via signs of q_{2n}(alpha):
        # q is increasing on (-2, -1), so alpha >= x_n iff q_{2n}(alpha) >= 0;
        # and q_{2k}(alpha) strictly decreases in k, so gallop to a k with
        # sign s <= 0, then binary-search while q_{2n} > 0 (n = 0: x_0 = -2)
        n, k = 0, 1
        while (s := _q_sign(alpha, k)) > 0:
            n, k = k, 2 * k
        while s < 0 and k - n > 1:
            mid = (n + k) // 2
            s_mid = _q_sign(alpha, mid)
            if s_mid > 0:
                n = mid
            else:
                k, s = mid, s_mid
        if s == 0:
            return AlphaRegime(NEG_STEEP, k, True)
        return AlphaRegime(NEG_STEEP, n)
    if resolved_sign(scalar_sub(alpha, Fraction(1, 2)), "alpha - 1/2") <= 0:
        return AlphaRegime(MIDDLE)
    if resolved_sign(scalar_sub(alpha, 1), "alpha - 1") <= 0:
        return AlphaRegime(CRITICAL)
    return AlphaRegime(POS_STEEP)


def t_location(n: int) -> Fraction:
    """Maximizer location (5 - 4^-n)/10 for the n-th negative regime window."""
    return Fraction(5 * 4**n - 1, 10 * 4**n)


def negsteep_max_value(alpha, n: int) -> Scalar:
    """Maximum of f_alpha on [x_n, x_{n+1}]: the sign-resolved closed form.

    t_n + (4^-n/10) (3a^(2n+3) + a^3 - 4a) / ((1-a)(a^2-4)); the correction
    term is added, not subtracted -- resolved against direct orbit evaluation.
    """
    alpha = scalars._as_scalar(alpha)
    num = scalar_add(
        scalar_mul(scalar_pow(alpha, 2 * n + 3), 3),
        scalar_sub(scalar_pow(alpha, 3), scalar_mul(alpha, 4)),
    )
    den = scalar_mul(
        scalar_sub(Fraction(1), alpha),
        scalar_sub(scalar_mul(alpha, alpha), Fraction(4)),
    )
    corr = scalar_mul(scalar_div(num, den), Fraction(1, 10 * 4**n))
    return scalar_add(corr, t_location(n))


def minima_value_neg(alpha) -> Scalar:
    """f_alpha(1/5) = (1+a)/(5(1-(a/2)^2)) = 4(1+a)/(5(4-a^2))."""
    alpha = scalars._as_scalar(alpha)
    num = scalar_mul(scalar_add(alpha, 1), 4)
    den = scalar_mul(scalar_sub(Fraction(4), scalar_mul(alpha, alpha)), 5)
    return scalar_div(num, den)


def posteep_max_value(alpha) -> Scalar:
    """1/(3(1 - a/2)) = 2/(3(2 - a)) for a in (1, 2)."""
    alpha = scalars._as_scalar(alpha)
    return scalar_div(RationalScalar(Fraction(2)), scalar_mul(scalar_sub(Fraction(2), alpha), 3))


def extremizers(alpha: Scalar, regime: AlphaRegime, kind: str) -> tuple[Fraction, Fraction, Cardinality] | None:
    """The closed-form smallest and largest extremizer of f_alpha in [0, 1/2].

    Returned with the cardinality of the whole set.  The pair and its
    reflections 1 - t are every extremizer, except for the minimizers at
    alpha = -1: a perfect set of dimension 1/2 from 0 to 1/4.  None for the
    maximizers on (1/2, 1], which only the engine decides.
    """
    if kind == "min":
        if regime.variant == NEG_STEEP:
            pair = Fraction(1, 5), Fraction(1, 5)
        elif resolved_sign(scalar_add(alpha, 1), "alpha + 1") == 0:
            return Fraction(0), Fraction(1, 4), Cardinality.continuum(2)
        else:
            pair = Fraction(0), Fraction(0)
    elif regime.variant == NEG_STEEP:
        # at the boundary x_n the windows n - 1 and n share the maximum
        pair = t_location(regime.n - regime.boundary), t_location(regime.n)
    elif regime.variant == MIDDLE:
        pair = Fraction(1, 2), Fraction(1, 2)
    elif regime.variant == POS_STEEP:
        pair = Fraction(1, 3), Fraction(1, 3)
    else:
        return None
    return pair + (Cardinality.finite(len(_reflected(pair))),)


def extremum_value(alpha: Scalar, regime: AlphaRegime, kind: str) -> Scalar:
    """The closed-form extremum of f_alpha wherever `extremizers` has a pair."""
    if kind == "min":
        return minima_value_neg(alpha) if regime.variant == NEG_STEEP else RationalScalar(Fraction(0))
    if regime.variant == NEG_STEEP:
        return negsteep_max_value(alpha, regime.n)
    if regime.variant == MIDDLE:
        return RationalScalar(Fraction(1, 2))
    return posteep_max_value(alpha)


def _reflected(pair) -> tuple[Fraction, ...]:
    return tuple(sorted(set(pair) | {1 - t for t in pair}))


def _checked(report: ExtremaReport, alpha: Scalar, regime: AlphaRegime) -> ExtremaReport:
    """The engine's report, checked against the closed form where there is one.

    A regime with a closed form has a decided answer, so one left unknown
    raises PrecisionError (alpha is a too coarse interval); a disagreement in
    the locations or the value raises AssertionError.
    """
    table = extremizers(alpha, regime, report.kind)
    if table is None:
        return report
    if report.cardinality.kind == "unknown":
        raise PrecisionError("extremizer cardinality unknown beyond depth %d" % report.cardinality.depth)
    smallest, largest, card = table
    locations = _reflected((smallest, largest)) if card.kind == "finite" else None
    got = report.smallest.exact, report.largest.exact, report.cardinality, report.locations
    if got != (smallest, largest, card, locations):
        raise AssertionError("%s %s: engine extremizers disagree with the closed form" % (regime, report.kind))
    lo, hi = scalar_enclosure(extremum_value(alpha, regime, report.kind), report.value_width + Fraction(1, 2**80))
    if hi < report.value_lo or lo > report.value_hi:
        raise AssertionError("%s %s: closed-form value disagrees with engine enclosure" % (regime, report.kind))
    return report


def maxima(alpha, depth: int = step_engine.DEFAULT_DEPTH) -> ExtremaReport:
    """Global maximizers of f_alpha with certified cardinality and value.

    The step recursion engine decides every alpha except the deepest
    neg_steep windows.  Where a closed form exists (everywhere except
    (1/2, 1]), `_checked` checks the engine's report against it, and an
    answer left unknown there raises PrecisionError.

    Window n needs depth 2n + 18.  Past _ENGINE_DEPTH_CAP (n >= 248, alpha in
    about (-1.0022, -1)) the report is built from the closed form, and the
    orbit evaluation at the smallest and largest maximizer must equal the
    closed-form value.  The engine would give the same report but for its
    depth, at about three times the cost and with memory growing as n^2.
    """
    alpha = scalars._as_scalar(alpha)
    regime = classify_alpha(alpha)
    c = Geometric(alpha)
    if regime.variant == NEG_STEEP:
        run_depth = max(depth, 2 * regime.n + 18)
        if run_depth > _ENGINE_DEPTH_CAP:
            return _closed_form_report(c, regime, depth)
        depth = run_depth
    return _checked(step_engine.classify_extrema(c, "max", depth), alpha, regime)


def _closed_form_report(c: Geometric, regime: AlphaRegime, depth: int) -> ExtremaReport:
    """The maxima report of a deep neg_steep window, from the closed-form table."""
    smallest, largest, card = extremizers(c.alpha, regime, "max")
    value = extremum_value(c.alpha, regime, "max")
    located = {}
    for t in {smallest, largest}:
        if not scalar_eq(eval_periodic(c, t), value):
            raise AssertionError("orbit evaluation disagrees with closed form at %s" % t)
        located[t] = step_engine.Location(rademacher_of(t)[0], t, t, Fraction(0))
    return ExtremaReport(
        "max",
        located[smallest],
        located[largest],
        *scalar_enclosure(value, Fraction(1, 2**64)),
        card,
        _reflected((smallest, largest)),
        step_engine.build_rho(c, "sharp", depth),
    )


def minima(alpha, depth: int = step_engine.DEFAULT_DEPTH) -> ExtremaReport:
    """Global minimizers of f_alpha: {1/5, 4/5} on (-2,-1), a dimension-1/2
    perfect set at alpha = -1, and {0, 1} on (-1, 2)."""
    alpha = scalars._as_scalar(alpha)
    regime = classify_alpha(alpha)
    return _checked(step_engine.classify_extrema(Geometric(alpha), "min", depth), alpha, regime)


# ---------------------------------------------------------------------------
# the Tabor-Tabor closed form C(alpha)


def _tabor_bounds(alpha: Scalar, bits: int) -> tuple[Fraction, Fraction]:
    """C(alpha) by decimal interval arithmetic, rounded outward to 2^-bits.

    On (1/2, 1) every sign is known (0 < 2a - 1 < 1, ln a < 0, the exponent
    e = 1 - ln 2 / ln a > 1), so each endpoint comes from fixed operand
    endpoints: + - * / round toward it, and the correctly rounded ln and exp
    are widened by one unit in the last place.  The digits cover ln a's
    cancellation near 1.  Until alpha's enclosure lies inside (1/2, 1) the
    bounds are the a priori [1/2, 1].
    """
    lo, hi = scalars._bounds_at(alpha, bits + 8)
    if not Fraction(1, 2) < lo <= hi < 1:
        return Fraction(1, 2), Fraction(1)
    prec = (bits + scalars._width_bits(1 - hi)) * 30103 // 100000 + 12
    dn, up = (Context(prec, rounding, Emin=MIN_EMIN, Emax=MAX_EMAX) for rounding in (ROUND_FLOOR, ROUND_CEILING))

    def ln(x: Fraction, y: Fraction) -> tuple[Decimal, Decimal]:
        """ln over [x, y], 0 < x <= y."""
        x, y = dn.divide(x.numerator, x.denominator), up.divide(y.numerator, y.denominator)
        return x.ln(dn).next_minus(dn), y.ln(up).next_plus(up)

    log_a, log_base, log2 = ln(lo, hi), ln(2 * lo - 1, 2 * hi - 1), ln(Fraction(2), Fraction(2))
    if log_a[1] >= 0 or log_base[1] >= 0:
        return Fraction(1, 2), Fraction(1)
    # e = 1 + ln 2 / -ln a; the exponent e ln(2a - 1) < 0 is least at the largest e
    e_lo = dn.add(1, dn.divide(log2[0], dn.minus(log_a[0])))
    e_hi = up.add(1, up.divide(log2[1], up.minus(log_a[1])))
    p_lo = dn.multiply(e_hi, log_base[0]).exp(dn).next_minus(dn)
    p_hi = up.multiply(e_lo, log_base[1]).exp(up).next_plus(up)
    # C = 1/(2 - 2p) grows with p in (0, 1/2)
    c_lo = dn.divide(1, up.subtract(2, dn.multiply(2, p_lo)))
    c_hi = up.divide(1, dn.subtract(2, up.multiply(2, p_hi)))
    return scalars._outward(Fraction(c_lo), Fraction(c_hi), bits)


def tabor_C(alpha, target_width=Fraction(1, 10**9)) -> Scalar:
    """C(a) = 1/(2 - 2(2a-1)^((log2 a - 1)/log2 a)) as a certified enclosure.

    Defined on (1/2, 1); at a = 1 the printed exponent degenerates and the
    value is 2/3 by the classical case.  Equals the maximum of f_a exactly at
    the positive roots of 1 - x - ... - x^n, and only there in general.  The
    hook `_tabor_bounds` narrows the a priori bounds 1/2 < C(a) < 1 (p =
    (2a-1)^e > 0, and e ln(2a-1) < -2a ln 2 gives p < 1/2) in `_enclose`.
    """
    alpha = scalars._as_scalar(alpha)
    if resolved_sign(scalar_sub(alpha, Fraction(1, 2)), "alpha - 1/2") <= 0:
        raise DomainError("C(alpha) defined on (1/2, 1]")
    s1 = resolved_sign(scalar_sub(alpha, 1), "alpha - 1")
    if s1 > 0:
        raise DomainError("C(alpha) defined on (1/2, 1]")
    if s1 == 0:
        return IntervalScalar(Fraction(2, 3), Fraction(2, 3))
    leaf = IntervalScalar(Fraction(1, 2), Fraction(1), partial(_tabor_bounds, alpha))
    return IntervalScalar(*scalar_enclosure(leaf, target_width), leaf.refine_fn)


# ---------------------------------------------------------------------------
# maximizer-location curve (figure data)


@dataclass(frozen=True)
class TauPoint:
    alpha: Scalar
    sharp: Fraction   # smallest maximizer in [0, 1/2] (exact or approximant)
    flat: Fraction    # largest maximizer in [0, 1/2]
    exact: bool
    regime: str


def tau_point(alpha, depth: int = step_engine.DEFAULT_DEPTH) -> TauPoint:
    alpha = scalars._as_scalar(alpha)
    regime = classify_alpha(alpha)
    table = extremizers(alpha, regime, "max")
    if table is not None:
        return TauPoint(alpha, table[0], table[1], True, regime.variant)
    c = Geometric(alpha)
    sharp = step_engine.Location.from_trace(step_engine.build_rho(c, "sharp", depth))
    flat = step_engine.Location.from_trace(step_engine.build_rho(c, "flat", depth))
    exact = sharp.exact is not None and flat.exact is not None
    return TauPoint(alpha, sharp.approx, flat.approx, exact, regime.variant)


def tau_curve(alpha_grid, depth: int = step_engine.DEFAULT_DEPTH) -> list[TauPoint]:
    """Smallest/largest maximizer in [0, 1/2] along a parameter grid."""
    return [tau_point(a, depth) for a in alpha_grid]


def default_grid(points: int = 1999) -> list[Fraction]:
    """Equally spaced rationals strictly inside (-2, 2)."""
    step = Fraction(4, points + 1)
    return [Fraction(-2) + step * i for i in range(1, points + 1)]
