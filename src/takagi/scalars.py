"""Exact scalar tower: rationals, algebraic numbers, certified intervals.

Every sign query in the extremizer machinery funnels through here and is
either exact or explicitly unresolved.  Three variants:

* ``RationalScalar`` -- arbitrary-precision rationals (``fractions.Fraction``).
* ``AlgebraicScalar`` -- a value ``v(alpha)`` where ``alpha`` is the unique
  root of an integer polynomial in the isolating integer bracket of its
  `_Root`, the one place that bracket is kept, and ``v`` is a remainder
  polynomial held in one integer form: numerators ``nums`` over one
  positive denominator ``den``, reduced modulo the defining polynomial and
  in lowest terms.  Every operation builds its result through `_canonical`.
  Its sign is `_Root.sign`, which the step engine calls too:
  `intpoly.root_sign`, exact, zero by a polynomial gcd test against the
  defining polynomial, nonzero by interval refinement (which must terminate
  once zero is excluded).  Every query bisects with one walker,
  `intpoly.refine_bracket`, and only narrows the number's shared `_Root`.
* ``IntervalScalar`` -- a rational enclosure with an optional refinement hook
  ``refine_fn(bits)``; the only variant whose sign can come back unresolved.

Interval results are balls (van der Hoeven, "Ball arithmetic", 2009;
Johansson, "Arb", IEEE Trans. Comput. 2017): one evaluator, `_ball`, of an
endpoint rule, whose hook re-evaluates the rule once at a precision and
rounds outward.  `_enclose` is the one loop that doubles the precision.

All values are immutable; refinement returns new objects and never widens an
enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, Sequence, Union

from . import intpoly
from .intpoly import IntPoly

DEFAULT_PRECISION_BITS = 256
DEFAULT_DOUBLING_ROUNDS = 8

_GUARD_BITS = 8
_ENCLOSE_ROUNDS = 64

_REFINE_STEP_LIMIT = 100_000


class PrecisionError(Exception):
    """An enclosure could not be narrowed to the requested width."""


@dataclass(frozen=True)
class SignResult:
    """Outcome of a sign query: -1, 0, +1, or unresolved with final width."""

    sign: int | None
    width: Fraction | None = None

    @property
    def resolved(self) -> bool:
        return self.sign is not None

    def __repr__(self) -> str:
        if self.sign is None:
            return f"SignResult(unresolved, width={self.width})"
        return f"SignResult({self.sign:+d})"


NEGATIVE = SignResult(-1)
ZERO = SignResult(0)
POSITIVE = SignResult(1)


@dataclass(frozen=True)
class RationalScalar:
    value: Fraction

    def __repr__(self) -> str:
        return f"RationalScalar({self.value})"


class _Root:
    """The root alpha of one algebraic number, shared by every scalar on it: `poly`, squarefree
    with alpha its only root in the base bracket (A0, B0, D0), in lowest terms, and `deep`, the
    deepest bracket bisecting the base has reached (depth k is over D0 2^k; a midpoint that is
    alpha ends it as the exact (M, M, D)).  Two roots are equal when their bases are.  Sign and
    enclosure queries, `refine` and the step engine's prefix sums start from `deep` and only
    narrow it."""

    def __init__(self, poly: IntPoly, base: intpoly.Bracket):
        self.poly, g = poly, math.gcd(*base)
        self.base = self.deep = tuple(x // g for x in base)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Root) and self.base == other.base

    def __hash__(self) -> int:
        return hash(self.base)

    def at(self, k: int) -> intpoly.Bracket:
        """The base halved k times toward alpha: `deep` read back by shifts, or narrowed to it."""
        (A0, B0, D0), deep = self.base, self.deep
        w, e = B0 - A0, (deep[2] // D0).bit_length() - 1
        if k >= e:
            if k > e and deep[0] < deep[1]:
                self.deep = deep = intpoly.refine_bracket(self.poly, deep, Fraction(w, D0 << k))
            return deep
        lo = (A0 << k) + (deep[0] - (A0 << e)) // (w << (e - k)) * w
        return lo, lo + w, D0 << k

    def sign(self, vec: Sequence[int], poly: IntPoly, slo: int | None = None) -> int:
        """The sign of vec(alpha) by `intpoly.root_sign` from `deep`, `poly` squarefree; the bracket
        that decided becomes `deep` unless the sign is 0 (zero tests would narrow forever)."""
        sign, bracket = intpoly.root_sign(vec, poly, self.deep, slo)
        if sign:
            self.deep = bracket
        return sign


@dataclass(frozen=True)
class AlgebraicScalar:
    """Value ``v(alpha)`` for the unique root ``alpha`` of ``poly`` in its `_Root`'s base bracket.

    ``v = V/den`` with ``nums`` the integer coefficients of V (ascending) and
    ``den > 0``, canonical: V is reduced mod ``poly`` with no trailing zeros
    (zero is ``()``) and gcd(den, V) = 1.  ``poly`` is primitive and
    squarefree; neither end of the bracket is a root.  ``root`` is alpha's
    `_Root`, passed on by every operation that keeps alpha; it compares and
    hashes by its base, and ``lo``/``hi`` are that base as Fractions.
    """

    poly: IntPoly
    nums: tuple[int, ...]
    den: int
    root: _Root

    @property
    def lo(self) -> Fraction:
        return Fraction(self.root.base[0], self.root.base[2])

    @property
    def hi(self) -> Fraction:
        return Fraction(self.root.base[1], self.root.base[2])

    @property
    def value(self) -> tuple[Fraction, ...]:
        """The coefficients of v as Fractions; zero is (0,)."""
        return tuple(Fraction(x, self.den) for x in self.nums) or (Fraction(0),)

    def is_base_root(self) -> bool:
        """Whether v(alpha) is alpha itself, as an untransformed ``algebraic(...)`` is."""
        return self.nums == (0, 1) and self.den == 1

    def __repr__(self) -> str:
        return f"AlgebraicScalar(poly={self.poly}, ({self.lo}, {self.hi}), value={self.value})"


@dataclass(frozen=True)
class IntervalScalar:
    """A value in [lo, hi]; ``refine_fn(bits)``, if any, encloses it to about
    2^-bits with no loop (`_ball` makes it for an operation's result)."""

    lo: Fraction
    hi: Fraction
    refine_fn: Callable[[int], tuple[Fraction, Fraction]] | None = None

    def __repr__(self) -> str:
        return f"IntervalScalar([{self.lo}, {self.hi}])"


Scalar = Union[RationalScalar, AlgebraicScalar, IntervalScalar]


# ---------------------------------------------------------------------------
# constructors


def rational(x) -> RationalScalar:
    return RationalScalar(Fraction(x))


def algebraic(poly: Sequence[int], lo, hi, value: Sequence[Fraction] | None = None) -> Scalar:
    """Scalar for the unique root of `poly` in (lo, hi), optionally mapped by `value`.

    The interval is checked to isolate exactly one distinct real root (Sturm
    count 1, on the chain `intpoly.squarefree_chain` gives with the
    squarefree part).  Degree-1 polynomials and degenerate intervals
    collapse to ``RationalScalar``.
    """
    p, chain, _ = intpoly.squarefree_chain(intpoly.normalize(poly))
    lo, hi = Fraction(lo), Fraction(hi)
    nums, den = ((0, 1), 1) if value is None else _clear_denominators(tuple(map(Fraction, value)))
    if intpoly.degree(p) < 1:
        raise ValueError("algebraic: polynomial must have positive degree")
    if lo > hi:
        raise ValueError("algebraic: empty interval")
    if lo == hi:
        if intpoly.sign_at(p, lo) != 0:
            raise ValueError("algebraic: degenerate interval is not a root")
        return _at_rational(lo, nums, den)
    if intpoly.degree(p) == 1:
        root = Fraction(-p[0], p[1])
        if not (lo < root < hi):
            raise ValueError("algebraic: linear polynomial has no root in interval")
        return _at_rational(root, nums, den)
    if intpoly.sign_at(p, lo) == 0 or intpoly.sign_at(p, hi) == 0:
        raise ValueError("algebraic: interval endpoint is a root")
    if intpoly.count_roots(chain, lo, hi) != 1:
        raise ValueError("algebraic: interval does not isolate exactly one root")
    return _canonical(p, nums, den, _Root(p, intpoly.to_bracket(lo, hi)))


def interval(lo, hi, refine_fn=None) -> IntervalScalar:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("interval: lo > hi")
    return IntervalScalar(lo, hi, refine_fn)


# ---------------------------------------------------------------------------
# remainder-polynomial arithmetic for AlgebraicScalar


def _reduce_int(nums: Sequence[int], den: int, poly: IntPoly) -> tuple[list[int], int]:
    """The vector nums/den reduced mod the defining polynomial, as (V, E) with E > 0.

    Integer numerators over one denominator (Cohen, A Course in Computational
    Algebraic Number Theory, 4.2): each elimination step scales the vector by
    the leading coefficient and folds that scale into the denominator.  V has
    no trailing zeros.
    """
    n = len(poly) - 1
    lead = poly[-1]
    v = list(nums)
    while len(v) > n:
        c = v.pop()
        if c:
            v = [lead * x for x in v]
            den *= lead
            k = len(v) - n
            for i in range(n):
                v[k + i] -= c * poly[i]
    while v and v[-1] == 0:
        v.pop()
    if den < 0:
        v, den = [-x for x in v], -den
    return v, den


def _canonical(poly: IntPoly, nums: Sequence[int], den: int, root: _Root) -> AlgebraicScalar:
    """The scalar nums/den at the root of `poly` that `root` holds, reduced mod poly and in lowest terms."""
    v, den = _reduce_int(nums, den, poly)
    g = math.gcd(den, *v)
    return AlgebraicScalar(poly, tuple(x // g for x in v), den // g, root)


def _on(a: AlgebraicScalar, nums: Sequence[int], den: int, poly: IntPoly | None = None) -> AlgebraicScalar:
    """nums/den at a's root, canonical, sharing a's `_Root` (reduced mod `poly` if given)."""
    return _canonical(poly or a.poly, nums, den, a.root)


def _combine(a: Sequence[int], s: int, b: Sequence[int], t: int) -> list[int]:
    """The integer vector s a + t b."""
    return [s * x + t * y for x, y in zip_longest(a, b, fillvalue=0)]


def _at_rational(x: Fraction, nums: Sequence[int], den: int) -> RationalScalar:
    """The rational nums(x)/den."""
    return RationalScalar(intpoly.eval_fraction(nums, x) / den)


def _clear_denominators(vec: tuple[Fraction, ...]) -> tuple[IntPoly, int]:
    """(V, L) with V = L * vec an integer polynomial and L > 0 the lcm of the denominators."""
    lcm = math.lcm(*(c.denominator for c in vec))
    return intpoly.normalize([c.numerator * (lcm // c.denominator) for c in vec]), lcm


def _alg_bounds(a: AlgebraicScalar, bracket: intpoly.Bracket) -> tuple[int, int, int]:
    """(vlo, vhi, s) with v(alpha) in [vlo/s, vhi/s] by interval Horner over a bracket of alpha,
    exact on (M, M, D).  s = den D^deg > 0 keeps min and max, so these are the bounds of Fraction
    interval Horner, which is inclusion-monotone: over nested brackets they are nested."""
    vlo, vhi = intpoly.eval_interval_scaled(a.nums, *bracket)
    return vlo, vhi, a.den * bracket[2] ** max(intpoly.degree(a.nums), 0)


def _alg_sign(a: AlgebraicScalar) -> int:
    # the sign of poly at lo holds on every bracket of alpha the query narrows to
    return a.root.sign(a.nums, a.poly, intpoly.sign_at(a.poly, a.lo))


def _alg_enclosure(a: AlgebraicScalar, width: Fraction, depth: int = 0) -> tuple[tuple[Fraction, Fraction], int]:
    """Bounds at the first bisection depth whose value width is <= `width`, and that depth.

    The enclosures are nested (`_alg_bounds`): the width never grows with depth, so a search
    from any start `depth` finds the same first depth.  Probes read brackets from a's `_Root`,
    narrowing it, and compare widths in integers.  A width <= 0 is a ValueError before any
    bisection, and a first depth past _REFINE_STEP_LIMIT a PrecisionError."""
    if width <= 0:
        raise ValueError("enclosure width %s is not positive" % _show(width))

    def probe(k: int) -> tuple[bool, tuple[int, int, int]]:
        vlo, vhi, scale = b = _alg_bounds(a, a.root.at(k))
        return (vhi - vlo) * width.denominator <= width.numerator * scale, b

    fits, best = probe(depth)
    failed, step = depth, 1
    while fits and depth and (up := probe(depth - 1))[0]:
        depth, best = depth - 1, up[1]
    # else gallop from the start, which does not fit, then bisect between failed and fitting depths
    while not fits or depth - failed > 1:
        if fits:
            k = (failed + depth) // 2
        elif failed >= _REFINE_STEP_LIMIT:
            raise PrecisionError("width %s needs bisection past depth %d" % (_show(width), _REFINE_STEP_LIMIT))
        else:
            k, step = min(failed + step, _REFINE_STEP_LIMIT), 2 * step
        ok, b = probe(k)
        if ok:
            fits, depth, best = True, k, b
        else:
            failed = k
    vlo, vhi, scale = best
    return (Fraction(vlo, scale), Fraction(vhi, scale)), depth


def _alg_localize(a: AlgebraicScalar, offender: IntPoly) -> AlgebraicScalar:
    """Split the defining polynomial so `offender` becomes coprime to it.

    Used before inversion when gcd(poly, offender) is nonconstant but the base
    root is not a root of the offender: the factor not containing the root is
    dropped.
    """
    g = intpoly.poly_gcd(a.poly, offender)
    if intpoly.degree(g) < 1:
        return a
    if intpoly.has_root(g, a.root.base):
        raise ZeroDivisionError("scalar inverse of zero value")
    return _on(a, a.nums, a.den, intpoly.exact_div(a.poly, g))


def _alg_inverse(a: AlgebraicScalar) -> AlgebraicScalar:
    """den/V at the root: X with V X = den mod poly, once V is coprime to poly.

    poly is squarefree, so dropping its factor gcd(poly, V) (which must not
    hold the root) leaves it coprime to V, and multiplication by V is
    invertible mod what is left.  Column k of that map is V x^k mod poly,
    W_k/e_k; the system sum_k Y_k W_k = den e_0, X_k = e_k Y_k, is solved
    in integers by fraction-free (Bareiss) elimination, whose last pivot d
    is +-det, so that d Y is an integer vector (Cramer).
    """
    a = _alg_localize(a, a.nums)
    n = len(a.poly) - 1
    rows = [[0] * n + [a.den if i == 0 else 0] for i in range(n)]
    scales, v, e = [], a.nums, 1
    for k in range(n):
        for i, x in enumerate(v):
            rows[i][k] = x
        scales.append(e)
        v, e = _reduce_int((0, *v), e, a.poly)
    d = 1
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            rows[i] = [(rows[k][k] * x - rows[i][k] * y) // d for x, y in zip(rows[i], rows[k])]
        d = rows[k][k]
    y = [0] * n
    for i in reversed(range(n)):
        y[i] = (d * rows[i][n] - sum(rows[i][j] * y[j] for j in range(i + 1, n))) // rows[i][i]
    return _on(a, [e * yk for e, yk in zip(scales, y)], d)


# ---------------------------------------------------------------------------
# generic operations


def _show(x: Fraction) -> str:
    """x for an error message: exact when short, else its power of two
    (str() of a Fraction past 4,300 digits raises ValueError)."""
    if abs(x.numerator).bit_length() + x.denominator.bit_length() <= 4000:
        return str(x)
    return "%s~2^%d" % ("-" if x < 0 else "", abs(x.numerator).bit_length() - x.denominator.bit_length())


def _sign_of_fraction(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _holds(outer: _Root, inner: _Root) -> bool:
    """Whether outer's base bracket contains inner's."""
    (A, B, D), (a, b, d) = outer.base, inner.base
    return A * d <= a * D and b * D <= B * d


def _try_unify(a: AlgebraicScalar, b: AlgebraicScalar):
    """Rebase two algebraic scalars onto one root and a common defining polynomial.

    Works when one root's base bracket holds the other's (e.g. one was `refine`d
    from the other) and their polynomials share the root in the narrower one (e.g.
    one was localized during inversion): both reduce mod the gcd on the narrower
    root, which isolates that root of the gcd.  Returns None if impossible.
    """
    if a.root == b.root and a.poly == b.poly:
        return a, b
    if _holds(b.root, a.root):
        root = a.root
    elif _holds(a.root, b.root):
        root = b.root
    else:
        return None
    g = a.poly if a.poly == b.poly else intpoly.poly_gcd(a.poly, b.poly)
    if not intpoly.has_root(g, root.base):
        return None
    return _canonical(g, a.nums, a.den, root), _canonical(g, b.nums, b.den, root)


def _as_scalar(x) -> Scalar:
    if isinstance(x, (RationalScalar, AlgebraicScalar, IntervalScalar)):
        return x
    return RationalScalar(Fraction(x))


def _bounds_at(a: Scalar, bits: int | None) -> tuple[Fraction, Fraction]:
    """a's bounds with no loop: exact, an algebraic's bisection enclosure of
    width 2^-bits, or an interval's hook bounds at bits within its own;
    with bits None, those at hand (an algebraic's base bracket)."""
    if isinstance(a, RationalScalar):
        return a.value, a.value
    if isinstance(a, AlgebraicScalar):
        if bits is None:
            vlo, vhi, scale = _alg_bounds(a, a.root.base)
            return Fraction(vlo, scale), Fraction(vhi, scale)
        return _alg_enclosure(a, Fraction(1, 1 << bits))[0]
    if bits is None or a.refine_fn is None:
        return a.lo, a.hi
    lo, hi = a.refine_fn(bits)
    return max(a.lo, lo), min(a.hi, hi)


def _round(x: Fraction, bits: int, up: bool) -> Fraction:
    """x rounded up or down to a multiple of 2^-bits, only where its denominator exceeds 2^bits."""
    if x.denominator <= 1 << bits:
        return x
    # x is no multiple of 2^-bits, so its ceiling is its floor plus one
    return Fraction(((x.numerator << bits) // x.denominator) + up, 1 << bits)


def _outward(lo: Fraction, hi: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    return _round(lo, bits, False), _round(hi, bits, True)


def _ball(rule: Callable, *operands: Scalar) -> IntervalScalar:
    """The interval `rule(bits, *operand bounds)`, with a hook that re-makes it at a precision.

    Built on the operands' bounds at hand.  The hook applies `rule` once to
    the operands' `_bounds_at` bits + _GUARD_BITS; it is None when no
    operand can refine.  Endpoints are rounded outward to 2^-bits (at
    construction DEFAULT_PRECISION_BITS), so small exact intervals stay exact
    and no endpoint grows past the precision.
    """

    def at(bits: int, bounds) -> tuple[Fraction, Fraction]:
        return _outward(*rule(bits, *bounds), bits)

    fn = None
    if any(isinstance(x, AlgebraicScalar) or getattr(x, "refine_fn", None) for x in operands):

        def fn(bits: int) -> tuple[Fraction, Fraction]:
            return at(bits, [_bounds_at(x, bits + _GUARD_BITS) for x in operands])

    return IntervalScalar(*at(DEFAULT_PRECISION_BITS, [_bounds_at(x, None) for x in operands]), fn)


def _mul_rule(bits, a, b):
    cands = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(cands), max(cands)


def _pow_rule(n: int, bits: int, a: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """x^n for n >= 1 from the bounds' magnitudes: one node for any n, and an
    even power of an interval that holds 0 starts at 0."""

    def power(x: Fraction, bits: int, up: bool) -> Fraction:
        # x >= 0: exact while x^n is no finer than 2^-bits, else squaring of
        # x 2^bits in integers with every quotient rounded the same way
        den, one = x.denominator, 1 << bits
        if (den.bit_length() - 1) * n <= bits and den**n <= one:
            return x**n
        div = (lambda v, d: -(-v // d)) if up else (lambda v, d: v // d)
        out, base, k = one, div(x.numerator << bits, den), n
        while True:
            if k & 1:
                out = div(out * base, one)
            k >>= 1
            if not k:
                return Fraction(out, one)
            base = div(base * base, one)

    lo, hi = a
    bits += _GUARD_BITS
    if n % 2:
        # increasing: lo^n rounded down and hi^n up, through magnitudes
        return (
            power(lo, bits, False) if lo >= 0 else -power(-lo, bits, True),
            power(hi, bits, True) if hi >= 0 else -power(-hi, bits, False),
        )
    small = Fraction(0) if lo < 0 < hi else min(abs(lo), abs(hi))
    return power(small, bits, False), power(max(abs(lo), abs(hi)), bits, True)


def _horner_rule(coeffs: IntPoly, bits: int, a: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Interval Horner in integers over a dyadic bracket of the operand, rounded outward at the operand's bits."""
    A, B, D = intpoly.to_bracket(*_outward(*a, bits + _GUARD_BITS))
    vlo, vhi = intpoly.eval_interval_scaled(coeffs, A, B, D)
    scale = D ** intpoly.degree(coeffs)
    return Fraction(vlo, scale), Fraction(vhi, scale)


def _enclose(a: Scalar, width: Fraction | None, rounds: int = _ENCLOSE_ROUNDS, done=None) -> tuple[Fraction, Fraction]:
    """Bounds of `a` toward `width` (None: none): the one refinement loop.

    An interval's hook is called at bits, 2 bits, 4 bits, ... (bits at least
    DEFAULT_PRECISION_BITS and 8 past width's), each result intersected with
    the bounds so far, until the width is met, `done(lo, hi)` holds, `rounds`
    calls are spent, or a round fails to halve the width.
    """
    if isinstance(a, RationalScalar):
        return a.value, a.value
    if isinstance(a, AlgebraicScalar):
        return _alg_enclosure(a, width)[0]
    bits = DEFAULT_PRECISION_BITS if width is None else max(DEFAULT_PRECISION_BITS, _width_bits(width) + 8)
    lo, hi = a.lo, a.hi
    for k in range(rounds if a.refine_fn is not None else 0):
        if (width is not None and hi - lo <= width) or (done is not None and done(lo, hi)):
            break
        nlo, nhi = a.refine_fn(bits << k)
        nlo, nhi = max(lo, nlo), min(hi, nhi)
        # each round asks for more bits than the last; one that does not
        # halve the width has met a floor (an unrefinable base interval)
        halved = 2 * (nhi - nlo) <= hi - lo
        lo, hi = nlo, nhi
        if not halved:
            break
    return lo, hi


def _width_bits(width: Fraction) -> int:
    """The least b >= 0 with 2^-b <= width, at most 100,000."""
    if width <= 0:
        return 100_000
    return min(100_000, (-(-width.denominator // width.numerator) - 1).bit_length())


def scalar_add(a, b) -> Scalar:
    a, b = _as_scalar(a), _as_scalar(b)
    if isinstance(a, RationalScalar) and isinstance(b, RationalScalar):
        return RationalScalar(a.value + b.value)
    if isinstance(a, AlgebraicScalar) and isinstance(b, RationalScalar):
        p, q = b.value.numerator, b.value.denominator
        return _on(a, _combine(a.nums, q, (p,), a.den), a.den * q)
    if isinstance(a, RationalScalar) and isinstance(b, AlgebraicScalar):
        return scalar_add(b, a)
    if isinstance(a, AlgebraicScalar) and isinstance(b, AlgebraicScalar):
        unified = _try_unify(a, b)
        if unified is not None:
            ua, ub = unified
            return _on(ua, _combine(ua.nums, ub.den, ub.nums, ua.den), ua.den * ub.den)
    return _ball(lambda bits, x, y: (x[0] + y[0], x[1] + y[1]), a, b)


def scalar_neg(a) -> Scalar:
    a = _as_scalar(a)
    if isinstance(a, RationalScalar):
        return RationalScalar(-a.value)
    if isinstance(a, AlgebraicScalar):
        return _on(a, [-x for x in a.nums], a.den)
    return _ball(lambda bits, x: (-x[1], -x[0]), a)


def scalar_sub(a, b) -> Scalar:
    return scalar_add(a, scalar_neg(b))


def scalar_mul(a, b) -> Scalar:
    a, b = _as_scalar(a), _as_scalar(b)
    if isinstance(a, RationalScalar) and isinstance(b, RationalScalar):
        return RationalScalar(a.value * b.value)
    if isinstance(a, AlgebraicScalar) and isinstance(b, RationalScalar):
        p, q = b.value.numerator, b.value.denominator
        return _on(a, [p * x for x in a.nums], a.den * q)
    if isinstance(a, RationalScalar) and isinstance(b, AlgebraicScalar):
        return scalar_mul(b, a)
    if isinstance(a, AlgebraicScalar) and isinstance(b, AlgebraicScalar):
        unified = _try_unify(a, b)
        if unified is not None:
            ua, ub = unified
            return _on(ua, intpoly.mul(ua.nums, ub.nums), ua.den * ub.den)
    return _ball(_mul_rule, a, b)


def scalar_inverse(a) -> Scalar:
    a = _as_scalar(a)
    if isinstance(a, RationalScalar):
        if a.value == 0:
            raise ZeroDivisionError("scalar inverse of zero value")
        return RationalScalar(1 / a.value)
    if isinstance(a, AlgebraicScalar):
        return _alg_inverse(a)
    if a.lo <= 0 <= a.hi:
        raise PrecisionError("scalar_inverse: interval [%s, %s] holds 0" % (_show(a.lo), _show(a.hi)))
    return _ball(lambda bits, x: (1 / x[1], 1 / x[0]), a)


def scalar_div(a, b) -> Scalar:
    return scalar_mul(a, scalar_inverse(b))


def scalar_sign(a, precision_budget: int = DEFAULT_DOUBLING_ROUNDS) -> SignResult:
    """Exact sign for rationals and algebraics; budgeted for intervals.

    ``precision_budget`` bounds the number of doubling refinement rounds used
    on an ``IntervalScalar`` before reporting ``Unresolved``.
    """
    a = _as_scalar(a)
    if isinstance(a, RationalScalar):
        return SignResult(_sign_of_fraction(a.value))
    if isinstance(a, AlgebraicScalar):
        return SignResult(_alg_sign(a))
    lo, hi = _enclose(a, None, max(0, precision_budget), lambda lo, hi: lo > 0 or hi < 0 or lo == hi == 0)
    if lo > 0:
        return POSITIVE
    if hi < 0:
        return NEGATIVE
    if lo == hi == 0:
        return ZERO
    return SignResult(None, hi - lo)


def resolved_sign(a, what: str) -> int:
    """The sign of `a`, or PrecisionError("<what> unresolved (width W)") when it stays unresolved."""
    s = scalar_sign(a)
    if not s.resolved:
        raise PrecisionError("%s unresolved (width %s)" % (what, _show(s.width)))
    return s.sign


def scalar_is_zero(a) -> bool:
    """Exact zero test; raises PrecisionError for an unresolvable straddling interval."""
    return resolved_sign(a, "zero test") == 0


def scalar_eq(a, b) -> bool:
    return scalar_is_zero(scalar_sub(a, b))


def eval_int_poly(p: Sequence[int], a) -> Scalar:
    """Evaluate an integer-coefficient polynomial at a scalar, exactly when possible."""
    a = _as_scalar(a)
    coeffs = intpoly.normalize(p)
    if not coeffs:
        return RationalScalar(Fraction(0))
    if isinstance(a, RationalScalar):
        return RationalScalar(intpoly.eval_fraction(coeffs, a.value))
    if isinstance(a, AlgebraicScalar):
        acc = _on(a, coeffs[-1:], 1)
        for c in reversed(coeffs[:-1]):
            den = acc.den * a.den
            acc = _on(a, _combine(intpoly.mul(acc.nums, a.nums), 1, (c,), den), den)
        return acc
    return _ball(partial(_horner_rule, coeffs), a)


def scalar_pow(a, n: int) -> Scalar:
    if n < 0:
        return scalar_inverse(scalar_pow(a, -n))
    base = _as_scalar(a)
    if isinstance(base, RationalScalar):
        return RationalScalar(base.value**n)
    if isinstance(base, IntervalScalar) and n:
        return _ball(partial(_pow_rule, n), base)
    out: Scalar = RationalScalar(Fraction(1))
    while n:
        if n & 1:
            out = scalar_mul(out, base)
        base = scalar_mul(base, base)
        n >>= 1
    return out


def scalar_enclosure(a, width) -> tuple[Fraction, Fraction]:
    """Rational enclosure of width <= `width` (PrecisionError if unreachable)."""
    lo, hi = _enclose(_as_scalar(a), Fraction(width))
    if hi - lo > Fraction(width):
        raise PrecisionError("cannot enclose scalar to width %s" % _show(Fraction(width)))
    return lo, hi


def enclosures(xs: Iterable, width) -> Iterator[tuple[Fraction, Fraction]]:
    """`scalar_enclosure(x, width)` for each x in turn; an algebraic x's depth search starts
    where the one before it ended, as a sequence's coefficients need about the same depth."""
    width, depth = Fraction(width), 0
    for x in xs:
        if isinstance(x, AlgebraicScalar):
            bounds, depth = _alg_enclosure(x, width, depth)
            yield bounds
        else:
            yield (x.value, x.value) if isinstance(x, RationalScalar) else scalar_enclosure(x, width)


def refine(a, width) -> Scalar:
    """Narrow enclosures below `width`; exact scalars pass through unchanged."""
    a = _as_scalar(a)
    width = Fraction(width)
    if isinstance(a, RationalScalar):
        return a
    if isinstance(a, AlgebraicScalar):
        if width <= 0:
            raise ValueError("refine width %s is not positive" % _show(width))
        # the first depth k with (B0 - A0) / (D0 2^k) <= width, or alpha if a midpoint hits it first
        A0, B0, D0 = a.root.base
        A, B, D = a.root.at((-(-(B0 - A0) * width.denominator // (width.numerator * D0)) - 1).bit_length())
        if A == B:
            return _at_rational(Fraction(A, D), a.nums, a.den)
        return AlgebraicScalar(a.poly, a.nums, a.den, _Root(a.poly, (A, B, D)))
    lo, hi = _enclose(a, width)
    return IntervalScalar(lo, hi, a.refine_fn)


def same_root(a, b) -> bool:
    """Exact equality of two isolated algebraic/rational numbers.

    Compares the numbers themselves (for AlgebraicScalar, the value must be
    the base root, i.e. an untransformed ``algebraic(...)`` result).
    """
    a, b = _as_scalar(a), _as_scalar(b)
    if isinstance(a, RationalScalar) and isinstance(b, RationalScalar):
        return a.value == b.value
    if isinstance(a, RationalScalar):
        a, b = b, a
    if isinstance(b, RationalScalar):
        assert isinstance(a, AlgebraicScalar)
        if not a.is_base_root():
            raise ValueError("same_root expects plain base roots")
        return a.lo < b.value < a.hi and intpoly.sign_at(a.poly, b.value) == 0
    assert isinstance(a, AlgebraicScalar) and isinstance(b, AlgebraicScalar)
    if not (a.is_base_root() and b.is_base_root()):
        raise ValueError("same_root expects plain base roots")
    (A1, B1, D1), (A2, B2, D2) = a.root.base, b.root.base
    lo, hi = max(A1 * D2, A2 * D1), min(B1 * D2, B2 * D1)
    return lo < hi and intpoly.has_root(intpoly.poly_gcd(a.poly, b.poly), (lo, hi, D1 * D2))


# ---------------------------------------------------------------------------
# rendering / serialization


def scalar_decimal(a, digits: int = 30) -> str:
    """Decimal rendering with `digits` significant digits."""
    from decimal import Decimal, localcontext

    a = _as_scalar(a)
    if isinstance(a, RationalScalar):
        mid = a.value
    else:
        lo, hi = _enclose(a, Fraction(1, 10 ** (digits + 6)))
        if hi - lo > Fraction(1, 10 ** (digits + 2)):
            raise PrecisionError("enclosure too wide for %d digits" % digits)
        mid = (lo + hi) / 2
    with localcontext() as ctx:
        ctx.prec = digits
        d = Decimal(mid.numerator) / Decimal(mid.denominator)
    return str(d)


def frac_str(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def scalar_to_json(a) -> dict:
    a = _as_scalar(a)
    if isinstance(a, RationalScalar):
        return {
            "type": "rational",
            "num": str(a.value.numerator),
            "den": str(a.value.denominator),
        }
    if isinstance(a, AlgebraicScalar):
        out = {
            "type": "algebraic",
            "poly": list(a.poly),
            "lo": frac_str(a.lo),
            "hi": frac_str(a.hi),
        }
        if not a.is_base_root():
            out["value"] = [frac_str(c) for c in a.value]
        return out
    return {
        "type": "interval",
        "lo": scalar_decimal(RationalScalar(a.lo), 40),
        "hi": scalar_decimal(RationalScalar(a.hi), 40),
    }
