"""Exact scalar tower: rationals, algebraic numbers, certified intervals.

Every sign query in the extremizer machinery funnels through here and is
either exact or explicitly unresolved.  Three variants:

* ``RationalScalar`` -- arbitrary-precision rationals (``fractions.Fraction``).
* ``AlgebraicScalar`` -- a value ``v(alpha)`` where ``alpha`` is the unique
  root of an integer polynomial inside an isolating interval and ``v`` is a
  rational remainder polynomial.  Signs are decided exactly: zero by a
  polynomial gcd test against the defining polynomial, nonzero by interval
  refinement (which must terminate once zero is excluded).
* ``IntervalScalar`` -- a rational enclosure with an optional refinement hook;
  the only variant whose sign can come back unresolved.

All values are immutable; refinement returns new objects and never widens an
enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from . import intpoly
from .intpoly import IntPoly

DEFAULT_PRECISION_BITS = 256
DEFAULT_DOUBLING_ROUNDS = 8

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


@dataclass(frozen=True)
class AlgebraicScalar:
    """Value ``v(alpha)`` for the unique root ``alpha`` of ``poly`` in (lo, hi).

    ``value`` holds the coefficients of ``v`` (ascending, degree < deg poly).
    ``poly`` is primitive and squarefree; neither endpoint is a root.
    """

    poly: IntPoly
    lo: Fraction
    hi: Fraction
    value: tuple[Fraction, ...]

    def base_key(self) -> tuple:
        return (self.poly, self.lo, self.hi)

    def __repr__(self) -> str:
        return f"AlgebraicScalar(poly={self.poly}, ({self.lo}, {self.hi}), value={self.value})"


@dataclass(frozen=True)
class IntervalScalar:
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
    count 1).  Degree-1 polynomials and degenerate intervals collapse to
    ``RationalScalar``.
    """
    p = intpoly.squarefree_part(intpoly.normalize(poly))
    lo, hi = Fraction(lo), Fraction(hi)
    if intpoly.degree(p) < 1:
        raise ValueError("algebraic: polynomial must have positive degree")
    if lo > hi:
        raise ValueError("algebraic: empty interval")
    if lo == hi:
        if intpoly.sign_at(p, lo) != 0:
            raise ValueError("algebraic: degenerate interval is not a root")
        return _apply_value_rational(lo, value)
    if intpoly.degree(p) == 1:
        root = Fraction(-p[0], p[1])
        if not (lo < root < hi):
            raise ValueError("algebraic: linear polynomial has no root in interval")
        return _apply_value_rational(root, value)
    if intpoly.sign_at(p, lo) == 0 or intpoly.sign_at(p, hi) == 0:
        raise ValueError("algebraic: interval endpoint is a root")
    chain = intpoly.sturm_chain(p)
    if intpoly.count_roots(chain, lo, hi) != 1:
        raise ValueError("algebraic: interval does not isolate exactly one root")
    if value is None:
        return AlgebraicScalar(p, lo, hi, (Fraction(0), Fraction(1)))
    return AlgebraicScalar(p, lo, hi, _reduce_vec(*_clear_denominators(tuple(map(Fraction, value))), p))


def interval(lo, hi, refine_fn=None) -> IntervalScalar:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("interval: lo > hi")
    return IntervalScalar(lo, hi, refine_fn)


def _apply_value_rational(root: Fraction, value) -> RationalScalar:
    if value is None:
        return RationalScalar(root)
    acc = Fraction(0)
    for c in reversed(tuple(value)):
        acc = acc * root + Fraction(c)
    return RationalScalar(acc)


# ---------------------------------------------------------------------------
# remainder-polynomial arithmetic for AlgebraicScalar


def _reduce_vec(nums: Sequence[int], den: int, poly: IntPoly) -> tuple[Fraction, ...]:
    """The vector nums/den reduced mod the defining polynomial, as Fractions.

    Integer numerators over one denominator (Cohen, A Course in Computational
    Algebraic Number Theory, 4.2): each elimination step scales the vector by
    the leading coefficient and folds that scale into the denominator.
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
    return tuple(Fraction(x, den) for x in v) if v else (Fraction(0),)


def _vec_add(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else Fraction(0)) + (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    )


def _vec_mul(a, b, poly):
    (x, dx), (y, dy) = _clear_denominators(a), _clear_denominators(b)
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[i + j] += xi * yj
    return _reduce_vec(out, dx * dy, poly)


def _vec_is_all_zero(a) -> bool:
    return all(c == 0 for c in a)


def _clear_denominators(vec: tuple[Fraction, ...]) -> tuple[IntPoly, int]:
    """(V, L) with V = L * vec an integer polynomial and L > 0 the lcm of the denominators."""
    lcm = math.lcm(*(c.denominator for c in vec))
    return intpoly.normalize([c.numerator * (lcm // c.denominator) for c in vec]), lcm


class _Bisection:
    """Bisection of an algebraic scalar's base bracket, in integers.

    Bracket k is (A/D, B/D), the base interval halved k times toward the
    root.  Every bracket reached is kept, so a query can go back to any depth
    it has already walked.  A midpoint that is itself the root ends the walk:
    `root` holds it, and no deeper bracket exists.
    """

    def __init__(self, a: AlgebraicScalar):
        den = math.lcm(a.lo.denominator, a.hi.denominator)
        self.a = a
        self.brackets = [(int(a.lo * den), int(a.hi * den), den)]
        self.sign_lo = intpoly.sign_at(a.poly, a.lo)
        self.root: Fraction | None = None
        # v = V/L, evaluated by the integer kernel: scaling by the positive
        # L * D^deg V keeps min and max, so the bounds are exactly those of
        # Fraction interval Horner
        self.v, self.lcm = _clear_denominators(a.value)

    def at(self, depth: int) -> tuple[int, int, int] | None:
        """Bracket (A, B, D) at `depth`, or None past a midpoint root."""
        if depth > _REFINE_STEP_LIMIT:
            raise RuntimeError("algebraic bisection failed to converge")
        while len(self.brackets) <= depth and self.root is None:
            A, B, D = self.brackets[-1]
            sm = intpoly.sign_at_scaled(self.a.poly, A + B, 2 * D)
            if sm == 0:
                self.root = Fraction(A + B, 2 * D)
            elif sm == self.sign_lo:
                self.brackets.append((A + B, 2 * B, 2 * D))
            else:
                self.brackets.append((2 * A, A + B, 2 * D))
        return self.brackets[depth] if depth < len(self.brackets) else None

    def bounds(self, depth: int) -> tuple[Fraction, Fraction]:
        """Enclosure of v(alpha) from bracket `depth`; past a midpoint root, the exact value.

        Interval Horner is inclusion-monotone, so the enclosures are nested
        and their width never grows with depth.
        """
        bracket = self.at(depth)
        if bracket is None:
            r = _apply_value_rational(self.root, self.a.value).value
            return r, r
        vlo, vhi = intpoly.eval_interval_scaled(self.v, *bracket)
        scale = self.lcm * bracket[2] ** max(intpoly.degree(self.v), 0)
        return Fraction(vlo, scale), Fraction(vhi, scale)


def _next_depth(depth: int) -> int:
    """Depths 0, 4, 8, 16, ...: O(log d) value evaluations to reach depth d."""
    return max(4, 2 * depth)


def _alg_value_zero(a: AlgebraicScalar, v: IntPoly) -> bool:
    """Exact test of v(alpha) == 0 via gcd against the defining polynomial.

    `v` is the value polynomial cleared of denominators.
    """
    if not v:
        return True
    g = intpoly.poly_gcd(a.poly, v)
    if intpoly.degree(g) < 1:
        return False
    # g divides poly, so it has at most one (simple) root in (lo, hi) and the
    # endpoints are not roots; a sign change decides.
    return intpoly.sign_at(g, a.lo) * intpoly.sign_at(g, a.hi) < 0


def _alg_sign(a: AlgebraicScalar) -> int:
    walk = _Bisection(a)
    # an enclosure that excludes 0 has the sign; the exact zero test runs
    # once, when the base enclosure does not, so that the loop must end
    depth = 0
    while True:
        lo, hi = walk.bounds(depth)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if depth == 0 and _alg_value_zero(a, walk.v):
            return 0
        depth = _next_depth(depth)


def _alg_enclosure(a: AlgebraicScalar, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds at the first bisection depth whose value width is <= `width`.

    The width never grows with depth, so a galloping search and then a binary
    search over depth find the depth that bisecting one step at a time finds.
    """
    walk = _Bisection(a)
    failed, depth = -1, 0
    while (b := walk.bounds(depth))[1] - b[0] > width:
        failed, depth = depth, _next_depth(depth)
    while depth - failed > 1:
        mid = (failed + depth) // 2
        bm = walk.bounds(mid)
        if bm[1] - bm[0] <= width:
            depth, b = mid, bm
        else:
            failed = mid
    return b


def _alg_localize(a: AlgebraicScalar, offender: IntPoly) -> AlgebraicScalar:
    """Split the defining polynomial so `offender` becomes coprime to it.

    Used before inversion when gcd(poly, offender) is nonconstant but the base
    root is not a root of the offender: the factor not containing the root is
    dropped.
    """
    g = intpoly.poly_gcd(a.poly, offender)
    if intpoly.degree(g) < 1:
        return a
    if intpoly.sign_at(g, a.lo) * intpoly.sign_at(g, a.hi) < 0:
        raise ZeroDivisionError("scalar inverse of zero value")
    q = intpoly.squarefree_part(intpoly.exact_div(a.poly, g))
    return AlgebraicScalar(q, a.lo, a.hi, _reduce_vec(*_clear_denominators(a.value), q))


def _poly_egcd_q(a: list[Fraction], b: list[Fraction]):
    """Extended gcd over Q[x] on dense ascending lists; returns (g, s) with
    s*a = g mod b."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def q_divmod(f, g):
        f = f[:]
        q = [Fraction(0)] * max(1, len(f) - len(g) + 1)
        while trim(f) and len(f) >= len(g):
            c = f[-1] / g[-1]
            k = len(f) - len(g)
            q[k] += c
            for i in range(len(g)):
                f[k + i] -= c * g[i]
            f.pop()
        return q, f

    r0, r1 = trim(a[:]), trim(b[:])
    s0, s1 = [Fraction(1)], [Fraction(0)]
    while r1:
        q, r = q_divmod(r0, r1)
        r0, r1 = r1, trim(r)
        qs = _qpoly_mul(q, s1)
        s0, s1 = s1, trim(_qpoly_sub(s0, qs))
    return r0, s0


def _qpoly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]


def _alg_inverse(a: AlgebraicScalar) -> AlgebraicScalar:
    cur = a
    for _ in range(64):
        if _vec_is_all_zero(cur.value):
            raise ZeroDivisionError("scalar inverse of zero value")
        v = list(cur.value)
        q = [Fraction(c) for c in cur.poly]
        g, s = _poly_egcd_q(v, q)
        if len(g) == 1:
            inv = tuple(c / g[0] for c in s)
            return AlgebraicScalar(cur.poly, cur.lo, cur.hi, _reduce_vec(*_clear_denominators(inv), cur.poly))
        cur = _alg_localize(cur, _clear_denominators(tuple(g))[0])
    raise RuntimeError("algebraic inverse failed to localize")


# ---------------------------------------------------------------------------
# generic operations


def _sign_of_fraction(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _try_unify(a: AlgebraicScalar, b: AlgebraicScalar):
    """Rebase two algebraic scalars onto a common defining polynomial.

    Works when they share the isolating interval and their polynomials share
    the root there (e.g. one was localized during inversion): both reduce mod
    the gcd, which still isolates the same root.  Returns None if impossible.
    """
    if a.base_key() == b.base_key():
        return a, b
    if (a.lo, a.hi) != (b.lo, b.hi):
        return None
    g = intpoly.poly_gcd(a.poly, b.poly)
    if intpoly.degree(g) < 1:
        return None
    if intpoly.sign_at(g, a.lo) * intpoly.sign_at(g, a.hi) >= 0:
        return None
    g = intpoly.squarefree_part(g)
    return (
        AlgebraicScalar(g, a.lo, a.hi, _reduce_vec(*_clear_denominators(a.value), g)),
        AlgebraicScalar(g, b.lo, b.hi, _reduce_vec(*_clear_denominators(b.value), g)),
    )


def _as_scalar(x) -> Scalar:
    if isinstance(x, (RationalScalar, AlgebraicScalar, IntervalScalar)):
        return x
    return RationalScalar(Fraction(x))


def _current_bounds(a: Scalar) -> tuple[Fraction, Fraction]:
    """Enclosure from state already at hand; never triggers refinement."""
    if isinstance(a, RationalScalar):
        return a.value, a.value
    if isinstance(a, AlgebraicScalar):
        return _Bisection(a).bounds(0)
    return a.lo, a.hi


def _enclose(a: Scalar, width: Fraction) -> tuple[Fraction, Fraction]:
    if isinstance(a, RationalScalar):
        return a.value, a.value
    if isinstance(a, AlgebraicScalar):
        return _alg_enclosure(a, width)
    cur = a
    rounds = 0
    while cur.hi - cur.lo > width and cur.refine_fn is not None and rounds < 64:
        bits = max(DEFAULT_PRECISION_BITS, _width_bits(width) + 8) << rounds
        nlo, nhi = cur.refine_fn(bits)
        nlo, nhi = max(cur.lo, nlo), min(cur.hi, nhi)
        if nhi - nlo >= cur.hi - cur.lo:
            return nlo, nhi  # refinement stalled (unrefinable base interval)
        cur = IntervalScalar(nlo, nhi, cur.refine_fn)
        rounds += 1
    return cur.lo, cur.hi


def _width_bits(width: Fraction) -> int:
    b = 0
    w = Fraction(1)
    while w > width and b < 100_000:
        w /= 2
        b += 1
    return b


def scalar_add(a, b) -> Scalar:
    a, b = _as_scalar(a), _as_scalar(b)
    if isinstance(a, RationalScalar) and isinstance(b, RationalScalar):
        return RationalScalar(a.value + b.value)
    if isinstance(a, AlgebraicScalar) and isinstance(b, RationalScalar):
        return AlgebraicScalar(a.poly, a.lo, a.hi, _vec_add(a.value, (b.value,)))
    if isinstance(a, RationalScalar) and isinstance(b, AlgebraicScalar):
        return scalar_add(b, a)
    if isinstance(a, AlgebraicScalar) and isinstance(b, AlgebraicScalar):
        unified = _try_unify(a, b)
        if unified is not None:
            ua, ub = unified
            return AlgebraicScalar(ua.poly, ua.lo, ua.hi, _vec_add(ua.value, ub.value))

    def fn(bits: int):
        w = Fraction(1, 2**bits)
        alo, ahi = _enclose(a, w)
        blo, bhi = _enclose(b, w)
        return alo + blo, ahi + bhi

    (alo, ahi), (blo, bhi) = _current_bounds(a), _current_bounds(b)
    return IntervalScalar(alo + blo, ahi + bhi, fn)


def scalar_neg(a) -> Scalar:
    a = _as_scalar(a)
    if isinstance(a, RationalScalar):
        return RationalScalar(-a.value)
    if isinstance(a, AlgebraicScalar):
        return AlgebraicScalar(a.poly, a.lo, a.hi, tuple(-c for c in a.value))
    fn = None
    if a.refine_fn is not None:
        inner = a.refine_fn

        def fn(bits: int):
            lo, hi = inner(bits)
            return -hi, -lo

    return IntervalScalar(-a.hi, -a.lo, fn)


def scalar_sub(a, b) -> Scalar:
    return scalar_add(a, scalar_neg(b))


def scalar_mul(a, b) -> Scalar:
    a, b = _as_scalar(a), _as_scalar(b)
    if isinstance(a, RationalScalar) and isinstance(b, RationalScalar):
        return RationalScalar(a.value * b.value)
    if isinstance(a, AlgebraicScalar) and isinstance(b, RationalScalar):
        return AlgebraicScalar(a.poly, a.lo, a.hi, tuple(c * b.value for c in a.value))
    if isinstance(a, RationalScalar) and isinstance(b, AlgebraicScalar):
        return scalar_mul(b, a)
    if isinstance(a, AlgebraicScalar) and isinstance(b, AlgebraicScalar):
        unified = _try_unify(a, b)
        if unified is not None:
            ua, ub = unified
            return AlgebraicScalar(ua.poly, ua.lo, ua.hi, _vec_mul(ua.value, ub.value, ua.poly))

    def fn(bits: int):
        w = Fraction(1, 2**bits)
        alo, ahi = _enclose(a, w)
        blo, bhi = _enclose(b, w)
        cands = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(cands), max(cands)

    (alo, ahi), (blo, bhi) = _current_bounds(a), _current_bounds(b)
    cands = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return IntervalScalar(min(cands), max(cands), fn)


def scalar_inverse(a) -> Scalar:
    a = _as_scalar(a)
    if isinstance(a, RationalScalar):
        if a.value == 0:
            raise ZeroDivisionError("scalar inverse of zero value")
        return RationalScalar(1 / a.value)
    if isinstance(a, AlgebraicScalar):
        return _alg_inverse(a)
    raise TypeError("scalar_inverse: interval scalars are not invertible exactly")


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
    cur = a
    for k in range(max(0, precision_budget) + 1):
        if cur.lo > 0:
            return POSITIVE
        if cur.hi < 0:
            return NEGATIVE
        if cur.lo == cur.hi == 0:
            return ZERO
        if cur.refine_fn is None or k == precision_budget:
            break
        nlo, nhi = cur.refine_fn(DEFAULT_PRECISION_BITS << k)
        cur = IntervalScalar(max(cur.lo, nlo), min(cur.hi, nhi), cur.refine_fn)
    return SignResult(None, cur.hi - cur.lo)


def scalar_is_zero(a) -> bool:
    """Exact zero test; raises for an unresolvable straddling interval."""
    s = scalar_sign(a)
    if not s.resolved:
        raise PrecisionError("zero test unresolved at final width %s" % s.width)
    return s.sign == 0


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
        acc: tuple[Fraction, ...] = (Fraction(coeffs[-1]),)
        for c in reversed(coeffs[:-1]):
            acc = _vec_mul(acc, a.value, a.poly)
            acc = _vec_add(acc, (Fraction(c),))
        return AlgebraicScalar(a.poly, a.lo, a.hi, acc)

    def fn(bits: int):
        w = Fraction(1, 2**bits)
        lo, hi = _enclose(a, w)
        return intpoly.eval_interval(coeffs, lo, hi)

    lo, hi = intpoly.eval_interval(coeffs, *_current_bounds(a))
    return IntervalScalar(lo, hi, fn)


def scalar_pow(a, n: int) -> Scalar:
    if n < 0:
        return scalar_inverse(scalar_pow(a, -n))
    out: Scalar = RationalScalar(Fraction(1))
    base = _as_scalar(a)
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
        raise PrecisionError("cannot enclose scalar to width %s" % width)
    return lo, hi


def refine(a, width) -> Scalar:
    """Narrow enclosures below `width`; exact scalars pass through unchanged."""
    a = _as_scalar(a)
    width = Fraction(width)
    if isinstance(a, RationalScalar):
        return a
    if isinstance(a, AlgebraicScalar):
        # the first bracket of width <= width, or the root if a midpoint hits it
        walk, depth = _Bisection(a), 0
        while (bracket := walk.at(depth)) is not None and bracket[1] - bracket[0] > width * bracket[2]:
            depth += 1
        if bracket is None:
            return _apply_value_rational(walk.root, a.value)
        A, B, D = bracket
        return AlgebraicScalar(a.poly, Fraction(A, D), Fraction(B, D), a.value)
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
        if a.value != (Fraction(0), Fraction(1)):
            raise ValueError("same_root expects plain base roots")
        return a.lo < b.value < a.hi and intpoly.sign_at(a.poly, b.value) == 0
    assert isinstance(a, AlgebraicScalar) and isinstance(b, AlgebraicScalar)
    if a.value != (Fraction(0), Fraction(1)) or b.value != (Fraction(0), Fraction(1)):
        raise ValueError("same_root expects plain base roots")
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if lo >= hi:
        return False
    g = intpoly.poly_gcd(a.poly, b.poly)
    if intpoly.degree(g) < 1:
        return False
    return intpoly.sign_at(g, lo) * intpoly.sign_at(g, hi) < 0


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


def _frac_str(x: Fraction) -> str:
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
            "lo": _frac_str(a.lo),
            "hi": _frac_str(a.hi),
        }
        if a.value != (Fraction(0), Fraction(1)):
            out["value"] = [_frac_str(c) for c in a.value]
        return out
    return {
        "type": "interval",
        "lo": scalar_decimal(RationalScalar(a.lo), 40),
        "hi": scalar_decimal(RationalScalar(a.hi), 40),
    }
