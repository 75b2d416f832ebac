"""Evaluation of Takagi-class functions and Rademacher expansions.

A Takagi-class function is f(t) = sum_m c_m * tent(2^m t) for an absolutely
summable coefficient sequence (c_m), with tent(t) the distance from t to the
nearest integer.  This module evaluates such functions exactly at rationals
(via the eventually periodic doubling orbit), with certified enclosures
elsewhere, and converts between points in [0, 1] and their +-1 Rademacher
digit sequences.

One walker, `_residues`, follows the doubling orbit in integer residues;
`_orbit` finds its period by arithmetic, with no residue table, and
`_tent_pairs` reads the walker in place where no period is used.  An exact
Geometric sum, over a rational or algebraic alpha, has one closed form: the
integer polynomial of the tent numerators evaluated at alpha/2
(`eval_truncated`, `eval_periodic`).  One kernel, `_periodic_bounds` over the
rounded prefix `_dyadic_prefix_bounds`, encloses c_m summed against an
eventually periodic factor, be it tent values or the Rademacher form's
(1 - rho_m A_m)/4.  The factors reach it as integer numerators over one
denominator (t's for tents, 4 (2^p - 1) 2^(start+p) or a power of two for
Rademacher factors), the coefficients as the integer pairs of
`coefficient_bounds`, and the residue-class tails as integer numerators over
their own denominators.  The prefix sums are integers over 2^bits, one floor
division per term, and the tail sums are integers over the product of the
tails' denominators, reduced once: no Fraction or Scalar is built per term or
per class for PowerSquared.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, cycle, islice, repeat
from typing import Iterable, Iterator, Sequence

from . import scalars
from .scalars import (
    IntervalScalar,
    RationalScalar,
    Scalar,
    eval_int_poly,
    resolved_sign,
    scalar_add,
    scalar_div,
    scalar_enclosure,
    scalar_mul,
    scalar_pow,
    scalar_sign,  # unused here; bench/test_bench.py reads evaluate.scalar_sign
    scalar_sub,
)

ORBIT_CAP = 10**6


class DomainError(ValueError):
    """Argument outside the function's domain."""


class BudgetError(ValueError):
    """Request beyond a fixed work budget (scan degree, oracle grid generation)."""


class InsufficientPrefixError(ValueError):
    """A sign-sequence prefix is too short for the requested accuracy."""


# ---------------------------------------------------------------------------
# basic types


@dataclass(frozen=True)
class DyadicRational:
    """k / 2**n in [0, 1], stored reduced (k odd, or n == 0)."""

    k: int
    n: int

    def __post_init__(self):
        if not (0 <= self.k <= 2**self.n):
            raise ValueError("dyadic rational outside [0, 1]")
        if self.n > 0 and self.k % 2 == 0:
            raise ValueError("dyadic rational not reduced")

    @staticmethod
    def from_fraction(x: Fraction) -> "DyadicRational":
        num, den = x.numerator, x.denominator
        n = den.bit_length() - 1
        if den != 2**n:
            raise ValueError("%s is not dyadic" % x)
        return DyadicRational(num, n)

    def to_fraction(self) -> Fraction:
        return Fraction(self.k, 2**self.n)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "n": self.n}

    def __repr__(self) -> str:
        return f"DyadicRational({self.k}/2^{self.n})"


def is_dyadic(x: Fraction) -> bool:
    d = x.denominator
    return d & (d - 1) == 0


@dataclass(frozen=True)
class SignSequence:
    """A +-1 sequence given by a finite prefix plus an optional periodic tail.

    ``period = (start, block)`` means entry n equals block[(n - start) % len(block)]
    for every n >= start; start must not exceed the prefix length, and the
    prefix must agree with the periodic description where they overlap.
    """

    prefix: tuple[int, ...]
    period: tuple[int, tuple[int, ...]] | None = None

    def __post_init__(self):
        if any(v not in (-1, 1) for v in self.prefix):
            raise ValueError("sign sequence entries must be +-1")
        if self.period is not None:
            start, block = self.period
            if not block or any(v not in (-1, 1) for v in block):
                raise ValueError("period block must be a nonempty +-1 tuple")
            if start > len(self.prefix):
                raise ValueError("period start beyond known prefix")
            for n in range(start, len(self.prefix)):
                if self.prefix[n] != block[(n - start) % len(block)]:
                    raise ValueError("prefix disagrees with period descriptor")

    def determined_upto(self) -> int | None:
        """Exclusive bound on known indices; None when fully determined."""
        return None if self.period is not None else len(self.prefix)

    def __getitem__(self, n: int) -> int:
        if n < 0:
            raise IndexError(n)
        if n < len(self.prefix):
            return self.prefix[n]
        if self.period is None:
            raise IndexError("sign sequence only determined up to %d" % len(self.prefix))
        start, block = self.period
        return block[(n - start) % len(block)]

    def negated(self) -> "SignSequence":
        per = None
        if self.period is not None:
            per = (self.period[0], tuple(-v for v in self.period[1]))
        return SignSequence(tuple(-v for v in self.prefix), per)

    def take(self, n: int) -> tuple[int, ...]:
        return tuple(self[i] for i in range(n))


# ---------------------------------------------------------------------------
# coefficient sequences


class CoefficientSequence(ABC):
    """Source of coefficients c_m with a certified l1 tail bound."""

    @abstractmethod
    def coefficient(self, m: int) -> Scalar:
        ...

    @abstractmethod
    def tail_bound(self, n: int) -> Fraction:
        """Upper bound on sum_{m>n} |c_m|, nonincreasing in n and -> 0."""

    def coefficients(self) -> Iterator[Scalar]:
        """c_0, c_1, ... in order, for callers that sum consecutive terms."""
        return map(self.coefficient, count())

    def coefficient_bounds(self, width: Fraction) -> Iterator[tuple[int, int, int, int]]:
        """Integers (lo_num, lo_den, hi_num, hi_den), both dens > 0, enclosing c_0, c_1, ...:
        by default `scalars.enclosures` of width <= width, a rational c_m its own value
        twice.  The rounded prefix reads nothing else; a subclass may yield unreduced pairs."""
        for lo, hi in scalars.enclosures(self.coefficients(), width):
            yield lo.numerator, lo.denominator, hi.numerator, hi.denominator

    def weight(self, m: int) -> Scalar:
        """2^m c_m, the slope increment used by the step recursion."""
        return scalar_mul(self.coefficient(m), Fraction(2**m))

    def weights(self) -> Iterator[Scalar]:
        """w_0, w_1, ... in order, for callers that walk consecutive weights."""
        return map(self.weight, count())

    # Optional structure hooks used by the step engine's certificates.

    def geometric_ratio(self) -> Scalar | None:
        """alpha such that c_m = (alpha/2)^m, when the sequence is geometric."""
        return None

    def support_end(self) -> int | None:
        """Largest index with c_m != 0, for finitely supported sequences."""
        return None

    def weights_increasing_from(self) -> int | None:
        """Index M with 0 < 2^m c_m < 2^(m+1) c_(m+1) for all m >= M, if known."""
        return None

    def residue_tail_enclosures(self, m0: int, p: int) -> list[tuple[int, int, int]] | None:
        """Integers (lo, hi, den), den > 0, with lo/den <= S_j <= hi/den for the
        residue-class tails S_j = sum_{k>=0} c_{m0+j+kp}, j = 0..p-1, if available.

        Lets slowly decaying sequences be summed against a periodic tent orbit
        without touching astronomically many terms.
        """
        return None


class Geometric(CoefficientSequence):
    """c_m = (alpha/2)^m for a fixed |alpha| < 2."""

    def __init__(self, alpha):
        self.alpha = scalars._as_scalar(alpha)
        if resolved_sign(scalar_add(self.alpha, Fraction(2)), "alpha + 2") <= 0:
            raise DomainError("alpha must exceed -2")
        if resolved_sign(scalar_sub(Fraction(2), self.alpha), "2 - alpha") <= 0:
            raise DomainError("alpha must be below 2")
        self._ratio = scalar_mul(self.alpha, Fraction(1, 2))

    def coefficient(self, m: int) -> Scalar:
        return scalar_pow(self._ratio, m)

    def coefficients(self) -> Iterator[Scalar]:
        return _powers(self._ratio)

    def weight(self, m: int) -> Scalar:
        return scalar_pow(self.alpha, m)

    def tail_bound(self, n: int) -> Fraction:
        # whatever enclosure of the ratio is reachable, refined toward 2^-16
        # where it can be: a wide interval alpha still bounds the tail
        lo, hi = scalars._enclose(self._ratio, Fraction(1, 2**16))
        q = max(abs(lo), abs(hi))
        if q >= 1:
            raise DomainError("geometric ratio not inside (-1, 1)")
        if not isinstance(self.alpha, IntervalScalar) or not q:
            return q ** (n + 1) / (1 - q)
        # an interval's q may have 256-bit terms, which the exact power repeats
        # n times: round up to about 64 significant bits, finer than 1 - q so
        # that the bound still falls with n
        magnitude = math.ceil((n + 1) * (math.log2(q.denominator) - math.log2(q.numerator)))  # -log2 q^(n+1)
        bits = 64 + scalars._width_bits(1 - q) + magnitude
        return scalars._round(scalars._pow_rule(n + 1, bits, (q, q))[1] / (1 - q), bits, True)

    def geometric_ratio(self) -> Scalar:
        return self.alpha

    def __repr__(self) -> str:
        return f"Geometric({self.alpha})"


def _powers(x: Scalar) -> Iterator[Scalar]:
    """1, x, x^2, ...: a running product, scalar_pow's exact values at one product
    a term; for an interval x one `scalar_pow` node a term, not a chain of hooks."""
    if isinstance(x, IntervalScalar):
        return (scalar_pow(x, m) for m in count())
    return accumulate(repeat(x), scalar_mul, initial=RationalScalar(Fraction(1)))


class PowerSquared(CoefficientSequence):
    """c_m = 1/(m+1)^2."""

    def coefficient(self, m: int) -> RationalScalar:
        return RationalScalar(Fraction(1, (m + 1) ** 2))

    def coefficient_bounds(self, width: Fraction) -> Iterator[tuple[int, int, int, int]]:
        # exact, from the running integer m + 1: no Scalar a term
        for k in count(1):
            square = k * k
            yield 1, square, 1, square

    def tail_bound(self, n: int) -> Fraction:
        # sum_{m>n} 1/(m+1)^2 < integral_{n+1}^inf dx/x^2 = 1/(n+1)
        return Fraction(1, n + 1)

    def weights_increasing_from(self) -> int:
        # 2^(m+1)/(m+2)^2 > 2^m/(m+1)^2 iff 2(m+1)^2 > (m+2)^2, true for m >= 2
        return 2

    def residue_tail_enclosures(self, m0: int, p: int) -> list[tuple[int, int, int]]:
        """(lo, hi, 30pa^5) for a = m0 + 1 + j: numerators of S_j over that denominator."""
        # Euler-Maclaurin for g(k) = 1/(a+pk)^2 through the B_4 term,
        # 1/(pa) + 1/(2a^2) + p/(6a^3) - p^3/(30a^5) as a numerator over 30pa^5;
        # the remainder is bounded by |g'''(0)|/720 = p^3/(30 a^5), 2p^4 over it
        out = []
        for a in range(m0 + 1, m0 + p + 1):
            hi = a * a * (a * (30 * a + 15 * p) + 5 * p * p)
            out.append((hi - 2 * p**4, hi, 30 * p * a**5))
        return out

    def __repr__(self) -> str:
        return "PowerSquared()"


class FiniteSupport(CoefficientSequence):
    def __init__(self, values: Sequence):
        self.values = tuple(scalars._as_scalar(v) for v in values)

    def coefficient(self, m: int) -> Scalar:
        if m < len(self.values):
            return self.values[m]
        return RationalScalar(Fraction(0))

    def tail_bound(self, n: int) -> Fraction:
        bounds = scalars.enclosures(self.values[n + 1 :], Fraction(1, 2**72))
        return sum((max(abs(lo), abs(hi)) for lo, hi in bounds), Fraction(0))

    def support_end(self) -> int:
        return len(self.values) - 1

    def __repr__(self) -> str:
        return f"FiniteSupport({[str(v) for v in self.values]})"


class Custom(CoefficientSequence):
    """Caller-supplied coefficients with a caller-supplied (and trusted) tail bound.

    ``tail_bound_fn(n)`` must really bound sum_{m>n} |c_m|; nothing here can
    check it, and every enclosure downstream inherits its correctness.
    """

    def __init__(self, coefficient_fn, tail_bound_fn, increasing_from=None):
        self._coeff = coefficient_fn
        self._tail = tail_bound_fn
        self._increasing_from = increasing_from

    def coefficient(self, m: int) -> Scalar:
        return scalars._as_scalar(self._coeff(m))

    def tail_bound(self, n: int) -> Fraction:
        return Fraction(self._tail(n))

    def weights_increasing_from(self) -> int | None:
        return self._increasing_from


# ---------------------------------------------------------------------------
# the tent map and function evaluation


def tent(t) -> Fraction:
    """Distance from t to the nearest integer, exactly."""
    t = Fraction(t)
    x = t - (t.numerator // t.denominator)
    return min(x, 1 - x)


def _check_unit_interval(t: Fraction) -> Fraction:
    t = Fraction(t)
    if not (0 <= t <= 1):
        raise DomainError("t=%s outside [0, 1]" % t)
    return t


def _residues(t: Fraction) -> Iterator[int]:
    """The integer residues r_m = 2^m num mod den of t = num/den, m = 0, 1, ...

    Residue r_m gives tent(2^m t) = min(r_m, den - r_m)/den and the
    Rademacher digit rho_m = -1 if 2 r_m >= den else +1.
    """
    den = t.denominator
    r = t.numerator % den
    while True:
        yield r
        r = 2 * r - den if 2 * r >= den else 2 * r


def _orbit(t: Fraction, limit: int | None = None) -> tuple[list[int], int | None]:
    """Doubling orbit of t mod 1 as its `_residues`.

    Returns (residues, start) where the next residue would repeat
    residues[start], so the orbit is periodic from start on; or, when the
    orbit has more than `limit` residues, ([], None).  For t = num/den in
    lowest terms the preperiod is the 2-adic valuation of den and the period
    the order of 2 modulo den's odd part d, the first return of the walk of
    1/d to its first residue: nothing is stored until the orbit fits.
    """
    den = t.denominator
    start = (den & -den).bit_length() - 1
    walk = _residues(Fraction(1, den >> start))
    first = next(walk)
    for period, r in enumerate(islice(walk, None if limit is None else max(limit - start, 0)), 1):
        if r == first:
            return list(islice(_residues(t), start + period)), start
    return [], None


def _tent_numerators(t: Fraction, residues: Iterable[int]) -> Iterator[int]:
    """den * tent(2^m t) for the residues r_m of t = num/den."""
    den = t.denominator
    return (min(r, den - r) for r in residues)


def _exact_geometric(c: CoefficientSequence) -> bool:
    """Whether c is a Geometric sequence over a rational or algebraic alpha."""
    return isinstance(c, Geometric) and not isinstance(c.alpha, IntervalScalar)


def eval_truncated(c: CoefficientSequence, n: int, t) -> Scalar:
    """Exact value of f_n(t) = sum_{m<=n} c_m tent(2^m t) at rational t.

    For a Geometric sequence this is T(alpha/2)/den for the integer
    polynomial T of the tent numerators, one Horner pass (for an interval
    alpha, one interval Horner with one refinement hook); any other sequence
    is summed one Scalar term at a time.
    """
    t = _check_unit_interval(t)
    tents = list(_tent_numerators(t, islice(_residues(t), n + 1)))
    if isinstance(c, Geometric):
        return scalar_div(eval_int_poly(tents, c._ratio), t.denominator)
    total: Scalar = RationalScalar(Fraction(0))
    for f, cm in zip(tents, c.coefficients()):
        if f:
            total = scalar_add(total, scalar_mul(cm, Fraction(f, t.denominator)))
    return total


def eval_periodic(c: Geometric, t) -> Scalar:
    """Exact closed-form value of a Takagi-Landsberg function at rational t.

    Splits the doubling orbit of t into preperiod s and period p and sums the
    periodic part as a geometric series in (alpha/2)^p.  With x = alpha/2 and
    the tent numerators T_m over den, the value is Q(x)/(den (1 - x^p)) for
    the one integer polynomial Q = T - x^p T_{<s}: a Horner pass for a
    rational or algebraic alpha.  Where only T_0 is nonzero (t in {0, 1/2,
    1}) the value is the rational T_0/den.  An interval alpha, and an orbit
    with no period within ORBIT_CAP, get an `eval_series` enclosure of width
    2^-96.
    """
    t = _check_unit_interval(t)
    if not isinstance(c, Geometric):
        raise TypeError("eval_periodic requires a Geometric sequence")
    residues, s = _orbit(t, ORBIT_CAP)
    tents = list(_tent_numerators(t, residues))
    if s is not None and not any(tents[1:]):
        return RationalScalar(Fraction(tents[0], t.denominator))
    if s is None or not _exact_geometric(c):
        return eval_series(c, t, Fraction(1, 2**96))
    p = len(tents) - s
    q = tents[:]
    for m in range(s):
        q[m + p] -= tents[m]
    # den (1 - x^p) as the integer polynomial den - den y at y = x^p: for a
    # rational alpha one Fraction, where Scalar difference and product build three
    den = eval_int_poly([t.denominator, -t.denominator], scalar_pow(c._ratio, p))
    return scalar_div(eval_int_poly(q, c._ratio), den)


def _dyadic_prefix_bounds(
    c: CoefficientSequence, factors: Iterable[tuple[int, int]], den: int, n: int, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Enclosure of sum_{m<=n} c_m F_m from integer enclosures 0 <= lo <= den F_m <= hi.

    The coefficients come only from `c.coefficient_bounds(2^-bits)`.  Each term
    is rounded outward to a multiple of 2^-bits by one floor (or ceiling)
    division of integer products, and both sums are kept as integers over
    2^bits.  The floor of x/y (y > 0) depends only on the rational x/y, so an
    unreduced coefficient pair gives the bound of the reduced term c_m F_m.
    Factors that end early count as 0.
    """
    bits = _bits_for(width / (2 * (n + 2)))
    bounds = c.coefficient_bounds(Fraction(1, 1 << bits))
    lo = hi = 0
    for (flo, fhi), (lnum, lden, hnum, hden) in zip(islice(factors, n + 1), bounds):
        if not fhi:
            continue
        # with F_m >= 0 the sign of a coefficient bound picks the factor
        # bound, and no two long products are compared
        lo += (lnum * (flo if lnum >= 0 else fhi) << bits) // (lden * den)
        hi -= (-hnum * (fhi if hnum >= 0 else flo) << bits) // (hden * den)
    return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)


def _bits_for(width: Fraction) -> int:
    """2 + the least b >= 1 with 2^-b <= width."""
    if width <= 0:
        raise DomainError("width %s is not positive" % width)
    return 2 + max(1, (-(-width.denominator // width.numerator) - 1).bit_length())


_DIRECT_TERM_CAP = 512
_DYADIC_TERM_CAP = 1 << 21


def _tail_index(c: CoefficientSequence, bound: Fraction, cap: int) -> int | None:
    n = 1
    while n <= cap:
        if c.tail_bound(n) <= bound:
            return n
        n *= 2
    return None


def _rounded_bounds(
    c: CoefficientSequence, factors: Iterable[tuple[int, int]], den: int, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Rounded prefix sum up to the first n with tail_bound(n) <= width/2,
    plus that tail times max F = 1/2; factors as in `_dyadic_prefix_bounds`."""
    n = _tail_index(c, width / 2, _DYADIC_TERM_CAP)
    if n is None:
        raise DomainError("tail bound too weak for width %s" % scalars._show(width))
    lo, hi = _dyadic_prefix_bounds(c, factors, den, n, width / 2)
    tail = c.tail_bound(n) / 2
    return lo - tail, hi + tail


def _series_bounds(c: CoefficientSequence, t: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    half = width / 2
    n = _tail_index(c, half, _DIRECT_TERM_CAP)
    if n is not None:
        partial = eval_truncated(c, n, t)
        tail = c.tail_bound(n) / 2
        plo, phi = scalar_enclosure(partial, half)
        return plo - tail, phi + tail
    if type(c).residue_tail_enclosures is not CoefficientSequence.residue_tail_enclosures:
        residues, start = _orbit(t, ORBIT_CAP)
        if start is not None:
            return _periodic_bounds(c, list(_tent_numerators(t, residues)), t.denominator, start, width)
    # without residue-class tails, or without a period within the cap, the
    # rounded prefix needs only its n + 1 tents and never walks the period
    return _rounded_bounds(c, _tent_pairs(t), t.denominator, width)


def _tent_pairs(t: Fraction) -> Iterator[tuple[int, int]]:
    """(f, f) for t's tent numerators, from its residues in place, up to the first 0."""
    den = t.denominator
    for r in _residues(t):
        if not r:
            return
        f = den - r if 2 * r >= den else r
        yield f, f


def _periodic_bounds(
    c: CoefficientSequence, nums: list[int], den: int, start: int, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Enclosure of width <= width of sum_m c_m F_m for exact factors 0 <= F_m <= 1/2.

    F_m = nums[m]/den for m < len(nums); from `start` on F is periodic with
    period p = len(nums) - start.  A sequence with residue-class tail
    enclosures is summed against one period; any other gets a rounded prefix
    plus its l1 tail bound times max F = 1/2.  Scaling nums and den together
    moves no floor and no tail test, so the bounds depend on the factors only.
    A round's class tails are summed over one common denominator with no gcd
    and reduced once; every width is >= 0, so their total decides the round.
    """
    half = width / 2
    block = nums[start:]
    p, hnum, hden = len(block), half.numerator * den, half.denominator
    exact = [(f, f) for f in nums]
    pairs = chain(exact, cycle(exact[start:]) if any(block) else ())
    m0 = start
    for _ in range(80):
        encl = c.residue_tail_enclosures(m0, p)
        if encl is None:
            break
        lo, hi, tden = 0, 0, 1
        for f, (elo, ehi, d) in zip(block, encl):
            lo, hi, tden = lo * d + f * elo * tden, hi * d + f * ehi * tden, tden * d
        if (hi - lo) * hden <= hnum * tden:
            plo, phi = _dyadic_prefix_bounds(c, pairs, den, m0 - 1, half)
            return plo + Fraction(lo, tden * den), phi + Fraction(hi, tden * den)
        m0 += p * max(1, m0 // p)
    return _rounded_bounds(c, pairs, den, width)


def eval_series(c: CoefficientSequence, t, target_width) -> IntervalScalar:
    """Certified enclosure of f(t) of width <= target_width.

    Tail terms are bounded by tail_bound(N)/2, since tent <= 1/2.  The result
    carries a refinement hook recomputing at any finer width.
    """
    t = _check_unit_interval(t)
    width = Fraction(target_width)
    lo, hi = _series_bounds(c, t, width)

    def fn(bits: int):
        return _series_bounds(c, t, Fraction(1, 2**bits))

    return IntervalScalar(lo, hi, fn)


# ---------------------------------------------------------------------------
# Rademacher expansions


def T_map(rho: SignSequence):
    """Value T(rho) = sum_n 2^-(n+2) (1 - rho_n).

    Exact ``RationalScalar`` for a periodic descriptor; otherwise a
    ``DyadicRational`` approximant t0 with T(rho) in [t0, t0 + 2^-L] for
    prefix length L.
    """
    if rho.period is not None:
        return RationalScalar(t_map_fraction(rho))
    # T(rho) lies in [k/2^L, (k+1)/2^L] for the prefix bits k; the midpoint is within 2^-(L+1)
    return DyadicRational(2 * _bits_to_int(rho.prefix) + 1, len(rho.prefix) + 1)


def t_map_fraction(rho: SignSequence) -> Fraction:
    """Exact T(rho) for an eventually periodic sequence.

    T(rho) is the binary number 0.b_0 b_1 ... with b_n = (1 - rho_n)/2.  With
    the preperiod bits read as the integer `pre` (start bits) and the block
    bits as the integer `blk` (p bits),
    T = pre/2^start + blk/((2^p - 1) 2^start), built as one Fraction so the
    cost is linear in start + p.
    """
    if rho.period is None:
        raise InsufficientPrefixError("sequence has no period descriptor")
    start, block = rho.period
    pre = _bits_to_int(rho.prefix[:start])
    blk = _bits_to_int(block)
    rep = (1 << len(block)) - 1
    return Fraction(pre * rep + blk, rep << start)


def _bits_to_int(signs) -> int:
    """The integer whose binary digits, most significant first, are (1 - s)/2."""
    return int("".join("0" if s == 1 else "1" for s in signs) or "0", 2)


def rademacher_of(t) -> list[SignSequence]:
    """Rademacher expansion(s) of t in [0, 1], standard one first.

    Non-dyadic rationals have a single eventually periodic expansion; dyadic
    rationals in (0, 1) have two, with the standard one (infinitely many +1
    entries) listed first.  The digits are those of the doubling orbit
    (`_orbit`), whose first repeated residue marks the start of the period.
    """
    t = _check_unit_interval(t)
    if t == 0:
        return [SignSequence((), (0, (1,)))]
    if t == 1:
        return [SignSequence((), (0, (-1,)))]
    residues, start = _orbit(t)
    rho = tuple(-1 if 2 * r >= t.denominator else 1 for r in residues)
    if is_dyadic(t):
        # the orbit ends in residue 0 (+1 forever); the other expansion turns
        # the last -1 into +1 and continues with -1 forever
        standard = SignSequence(rho[:start], (start, (1,)))
        return [standard, SignSequence(rho[: start - 1] + (1,), (start, (-1,)))]
    return [SignSequence(rho, (start, rho[start:]))]


def _rademacher_numerators(rho: SignSequence) -> tuple[list[int], int]:
    """Integer numerators over one denominator of (1 - rho_m A_m)/4, A_m = sum_{k>=1} 2^-k rho_{m+k}.

    A_m = (rho_{m+1} + A_{m+1})/2, walked as the integer A_m D with D = (2^p - 1)
    2^(start+p) for a periodic rho (seed A_{start+p} = A_start), exact for
    m < start + p and equal to tent(2^m T(rho)); or D = 2^(L-1) for a prefix
    of length L, m < L - 1 (seed A_{L-1} = 0, so A_m is off by at most
    2^-(L-1-m)).  Every halving is exact, and the denominator is 4 D.
    """
    signs, rep, a = rho.prefix, 1, 0
    if rho.period is not None:
        start, block = rho.period
        rep = (1 << len(block)) - 1
        # A_start = (sum_{k=1..p} 2^(p-k) rho_{start+k}) / (2^p - 1)
        signs = rho.take(start + len(block) + 1)
        a = rep - 2 * _bits_to_int(block[1:] + block[:1])
    last = max(len(signs) - 1, 0)
    one = rep << last
    a <<= last
    out = []
    for m in range(last - 1, -1, -1):
        a = (signs[m + 1] * one + a) >> 1
        out.append(one - signs[m] * a)
    return out[::-1], 4 * one


def eval_from_rademacher(c: CoefficientSequence, rho: SignSequence, target_width) -> IntervalScalar:
    """Enclosure of f(T(rho)) computed from the expansion alone.

    Uses f(t) = (1/4) sum_m c_m (1 - rho_m A_m) with A_m = sum_{k>=1} 2^-k
    rho_{m+k}; must overlap eval_series at the same point.
    """
    width = Fraction(target_width)
    nums, den = _rademacher_numerators(rho)
    if rho.period is not None:
        return IntervalScalar(*_periodic_bounds(c, nums, den, rho.period[0], width))

    def pairs():
        # F_m is within 2^m/den = 2^-(L+1-m) of nums[m]/den, and never negative
        for m, f in enumerate(nums):
            yield max(f - (1 << m), 0), f + (1 << m)
        # the sum needs a factor past the prefix
        raise InsufficientPrefixError("prefix too short for inner sums")

    return IntervalScalar(*_rounded_bounds(c, pairs(), den, width))
