"""Evaluation of Takagi-class functions and Rademacher expansions.

A Takagi-class function is f(t) = sum_m c_m * tent(2^m t) for an absolutely
summable coefficient sequence (c_m), with tent(t) the distance from t to the
nearest integer.  This module evaluates such functions exactly at rationals
(via the eventually periodic doubling orbit), with certified enclosures
elsewhere, and converts between points in [0, 1] and their +-1 Rademacher
digit sequences.

One walker, `_residues`, follows the doubling orbit in integer residues
(`_orbit` finds its period); one kernel, `_periodic_bounds` over the rounded
prefix `_dyadic_prefix_bounds`, sums c_m against an eventually periodic
factor, be it tent values or the Rademacher form's (1 - rho_m A_m)/4.
"""

from __future__ import annotations

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
    scalar_add,
    scalar_enclosure,
    scalar_inverse,
    scalar_mul,
    scalar_pow,
    scalar_sign,
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

    @property
    def eventually_periodic(self) -> bool:
        return self.period is not None

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

    def residue_tail_enclosures(self, m0: int, p: int) -> list[tuple[Fraction, Fraction]] | None:
        """Enclosures of S_j = sum_{k>=0} c_{m0+j+kp} for j = 0..p-1, if available.

        Lets slowly decaying sequences be summed against a periodic tent orbit
        without touching astronomically many terms.
        """
        return None


class Geometric(CoefficientSequence):
    """c_m = (alpha/2)^m for a fixed |alpha| < 2."""

    def __init__(self, alpha):
        self.alpha = scalars._as_scalar(alpha)
        if scalar_sign(scalar_add(self.alpha, Fraction(2))).sign != 1:
            raise DomainError("alpha must exceed -2")
        if scalar_sign(scalars.scalar_sub(Fraction(2), self.alpha)).sign != 1:
            raise DomainError("alpha must be below 2")
        self._ratio = scalar_mul(self.alpha, Fraction(1, 2))

    def coefficient(self, m: int) -> Scalar:
        return scalar_pow(self._ratio, m)

    def coefficients(self) -> Iterator[Scalar]:
        return _powers(self._ratio)

    def weight(self, m: int) -> Scalar:
        return scalar_pow(self.alpha, m)

    def weights(self) -> Iterator[Scalar]:
        # a running product would change an interval alpha's enclosures
        if isinstance(self.alpha, IntervalScalar):
            return super().weights()
        return _powers(self.alpha)

    def tail_bound(self, n: int) -> Fraction:
        # whatever enclosure of the ratio is reachable, refined toward 2^-16
        # where it can be: a wide interval alpha still bounds the tail
        lo, hi = scalars._enclose(self._ratio, Fraction(1, 2**16))
        q = max(abs(lo), abs(hi))
        if q >= 1:
            raise DomainError("geometric ratio not inside (-1, 1)")
        return q ** (n + 1) / (1 - q)

    def geometric_ratio(self) -> Scalar:
        return self.alpha

    def __repr__(self) -> str:
        return f"Geometric({self.alpha})"


def _powers(x: Scalar) -> Iterator[Scalar]:
    """1, x, x^2, ... as a running product: scalar_pow's exact values at one product a term."""
    return accumulate(repeat(x), scalar_mul, initial=RationalScalar(Fraction(1)))


class PowerSquared(CoefficientSequence):
    """c_m = 1/(m+1)^2."""

    def coefficient(self, m: int) -> RationalScalar:
        return RationalScalar(Fraction(1, (m + 1) ** 2))

    def tail_bound(self, n: int) -> Fraction:
        # sum_{m>n} 1/(m+1)^2 < integral_{n+1}^inf dx/x^2 = 1/(n+1)
        return Fraction(1, n + 1)

    def weights_increasing_from(self) -> int:
        # 2^(m+1)/(m+2)^2 > 2^m/(m+1)^2 iff 2(m+1)^2 > (m+2)^2, true for m >= 2
        return 2

    def residue_tail_enclosures(self, m0: int, p: int) -> list[tuple[Fraction, Fraction]]:
        # Euler-Maclaurin for g(k) = 1/(a+pk)^2 through the B_4 term; the
        # remainder is bounded by |g'''(0)|/720 = p^3/(30 a^5)
        out = []
        for j in range(p):
            a = m0 + j + 1
            center = (
                Fraction(1, p * a)
                + Fraction(1, 2 * a**2)
                + Fraction(p, 6 * a**3)
                - Fraction(p**3, 30 * a**5)
            )
            rad = Fraction(p**3, 30 * a**5)
            out.append((center - rad, center + rad))
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
        total = Fraction(0)
        for m in range(n + 1, len(self.values)):
            lo, hi = scalar_enclosure(self.values[m], Fraction(1, 2**72))
            total += max(abs(lo), abs(hi))
        return total

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
    residues[start], so the orbit is periodic from start on; or, after `limit`
    residues without a repeat, (residues, None).
    """
    seen: dict[int, int] = {}
    for r in _residues(t):
        if r in seen:
            return list(seen), seen[r]
        if len(seen) == limit:
            return list(seen), None
        seen[r] = len(seen)


def _tents(t: Fraction, residues: Iterable[int]) -> Iterator[Fraction]:
    """tent(2^m t) for the residues r_m of t."""
    den = t.denominator
    return (Fraction(min(r, den - r), den) for r in residues)


def _exact_sum(factors: Iterable[Fraction], coefficients: Iterator[Scalar]) -> Scalar:
    """Exact sum of c_m F_m, one term per factor."""
    total: Scalar = RationalScalar(Fraction(0))
    for f, cm in zip(factors, coefficients):
        if f:
            total = scalar_add(total, scalar_mul(cm, f))
    return total


def eval_truncated(c: CoefficientSequence, n: int, t) -> Scalar:
    """Exact value of f_n(t) = sum_{m<=n} c_m tent(2^m t) at rational t."""
    t = _check_unit_interval(t)
    return _exact_sum(_tents(t, islice(_residues(t), n + 1)), c.coefficients())


def eval_periodic(c: Geometric, t) -> Scalar:
    """Exact closed-form value of a Takagi-Landsberg function at rational t.

    Splits the doubling orbit of t into preperiod and period and sums the
    periodic part as a geometric series in (alpha/2)^p.
    """
    t = _check_unit_interval(t)
    if not isinstance(c, Geometric):
        raise TypeError("eval_periodic requires a Geometric sequence")
    residues, s = _orbit(t, ORBIT_CAP)
    if s is None:
        return eval_series(c, t, Fraction(1, 2**96))
    phis = list(_tents(t, residues))
    total = _exact_sum(phis[:s], c.coefficients())
    block = _exact_sum(phis[s:], c.coefficients())
    if scalar_sign(block).sign != 0:
        geom = scalar_inverse(scalars.scalar_sub(Fraction(1), c.coefficient(len(phis) - s)))
        total = scalar_add(total, scalar_mul(scalar_mul(c.coefficient(s), block), geom))
    return total


def _round_down(x: Fraction, bits: int) -> Fraction:
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def _round_up(x: Fraction, bits: int) -> Fraction:
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


def _dyadic_prefix_bounds(
    c: CoefficientSequence, factors: Iterable[tuple[Fraction, Fraction]], n: int, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Enclosure of sum_{m<=n} c_m F_m from enclosures 0 <= lo <= F_m <= hi of F_0, ..., F_n.

    Terms are rounded outward to dyadics, so denominators stay bounded.
    """
    bits = _bits_for(width / (2 * (n + 2)))
    lo = hi = Fraction(0)
    for (flo, fhi), cm in zip(islice(factors, n + 1), c.coefficients()):
        if not fhi:
            continue
        if isinstance(cm, RationalScalar):
            clo = chi = cm.value
        else:
            clo, chi = scalar_enclosure(cm, Fraction(1, 2**bits))
        # with F_m >= 0 the sign of a coefficient bound picks the factor
        # bound, and no two long products are compared
        lo += _round_down(clo * (flo if clo >= 0 else fhi), bits)
        hi += _round_up(chi * (fhi if chi >= 0 else flo), bits)
    return lo, hi


def _bits_for(width: Fraction) -> int:
    b = 1
    while Fraction(1, 2**b) > width:
        b += 1
    return b + 2


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
    c: CoefficientSequence, factors: Iterable[tuple[Fraction, Fraction]], width: Fraction
) -> tuple[Fraction, Fraction]:
    """Rounded prefix sum up to the first n with tail_bound(n) <= width/2,
    plus that tail times max F = 1/2."""
    n = _tail_index(c, width / 2, _DYADIC_TERM_CAP)
    if n is None:
        raise DomainError("tail bound too weak for width %s" % width)
    lo, hi = _dyadic_prefix_bounds(c, factors, n, width / 2)
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
            return _periodic_bounds(c, list(_tents(t, residues)), start, width)
    # without residue-class tails, or without a period within the cap, the
    # rounded prefix needs only its n + 1 tents and never walks the period
    return _rounded_bounds(c, ((f, f) for f in _tents(t, _residues(t))), width)


def _periodic_bounds(
    c: CoefficientSequence, factors: list[Fraction], start: int, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Enclosure of width <= width of sum_m c_m F_m for exact factors 0 <= F_m <= 1/2.

    F_m = factors[m] for m < len(factors); from `start` on F is periodic with
    period p = len(factors) - start.  A sequence with residue-class tail
    enclosures is summed against one period; any other gets a rounded prefix
    plus its l1 tail bound times max F = 1/2.
    """
    half = width / 2
    block = factors[start:]
    p = len(block)
    pairs = ((f, f) for f in chain(factors, cycle(block)))
    m0 = start
    for _ in range(80):
        encl = c.residue_tail_enclosures(m0, p)
        if encl is None:
            break
        if sum(f * (hi - lo) for f, (lo, hi) in zip(block, encl)) <= half:
            lo, hi = _dyadic_prefix_bounds(c, pairs, m0 - 1, half)
            lo += sum(f * elo for f, (elo, _) in zip(block, encl))
            hi += sum(f * ehi for f, (_, ehi) in zip(block, encl))
            return lo, hi
        m0 += p * max(1, m0 // p)
    return _rounded_bounds(c, pairs, width)


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


def _rademacher_factors(rho: SignSequence) -> list[Fraction]:
    """(1 - rho_m A_m)/4 with A_m = sum_{k>=1} 2^-k rho_{m+k}, by A_m = (rho_{m+1} + A_{m+1})/2.

    Periodic rho: exact for m < start + p (seed A_{start+p} = A_start), equal
    to tent(2^m T(rho)).  Prefix of length L: m < L - 1 (seed A_{L-1} = 0,
    so A_m is off by at most 2^-(L-1-m)).
    """
    signs, a = rho.prefix, Fraction(0)
    if rho.period is not None:
        start, block = rho.period
        rep = (1 << len(block)) - 1
        # A_start = (sum_{k=1..p} 2^(p-k) rho_{start+k}) / (2^p - 1)
        signs = rho.take(start + len(block) + 1)
        a = Fraction(rep - 2 * _bits_to_int(block[1:] + block[:1]), rep)
    out = []
    for m in range(len(signs) - 2, -1, -1):
        a = (signs[m + 1] + a) / 2
        out.append((1 - signs[m] * a) / 4)
    return out[::-1]


def eval_from_rademacher(c: CoefficientSequence, rho: SignSequence, target_width) -> IntervalScalar:
    """Enclosure of f(T(rho)) computed from the expansion alone.

    Uses f(t) = (1/4) sum_m c_m (1 - rho_m A_m) with A_m = sum_{k>=1} 2^-k
    rho_{m+k}; must overlap eval_series at the same point.
    """
    width = Fraction(target_width)
    factors = _rademacher_factors(rho)
    if rho.period is not None:
        return IntervalScalar(*_periodic_bounds(c, factors, rho.period[0], width))
    L = len(rho.prefix)

    def pairs():
        # F_m is within 2^-(L+1-m) of factors[m], and never negative
        for m, f in enumerate(factors):
            err = Fraction(1, 2 ** (L + 1 - m))
            yield max(f - err, 0), f + err
        # the sum needs a factor past the prefix
        raise InsufficientPrefixError("prefix too short for inner sums")

    return IntervalScalar(*_rounded_bounds(c, pairs(), width))
