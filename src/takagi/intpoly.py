"""Exact univariate polynomial arithmetic over the integers.

Polynomials are dense coefficient tuples in ascending power order, with no
trailing zero coefficients; the zero polynomial is the empty tuple.  Everything
here is exact big-integer arithmetic: evaluation at rationals is done with
cleared denominators, Sturm chains use sign-corrected pseudo-remainders with
content stripping to control coefficient growth, and root isolation is plain
bisection driven by Sturm counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

IntPoly = tuple[int, ...]


def normalize(coeffs: Sequence[int]) -> IntPoly:
    """Strip trailing zeros; the zero polynomial is ()."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: IntPoly) -> int:
    """Degree, with degree(0) = -1."""
    return len(p) - 1


def is_zero(p: IntPoly) -> bool:
    return not p


def neg(p: IntPoly) -> IntPoly:
    return tuple(-c for c in p)


def add(p: IntPoly, q: IntPoly) -> IntPoly:
    n = max(len(p), len(q))
    return normalize([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def sub(p: IntPoly, q: IntPoly) -> IntPoly:
    return add(p, neg(q))


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return normalize(out)


def scale(p: IntPoly, k: int) -> IntPoly:
    if k == 0:
        return ()
    return tuple(c * k for c in p)


def derivative(p: IntPoly) -> IntPoly:
    return normalize([i * c for i, c in enumerate(p)][1:])


def content(p: IntPoly) -> int:
    """Positive gcd of the coefficients (0 for the zero polynomial)."""
    return math.gcd(*p)


def primitive(p: IntPoly) -> IntPoly:
    g = content(p)
    if g <= 1:
        return p
    return tuple(c // g for c in p)


def eval_int(p: IntPoly, a: int) -> int:
    v = 0
    for c in reversed(p):
        v = v * a + c
    return v


def eval_fraction(p: IntPoly, x: Fraction) -> Fraction:
    num, den = x.numerator, x.denominator
    if not p:
        return Fraction(0)
    v = p[-1]
    dp = 1
    for c in reversed(p[:-1]):
        dp *= den
        v = v * num + c * dp
    return Fraction(v, den ** (len(p) - 1))


def sign_at(p: IntPoly, x: Fraction) -> int:
    """Exact sign of p(x): the numerator of the cleared-denominator value."""
    num, den = x.numerator, x.denominator
    if not p:
        return 0
    v = p[-1]
    dp = 1
    for c in reversed(p[:-1]):
        dp *= den
        v = v * num + c * dp
    return (v > 0) - (v < 0)


def eval_interval(p: IntPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of p over [lo, hi] by interval Horner."""
    vlo = vhi = Fraction(0)
    for c in reversed(p):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def eval_interval_scaled(p: IntPoly, anum: int, bnum: int, den: int) -> tuple[int, int]:
    """Scaled enclosure of p over [anum, bnum] / den (den > 0) by interval Horner.

    Returns (vlo, vhi) scaled by the positive factor den^(deg p): exactly
    `eval_interval` over the Fraction endpoints times that factor, in
    integers only.
    """
    if not p:
        return 0, 0
    vlo = vhi = p[-1]
    dp = 1
    for c in reversed(p[:-1]):
        dp *= den
        cands = (vlo * anum, vlo * bnum, vhi * anum, vhi * bnum)
        cs = c * dp
        vlo, vhi = min(cands) + cs, max(cands) + cs
    return vlo, vhi


def sign_at_dyadic(p: IntPoly, num: int, kbits: int) -> int:
    """Sign of p(num / 2^kbits), integer arithmetic only."""
    if not p:
        return 0
    v = p[-1]
    shift = 0
    for c in reversed(p[:-1]):
        shift += kbits
        v = v * num + (c << shift)
    return (v > 0) - (v < 0)


def eval_interval_dyadic(p: IntPoly, anum: int, bnum: int, kbits: int) -> tuple[int, int]:
    """Signs-preserving scaled enclosure of p over [anum, bnum] / 2^kbits.

    Returns (vlo, vhi) scaled by the positive factor 2^(kbits * deg p).
    """
    vlo = vhi = 0
    shift = 0
    first = True
    for c in reversed(p):
        if first:
            vlo = vhi = c
            first = False
            continue
        cands = (vlo * anum, vlo * bnum, vhi * anum, vhi * bnum)
        shift += kbits
        cs = c << shift
        vlo, vhi = min(cands) + cs, max(cands) + cs
    return vlo, vhi


def sign_variations_at_dyadic(chain: list[IntPoly], num: int, kbits: int) -> int:
    prev = 0
    var = 0
    for p in chain:
        s = sign_at_dyadic(p, num, kbits)
        if s != 0:
            if prev != 0 and s != prev:
                var += 1
            prev = s
    return var


def pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Integer remainder of f by g with the sign of the exact rational remainder.

    Computed as prem(f, g) and sign-corrected for the accumulated leading
    coefficient multiplier, so the result can be used in Sturm chains.
    """
    if not g:
        raise ZeroDivisionError("pseudo_rem by zero polynomial")
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    flip = False
    while r and len(r) - 1 >= dg:
        dr = len(r) - 1
        lead = r[-1]
        r = [lg * c for c in r]
        off = dr - dg
        for i, gc in enumerate(g):
            r[off + i] -= lead * gc
        if lg < 0:
            flip = not flip
        while r and r[-1] == 0:
            r.pop()
    rem = tuple(r)
    return neg(rem) if flip else rem


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd over Z[x], with positive leading coefficient."""
    a, b = primitive(p), primitive(q)
    while b:
        a, b = b, primitive(pseudo_rem(a, b))
    if a and a[-1] < 0:
        a = neg(a)
    return a


def exact_div(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f/g assuming exact divisibility over Q[x] with integer result."""
    if not g:
        raise ZeroDivisionError("exact_div by zero polynomial")
    r = [Fraction(c) for c in f]
    q = [Fraction(0)] * (len(f) - len(g) + 1)
    dg = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= dg and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        c = r[-1] / lg
        k = len(r) - 1 - dg
        q[k] = c
        for i, gc in enumerate(g):
            r[k + i] -= c * gc
    if any(r):
        raise ValueError("exact_div: division not exact")
    if any(c.denominator != 1 for c in q):
        raise ValueError("exact_div: quotient not integral")
    return normalize([int(c) for c in q])


def squarefree_part(p: IntPoly) -> IntPoly:
    """p with repeated factors collapsed (same distinct roots)."""
    if len(p) <= 2:
        return primitive(p)
    g = poly_gcd(p, derivative(p))
    if len(g) == 1:
        return primitive(p)
    return primitive(exact_div(primitive(p), g))


def sturm_chain(p: IntPoly) -> list[IntPoly]:
    """Sturm chain of p (content-stripped at every step).

    The canonical chain counts distinct real roots even for non-squarefree p,
    since the trailing gcd factor cancels in the sign variations.
    """
    f = primitive(p)
    chain = [f]
    d = primitive(derivative(f))
    if d:
        chain.append(d)
        while True:
            r = pseudo_rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(primitive(neg(r)))
    return chain


def sign_variations_at(chain: list[IntPoly], x: Fraction) -> int:
    prev = 0
    var = 0
    for p in chain:
        s = sign_at(p, x)
        if s != 0:
            if prev != 0 and s != prev:
                var += 1
            prev = s
    return var


def count_roots(chain: list[IntPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; requires p(lo) != 0."""
    return sign_variations_at(chain, lo) - sign_variations_at(chain, hi)


def refine_root(p: IntPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink a sign-changing bracket of p below `width` by bisection.

    Returns a degenerate (m, m) bracket if bisection lands exactly on the root.
    """
    slo = sign_at(p, lo)
    if slo == 0:
        return lo, lo
    if sign_at(p, hi) == 0:
        return hi, hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = sign_at(p, mid)
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def isolate_roots(
    p: IntPoly,
    lo: Fraction,
    hi: Fraction,
    width: Fraction | None = None,
) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the distinct real roots of p in (lo, hi).

    p must not vanish at lo or hi.  Returns sorted brackets, each containing
    exactly one distinct root of p; a degenerate (m, m) entry marks an exact
    rational root.  With `width`, brackets are refined below that width.
    """
    q = squarefree_part(p)
    if sign_at(q, lo) == 0 or sign_at(q, hi) == 0:
        raise ValueError("isolate_roots: endpoint is a root")
    chain = sturm_chain(q)
    out: list[tuple[Fraction, Fraction]] = []

    def nonroot_split_point(a: Fraction, b: Fraction) -> Fraction:
        m = (a + b) / 2
        d = (b - a) / 4
        while sign_at(q, m) == 0:
            m += d
            d /= 2
        return m

    def split(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        m = nonroot_split_point(a, b)
        vm = sign_variations_at(chain, m)
        split(a, m, va, vm)
        split(m, b, vm, vb)

    split(lo, hi, sign_variations_at(chain, lo), sign_variations_at(chain, hi))
    out.sort(key=lambda iv: iv[0])
    if width is not None:
        out = [iv if iv[0] == iv[1] else refine_root(q, iv[0], iv[1], width) for iv in out]
    return out
