"""Exact univariate polynomial arithmetic over the integers.

Polynomials are dense coefficient tuples in ascending power order, with no
trailing zero coefficients; the zero polynomial is the empty tuple.  Every
decision here is exact big-integer arithmetic: evaluation at rationals is done
with cleared denominators (`sign_at_scaled`, `eval_interval_scaled`), and Sturm
chains use sign-corrected pseudo-remainders with content stripping to control
coefficient growth.  `squarefree_chain` is the one squarefree computation:
`isolate_brackets`, `squarefree_part` and `scalars.algebraic` read from it.

Real roots live on integer brackets (A, B, D), the interval (A/D, B/D).  One
walker isolates them by Sturm-count bisection (`isolate_brackets`), refines
them (`refine_bracket`) and decides the step property of a root against the
prefixes of a coefficient tuple (`step_root_at`); `isolate_roots` is its
Fraction-endpoint form; `descartes_cells` isolates on the same grid by
`descartes_count`, the bound on a bracket's roots without a Sturm chain,
takes each half's transform from its parent's by Taylor shifts
(`descartes_children`), and returns None where it cannot certify.
`refine_bracket` proposes, then verifies: a float Newton step (`float_root`,
the one float computation) proposes the root, and the cell of the target
width that holds it is taken only on two exact signs (`cell_holding`), so it
is the cell bisection reaches; the Littlewood scan takes its bin cells with
the same two.  The sign of any integer polynomial at such a root comes from
one kernel, `root_sign`, which the step test (for a prefix its running
enclosure leaves open), the step engine's recursion and `scalars.scalar_sign`
all call.  The `*_dyadic` names are the denominator-2^k cases of the scaled
kernels.
"""

from __future__ import annotations

import itertools
import math
import operator
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


def neg(p: IntPoly) -> IntPoly:
    return tuple(-c for c in p)


def add(p: IntPoly, q: IntPoly) -> IntPoly:
    n = max(len(p), len(q))
    return normalize([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return normalize(out)


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
    """Exact sign of p(x)."""
    return sign_at_scaled(p, x.numerator, x.denominator)


def sign_at_scaled(p: IntPoly, num: int, den: int) -> int:
    """Sign of p(num / den) for den > 0, in integers: the sign of den^(deg p) p(num / den)."""
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
    """Sign of p(num / 2^kbits)."""
    return sign_at_scaled(p, num, 1 << kbits)


def eval_interval_dyadic(p: IntPoly, anum: int, bnum: int, kbits: int) -> tuple[int, int]:
    """Scaled enclosure of p over [anum, bnum] / 2^kbits (see `eval_interval_scaled`)."""
    return eval_interval_scaled(p, anum, bnum, 1 << kbits)


def sign_variations_at_dyadic(chain: list[IntPoly], num: int, kbits: int) -> int:
    return sign_variations_scaled(chain, num, 1 << kbits)


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
    """Quotient f/g assuming exact divisibility over Q[x] with integer result, by long division in integers."""
    if not g:
        raise ZeroDivisionError("exact_div by zero polynomial")
    r, dg = list(f), len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    for k in reversed(range(len(q))):
        c, rem = divmod(r[k + dg], g[-1])
        if rem:
            raise ValueError("exact_div: quotient not integral")
        q[k] = c
        for i, gc in enumerate(g):
            r[k + i] -= c * gc
    if any(r):
        raise ValueError("exact_div: division not exact")
    return normalize(q)


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


def squarefree_chain(p: IntPoly) -> tuple[IntPoly, list[IntPoly], IntPoly | None]:
    """(squarefree part, its Sturm chain, repeated part) of p; a squarefree p costs one chain.

    The repeated part, the last member of p's own chain (gcd(p, p') up to a constant), is None
    when constant; the squarefree part is p over it, primitive (Gauss), with p's leading sign.
    """
    chain = sturm_chain(p)
    if degree(chain[-1]) < 1:
        return chain[0], chain, None
    sq = exact_div(chain[0], chain[-1] if chain[-1][-1] > 0 else neg(chain[-1]))
    return sq, sturm_chain(sq), chain[-1]


def squarefree_part(p: IntPoly) -> IntPoly:
    """p with repeated factors collapsed (same distinct roots)."""
    return squarefree_chain(p)[0]


# ---------------------------------------------------------------------------
# root brackets: (A, B, D) with D > 0 is the interval (A/D, B/D); A == B is
# the exact root A/D


Bracket = tuple[int, int, int]


def to_bracket(lo: Fraction, hi: Fraction) -> Bracket:
    """(lo, hi) over the least common denominator."""
    d = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def sign_variations_scaled(chain: list[IntPoly], num: int, den: int) -> int:
    """Sign variations of the chain at num / den (den > 0)."""
    prev = 0
    var = 0
    for p in chain:
        s = sign_at_scaled(p, num, den)
        if s != 0:
            if prev != 0 and s != prev:
                var += 1
            prev = s
    return var


def count_roots(chain: list[IntPoly], lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; requires p(lo) != 0."""
    return sign_variations_scaled(chain, lo.numerator, lo.denominator) - sign_variations_scaled(
        chain, hi.numerator, hi.denominator
    )


def isolate_brackets(
    p: IntPoly, intervals: Sequence[Bracket]
) -> tuple[IntPoly, list[Bracket], IntPoly | None]:
    """(squarefree part, isolating brackets, repeated part) for the roots of p in the intervals.

    p must not vanish at an interval's endpoints.  One Sturm chain, of the
    squarefree part, serves every interval.  Each bracket holds exactly one
    distinct root, and neither of its endpoints is a root; brackets come in
    the order of the intervals, left to right within each.  A bracket is
    split at its midpoint; a midpoint that is a root moves right by a
    quarter of the width, then by half of each previous move.
    """
    sq, chain, repeated = squarefree_chain(p)
    brackets: list[Bracket] = []

    def split(A: int, B: int, D: int, va: int, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            brackets.append((A, B, D))
            return
        m, a, b, d = A + B, 2 * A, 2 * B, 2 * D
        while sign_at_scaled(sq, m, d) == 0:
            m, a, b, d = 2 * m + B - A, 2 * a, 2 * b, 2 * d
        vm = sign_variations_scaled(chain, m, d)
        split(a, m, d, va, vm)
        split(m, b, d, vm, vb)

    for A, B, D in intervals:
        split(A, B, D, sign_variations_scaled(chain, A, D), sign_variations_scaled(chain, B, D))
    return sq, brackets, repeated


def refine_bracket(p: IntPoly, bracket: Bracket, width: Fraction, slo: int | None = None) -> Bracket:
    """Narrow a bracket of p to the cell at most `width` wide that bisection reaches.

    x is a simple root of p, the only root of p in the bracket, and neither
    end is a root; p need not be squarefree.  A midpoint that is the root
    ends the bisection with the exact bracket (M, M, D).  `slo` is the sign
    of p left of x, which every bracket of x shares; it is computed when
    None.  When that cell lies k >= 4 levels down, `float_root` proposes x
    first, and the level-k cell that holds the proposal is taken if p has
    exact signs of opposite sign at its two ends: x is then inside it and on
    no grid point of a level <= k, so bisection ends in that same cell.
    Otherwise, or with no proposal, it bisects.
    """
    if width <= 0:
        raise ValueError("refine_bracket: width must be positive")
    A, B, D = bracket
    need, unit = (B - A) * width.denominator, width.numerator * D
    k = max(need.bit_length() - unit.bit_length(), 0)
    k += need > unit << k  # the least k with (B - A) / (D 2^k) <= width
    if k >= 4 and (cell := _proposed_cell(p, bracket, k)) is not None:
        return cell
    if slo is None:
        slo = sign_at_scaled(p, A, D)
    for _ in range(k):
        m, D = A + B, 2 * D
        sm = sign_at_scaled(p, m, D)
        if sm == 0:
            return m, m, D
        if sm == slo:
            A, B = m, 2 * B
        else:
            A, B = 2 * A, m
    return A, B, D


def _proposed_cell(p: IntPoly, bracket: Bracket, k: int) -> Bracket | None:
    """The level-k cell of `bracket` that holds `float_root`'s proposal, if p has exact signs
    of opposite sign at its two ends; None if not, or if floats overflow or propose nothing."""
    A, B, D = bracket
    w, Dk = B - A, D << k
    try:
        x = float_root(p, A / D, B / D, w / Dk)
    except OverflowError:  # the ends or the coefficients are beyond floats
        return None
    return None if x is None else cell_holding(p, x, (A << k, B << k, Dk), w)


def cell_holding(p: IntPoly, x: float, bracket: Bracket, w: int) -> Bracket | None:
    """The cell (L, L + w, D) of `bracket` = (A, B, D), cut into cells w wide (w divides B - A),
    that holds the float x, if p has exact signs of opposite sign at its two ends; None if not,
    if x is outside the bracket or if x is not finite.  The exact half of propose, then verify."""
    if not math.isfinite(x):
        return None
    A, B, D = bracket
    n, d = x.as_integer_ratio()
    left = A + (n * D - d * A) // (d * w) * w
    if A <= left < B and sign_at_scaled(p, left, D) * sign_at_scaled(p, left + w, D) < 0:
        return left, left + w, D
    return None


def float_root(p: IntPoly, lo: float, hi: float, cell: float) -> float | None:
    """A float well within `cell` of the root of p in (lo, hi), by Newton safeguarded by a float bracket.

    None where `cell` is narrower than 2^-40 of the ends' magnitude, which floats
    cannot resolve; OverflowError where p's coefficients are beyond floats.  Only a
    proposal: `cell_holding` checks it exactly.
    """
    if cell * 2**40 < max(abs(lo), abs(hi)):
        return None
    cs = [float(c) for c in reversed(p)]

    def horner(x: float) -> tuple[float, float]:
        f = df = 0.0
        for c in cs:
            f, df = f * x + c, df * x + f
        return f, df

    a, b, x = lo, hi, (lo + hi) / 2
    left = horner(lo)[0] > 0
    for _ in range(64):
        f, df = horner(x)
        if f == 0:
            return x
        if (f > 0) == left:
            a = x
        else:
            b = x
        step = x - f / df if df else x
        if not a < step < b:
            step = (a + b) / 2
        if abs(step - x) * 16 < cell:
            return step
        x = step
    return None


def has_root(g: IntPoly, bracket: Bracket) -> bool:
    """Whether g has positive degree and changes sign across `bracket`.

    For g a gcd with a squarefree polynomial whose root the bracket isolates
    (endpoints not roots), g has at most that root there, so this is the
    exact test that the root is a root of g.
    """
    A, B, D = bracket
    return degree(g) >= 1 and sign_at_scaled(g, A, D) * sign_at_scaled(g, B, D) < 0


def root_sign(p: IntPoly, sq: IntPoly, bracket: Bracket, slo: int | None = None) -> tuple[int, Bracket]:
    """Sign of p(x) for the root x of `sq` in `bracket`, and a bracket of x.

    x is a simple root of `sq` that `bracket` isolates, as for
    `refine_bracket`.  The sign comes from interval Horner over the bracket,
    which is refined as p needs and never widened; the bracket returned is
    the one that decided, so a caller that keeps it for its next query never
    refines twice.  Until an enclosure excludes 0, the bracket shrinks
    2^5-fold in the first round and then 2^10-, 2^20-, ... fold, so depth d
    takes O(log d) enclosures.  The second enclosure that holds 0 gets the
    exact zero test, once: the gcd of p and `sq` vanishes at x.  Not the
    first: a value that straddles 0 there is mostly decided by one round,
    which costs less than the gcd (the step engine's sign queries are such
    values).  `slo`, the sign of `sq` left of x, is taken once for all
    rounds (as for `refine_bracket`).
    """
    p = normalize(p)
    if not p:
        return 0, bracket
    A, B, D = bracket
    for k in itertools.count():
        if A == B:
            return sign_at_scaled(p, A, D), (A, B, D)
        vlo, vhi = eval_interval_scaled(p, A, B, D)
        if vlo > 0 or vhi < 0:
            return (1 if vlo > 0 else -1), (A, B, D)
        if k == 1 and has_root(poly_gcd(sq, p), (A, B, D)):
            return 0, (A, B, D)
        if slo is None:
            slo = sign_at_scaled(sq, A, D)
        A, B, D = refine_bracket(sq, (A, B, D), Fraction(1 << (B - A).bit_length(), D << (5 << k)), slo)


def step_root_at(coeffs: IntPoly, sq: IntPoly, bracket: Bracket) -> tuple[bool, bool]:
    """Step flags of the root x of `sq` in `bracket` (as for `root_sign`): P's and P(-x)'s.

    P's: c_{k+1} P_k(x) <= 0 for every proper prefix P_k of `coeffs`.  Since
    P(-x)'s prefixes at -x are P's at x, its flag for -x is (-1)^{k+1}
    c_{k+1} P_k(x) <= 0 for every k.  One running integer enclosure bounds the
    prefixes, and restarts on `root_sign`'s bracket for a prefix it leaves open.
    """
    A, B, D = bracket
    if A < 0 < B:  # x is not 0 (c_0 != 0): keep the side of 0 that holds it
        A, B = (0, B) if sign_at_scaled(sq, 0, 1) == sign_at_scaled(sq, A, D) else (A, 0)
    k, lo, hi, pa, pb = 0, 0, 0, 1, 1  # [lo, hi] holds D^(k-1) P_{k-1}(x); pa, pb are A^k, B^k
    step = mirror = True
    for j in range(1, len(coeffs)):
        for c in coeffs[k:j]:  # lo_k = lo_{k-1} D + c_k (A^k or B^k), x^k between the two
            least, most = (pa, pb) if pa <= pb else (pb, pa)
            lo, hi = lo * D + c * (least if c > 0 else most), hi * D + c * (most if c > 0 else least)
            pa, pb = pa * A, pb * B
        k = j
        if lo > 0 or hi < 0 or lo == hi:
            s = (lo > 0) - (hi < 0)
        else:
            s, (A, B, D) = root_sign(coeffs[:j], sq, (A, B, D))
            k, lo, hi, pa, pb = 0, 0, 0, 1, 1
        t = coeffs[j] * s
        step = step and t <= 0
        mirror = mirror and (t if j % 2 == 0 else -t) <= 0
        if not (step or mirror):
            break
    return step, mirror


def descartes_matrix(n: int, bracket: Bracket) -> list[IntPoly]:
    """The matrix taking degree-n p to (D + D y)^n p((A + B y) / (D + D y)), as rows.

    Column k is (A + B y)^k (D + D y)^(n - k); y > 0 is the bracket (A, B, D).
    """
    A, B, D = bracket
    ups, downs = [(1,)], [(1,)]
    for _ in range(n):
        ups.append(mul(ups[-1], (A, B)))
        downs.append(mul(downs[-1], (D, D)))
    cols = [mul(ups[k], downs[n - k]) for k in range(n + 1)]
    return [tuple(col[i] if i < len(col) else 0 for col in cols) for i in range(n + 1)]


def descartes_count(transform: Sequence[int]) -> int:
    """Sign variations of p's transform, `descartes_matrix(deg p, bracket)` times p.

    By Descartes' rule of signs this bounds the number of roots of p in the
    open bracket, counted with multiplicity, and exceeds it by an even
    number: 0 means no root there, and 1 exactly one simple root.
    """
    signs = [v > 0 for v in transform if v]
    return sum(map(operator.ne, signs, signs[1:]))


def _shift_scale(desc: Sequence[int]) -> list[int]:
    """T(1 + 2z) for T given in descending order, ascending: a Taylor shift by 1, then
    coefficient i shifted left by i bits.  Each pass of synthetic division by z - 1 leaves
    the next coefficient of T(1 + z) as the last prefix sum."""
    out = []
    for i in range(len(desc)):
        desc = list(itertools.accumulate(desc))
        out.append(desc.pop() << i)
    return out


def descartes_children(transform: Sequence[int]) -> tuple[list[int], list[int]]:
    """The transforms of a bracket's left and right halves, from the bracket's transform T.

    T(y) has the bracket's midpoint at y = 1, and so has each half's.  The right half's is
    T(1 + 2z), the left half's (2 + z)^n T(z / (2 + z)): the same construction on T
    reversed, reversed back.  Both are exactly `descartes_matrix` of the half times p, with
    no matrix, and the right one's constant term T(1) is 0 exactly when the midpoint is a root.
    """
    return _shift_scale(transform)[::-1], _shift_scale(transform[::-1])


def descartes_cells(bracket: Bracket, transform: Sequence[int], width: Fraction) -> list[Bracket] | None:
    """Isolating cells of the open `bracket` by bisection on `descartes_count`, left to right;
    `transform` is p's on `bracket`.

    Each cell holds exactly one root of p, a simple one, and the cells hold every root of p in
    the bracket.  Cells split at midpoints, as in `isolate_brackets`, and their transforms come
    from `descartes_children`.  None where a cell at most `width` wide still counts 2 or more
    (a repeated root, or roots that close) or a midpoint is a root.
    """
    out, cells = [], [(bracket, transform)]
    while cells:
        (A, B, D), t = cells.pop()
        count = descartes_count(t)
        if count == 1:
            out.append((A, B, D))
        elif count:
            left, right = descartes_children(t)
            if (B - A) * width.denominator <= width.numerator * D or right[0] == 0:
                return None
            cells += [((A + B, 2 * B, 2 * D), right), ((2 * A, A + B, 2 * D), left)]  # left popped first
    return out


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
    if sign_at(p, lo) == 0 or sign_at(p, hi) == 0:
        raise ValueError("isolate_roots: endpoint is a root")
    sq, brackets, _repeated = isolate_brackets(p, [to_bracket(lo, hi)])
    if width is not None:
        brackets = [refine_bracket(sq, b, width) for b in brackets]
    return [(Fraction(A, D), Fraction(B, D)) for A, B, D in brackets]
