"""Brute-force dyadic-grid oracle for truncated Takagi-class functions.

Independent check machinery: the truncated function f_n = sum_{m<=n} c_m
tent(2^m .) is affine on every interval [k 2^-(n+1), (k+1) 2^-(n+1)], so its
maximum over [0,1] is attained on the dyadic grid D_{n+1} and can be found by
exhaustive exact evaluation.  A *maximizing edge* of generation n is a grid
maximizer together with a best neighbor; the union of edge intervals over all
generations pins down the maximizers of the full series.

Everything here works on plain rational coefficient lists and deliberately
shares no code with the step recursion engine it is used to validate; all
arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .evaluate import BudgetError, DyadicRational

GRID_CAP = 24


def _tent(x: Fraction) -> Fraction:
    y = x - (x.numerator // x.denominator)
    return y if 2 * y <= 1 else 1 - y


def f_truncated(coeffs: Sequence[Fraction], n: int, t: Fraction) -> Fraction:
    """f_n(t) by direct summation (coefficients beyond the list are zero)."""
    total = Fraction(0)
    for m in range(min(n + 1, len(coeffs))):
        c = Fraction(coeffs[m])
        if c:
            total += c * _tent((1 << m) * t)
    return total


@dataclass(frozen=True)
class MaximizingEdge:
    x: DyadicRational
    y: DyadicRational
    generation: int

    def interval(self) -> tuple[Fraction, Fraction]:
        a, b = self.x.to_fraction(), self.y.to_fraction()
        return (a, b) if a <= b else (b, a)


def _grid_values(coeffs, n: int) -> list[int]:
    """L N f_n(k / N) for k = 0..N, N = 2^(n+1), L the lcm of the coefficient denominators.

    In integers: L N f_n(k / N) = sum_m (L c_m) min(r, N - r), r = 2^m k mod N.
    Every value has the same positive factor L N, so comparisons of values
    and of neighbour sums are those of f_n.
    """
    if n > GRID_CAP:
        raise BudgetError("generation %d beyond grid budget %d" % (n, GRID_CAP))
    N = 1 << (n + 1)
    cs = [Fraction(c) for c in coeffs[: n + 1]]
    L = 1
    for c in cs:
        L *= Fraction(L, c.denominator).denominator  # times d / gcd(L, d): lcm(L, d)
    vals = [0] * (N + 1)
    for m, c in enumerate(cs):
        a = c.numerator * (L // c.denominator)
        if a:
            for k in range(N + 1):
                r = (k << m) % N
                vals[k] += a * min(r, N - r)
    return vals


def grid_argmax(coeffs: Sequence[Fraction], n: int) -> set[DyadicRational]:
    """All maximizers of f_n on the grid D_{n+1} (ties kept: flat parts exist)."""
    vals = _grid_values(coeffs, n)
    top = max(vals)
    h = Fraction(1, 1 << (n + 1))
    return {
        DyadicRational.from_fraction(k * h) for k, v in enumerate(vals) if v == top
    }


def maximizing_edges(coeffs: Sequence[Fraction], n: int) -> set[MaximizingEdge]:
    """Maximizing edges of generation n, computed both ways and cross-checked.

    The defining form (grid maximizer plus best neighbor) must coincide, as
    unordered pairs, with the neighbor pairs maximizing f_n(z0) + f_n(z1);
    disagreement raises.
    """
    vals = _grid_values(coeffs, n)
    size = len(vals)
    h = Fraction(1, 1 << (n + 1))

    top = max(vals)
    edges: set[tuple[int, int]] = set()
    for k, v in enumerate(vals):
        if v != top:
            continue
        nb = [j for j in (k - 1, k + 1) if 0 <= j < size]
        best = max(vals[j] for j in nb)
        for j in nb:
            if vals[j] == best:
                edges.add((k, j))

    pair_max = max(vals[k] + vals[k + 1] for k in range(size - 1))
    pair_edges = {
        (k, k + 1) for k in range(size - 1) if vals[k] + vals[k + 1] == pair_max
    }
    if {tuple(sorted(e)) for e in edges} != pair_edges:
        raise AssertionError("edge characterizations disagree at generation %d" % n)

    return {
        MaximizingEdge(
            DyadicRational.from_fraction(k * h), DyadicRational.from_fraction(j * h), n
        )
        for k, j in edges
    }


def edge_intervals(coeffs: Sequence[Fraction], n: int) -> list[tuple[Fraction, Fraction]]:
    """Sorted closed intervals spanned by the generation-n maximizing edges."""
    return sorted({e.interval() for e in maximizing_edges(coeffs, n)})


def covers(intervals, t: Fraction) -> bool:
    return any(a <= t <= b for a, b in intervals)


def slope(coeffs: Sequence[Fraction], rho_prefix: Sequence[int], n: int) -> Fraction:
    """Slope sum_{m<=n} 2^m c_m rho_m, asserted against the difference quotient.

    The prefix pins the dyadic interval [t_n, t_n + 2^-(n+1)] on which f_n is
    affine; the claimed slope must match the exact difference quotient there.
    """
    if len(rho_prefix) < n + 1:
        raise ValueError("prefix must determine the first n+1 signs")
    if any(r not in (-1, 1) for r in rho_prefix[: n + 1]):
        raise ValueError("prefix entries must be +-1")
    t_n = sum(Fraction(1 - rho_prefix[m], 1 << (m + 2)) for m in range(n + 1))
    s = sum(Fraction(coeffs[m]) * (1 << m) * rho_prefix[m] for m in range(min(n + 1, len(coeffs))))
    h = Fraction(1, 1 << (n + 1))
    quotient = (f_truncated(coeffs, n, t_n + h) - f_truncated(coeffs, n, t_n)) / h
    if quotient != s:
        raise AssertionError("slope formula disagrees with difference quotient")
    return s
