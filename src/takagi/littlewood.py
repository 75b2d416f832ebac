"""Littlewood polynomial scans: real roots, step roots, density evidence.

A Littlewood polynomial has all coefficients +-1; its real roots lie in
(-2,-1/2) u (1/2,2).  A root a of P_n with coefficients rho_0..rho_n is a
*step root* when rho_{k+1} P_k(a) <= 0 for every prefix P_k; step roots are
exactly the parameters where the associated fractal function has non-unique
maximizers.  The scanner enumerates all sign patterns with rho_0 = +1 up to a
degree bound and aggregates deterministic counts and histograms (the same
totals independent of worker count).  Refinement and the step test are the
integer bracket walker of `intpoly` (`refine_bracket`, `step_root_at`), which
`real_roots` and `is_step_root` use too.  The scan books every root on the grid
of the bisection of (1/2, 2), in its cell of bin width (level 13) unless Sturm
isolation needs a deeper one, and uses two symmetries to search less.  P(-x) is
again normalized, so a root x of P in (1/2, 2) is also booked as the negative
root -x of P(-x), with both step flags from one prefix walk.  The reversal
rev(P) = x^n P(1/x), normalized, takes P's roots in (1/2, 1) one to one onto
its own in (1, 2), so the scan isolates each P in (1/2, 1) only, by Descartes
bisection, and books each root y there twice: y for P, 1/y for rev(P).  Masks
go in Gray-code order, i ^ (i >> 1), so the Descartes transform over (1/2, 1)
moves by twice one column per polynomial, and each half's transform comes from
its parent's by Taylor shifts.  A float Newton step proposes y; the bin cells
of y and 1/y are taken on two exact signs of P and of rev(P) at their ends, and
together with Descartes' exact count they certify every cell.  The root 1, the
seam of the two halves, is the only rational root there: P(1) = 0 decides it,
and its step flags are P's partial sums.  Where anything is not certified
(roots closer than a cell, a repeated root, a root in the cell of 1), P and
rev(P) fall back to Sturm isolation of (1/2, 2), which gives the same cells.
`roots_seen` holds each cell as its midpoint, an exact encoding of the cell that
`_cell` alone decodes, for `root_records` and for the exact gaps of `root_gaps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, groupby

from . import intpoly
from .evaluate import BudgetError
from .scalars import AlgebraicScalar, RationalScalar, Scalar, _Root, refine

NEG_LO, NEG_HI = Fraction(-2), Fraction(-1, 2)
POS_LO, POS_HI = Fraction(1, 2), Fraction(2)
ROOT_WIDTH = Fraction(1, 2**107)  # coarser than the 10^-36 of 30 printed digits, so they do not depend on it
_BIN_WIDTH = Fraction(1, 2**12)  # isolation width for binning inside the scan
_ANNULUS = ((-4, -1, 2), (1, 4, 2))  # (-2, -1/2) and (1/2, 2) as brackets
_POSITIVE = _ANNULUS[1]
_LOW = (1, 2, 2)  # (1/2, 1), where the scan isolates
_CELL = 1 << 14  # the bin-width cells of (1/2, 2), level 13 of its bisection, are (A, A + 3, _CELL)
_ONE = (_CELL - 2, _CELL + 1, _CELL)  # the one that holds 1
_BELOW, _ABOVE = (_CELL // 2, _ONE[0], _CELL), (_ONE[1], 2 * _CELL, _CELL)  # the cells either side of it
MAX_SCAN_DEGREE = 24


@dataclass(frozen=True)
class LittlewoodPoly:
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1 or any(c not in (-1, 1) for c in self.coeffs):
            raise ValueError("coefficients must be +-1")
        if self.coeffs[0] != 1:
            raise ValueError("normalization requires coeffs[0] = +1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def from_mask(degree: int, mask: int) -> "LittlewoodPoly":
        """Bit j of mask set means coefficient j+1 is -1."""
        return LittlewoodPoly((1,) + tuple(-1 if (mask >> j) & 1 else 1 for j in range(degree)))

    def mask(self) -> int:
        m = 0
        for j, c in enumerate(self.coeffs[1:]):
            if c < 0:
                m |= 1 << j
        return m

    def __repr__(self) -> str:
        return f"LittlewoodPoly({''.join('+' if c > 0 else '-' for c in self.coeffs)})"


@dataclass(frozen=True)
class RootRecord:
    poly: LittlewoodPoly
    root: Scalar
    is_step_root: bool
    degree: int


@dataclass
class ScanSummary:
    """Aggregated scan counts.

    ``total_roots`` / ``total_step_roots`` count distinct real roots per
    polynomial (multiplicities collapsed), both signs.  The companion counters
    ``pos_roots_with_multiplicity`` / ``neg_roots_with_multiplicity`` count
    every root as many times as its multiplicity; the positive one is the
    published degree-20 figure (2,255,683).
    """

    max_degree: int
    total_roots: int = 0
    total_step_roots: int = 0
    pos_roots: int = 0
    neg_roots: int = 0
    pos_step_roots: int = 0
    neg_step_roots: int = 0
    pos_roots_with_multiplicity: int = 0
    neg_roots_with_multiplicity: int = 0
    per_degree: dict = field(default_factory=dict)  # degree -> [roots, step_roots]
    bins: int = 200
    hist_neg_roots: list = field(default_factory=list)
    hist_pos_roots: list = field(default_factory=list)
    hist_neg_steps: list = field(default_factory=list)
    hist_pos_steps: list = field(default_factory=list)
    # (degree, mask, midpoint, is_step); the midpoint is the exact encoding of the cell, decoded by `_cell` alone
    roots_seen: list = field(default_factory=list)

    def merge(self, other: "ScanSummary") -> None:
        for name in (
            "total_roots",
            "total_step_roots",
            "pos_roots",
            "neg_roots",
            "pos_step_roots",
            "neg_step_roots",
            "pos_roots_with_multiplicity",
            "neg_roots_with_multiplicity",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for d, (r, s) in other.per_degree.items():
            cur = self.per_degree.setdefault(d, [0, 0])
            cur[0] += r
            cur[1] += s
        for mine, theirs in (
            (self.hist_neg_roots, other.hist_neg_roots),
            (self.hist_pos_roots, other.hist_pos_roots),
            (self.hist_neg_steps, other.hist_neg_steps),
            (self.hist_pos_steps, other.hist_pos_steps),
        ):
            for i, v in enumerate(theirs):
                mine[i] += v
        self.roots_seen.extend(other.roots_seen)

    def to_json_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "total_roots": self.total_roots,
            "total_step_roots": self.total_step_roots,
            "positive_roots": self.pos_roots,
            "negative_roots": self.neg_roots,
            "positive_step_roots": self.pos_step_roots,
            "negative_step_roots": self.neg_step_roots,
            "positive_roots_with_multiplicity": self.pos_roots_with_multiplicity,
            "negative_roots_with_multiplicity": self.neg_roots_with_multiplicity,
            "per_degree": {str(d): list(v) for d, v in sorted(self.per_degree.items())},
            "bins": self.bins,
            "histograms": {
                "neg_roots": self.hist_neg_roots,
                "pos_roots": self.hist_pos_roots,
                "neg_step_roots": self.hist_neg_steps,
                "pos_step_roots": self.hist_pos_steps,
            },
        }


def _empty_summary(max_degree: int, bins: int) -> ScanSummary:
    s = ScanSummary(max_degree=max_degree, bins=bins)
    s.hist_neg_roots = [0] * bins
    s.hist_pos_roots = [0] * bins
    s.hist_neg_steps = [0] * bins
    s.hist_pos_steps = [0] * bins
    return s


# ---------------------------------------------------------------------------
# public per-polynomial operations


def real_roots(p: LittlewoodPoly, width: Fraction = ROOT_WIDTH) -> list[Scalar]:
    """All distinct real roots, isolated to `width` inside the root annulus: each is `_root_in`
    the walker's certified bracket of the squarefree part, as ``algebraic(p.coeffs, lo, hi)``."""
    sq, brackets, _repeated = intpoly.isolate_brackets(p.coeffs, _ANNULUS)
    return [_root_in(sq, bracket, width) for bracket in brackets]


def _root_in(sq: intpoly.IntPoly, bracket: intpoly.Bracket, width: Fraction) -> Scalar:
    """The root of the squarefree `sq` isolated by `bracket`, refined below `width`; rational when
    `sq` is linear or a midpoint hits the root.  Raises unless `sq` changes sign across the bracket."""
    A, B, D = bracket
    if intpoly.sign_at_scaled(sq, A, D) * intpoly.sign_at_scaled(sq, B, D) >= 0:
        raise ValueError("bracket %s does not isolate a root of %s" % (bracket, sq))
    if intpoly.degree(sq) == 1:
        return RationalScalar(Fraction(-sq[0], sq[1]))
    return refine(AlgebraicScalar(sq, (0, 1), 1, _Root(sq, bracket)), width)


def rational_root_filter(p: LittlewoodPoly) -> list[int]:
    """The subset of {-1, +1} that are roots (the only possible rational roots)."""
    return [r for r in (-1, 1) if intpoly.eval_int(p.coeffs, r) == 0]


def is_step_root(p: LittlewoodPoly, root: Scalar) -> bool:
    """Exact check of rho_{k+1} P_k(root) <= 0 for all proper prefixes.

    `root` is a rational or a plain base root (``algebraic(...)``, as
    `real_roots` gives); its bracket goes to the step test the scan uses.
    """
    if isinstance(root, RationalScalar):
        x = root.value
        sq, bracket = p.coeffs, (x.numerator, x.numerator, x.denominator)
        on_root = intpoly.sign_at(p.coeffs, x) == 0
    elif isinstance(root, AlgebraicScalar) and root.is_base_root():
        sq, bracket = root.poly, root.root.base
        on_root = intpoly.has_root(intpoly.poly_gcd(root.poly, p.coeffs), bracket)
    else:
        raise ValueError("is_step_root expects a rational or a plain base root")
    if not on_root:
        raise ValueError("given scalar is not a root of the polynomial")
    return intpoly.step_root_at(p.coeffs, sq, bracket)[0]


# ---------------------------------------------------------------------------
# scan internals


def _bins(A: int, B: int, D: int, bins: int) -> tuple[int, int]:
    """Bins of m = (A + B) / 2D and -m: int((m - 1/2) / w), int((2 - m) / w), w = 3 / (2 bins), capped."""
    return min(bins * (A + B - D) // (3 * D), bins - 1), min(bins * (4 * D - A - B) // (3 * D), bins - 1)


def _reversed(p: intpoly.IntPoly) -> intpoly.IntPoly:
    """x^n P(1/x), normalized to start with +1: its roots are the reciprocals of P's."""
    return p[::-1] if p[-1] > 0 else intpoly.neg(p[::-1])


def _deflated(p: intpoly.IntPoly) -> tuple[intpoly.IntPoly, int]:
    """(P / (x - 1)^m, m), m the multiplicity of the root 1: synthetic division while P(1) = 0."""
    m = 0
    while sum(p) == 0:
        p, m = tuple(accumulate(p[::-1]))[-2::-1], m + 1
    return p, m


def _reversal_cells(p: intpoly.IntPoly, rev: intpoly.IntPoly, transform) -> tuple[list, list] | None:
    """The bin cells of P's roots in (1/2, 1) and of rev(P)'s in (1, 2), or None unless certified.

    Descartes bisection of (1/2, 1) finds P's m roots there, each simple.  A float Newton
    proposal y of each, and its reciprocal, name two bin cells, taken where P and rev(P) change
    sign across them.  The m cells below 1 are then pairwise distinct cells of (1/2, 1), each
    with a root of P in it, so each holds exactly one; the same for rev(P) above 1, whose roots
    there are the m reciprocals.  Those roots being simple, P and rev(P) serve as their own
    squarefree parts there.  Floats only propose: a proposal in a wrong cell fails a sign or
    the distinctness, never the result.
    """
    cells = intpoly.descartes_cells(_LOW, transform, _BIN_WIDTH)
    if cells is None:
        return None
    below, above = [], []
    for a, b, d in cells:
        y = intpoly.float_root(p, a / d, b / d, 3 / _CELL)
        if y is None or (low := intpoly.cell_holding(p, y, _BELOW, 3)) is None:
            return None
        if (high := intpoly.cell_holding(rev, 1 / y, _ABOVE, 3)) is None:
            return None
        below.append(low)
        above.append(high)
    if len(set(below)) < len(below) or len(set(above)) < len(above):
        return None
    return below, above


def _fallback(p: intpoly.IntPoly, rev: intpoly.IntPoly):
    """P's roots below 1 and at 1, and rev(P)'s above 1, by Sturm isolation of (1/2, 2) for each.

    Cells as the scan of all of (1/2, 2) gives them, deeper ones too: (q, cell, flags) per
    root.  A cell across 1 is placed by the exact sign at 1.  Also the multiplicities past
    the first of those roots other than 1.
    """
    roots, excess = [], 0
    for q, lower, lo, hi in ((p, True, POS_LO, 1), (rev, False, 1, POS_HI)):
        sq, brackets, repeated = intpoly.isolate_brackets(q, [_POSITIVE])
        at_one = intpoly.sign_at_scaled(sq, 1, 1)
        for bracket in brackets:
            A, B, D = cell = intpoly.refine_bracket(sq, bracket, _BIN_WIDTH)
            if (B < D or A < D and intpoly.sign_at_scaled(sq, A, D) != at_one) == lower:
                roots.append((q, cell, intpoly.step_root_at(q, sq, cell)))
        while repeated is not None:  # a root of multiplicity m is seen at m levels
            chain = intpoly.sturm_chain(_deflated(repeated)[0])
            excess += intpoly.count_roots(chain, lo, hi)
            repeated = chain[-1] if intpoly.degree(chain[-1]) >= 1 else None
    return roots, excess


def _booked_roots(p: intpoly.IntPoly, transform):
    """What the scan books for P, `transform` its Descartes transform over (1/2, 1): P's roots
    in (1/2, 1] and rev(P)'s in (1, 2) as (q, cell, flags), each cell the one a scan of all of
    (1/2, 2) gives, and the sum of their multiplicities past the first.

    1, the seam of the two halves, is decided by P(1) = 0 and booked in its fixed bin cell,
    where no other root of P is: P below 1 by `_reversal_cells`, above 1 by an enclosure of P
    over (x - 1)^m.  Where any of that is not certified, `_fallback`.
    """
    rev, cells, excess = _reversed(p), None, 0
    if one := sum(p) == 0:
        deflated, m = _deflated(p)
        vlo, vhi = intpoly.eval_interval_scaled(deflated, _CELL, _ONE[1], _CELL)
        excess = m - 1
    if not one or vlo > 0 or vhi < 0:
        cells = _reversal_cells(p, rev, transform)
    if cells is None:
        roots, more = _fallback(p, rev)
        return roots, excess + more
    roots = [(q, cell, intpoly.step_root_at(q, q, cell)) for q, side in zip((p, rev), cells) for cell in side]
    if one:  # P's prefixes at 1 are its partial sums
        roots.append((p, _ONE, intpoly.step_root_at(p, p, (1, 1, 1))))
    return roots, excess


def _scan_chunk(args) -> ScanSummary:
    degree, mask_lo, mask_hi, bins, collect = args
    out = _empty_summary(degree, bins)
    odd = sum(1 << j for j in range(0, degree, 2))  # mask ^ odd is the mask of P(-x)
    matrix = intpoly.descartes_matrix(degree, _LOW)
    columns = list(zip(*matrix))
    coeffs = list(LittlewoodPoly.from_mask(degree, mask_lo ^ (mask_lo >> 1)).coeffs)
    transform = [sum(a * c for a, c in zip(row, coeffs)) for row in matrix]
    for i in range(mask_lo, mask_hi):
        if i > mask_lo:  # mask i ^ (i >> 1) flips coefficient j of the one before
            j = (i & -i).bit_length()
            coeffs[j] = c = -coeffs[j]
            transform = [t + 2 * c * v for t, v in zip(transform, columns[j])]
        mask, p = i ^ (i >> 1), tuple(coeffs)
        roots, excess = _booked_roots(p, transform)
        out.pos_roots_with_multiplicity += excess
        for q, (A, B, D), (step, mirror) in roots:
            out.pos_roots += 1
            out.pos_step_roots += step
            out.neg_step_roots += mirror
            pos, neg = _bins(A, B, D, bins)
            out.hist_pos_roots[pos] += 1
            out.hist_pos_steps[pos] += step
            out.hist_neg_roots[neg] += 1
            out.hist_neg_steps[neg] += mirror
            if collect:
                qmask, mid = mask if q is p else LittlewoodPoly(q).mask(), (A + B) / (2 * D)
                out.roots_seen += [(degree, qmask, mid, step), (degree, qmask ^ odd, -mid, mirror)]
    # every root of this chunk is also the negative root of the mirrored polynomial
    out.pos_roots_with_multiplicity += out.pos_roots
    out.neg_roots, out.neg_roots_with_multiplicity = out.pos_roots, out.pos_roots_with_multiplicity
    out.total_roots, out.total_step_roots = 2 * out.pos_roots, out.pos_step_roots + out.neg_step_roots
    if out.total_roots:
        out.per_degree[degree] = [out.total_roots, out.total_step_roots]
    return out


def scan(
    max_degree: int,
    jobs: int = 1,
    bins: int = 200,
    collect_roots: bool = False,
) -> ScanSummary:
    """Count (step) roots of every Littlewood polynomial with rho_0 = +1.

    Enumerates all 2^n sign patterns per degree n in [1, max_degree]; each
    distinct real root of each polynomial counts once.  Each polynomial is
    isolated in (1/2, 1) only, by Descartes bisection; its roots there are
    also booked as the reciprocal roots of its reversal in (1, 2), and every
    positive root as the negative root of P(-x) (see the module docstring).
    So a chunk books roots of polynomials outside it.  Work is split into
    contiguous ranges of Gray-code indices; merging is a plain sum, so totals
    do not depend on `jobs`.
    """
    if not (1 <= max_degree <= MAX_SCAN_DEGREE):
        raise BudgetError("max_degree must lie in 1..%d" % MAX_SCAN_DEGREE)
    if bins < 1:
        raise ValueError("bins must be at least 1")
    jobs = max(1, jobs)
    tasks = []
    for degree in range(1, max_degree + 1):
        total = 1 << degree
        chunk = max(256, total // (jobs * 8)) if jobs > 1 else total
        for lo in range(0, total, chunk):
            tasks.append((degree, lo, min(lo + chunk, total), bins, collect_roots))
    summary = _empty_summary(max_degree, bins)
    if jobs == 1:
        for t in tasks:
            summary.merge(_scan_chunk(t))
    else:
        import multiprocessing  # imported for a pool only: a one-process run does without it
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            for part in pool.imap_unordered(_scan_chunk, tasks, chunksize=1):
                summary.merge(part)
    summary.roots_seen.sort()
    return summary


def step_root_records(max_degree: int, jobs: int = 1) -> list[RootRecord]:
    """Full RootRecords for every step root up to max_degree (exact scalars)."""
    summary = scan(max_degree, jobs=jobs, collect_roots=True)
    return list(root_records([r for r in summary.roots_seen if r[3]]))


def _cell(mid: float) -> intpoly.Bracket:
    """The cell a `roots_seen` midpoint encodes.  A scan cell is (A, A + 3, D), D a power of 2, a cell of the
    bisection of (1/2, 2) or its mirror, so its midpoint (2A + 3) / 2D is an exact float in lowest terms."""
    n, d = mid.as_integer_ratio()
    return (n - 3) // 2, (n + 3) // 2, d // 2


def root_records(roots_seen):
    """A RootRecord per entry of a sorted `roots_seen`, its root `_root_in` the entry's scan cell.
    The squarefree part is taken once per polynomial."""
    for (degree, mask), group in groupby(roots_seen, key=lambda r: r[:2]):
        poly = LittlewoodPoly.from_mask(degree, mask)
        sq = intpoly.squarefree_part(poly.coeffs)
        for _, _, mid, step in group:
            yield RootRecord(poly, _root_in(sq, _cell(mid), ROOT_WIDTH), step, degree)


def root_gaps(roots_seen, resolution) -> list[tuple[Fraction, Fraction]]:
    """The open intervals of (1/2, 2), at least `resolution` wide and left to right, that no positive cell of
    the `roots_seen` entries covers: free of the roots of every polynomial the entries cover, each short of
    the true root-free interval by at most one cell at each end.  The negative side is their mirror."""
    if (resolution := Fraction(resolution)) <= 0:
        raise ValueError("resolution must be positive")
    cells = sorted({_cell(mid) for _, _, mid, _ in roots_seen if mid > 0}, key=lambda c: Fraction(c[0], c[2]))
    gaps, reach = [], POS_LO  # the furthest right end so far, as cells may nest
    for A, B, D in cells + [(2, 2, 1)]:  # the empty cell at 2 closes the last gap
        if Fraction(A, D) - reach >= resolution:
            gaps.append((reach, Fraction(A, D)))
        reach = max(reach, Fraction(B, D))
    return gaps
