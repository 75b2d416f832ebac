"""Littlewood scans: root isolation, step roots, totals, determinism."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from takagi import landsberg as lb
from takagi import littlewood as lw
from takagi import scalars as sc
from takagi import step_engine as se
from takagi import evaluate as ev
from takagi import intpoly as ip


def test_poly_type_validation():
    with pytest.raises(ValueError):
        lw.LittlewoodPoly((1, 0, 1))
    with pytest.raises(ValueError):
        lw.LittlewoodPoly((-1, 1))
    p = lw.LittlewoodPoly.from_mask(3, 0b101)
    assert p.coeffs == (1, -1, 1, -1)
    assert p.mask() == 0b101


def test_real_roots_golden_pair():
    p = lw.LittlewoodPoly((1, -1, -1))
    roots = lw.real_roots(p)
    assert len(roots) == 2
    decs = sorted(sc.scalar_decimal(r, 12) for r in roots)
    assert decs[0].startswith("-1.6180339887")
    assert decs[1].startswith("0.618033988750")
    for r in roots:
        lo, hi = sc.scalar_enclosure(r, F(1, 2**40))
        assert hi - lo <= F(1, 2**40)


def test_real_roots_p4_contains_x2():
    p = lw.LittlewoodPoly((1, -1, -1, -1, -1))
    roots = lw.real_roots(p)
    x2 = lb.solve_xn(2).root
    assert any(
        isinstance(r, sc.AlgebraicScalar) and sc.same_root(r, x2) for r in roots
    )


def test_real_roots_empty_and_annulus():
    assert lw.real_roots(lw.LittlewoodPoly((1, 1, 1))) == []
    rng = random.Random(6)
    for _ in range(25):
        deg = rng.randint(1, 9)
        p = lw.LittlewoodPoly.from_mask(deg, rng.randrange(1 << deg))
        for r in lw.real_roots(p):
            lo, hi = sc.scalar_enclosure(r, F(1, 2**20))
            assert (F(-2) < lo and hi < F(-1, 2)) or (F(1, 2) < lo and hi < F(2))


def test_real_root_count_matches_sympy():
    rng = random.Random(60)
    x = sympy.Symbol("x")
    for _ in range(30):
        deg = rng.randint(1, 8)
        p = lw.LittlewoodPoly.from_mask(deg, rng.randrange(1 << deg))
        expected = len(sympy.Poly(list(reversed(p.coeffs)), x).real_roots())
        distinct = len({str(r) for r in sympy.Poly(list(reversed(p.coeffs)), x).real_roots()})
        assert len(lw.real_roots(p, F(1, 2**16))) == distinct


def test_rational_root_filter():
    assert lw.rational_root_filter(lw.LittlewoodPoly((1, -1))) == [1]
    assert lw.rational_root_filter(lw.LittlewoodPoly((1, 1))) == [-1]
    assert lw.rational_root_filter(lw.LittlewoodPoly((1, 1, -1))) == []


def test_no_rational_roots_besides_units():
    # tightened brackets over a 10^4-polynomial sample: the only rational
    # roots ever certified (degenerate brackets) are +-1, and the linear
    # factor test agrees
    rng = random.Random(424242)
    seen = 0
    while seen < 10_000:
        deg = rng.randint(1, 12)
        coeffs = (1,) + tuple(rng.choice((-1, 1)) for _ in range(deg))
        sq, brackets, _rep = ip.isolate_brackets(coeffs, lw._ANNULUS)
        for bracket in brackets:
            a, b, d = ip.refine_bracket(sq, bracket, F(1, 2**40))
            if a == b:  # exact rational root certified
                assert F(a, d) in (-1, 1), (coeffs, a, d)
        assert all(
            r in (-1, 1) for r in lw.rational_root_filter(lw.LittlewoodPoly(coeffs))
        )
        seen += 1


def test_is_step_root_examples():
    p = lw.LittlewoodPoly((1, -1, -1))
    pos, neg = None, None
    for r in lw.real_roots(p):
        if sc.scalar_sign(r).sign > 0:
            pos = r
        else:
            neg = r
    assert lw.is_step_root(p, pos)
    assert lw.is_step_root(p, neg)
    one_plus = lw.LittlewoodPoly((1, 1))
    (root,) = lw.real_roots(one_plus)
    assert not lw.is_step_root(one_plus, root)
    one_minus = lw.LittlewoodPoly((1, -1))
    (root,) = lw.real_roots(one_minus)
    assert lw.is_step_root(one_minus, root)
    with pytest.raises(ValueError):
        lw.is_step_root(one_plus, sc.rational(F(1, 2)))


def _scalar_step_reference(p, root):
    """The step test as a Scalar prefix loop: rho_{k+1} * sign(P_k(root)) <= 0 for every k."""
    for k in range(p.degree):
        s = sc.scalar_sign(sc.eval_int_poly(p.coeffs[: k + 1], root)).sign
        if p.coeffs[k + 1] * s > 0:
            return False
    return True


def _non_dyadic_brackets(p, root):
    """The same root on base brackets widened by 1/3^k, where they still isolate it."""
    lo, hi = root.lo, root.hi
    out = []
    for k in (30, 6, 3):
        try:
            out.append(sc.algebraic(p.coeffs, lo - F(1, 3**k), hi + F(2, 3**k)))
        except ValueError:
            pass
    return out


def _brackets_across_zero(p, root):
    """The same root on base brackets stretched across 0, to -+1/3 and past -+x, where they still isolate it."""
    edge = root.hi if root.lo > 0 else root.lo  # the end away from 0
    out = []
    for reach in (F(1, 3), abs(edge) + F(1, 3)):
        try:
            out.append(sc.algebraic(p.coeffs, *sorted((edge, -reach if edge > 0 else reach))))
        except ValueError:
            pass
    return out


def _descartes_brackets(coeffs):
    """(squarefree part, brackets, repeated part) of the roots in (1/2, 2) by Descartes
    bisection of (1/2, 2), and Sturm's answer where that hands over."""
    matrix = ip.descartes_matrix(ip.degree(coeffs), lw._POSITIVE)
    cells = ip.descartes_cells(lw._POSITIVE, [sum(map(operator.mul, row, coeffs)) for row in matrix], lw._BIN_WIDTH)
    return ip.isolate_brackets(coeffs, [lw._POSITIVE]) if cells is None else (coeffs, cells, None)


def test_fast_step_matches_public_api():
    # the one step test on every bracket shape it is given, against an
    # independent Scalar prefix loop: the scan's Descartes brackets and the
    # Sturm brackets of both annuli at bin width, `is_step_root` on base
    # roots, on base brackets widened by 1/3^k or stretched across 0, and on
    # the exact brackets (x, x, 1) at x = +-1
    rng = random.Random(123)
    shapes = dict.fromkeys(("descartes", "negative", "non_dyadic", "across_zero", "exact"), 0)
    for _ in range(120):
        deg = rng.randint(1, 9)
        p = lw.LittlewoodPoly.from_mask(deg, rng.randrange(1 << deg))
        sq, brackets, _repeated = ip.isolate_brackets(p.coeffs, lw._ANNULUS)
        scan = [ip.step_root_at(p.coeffs, sq, ip.refine_bracket(sq, b, lw._BIN_WIDTH))[0] for b in brackets]
        roots = lw.real_roots(p)
        reference = [_scalar_step_reference(p, r) for r in roots]
        assert scan == reference == [lw.is_step_root(p, r) for r in roots], p
        assert [ip.step_root_at(p.coeffs, sq, b)[0] for b in brackets] == reference, p
        shapes["negative"] += sum(b[0] < 0 for b in brackets)
        dsq, positive, _ = _descartes_brackets(p.coeffs)
        got = [ip.step_root_at(p.coeffs, dsq, ip.refine_bracket(dsq, b, lw._BIN_WIDTH))[0] for b in positive]
        assert got == [want for b, want in zip(brackets, reference) if b[0] > 0], p
        shapes["descartes"] += len(positive)
        for r, expected in zip(roots, reference):
            if isinstance(r, sc.AlgebraicScalar):
                for other in _non_dyadic_brackets(p, r):
                    assert other.hi.denominator % 3 == 0
                    assert lw.is_step_root(p, other) == expected, (p, other)
                    shapes["non_dyadic"] += 1
                for across in _brackets_across_zero(p, r):
                    A, B, D = across.root.base
                    assert A < 0 < B
                    assert lw.is_step_root(p, across) == expected, (p, across)
                    assert ip.step_root_at(p.coeffs, across.poly, (A, B, D))[0] == expected, (p, across)
                    shapes["across_zero"] += 1
        for x in lw.rational_root_filter(p):
            one = sc.rational(x)
            assert lw.is_step_root(p, one) == _scalar_step_reference(p, one), (p, x)
            assert ip.step_root_at(p.coeffs, p.coeffs, (x, x, 1))[0] == _scalar_step_reference(p, one), (p, x)
            shapes["exact"] += 1
    assert shapes["non_dyadic"] > 100 and min(shapes.values()) > 10, shapes


def test_descartes_brackets_refine_to_the_sturm_brackets(monkeypatch):
    # on the bisection grid of (1/2, 2), which holds neither rational root +-1,
    # Descartes and Sturm isolation refine to the same cells of bin width,
    # bracket for bracket, at every normalized degree <= 10; Descartes hands
    # over to Sturm only where a cell of bin width still counts 2 or more,
    # here always at a repeated root
    sturm, handed_over = ip.isolate_brackets, []
    monkeypatch.setattr(ip, "isolate_brackets", lambda p, intervals: handed_over.append(p) or sturm(p, intervals))
    for degree in range(1, 11):
        for mask in range(1 << degree):
            p = lw.LittlewoodPoly.from_mask(degree, mask).coeffs
            sq, brackets, repeated = sturm(p, [lw._POSITIVE])
            want = [ip.refine_bracket(sq, b, lw._BIN_WIDTH) for b in brackets]
            before = len(handed_over)
            dsq, got, drepeated = _descartes_brackets(p)
            assert [ip.refine_bracket(dsq, b, lw._BIN_WIDTH) for b in got] == want, p
            if len(handed_over) > before:
                assert ip.count_roots(ip.sturm_chain(repeated), lw.POS_LO, lw.POS_HI) > 0, p
            else:
                assert (dsq, drepeated) == (p, None), p
    assert len(handed_over) == 5 and (1, -1, -1, 1) in handed_over
    # (1 - x)^2 (1 + x), mask 0b011, is visited first at Gray-code index 2:
    # one distinct root in (1/2, 2), booked twice with multiplicity
    out = lw._scan_chunk((3, 2, 3, 200, False))
    assert (out.pos_roots, out.pos_roots_with_multiplicity) == (1, 2)


def test_scan_11_kernel_calls(monkeypatch):
    # work, not wall clock: one scan(11) isolates every polynomial in (1/2, 1) only, where no
    # polynomial falls back, so it builds no Sturm chain; it makes one float proposal per root
    # below 1, which also serves the reversal's root above 1, and asks root_sign only for a
    # prefix the running enclosure leaves open
    calls = collections.Counter()
    for name in ("sturm_chain", "root_sign", "float_root"):
        kernel = getattr(ip, name)
        monkeypatch.setattr(ip, name, lambda *a, _kernel=kernel, _name=name: calls.update([_name]) or _kernel(*a))
    lw.scan(11)
    assert (calls["sturm_chain"], calls["root_sign"], calls["float_root"]) == (0, 124, 1656)


def test_is_step_root_rejects_non_roots_and_other_forms():
    p = lw.LittlewoodPoly((1, -1, -1))
    with pytest.raises(ValueError):
        lw.is_step_root(p, sc.algebraic([-2, 0, 1], 1, 2))  # sqrt2 is not a root
    (pos,) = [r for r in lw.real_roots(p) if sc.scalar_sign(r).sign > 0]
    with pytest.raises(ValueError):
        lw.is_step_root(p, sc.scalar_mul(pos, 2))  # a value over the root, not the base root
    with pytest.raises(ValueError):
        lw.is_step_root(p, sc.interval(F(61, 100), F(62, 100)))


def test_is_step_root_reads_the_base_bracket_of_a_root_narrowed_to_exact():
    # 1 is the root of 1 - x^2 in (1/2, 3/2), the first midpoint: an enclosure
    # query leaves the exact bracket (1, 1) as the deepest, where the gcd
    # zero test sees no sign change
    p = lw.LittlewoodPoly((1, 1, -1, -1))  # (1 - x)(1 + x)^2
    one = sc.algebraic((1, 0, -1), F(1, 2), F(3, 2))
    sc.scalar_enclosure(one, F(1, 2**10))
    assert one.root.deep[0] == one.root.deep[1]
    assert lw.is_step_root(p, one) == lw.is_step_root(p, sc.rational(1)) is False


def test_scan_degree_one_and_two():
    s = lw.scan(1)
    assert (s.total_roots, s.total_step_roots) == (2, 1)
    s = lw.scan(2)
    assert (s.total_roots, s.total_step_roots) == (2 + 4, 1 + 2)
    assert s.per_degree == {1: [2, 1], 2: [4, 2]}


def test_scan_determinism_across_jobs():
    a = lw.scan(9, jobs=1)
    b = lw.scan(9, jobs=2)
    assert a.to_json_dict() == b.to_json_dict()


def test_scan_histogram_totals():
    s = lw.scan(7)
    assert sum(s.hist_neg_roots) + sum(s.hist_pos_roots) == s.total_roots
    assert sum(s.hist_neg_steps) + sum(s.hist_pos_steps) == s.total_step_roots


@functools.lru_cache(maxsize=None)
def _two_sided_roots(max_degree):
    """Every root of every normalized polynomial of degree <= max_degree, tallied on both sides.

    Both annuli of each polynomial are isolated by the Sturm walker and each
    root is step-tested on its own: (degree, mask, midpoint, is_step) per
    root, and the extra with-multiplicity counts of the repeated parts as
    degree -> [negative, positive].
    """
    roots, extra = [], {}
    for degree in range(1, max_degree + 1):
        for mask in range(1 << degree):
            coeffs = lw.LittlewoodPoly.from_mask(degree, mask).coeffs
            sq, brackets, repeated = ip.isolate_brackets(coeffs, lw._ANNULUS)
            while repeated is not None:  # a root of multiplicity m is seen at m levels
                chain = ip.sturm_chain(repeated)
                cur = extra.setdefault(degree, [0, 0])
                cur[0] += ip.count_roots(chain, lw.NEG_LO, lw.NEG_HI)
                cur[1] += ip.count_roots(chain, lw.POS_LO, lw.POS_HI)
                repeated = chain[-1] if ip.degree(chain[-1]) >= 1 else None
            for bracket in brackets:
                A, B, D = ip.refine_bracket(sq, bracket, lw._BIN_WIDTH)
                roots.append((degree, mask, F(A + B, 2 * D), ip.step_root_at(coeffs, sq, (A, B, D))[0]))
    return roots, extra


def _reference_scan(max_degree, bins):
    roots, extra = _two_sided_roots(11)
    out = lw._empty_summary(max_degree, bins)
    for degree, (neg, pos) in extra.items():
        if degree <= max_degree:
            out.neg_roots_with_multiplicity += neg
            out.pos_roots_with_multiplicity += pos
    for degree, mask, mid, step in roots:
        if degree > max_degree:
            continue
        side, lo, hi = ("neg", lw.NEG_LO, lw.NEG_HI) if mid < 0 else ("pos", lw.POS_LO, lw.POS_HI)
        idx = min(int((mid - lo) / ((hi - lo) / bins)), bins - 1)
        for name in ("total_roots", side + "_roots", side + "_roots_with_multiplicity"):
            setattr(out, name, getattr(out, name) + 1)
        getattr(out, "hist_%s_roots" % side)[idx] += 1
        if step:
            for name in ("total_step_roots", side + "_step_roots"):
                setattr(out, name, getattr(out, name) + 1)
            getattr(out, "hist_%s_steps" % side)[idx] += 1
        cur = out.per_degree.setdefault(degree, [0, 0])
        cur[0] += 1
        cur[1] += step
        out.roots_seen.append((degree, mask, float(mid), step))
    out.roots_seen.sort()
    return out


@pytest.mark.parametrize(
    "max_degree, bins, jobs",
    [(d, 200, 1) for d in range(1, 12)] + [(11, 37, 1), (11, 200, 2), (11, 37, 2), (6, 37, 2)],
)
def test_mirrored_scan_matches_two_sided_tally(max_degree, bins, jobs):
    # the scan searches (1/2, 2) only, mirrors each root onto P(-x) and skips
    # the Sturm chain where Descartes' bound is 0 or 1; a tally that isolates
    # both annuli of every polynomial gives every field the same
    got = lw.scan(max_degree, jobs=jobs, bins=bins, collect_roots=True)
    want = _reference_scan(max_degree, bins)
    for f in dataclasses.fields(lw.ScanSummary):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@st.composite
def _binned_brackets(draw):
    """(A, B, D, bins): a bracket in [1/2, 2] whose midpoint lies in (1/2, 2), anywhere,
    exactly on a bin edge, or within 1/2D of 2."""
    bins = draw(st.sampled_from([1, 3, 37, 200, 401]))
    kind = draw(st.sampled_from(["any", "edge", "top"]))
    if kind == "edge":  # midpoint M / D = 1/2 + j w, w = 3 / (2 bins)
        j, s = draw(st.integers(0, bins)), draw(st.integers(1, 2**20))
        D, M = 2 * bins * s, (bins + 3 * j) * s
        e = draw(st.integers(0, min((2 * M - D) // 2, 2 * D - M)))
        A, B = M - e, M + e
    elif kind == "top":
        D = draw(st.integers(2, 2**40))
        A, B = 2 * D - draw(st.integers(1, 2)), 2 * D
    else:
        D = draw(st.integers(1, 2**40))
        A = draw(st.integers((D + 1) // 2, 2 * D))
        B = draw(st.integers(A, 2 * D))
    assume(D < A + B < 4 * D)
    return A, B, D, bins


@settings(max_examples=400, deadline=None)
@given(_binned_brackets())
@example((3, 3, 2, 3))
@example((3999, 4000, 2000, 401))
@example((103, 103, 200, 200))
def test_integer_bins_match_the_fraction_bins(case):
    # the scan bins a root from its integer bracket; the Fraction midpoint
    # over the Fraction bin width gives the same bins on both components
    A, B, D, bins = case
    mid = F(A + B, 2 * D)
    want = tuple(
        min(int((x - lo) / ((hi - lo) / bins)), bins - 1)
        for x, lo, hi in ((mid, lw.POS_LO, lw.POS_HI), (-mid, lw.NEG_LO, lw.NEG_HI))
    )
    assert lw._bins(A, B, D, bins) == want


class _InlinePool:
    """A fake `multiprocessing.Pool`: it records its size and maps the tasks inline, so no
    process is started."""

    sizes = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def test_scan_opens_no_more_workers_than_tasks(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    want = lw.scan(3).to_json_dict()
    assert lw.scan(3, jobs=64).to_json_dict() == want  # one chunk per degree
    assert lw.scan(3, jobs=2).to_json_dict() == want
    assert _InlinePool.sizes == [3, 2]


# sha256 of the scan JSON and of roots_seen, by (max_degree, bins): scan(12) from the two-sided
# scan, before the mirror and the Descartes pre-test; scan(13) and scan(10, bins=37) from the
# matrix-product Descartes kernel and plain bisection, before the Taylor shifts and the float
# proposals; scan(11) and scan(14) from the Descartes kernel over all of (1/2, 2), before the
# reversal
_SCAN_DIGESTS = {
    (11, 200): (
        "3e4a20299c996e74c568ecb3052e519f985cc09066a713e33cb21a17c223c3b3",
        "dd07e9998d0576dd1d50be2d3c17778e52de9a70b04d9954411ac33347dd34e3",
    ),
    (12, 200): (
        "0299fbb97da8bf1fbb775e1a5cd209b0d1a9a7bb69acd0e46af41abbfb351722",
        "8e8e0f750ff68b0e3cc7ad050ac703c5d17af157454f1cfdbaa58d5a03e245cb",
    ),
    (13, 200): (
        "dbd04099a3b18104c4ad989fbe835630f2d3e71969b473e445df03f4ae97ffad",
        "7e138d0447bc51b0118b65fe651feef9f9e63c75aefa77dd133a4c0fc90346ac",
    ),
    (14, 200): (
        "a87a27456df3867baaa91108bdf2ec0e305ad0407b34df34ea8a82c7f3610ce8",
        "1c3bec9a457252d8ecde2585d7e6481f7857cee55fdc58ec7e59e48e81fd438b",
    ),
    (10, 37): (
        "308162e0cb1a6c7fc8a5f95474c637af8c5e2cd24e32aa236ff5492acd50025a",
        "ca5a6bfb7072d5a8bf1881e155dff8631f3cba18e0d870c682a68b4be6105ae1",
    ),
}


def _scan_digests(max_degree, bins, jobs=1):
    s = lw.scan(max_degree, jobs=jobs, bins=bins, collect_roots=True)
    return tuple(
        hashlib.sha256(json.dumps(data, **kw).encode()).hexdigest()
        for data, kw in ((s.to_json_dict(), dict(sort_keys=True)), (s.roots_seen, {}))
    )


def test_scan_12_digests():
    for (max_degree, bins), want in _SCAN_DIGESTS.items():
        assert _scan_digests(max_degree, bins) == want, (max_degree, bins)


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("proposal", ["none", "wrong_cell", "nan", "other_root", "far_end"])
def test_scan_falls_back_where_a_proposal_fails(monkeypatch, proposal, every):
    # every `every`-th float proposal fails, in the reversal's bin cells and in the fallback's
    # refine_bracket alike: None, a point two cells off the root, NaN, the proposal of another
    # root of the same polynomial, which passes the two signs, or a point at the far end of the
    # root's own bin cell, which passes P's signs and leaves 1/y to rev(P)'s.  A polynomial whose
    # proposal fails falls back to Sturm isolation of (1/2, 2) for it and its reversal, and
    # every pinned digest stays, also where a chunk of 3 jobs books roots of other chunks
    # (scan(13), 3 s with every proposal failing, only where they return None)
    import multiprocessing

    propose, calls, first = ip.float_root, itertools.count(1), {}

    def failing(p, lo, hi, cell):
        x = propose(p, lo, hi, cell)
        other = first.setdefault(p, x)
        if next(calls) % every:
            return x
        if proposal == "far_end" and x is not None:
            k, offset = divmod(x - 0.5, cell)  # the bin grid of (1/2, 2) when cell is 3 / 2^14
            return 0.5 + (k + (0.999 if offset < cell / 2 else 0.001)) * cell
        return {"wrong_cell": None if x is None else x + 2 * cell, "nan": float("nan"), "other_root": other}.get(proposal)

    handed_over, fallback = [], lw._fallback
    monkeypatch.setattr(ip, "float_root", failing)
    monkeypatch.setattr(lw, "_fallback", lambda p, rev: handed_over.append(p) or fallback(p, rev))
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    for jobs in (1, 3):
        for key in ((11, 200), (10, 37)) + (((13, 200),) if jobs == every and proposal == "none" else ()):
            assert _scan_digests(*key, jobs=jobs) == _SCAN_DIGESTS[key], (key, jobs)
    assert len(handed_over) > (50 if proposal == "other_root" else 1000)


def test_mirror_flag_is_the_step_test_of_the_mirrored_root():
    # step_root_at's second flag is the step test of -x against P(-x)
    rng = random.Random(13)
    for _ in range(60):
        deg = rng.randint(1, 10)
        p = lw.LittlewoodPoly.from_mask(deg, rng.randrange(1 << deg))
        q = lw.LittlewoodPoly(tuple(c if j % 2 == 0 else -c for j, c in enumerate(p.coeffs)))
        sq, brackets, _ = ip.isolate_brackets(p.coeffs, lw._ANNULUS)
        qsq, qbrackets, _ = ip.isolate_brackets(q.coeffs, lw._ANNULUS)
        mirrored = [ip.step_root_at(q.coeffs, qsq, b)[0] for b in reversed(qbrackets)]
        assert [ip.step_root_at(p.coeffs, sq, b)[1] for b in brackets] == mirrored, p


def test_scan_budget_guard():
    with pytest.raises(lw.BudgetError):
        lw.scan(25)


def test_negative_step_roots_are_exactly_xn():
    records = lw.step_root_records(8)
    neg = [r for r in records if sc.scalar_sign(r.root).sign < 0]
    assert len(neg) == 4
    for rec in sorted(neg, key=lambda r: r.degree):
        n = rec.degree // 2
        assert rec.poly.coeffs == lb.sum_poly(rec.degree)
        assert sc.same_root(rec.root, lb.solve_xn(n).root)


def test_reciprocal_closure():
    # if a is a root of P then 1/a is a root of the reversed polynomial
    rng = random.Random(2)
    for _ in range(20):
        deg = rng.randint(1, 7)
        p = lw.LittlewoodPoly.from_mask(deg, rng.randrange(1 << deg))
        roots = lw.real_roots(p)
        rev = tuple(reversed(p.coeffs))
        rev = tuple(-c for c in rev) if rev[0] != 1 else rev
        q = lw.LittlewoodPoly(rev)
        qroots = lw.real_roots(q)
        for r in roots:
            inv = sc.scalar_inverse(r)
            assert any(
                sc.scalar_sign(sc.scalar_sub(x, inv)).sign == 0
                if isinstance(x, sc.RationalScalar) and isinstance(inv, sc.RationalScalar)
                else _same_value(x, inv)
                for x in qroots
            )


def _same_value(a, b):
    # roots may live on different defining polynomials; compare by sign tests
    if isinstance(a, sc.RationalScalar) and isinstance(b, sc.RationalScalar):
        return a.value == b.value
    if isinstance(a, sc.AlgebraicScalar) and isinstance(b, sc.AlgebraicScalar):
        try:
            return sc.same_root(a, b)
        except ValueError:
            pass
    lo1, hi1 = sc.scalar_enclosure(a, F(1, 2**60))
    lo2, hi2 = sc.scalar_enclosure(b, F(1, 2**60))
    return not (hi1 < lo2 or hi2 < lo1)


def test_step_root_implies_nonunique_maximizer():
    # bridge to the extremizer engine on a couple of (1/2, 1] step roots
    records = [r for r in lw.step_root_records(6) if sc.scalar_sign(r.root).sign > 0]
    seen = 0
    for rec in records:
        if isinstance(rec.root, sc.RationalScalar):
            continue
        lo, hi = sc.scalar_enclosure(rec.root, F(1, 2**24))
        if not (F(1, 2) < lo and hi <= F(1)):
            continue
        report = se.classify_extrema(ev.Geometric(rec.root), "max", 48)
        assert report.cardinality.kind == "continuum", rec
        seen += 1
        if seen >= 3:
            break
    assert seen >= 1


def test_non_step_algebraic_alpha_has_two_maximizers():
    # a critical-regime root that is not a step root keeps a finite count when
    # certification succeeds; use alpha = root of 1-x-x^2 shifted... simplest:
    # sqrt2/2 is not a root of any Littlewood polynomial prefix pattern here
    a = sc.algebraic([-1, 0, 2], F(1, 2), 1)  # sqrt(1/2) ~ 0.7071
    r = se.classify_extrema(ev.Geometric(a), "max", 40)
    assert r.cardinality.kind in ("finite", "unknown")
    if r.cardinality.kind == "finite":
        assert r.cardinality.count <= 2


def test_closure_gap_report():
    s = lw.scan(2, collect_roots=True)
    gaps = lw.closure_gap_report([r[2] for r in s.roots_seen], F(1, 2))
    assert gaps  # few roots: big holes
    s = lw.scan(10, collect_roots=True)
    gaps_small = lw.closure_gap_report(
        [r[2] for r in s.roots_seen], F(1, 100), lo=F(1, 2), hi=F(1)
    )
    total = sum(b - a for a, b in gaps_small)
    assert total < F(1, 4)  # roots already fairly dense in (1/2, 1]


def test_real_roots_are_the_base_roots_algebraic_builds():
    # real_roots builds each base root from the walker's bracket directly;
    # algebraic() on the same bracket, with its own Sturm count, agrees
    for degree in range(1, 11):
        for mask in range(1 << degree):
            p = lw.LittlewoodPoly.from_mask(degree, mask)
            sq, brackets, _ = ip.isolate_brackets(p.coeffs, lw._ANNULUS)
            roots = lw.real_roots(p)
            assert len(roots) == len(brackets)
            for root, bracket in zip(roots, brackets):
                A, B, D = ip.refine_bracket(sq, bracket, lw.ROOT_WIDTH)
                if A == B:
                    assert root == sc.RationalScalar(F(A, D))
                else:
                    assert root == sc.algebraic(p.coeffs, F(A, D), F(B, D)), (p, root)


def test_root_records_are_the_real_roots():
    # each root comes from its scan cell, not a second isolation; it must be
    # the real_roots entry itself (object equality compares the bracket too),
    # for mirrored negative roots and the repeated root of (1-x)^2 (1+x) alike
    s = lw.scan(10, collect_roots=True)
    records = collections.defaultdict(list)
    for rec in lw.root_records(s.roots_seen):
        records[rec.poly].append(rec)
    assert sum(map(len, records.values())) == s.total_roots
    assert lw.LittlewoodPoly((1, -1, -1, 1)) in records
    for poly, recs in records.items():
        assert [rec.root for rec in recs] == lw.real_roots(poly), poly
        assert [rec.is_step_root for rec in recs] == [lw.is_step_root(poly, rec.root) for rec in recs], poly
    steps = [rec for recs in records.values() for rec in recs if rec.is_step_root]
    assert lw.step_root_records(10) == steps


def test_a_cell_without_a_sign_change_is_refused():
    sq = lw.LittlewoodPoly((1, -1, -1)).coeffs  # roots -1.618... and 0.618...
    assert lw._root_in(sq, (2, 5, 4), lw.ROOT_WIDTH) == lw.real_roots(lw.LittlewoodPoly(sq))[1]
    with pytest.raises(ValueError):
        lw._root_in(sq, (5, 8, 4), lw.ROOT_WIDTH)
    with pytest.raises(ValueError):
        list(lw.root_records([(2, 3, 1.625, False)]))


def _reversal_cases():
    """Integer polynomials for `_booked_roots` whose only dyadic root, if any, is 1: each
    Littlewood polynomial of degree <= 7, six that take the fallback, and two that do not."""
    cube, golden, inverse = ip.mul((-1, 1), ip.mul((-1, 1), (-1, 1))), (-1, -1, 1), (-1, 1, 1)
    return [lw.LittlewoodPoly.from_mask(d, m).coeffs for d in range(1, 8) for m in range(1 << d)] + [
        ip.mul((-1, 1), (-10001, 0, 10000)),  # 1 and 1.00005 share the cell of 1
        ip.mul((-1, 1), (-10000, 0, 10001)),  # 1 and 0.99995 share it
        ip.mul(inverse, inverse),  # a double root at 0.618
        ip.mul(cube, ip.mul(inverse, inverse)),  # and 1 three times
        (19664**2 - 2, -2 * 32768 * 19664, 32768**2),  # (19664 +- 2^(1/2)) / 32768 in one bin cell
        ip.mul((-99990, 100000), ip.mul((-100004, 100000), (-100005, 100000))),  # 3 roots in the cell of 1
        ip.mul(cube, ip.mul(golden, golden)),  # 1 three times and a double root at 1.618: certified
        ip.mul((-1, 1), (1, -4, 1, 4, -1)),  # 1, 0.518 and 1.246: certified
    ]


def test_booked_roots_are_the_fallbacks_and_count_every_multiplicity(monkeypatch):
    # what the scan books for P, certified through the reversal or not, is the Sturm fallback's
    # answer: P's roots in (1/2, 1] and rev(P)'s in (1, 2), each in the cell a scan of all of
    # (1/2, 2) gives them; with their multiplicities they are sympy's roots there
    x, fallback, handed_over = sympy.Symbol("x"), lw._fallback, []
    monkeypatch.setattr(lw, "_fallback", lambda p, rev: handed_over.append(p) or fallback(p, rev))
    for p in _reversal_cases():
        transform = [sum(map(operator.mul, row, p)) for row in ip.descartes_matrix(ip.degree(p), lw._LOW)]
        roots, excess = lw._booked_roots(p, transform)
        want, want_excess = fallback(p, lw._reversed(p))
        assert sorted(roots) == sorted(want), p
        assert excess == want_excess + max(lw._deflated(p)[1] - 1, 0), p
        multiplicity = 0
        for q, lo, hi in ((p, F(1, 2), 1), (lw._reversed(p), 1, 2)):
            roots_of_q = sympy.Poly(list(reversed(q)), x).real_roots()
            multiplicity += sum(1 for r in roots_of_q if lo < r and (r <= hi if q is p else r < hi))
        assert len(roots) + excess == multiplicity, p
    assert handed_over == _reversal_cases()[-8:-2]
