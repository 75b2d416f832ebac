"""Greedy step-condition recursions and extremizer classification.

A +-1 sequence rho is an expansion of a maximizer of f = sum c_m tent(2^m .)
exactly when rho_n * S_{n-1} <= 0 for every n, where S_n = sum_{m<=n} 2^m c_m rho_m.
The two greedy resolutions of ties (choose +1 on S <= 0, or only on S < 0)
produce the smallest and largest maximizer in [0, 1/2]; swapping the
comparisons yields minimizers.  This module runs those recursions with exact
scalar arithmetic, certifies eventually periodic behaviour so that finite
computation yields infinite conclusions, and classifies the extremizer set:
a finite count, or a perfect set whose Hausdorff dimension is 1/(n0+1) when
the first vanishing partial sum at index n0 closes a block recurrence.

Certificates attached to a trace are sound by construction:

* finite support: the partial sum is eventually constant;
* increasing positive weights: once |S| falls strictly below the next weight,
  the sign alternates forever inside a shrinking envelope (never zero);
* geometric weights: if the sign pattern repeats with period p (alpha^p > 0),
  the per-phase increments scale by alpha^p, so the observed signs persist
  whenever each phase either reinforces its sign, has increment zero, or is
  dominated (|alpha| < 1) with a same-signed limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import scalars
from .evaluate import (
    CoefficientSequence,
    Geometric,
    SignSequence,
    T_map,
    eval_periodic,
    eval_series,
    t_map_fraction,
)
from .scalars import (
    RationalScalar,
    Scalar,
    scalar_add,
    scalar_enclosure,
    scalar_mul,
    scalar_sign,
    scalar_sub,
)

DEFAULT_DEPTH = 64
DEFAULT_DEPTH_BITS = 128  # enclosure width request for interval coefficients
ENUMERATION_CAP = 12  # max certified zeros before classification gives up


class AbortUnresolved(Exception):
    """A partial-sum sign could not be certified (interval coefficients)."""

    def __init__(self, index: int, width):
        super().__init__(f"sign of partial sum S_{index} unresolved (width {width})")
        self.index = index
        self.width = width


@dataclass(frozen=True)
class PeriodCertificate:
    """Proof record that the sign choices repeat with `period` from `start`."""

    start: int
    period: int
    zero_phases: tuple[int, ...]  # phase offsets whose partial sums vanish forever
    reasons: tuple[str, ...]      # per-phase justification (debug/reporting)


@dataclass(frozen=True)
class StepTrace:
    signs: SignSequence
    partial_sums: tuple[Scalar, ...]
    zero_indices: tuple[int, ...]
    unresolved_indices: tuple[int, ...]
    depth: int
    certificate: PeriodCertificate | None = None

    @property
    def certified(self) -> bool:
        return self.signs.period is not None

    @property
    def tail_zero_free(self) -> bool | None:
        """True/False when the tail zero structure is certified, else None."""
        if self.certificate is None:
            return None
        return not self.certificate.zero_phases


@dataclass(frozen=True)
class Location:
    signs: SignSequence
    exact: Fraction | None
    approx: Fraction
    error: Fraction

    @staticmethod
    def from_trace(trace: "StepTrace") -> "Location":
        t = T_map(trace.signs)
        if isinstance(t, RationalScalar):
            return Location(trace.signs, t.value, t.value, Fraction(0))
        approx = t.to_fraction()
        return Location(trace.signs, None, approx, Fraction(1, 2 ** (len(trace.signs.prefix) + 1)))


@dataclass(frozen=True)
class Cardinality:
    kind: str  # "finite" | "continuum" | "unknown"
    count: int | None = None
    block_length: int | None = None
    hausdorff_dim: Fraction | None = None
    depth: int | None = None

    @staticmethod
    def finite(count: int) -> "Cardinality":
        return Cardinality("finite", count=count)

    @staticmethod
    def continuum(block_length: int) -> "Cardinality":
        return Cardinality(
            "continuum", block_length=block_length, hausdorff_dim=Fraction(1, block_length)
        )

    @staticmethod
    def unknown(depth: int) -> "Cardinality":
        return Cardinality("unknown", depth=depth)


@dataclass(frozen=True)
class ExtremaReport:
    kind: str  # "max" | "min"
    smallest: Location
    largest: Location
    value_lo: Fraction
    value_hi: Fraction
    cardinality: Cardinality
    locations: tuple[Fraction, ...] | None  # all extremizers in [0,1] when finite
    evidence: StepTrace

    @property
    def value_width(self) -> Fraction:
        return self.value_hi - self.value_lo


@dataclass(frozen=True)
class StepCheckResult:
    status: str  # "holds" | "violated" | "unresolved"
    index: int | None = None


@dataclass(frozen=True)
class NonnegResult:
    status: str  # "nonneg_certified" | "negative_witness" | "unknown"
    witness: Fraction | None = None
    depth: int | None = None


# ---------------------------------------------------------------------------
# the recursion


def _decide(kind: str, tie: str, s: int) -> int:
    if kind == "max":
        if s < 0:
            return 1
        if s > 0:
            return -1
    else:
        if s > 0:
            return 1
        if s < 0:
            return -1
    return 1 if tie == "sharp" else -1


def _run(c: CoefficientSequence, kind: str, tie: str, depth: int, overrides=None):
    """Run the recursion to `depth`; returns (choices, sums, signs, zero_decisions)."""
    weights = c.weights()
    w0 = next(weights)
    if isinstance(w0, scalars.IntervalScalar):
        return _run_interval(c, kind, tie, depth, overrides)
    rho = [1]
    sums: list[Scalar] = [w0]
    sgn: list[int] = []
    zero_decisions: list[int] = []
    for n in range(1, depth + 1):
        res = scalar_sign(sums[-1])
        if not res.resolved:
            raise AbortUnresolved(n - 1, res.width)
        s = res.sign
        sgn.append(s)
        if s == 0:
            zero_decisions.append(n)
        choice = overrides.get(n) if overrides and n in overrides else _decide(kind, tie, s)
        rho.append(choice)
        sums.append(scalar_add(sums[-1], scalar_mul(next(weights), choice)))
    res = scalar_sign(sums[-1])
    if not res.resolved:
        raise AbortUnresolved(depth, res.width)
    sgn.append(res.sign)
    return rho, sums, sgn, zero_decisions


def _run_interval(c, kind, tie, depth, overrides=None):
    """Interval-coefficient variant: flat bound propagation, abort on straddle.

    Keeps the partial sums as plain rational bounds (no lazy refinement
    chains); a sign query failing means the coefficients themselves are too
    coarse, which is exactly the AbortUnresolved contract.
    """
    width = Fraction(1, 2**DEFAULT_DEPTH_BITS)
    weights = c.weights()
    rho = [1]
    lo, hi = scalar_enclosure(next(weights), width)
    bounds = [(lo, hi)]
    sgn: list[int] = []
    zero_decisions: list[int] = []
    for n in range(1, depth + 1):
        slo, shi = bounds[-1]
        if slo > 0:
            s = 1
        elif shi < 0:
            s = -1
        elif slo == shi == 0:
            s = 0
        else:
            raise AbortUnresolved(n - 1, shi - slo)
        sgn.append(s)
        if s == 0:
            zero_decisions.append(n)
        choice = overrides.get(n) if overrides and n in overrides else _decide(kind, tie, s)
        rho.append(choice)
        w = next(weights)
        try:
            wlo, whi = scalar_enclosure(w, width)
        except scalars.PrecisionError:
            wlo, whi = scalars._current_bounds(w)
        if choice < 0:
            wlo, whi = -whi, -wlo
        bounds.append((bounds[-1][0] + wlo, bounds[-1][1] + whi))
    slo, shi = bounds[-1]
    if slo > 0:
        sgn.append(1)
    elif shi < 0:
        sgn.append(-1)
    elif slo == shi == 0:
        sgn.append(0)
    else:
        raise AbortUnresolved(depth, shi - slo)
    sums = [scalars.IntervalScalar(l, h) for l, h in bounds]
    return rho, sums, sgn, zero_decisions


# ---------------------------------------------------------------------------
# tail certificates


def _certify_finite_support(c, kind, tie, rho, sgn, depth):
    end = c.support_end()
    if end is None or depth < end + 1:
        return None
    s = sgn[end]
    choice = _decide(kind, tie, s)
    start = end + 1
    # sanity: the computed tail must already follow the constant rule
    for n in range(start, depth + 1):
        if rho[n] != choice:
            return None
    zero_phases = (0,) if s == 0 else ()
    cert = PeriodCertificate(start, 1, zero_phases, ("constant: weights vanish beyond support",))
    return cert, (choice,)


def _certify_alternating(c, kind, rho, sums, sgn, depth):
    m_inc = c.weights_increasing_from()
    if m_inc is None:
        return None
    for j in range(m_inc, depth):
        s = sgn[j]
        if s == 0:
            continue
        if kind == "max":
            # need 0 < |S_j| < w_{j+1}: then the sign alternates inside an
            # envelope that the increasing weights keep renewing
            gap = scalar_sub(c.weight(j + 1), scalar_mul(sums[j], s))
            if scalar_sign(gap).sign != 1:
                continue
            block = (-s, s)
            reason = "alternating envelope: increasing weights"
        else:
            # minimizer rule pushes away from zero; positive weights reinforce
            block = (s,)
            reason = "monotone: positive weights reinforce the sign"
        start = j + 1
        p = len(block)
        if all(rho[n] == block[(n - start) % p] for n in range(start, depth + 1)):
            return PeriodCertificate(start, p, (), (reason,)), block
    return None


def _certify_geometric(c, rho, sums, sgn, depth):
    alpha = c.geometric_ratio()
    if alpha is None:
        return None
    sa = scalar_sign(alpha)
    if not sa.resolved:
        return None
    alpha_neg = sa.sign < 0
    # |alpha| vs 1 decides whether opposing phases can be dominated
    s_lo = scalar_sign(scalar_add(alpha, Fraction(1))).sign
    s_hi = scalar_sign(scalar_sub(alpha, Fraction(1))).sign
    abs_lt_1 = s_lo > 0 and s_hi < 0
    abs_eq_1 = s_lo == 0 or s_hi == 0

    max_p = (depth + 1) // 3
    # the weights of a geometric sequence are the powers alpha^p
    for p, alpha_p in zip(range(1, max_p + 1), islice(c.weights(), 1, None)):
        if alpha_neg and p % 2:
            continue
        one_minus = scalar_sub(Fraction(1), alpha_p)
        for start in range(0, depth - 3 * p + 2):
            if any(rho[k + p] != rho[k] for k in range(start, depth - p + 1)):
                continue
            lo_anchor = max(start - 1, 0)
            if any(sgn[k + p] != sgn[k] for k in range(lo_anchor, depth - p + 1)):
                continue
            cert = _check_phases(
                sums, sgn, depth, p, lo_anchor, alpha_p, one_minus, abs_lt_1, abs_eq_1
            )
            if cert is not None:
                zero_phases, reasons = cert
                return PeriodCertificate(start, p, zero_phases, reasons), tuple(
                    rho[start : start + p]
                )
    return None


def _check_phases(sums, sgn, depth, p, lo_anchor, alpha_p, one_minus, abs_lt_1, abs_eq_1):
    zero_phases = []
    reasons = []
    for r in range(p):
        i = depth - p - ((depth - p - (lo_anchor + r)) % p)
        if i < lo_anchor:
            return None
        d = scalar_sub(sums[i + p], sums[i])
        sd = scalar_sign(d)
        if not sd.resolved:
            return None
        si = sgn[i]
        if sd.sign == 0:
            if si == 0:
                zero_phases.append(r)
            reasons.append("phase %d: increment zero, sum persists" % r)
            continue
        if si == 0:
            return None  # sign period would already have been violated
        if sd.sign == si:
            reasons.append("phase %d: reinforcing increments" % r)
            continue
        if not abs_lt_1 or abs_eq_1:
            return None
        # limit = S_i + D/(1 - alpha^p); same sign (or zero) keeps the sign forever
        w = scalar_add(scalar_mul(sums[i], one_minus), d)
        sw = scalar_sign(w)
        if not sw.resolved:
            return None
        if sw.sign == si or sw.sign == 0:
            reasons.append("phase %d: dominated opposing increments" % r)
            continue
        return None
    return tuple(sorted(zero_phases)), tuple(reasons)


def _certify(c, kind, tie, rho, sums, sgn, depth):
    got = _certify_finite_support(c, kind, tie, rho, sgn, depth)
    if got is None:
        got = _certify_geometric(c, rho, sums, sgn, depth)
    if got is None:
        got = _certify_alternating(c, kind, rho, sums, sgn, depth)
    return got


def _build_trace(c, kind, tie, depth, overrides=None) -> StepTrace:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rho, sums, sgn, _ = _run(c, kind, tie, depth, overrides)
    zeros = tuple(n for n in range(depth + 1) if sgn[n] == 0)
    got = _certify(c, kind, tie, rho, sums, sgn, depth)
    if got is not None:
        cert, block = got
        signs = SignSequence(tuple(rho), (cert.start, block))
        # zeros in the certified tail recur along their phases; keep only the
        # prefix occurrences in zero_indices (complete when tail is zero free)
        return StepTrace(signs, tuple(sums), zeros, (), depth, cert)
    return StepTrace(SignSequence(tuple(rho)), tuple(sums), zeros, (), depth, None)


def build_rho(c: CoefficientSequence, variant: str, depth: int = DEFAULT_DEPTH) -> StepTrace:
    """Greedy maximizer recursion; variant 'sharp' -> smallest, 'flat' -> largest."""
    if variant not in ("sharp", "flat"):
        raise ValueError("variant must be 'sharp' or 'flat'")
    return _build_trace(c, "max", variant, depth)


def build_lambda(c: CoefficientSequence, variant: str, depth: int = DEFAULT_DEPTH) -> StepTrace:
    """Greedy minimizer recursion (sign-swapped comparisons)."""
    if variant not in ("sharp", "flat"):
        raise ValueError("variant must be 'sharp' or 'flat'")
    return _build_trace(c, "min", variant, depth)


def check_step_condition(
    c: CoefficientSequence, rho: SignSequence, depth: int, kind: str = "max"
) -> StepCheckResult:
    """Verify rho_n * S_{n-1} <= 0 (>= 0 for minima) for n = 1..depth."""
    upto = rho.determined_upto()
    if upto is not None and upto < depth + 1:
        raise ValueError("sign sequence not determined up to requested depth")
    weights = c.weights()
    s: Scalar = scalar_mul(next(weights), rho[0])
    for n in range(1, depth + 1):
        res = scalar_sign(s)
        if not res.resolved:
            return StepCheckResult("unresolved", n)
        test = rho[n] * res.sign
        if (kind == "max" and test > 0) or (kind == "min" and test < 0):
            return StepCheckResult("violated", n)
        s = scalar_add(s, scalar_mul(next(weights), rho[n]))
    return StepCheckResult("holds")


# ---------------------------------------------------------------------------
# classification


def _enumerate_leaves(c, kind, depth, zeros_cap=ENUMERATION_CAP):
    """All step-condition sign sequences, forking at every vanishing sum.

    Returns a list of certified traces (one per sequence) or None when some
    branch cannot be certified or there are too many fork points.
    """
    leaves = []
    stack = [dict()]
    while stack:
        overrides = stack.pop()
        trace_rho, sums, sgn, zero_decisions = _run(c, kind, "sharp", depth, overrides)
        pending = [n for n in zero_decisions if n not in overrides]
        if pending:
            if len(overrides) >= zeros_cap:
                return None
            n = pending[0]
            for choice in (1, -1):
                nxt = dict(overrides)
                nxt[n] = choice
                stack.append(nxt)
            continue
        got = _certify(c, kind, "sharp", trace_rho, sums, sgn, depth)
        if got is None:
            return None
        cert, block = got
        if cert.zero_phases:
            return None  # infinitely many zeros: not a finite enumeration
        zeros = tuple(n for n in range(depth + 1) if sgn[n] == 0)
        signs = SignSequence(tuple(trace_rho), (cert.start, block))
        leaves.append(StepTrace(signs, tuple(sums), zeros, (), depth, cert))
    return leaves


def _structured_continuum(trace: StepTrace) -> int | None:
    """Block length when the first zero closes a block recurrence, else None.

    Certified conditions: first zero at n0, choices repeat with period
    block = n0+1 over the whole computed prefix, zeros sit exactly on the grid
    n0 + k*block there, and the certified period is compatible with the block
    (divides it or is a multiple of it).  Together with the tail certificate
    this proves the infinite sequence is block periodic with vanishing sums
    exactly on the grid, which is the perfect-set case.
    """
    cert = trace.certificate
    if cert is None or not cert.zero_phases or not trace.zero_indices:
        return None
    n0 = trace.zero_indices[0]
    block = n0 + 1
    if block % cert.period != 0 and cert.period % block != 0:
        return None
    if cert.start + 2 * block > trace.depth:
        return None
    prefix = trace.signs.prefix
    if any(prefix[k + block] != prefix[k] for k in range(len(prefix) - block)):
        return None
    if set(trace.zero_indices) != set(range(n0, trace.depth + 1, block)):
        return None
    return block


def _value_near(c, t: Fraction, eps: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of f(t*) given only |t* - t| <= eps.

    |f(t*) - f(t)| <= sum_m |c_m| min(2^m eps, 1/2); the sum is split where
    2^m eps reaches 1/2 and the remainder is absorbed into the l1 tail bound.
    """
    lo, hi = scalar_enclosure(eval_series(c, t, width), width)
    if eps == 0:
        return lo, hi
    cut = 0
    pw = Fraction(1)
    while pw * eps < Fraction(1, 2) and cut < 2048:
        pw *= 2
        cut += 1
    slack = Fraction(0)
    pw = Fraction(1)
    for cm in islice(c.coefficients(), cut):
        clo, chi = scalar_enclosure(cm, Fraction(1, 2**48))
        slack += max(abs(clo), abs(chi)) * pw * eps
        pw *= 2
    if cut == 0:
        clo, chi = scalar_enclosure(c.coefficient(0), Fraction(1, 2**48))
        slack += max(abs(clo), abs(chi)) / 2
    slack += c.tail_bound(max(cut - 1, 0)) / 2
    return lo - slack, hi + slack


def _extremum_value(c, kind, loc: Location, width: Fraction) -> tuple[Fraction, Fraction]:
    if loc.exact is not None:
        if isinstance(c, Geometric):
            return scalar_enclosure(eval_periodic(c, loc.exact), width)
        return scalar_enclosure(eval_series(c, loc.exact, width), width)
    return _value_near(c, loc.approx, loc.error, width)


def classify_extrema(
    c: CoefficientSequence,
    kind: str = "max",
    depth: int = DEFAULT_DEPTH,
    value_width: Fraction = Fraction(1, 10**15),
) -> ExtremaReport:
    """Smallest/largest extremizer, certified value enclosure, and cardinality.

    Cardinality is reported as Finite only when the zero set of the sharp
    recursion is certified complete and every branch sequence is certified
    periodic; as a continuum (perfect set of dimension 1/(n0+1)) only when the
    first zero provably closes a block recurrence; otherwise it is
    unknown-beyond-depth.  Locations are reported in either case, exactly when
    periodic and as dyadic approximants otherwise.
    """
    if kind not in ("max", "min"):
        raise ValueError("kind must be 'max' or 'min'")
    sharp = _build_trace(c, kind, "sharp", depth)
    flat = _build_trace(c, kind, "flat", depth)
    small = Location.from_trace(sharp)
    large = Location.from_trace(flat)

    cardinality = Cardinality.unknown(depth)
    locations: tuple[Fraction, ...] | None = None
    if sharp.certified and sharp.tail_zero_free:
        if not sharp.zero_indices:
            half_points = [small.exact]
        else:
            leaves = _enumerate_leaves(c, kind, depth)
            half_points = None
            if leaves is not None:
                if len(leaves) != 2 ** len(sharp.zero_indices):
                    raise AssertionError(
                        "step-sequence count %d disagrees with 2^|Z| = %d"
                        % (len(leaves), 2 ** len(sharp.zero_indices))
                    )
                half_points = sorted({t_map_fraction(l.signs) for l in leaves})
        if half_points is not None:
            unit = sorted(set(half_points) | {1 - t for t in half_points})
            cardinality = Cardinality.finite(len(unit))
            locations = tuple(unit)
    elif sharp.certified and sharp.tail_zero_free is False:
        block = _structured_continuum(sharp)
        if block is not None:
            cardinality = Cardinality.continuum(block)

    vlo_s, vhi_s = _extremum_value(c, kind, small, value_width)
    vlo_l, vhi_l = _extremum_value(c, kind, large, value_width)
    if vlo_s > vhi_l or vlo_l > vhi_s:
        raise AssertionError("extremizer values at smallest/largest locations disagree")
    report = ExtremaReport(
        kind=kind,
        smallest=small,
        largest=large,
        value_lo=min(vlo_s, vlo_l),
        value_hi=max(vhi_s, vhi_l),
        cardinality=cardinality,
        locations=locations,
        evidence=sharp,
    )
    if small.approx - small.error > large.approx + large.error:
        raise AssertionError("smallest extremizer exceeds largest")
    return report


def nonneg_check(c: CoefficientSequence, depth: int = DEFAULT_DEPTH) -> NonnegResult:
    """Decide f >= 0 on [0,1] via nonnegativity of the all-(+1) partial sums.

    Geometric sequences are decided for every n at once (sign analysis of the
    closed-form partial sums); otherwise the check is certified up to `depth`,
    with finite support closing the induction.
    """
    alpha = c.geometric_ratio()
    if alpha is not None:
        s = scalar_sign(scalar_add(alpha, Fraction(1)))
        if not s.resolved:
            raise AbortUnresolved(0, s.width)
        if s.sign >= 0:
            # partial sums (1 - alpha^(n+1))/(1 - alpha) with |alpha| <= 1, or
            # termwise positive for alpha >= 1: nonnegative for every n
            return NonnegResult("nonneg_certified")
        return NonnegResult("negative_witness", _negative_witness(c, depth), depth)
    total: Scalar = RationalScalar(Fraction(0))
    for n, w in zip(range(depth + 1), c.weights()):
        total = scalar_add(total, w)
        res = scalar_sign(total)
        if not res.resolved:
            raise AbortUnresolved(n, res.width)
        if res.sign < 0:
            return NonnegResult("negative_witness", _negative_witness(c, depth), depth)
        end = c.support_end()
        if end is not None and n >= end:
            return NonnegResult("nonneg_certified")
    return NonnegResult("unknown", None, depth)


def _negative_witness(c, depth) -> Fraction:
    """A point t with f(t) < 0: the smallest minimizer, or its dyadic approximant.

    The value is certified through `_extremum_value`, so an exact location of
    a Geometric sequence is evaluated in closed form by `eval_periodic`
    rather than summed term by term.
    """
    trace = _build_trace(c, "min", "sharp", depth)
    loc = Location.from_trace(trace)
    t = loc.exact if loc.exact is not None else loc.approx
    width = Fraction(1, 2**24)
    for _ in range(6):
        lo, hi = _extremum_value(c, "min", loc, width)
        if hi < 0:
            return t
        width /= 2**8
    raise AssertionError("negative witness could not be certified negative")
