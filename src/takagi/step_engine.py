"""Greedy step-condition recursions and extremizer classification.

A +-1 sequence rho is an expansion of a maximizer of f = sum c_m tent(2^m .)
exactly when rho_n * S_{n-1} <= 0 for every n, where S_n = sum_{m<=n} 2^m c_m rho_m.
The two greedy resolutions of ties (choose +1 on S <= 0, or only on S < 0)
produce the smallest and largest maximizer in [0, 1/2]; swapping the
comparisons yields minimizers.  This module runs those recursions with exact
arithmetic, certifies eventually periodic behaviour so that finite
computation yields infinite conclusions, and classifies the extremizer set:
a finite count, or a perfect set whose Hausdorff dimension is 1/(n0+1) when
the first vanishing partial sum at index n0 closes a block recurrence.

The step condition leaves a choice only after a vanishing partial sum, and
flipping every choice after such a zero negates every later sum, which keeps
the zeros and the condition.  So when the sharp run's tail is certified zero
free, with its zero set Z in the prefix, the extremizers in [0, 1/2] are T of
the sharp sequence flipped after each subset of Z: 2^|Z| sequences built
from the one certified trace (`_half_points`), with no further run.

For c_m = (alpha/2)^m with alpha rational or algebraic, S_n = P_n(alpha) for
the +-1 prefix polynomial P_n, so every decision is the sign of an integer
polynomial at a root: `_PrefixSums` keeps S_n as an integer vector over a
positive denominator, reduced modulo the defining polynomial of alpha's base
root, at one vector product per term, and takes every sign, the
certificate's included, from `intpoly.root_sign` on one bracket of that root
that only narrows during a run.  Every other sequence, an interval alpha
included, runs the same loop, `_run`, over Scalar sums (`_ScalarSums`):
exact weights sum exactly and an interval sum is kept as flat bounds, so a
straddling sign means the coefficients are too coarse.

Certificates attached to a trace are sound by construction:

* finite support: the partial sum is eventually constant;
* increasing positive weights: once |S| falls strictly below the next weight,
  the sign alternates forever inside a shrinking envelope (never zero);
* geometric weights: if the sign pattern repeats with period p (alpha^p > 0),
  the per-phase increments scale by alpha^p, so the observed signs persist
  whenever each phase either reinforces its sign, has increment zero, or is
  dominated (|alpha| < 1) with a same-signed limit S_{i+p} - alpha^p S_i.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, product

from . import intpoly, scalars
from .evaluate import (
    CoefficientSequence,
    SignSequence,
    T_map,
    _exact_geometric,
    eval_periodic,
    eval_series,
    t_map_fraction,
)
from .scalars import (
    IntervalScalar,
    PrecisionError,
    RationalScalar,
    Scalar,
    scalar_add,
    scalar_enclosure,
    scalar_mul,
    scalar_pow,
    scalar_sign,
    scalar_sub,
)

DEFAULT_DEPTH = 64
DEFAULT_DEPTH_BITS = 128  # an interval partial sum is enclosed once at 2^-bits
ENUMERATION_CAP = 12  # max certified zeros before classification gives up


class AbortUnresolved(PrecisionError):
    """A partial-sum sign could not be certified (interval coefficients): a
    PrecisionError, so every unresolved answer is caught as one."""

    def __init__(self, index: int, width):
        super().__init__(f"sign of partial sum S_{index} unresolved (width {scalars._show(width)})")
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
    partial_sums: Sequence[Scalar] = field(compare=False)  # S_0, ..., S_depth
    zero_indices: tuple[int, ...]
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


class _PrefixSums(Sequence):
    """Partial sums S_n = sum_{m<=n} rho_m alpha^m of a Geometric sequence, in integers.

    alpha is rational or algebraic: alpha = V(theta)/L for the root theta of
    the squarefree `poly` held by `root`, with V and L alpha's own `nums` and
    `den` (a rational a/q is V = a, L = q, poly qx - a and the exact bracket
    (a, a, q)).  S_n = N_n(theta)/E_n with N_n
    an integer vector reduced mod poly and E_n > 0; the power
    alpha^n = W_n(theta)/E_n is W_{n-1} V / (E_{n-1} L) reduced, one vector
    product a term, so N_n = f_n N_{n-1} + rho_n W_n with E_n = f_n E_{n-1}.
    Every sign is `scalars._Root.sign` of an integer vector: `intpoly.root_sign`
    on the deepest bracket of alpha's shared root, which it narrows for every
    scalar on theta.  Indexing builds S_n as the canonical Scalar on that
    root, the one that summing the weights as Scalars gives.
    """

    def __init__(self, alpha: Scalar):
        self.alpha = alpha
        if isinstance(alpha, RationalScalar):
            a, q = alpha.value.numerator, alpha.value.denominator
            self.poly, self.v, self.l = (-a, q), intpoly.normalize((a,)), q
            self.root = scalars._Root(self.poly, (a, a, q))
        else:
            self.poly, self.root, self.v, self.l = alpha.poly, alpha.root, alpha.nums, alpha.den
        self.powers = [[1]]  # W_n
        self.nums = [[1]]  # N_n
        self.dens = [1]  # E_n

    def push(self, choice: int) -> None:
        """Append S_{n+1} = S_n + choice * alpha^(n+1)."""
        w, f = scalars._reduce_int(intpoly.mul(self.powers[-1], self.v), self.l, self.poly)
        self.powers.append(w)
        self.dens.append(self.dens[-1] * f)
        self.nums.append(scalars._combine(self.nums[-1], f, w, choice))

    def sign(self, n: int) -> int:
        return self.root.sign(self.nums[n], self.poly)

    def alpha_sign(self, k: int) -> int:
        """Sign of alpha - k."""
        return self.root.sign(scalars._combine(self.v, 1, (self.l,), -k), self.poly)

    def increment_sign(self, i: int, p: int) -> int:
        """Sign of S_{i+p} - S_i."""
        r = self.dens[i + p] // self.dens[i]
        return self.root.sign(scalars._combine(self.nums[i + p], 1, self.nums[i], -r), self.poly)

    def limit_sign(self, i: int, p: int) -> int:
        """Sign of S_{i+p} - alpha^p S_i, the limit of the phase through i scaled by 1 - alpha^p."""
        m, g = scalars._reduce_int(
            intpoly.mul(self.powers[p], self.nums[i]), self.dens[p] * self.dens[i], self.poly
        )
        e = self.dens[i + p]
        return self.root.sign(scalars._combine(self.nums[i + p], g, m, -e), self.poly)

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return tuple(self[k] for k in range(*n.indices(len(self))))
        n = range(len(self))[n]
        if n == 0 or isinstance(self.alpha, RationalScalar):
            nums = self.nums[n]
            return RationalScalar(Fraction(nums[0] if nums else 0, self.dens[n]))
        return scalars._on(self.alpha, self.nums[n], self.dens[n])


def _flat(s: Scalar, width: Fraction) -> Scalar:
    """An interval's bounds at `width`, or as near as it refines, with no hook; exact s as is."""
    return IntervalScalar(*scalars._enclose(s, width)) if isinstance(s, IntervalScalar) else s


class _ScalarSums(list):
    """Partial sums of any other sequence's weights, as Scalars.

    Exact weights sum exactly.  An interval sum is enclosed once, to
    2^-DEFAULT_DEPTH_BITS beyond the width of the sum before it, and kept as
    flat bounds with no refinement hook, so a sign that still straddles 0
    means the coefficients are too coarse: `sign` raises AbortUnresolved.
    An interval alpha is made flat too, so the certificate's queries take
    their signs with no refinement round (None when unresolved): none could
    narrow them, and an exactly-zero phase limit straddles at every width.
    """

    def __init__(self, c: CoefficientSequence):
        super().__init__()
        self.weights = c.weights()
        self.alpha = _flat(c.geometric_ratio(), Fraction(1, 2**DEFAULT_DEPTH_BITS))
        self._append(next(self.weights))

    def _append(self, s: Scalar) -> None:
        # only the new weight can narrow, the sum before it being exact or
        # flat: asking for 2^-bits in all would refine that weight without
        # end once the flat widths add up past 2^-bits
        width = Fraction(1, 2**DEFAULT_DEPTH_BITS)
        if self and isinstance(self[-1], IntervalScalar):
            width += self[-1].hi - self[-1].lo
        self.append(_flat(s, width))

    def push(self, choice: int) -> None:
        self._append(scalar_add(self[-1], scalar_mul(next(self.weights), choice)))

    def sign(self, n: int) -> int:
        res = scalar_sign(self[n])
        if not res.resolved:
            raise AbortUnresolved(n, res.width)
        return res.sign

    def alpha_sign(self, k: int) -> int | None:
        return scalar_sign(scalar_sub(self.alpha, k), 0).sign

    def increment_sign(self, i: int, p: int) -> int | None:
        return scalar_sign(scalar_sub(self[i + p], self[i]), 0).sign

    def limit_sign(self, i: int, p: int) -> int | None:
        one_minus = scalar_sub(Fraction(1), scalar_pow(self.alpha, p))
        d = scalar_sub(self[i + p], self[i])
        return scalar_sign(scalar_add(scalar_mul(self[i], one_minus), d), 0).sign


def _partial_sums(c: CoefficientSequence):
    """S_0 = w_0, extended by `push`: integer vectors for a rational or algebraic Geometric."""
    return _PrefixSums(c.alpha) if _exact_geometric(c) else _ScalarSums(c)


def _run(c: CoefficientSequence, kind: str, tie: str, depth: int):
    """Run the recursion to `depth`; returns (choices, sums, signs)."""
    sums = _partial_sums(c)
    rho = [1]
    sgn: list[int] = []
    for n in range(1, depth + 1):
        s = sums.sign(n - 1)
        sgn.append(s)
        choice = _decide(kind, tie, s)
        rho.append(choice)
        sums.push(choice)
    sgn.append(sums.sign(depth))
    return rho, sums, sgn


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


def _period_start(rho, sgn, depth: int, p: int) -> int | None:
    """Least start <= depth - 3p + 1 with rho_{k+p} = rho_k for k >= start and
    sgn_{k+p} = sgn_k for k >= max(start - 1, 0), through depth; else None."""
    k = depth - p
    while k >= 0 and rho[k + p] == rho[k]:
        k -= 1
    start = k + 1
    k = depth - p
    while k >= 0 and sgn[k + p] == sgn[k]:
        k -= 1
    if k >= 0:
        start = max(start, k + 2)
    return start if start <= depth - 3 * p + 1 else None


def _certify_geometric(c, rho, sums, sgn, depth):
    if c.geometric_ratio() is None:
        return None
    sa = sums.alpha_sign(0)
    if sa is None:
        return None
    # |alpha| < 1 decides whether opposing phases can be dominated
    abs_lt_1 = sums.alpha_sign(-1) == 1 and sums.alpha_sign(1) == -1
    for p in range(1, (depth + 1) // 3 + 1):
        if sa < 0 and p % 2:
            continue
        # the phases checked are those of i = depth - 2p + 1 .. depth - p
        # whatever the start, so the least start decides for every start
        start = _period_start(rho, sgn, depth, p)
        if start is None:
            continue
        cert = _check_phases(sums, sgn, depth, p, max(start - 1, 0), abs_lt_1)
        if cert is not None:
            zero_phases, reasons = cert
            return PeriodCertificate(start, p, zero_phases, reasons), tuple(rho[start : start + p])
    return None


def _check_phases(sums, sgn, depth, p, lo_anchor, abs_lt_1):
    zero_phases = []
    reasons = []
    for r in range(p):
        i = depth - p - ((depth - p - (lo_anchor + r)) % p)
        sd = sums.increment_sign(i, p)
        if sd is None:
            return None
        si = sgn[i]
        if sd == 0:
            if si == 0:
                zero_phases.append(r)
            reasons.append("phase %d: increment zero, sum persists" % r)
            continue
        if si == 0:
            return None  # sign period would already have been violated
        if sd == si:
            reasons.append("phase %d: reinforcing increments" % r)
            continue
        if not abs_lt_1:
            return None
        # the limit S_i + D/(1 - alpha^p) has the sign of S_{i+p} - alpha^p S_i;
        # same sign (or zero) keeps the sign forever
        sw = sums.limit_sign(i, p)
        if sw == si or sw == 0:
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


def _build_trace(c, kind, tie, depth) -> StepTrace:
    """The recursion run to `depth`, its tail fixed by a certificate when one fires."""
    if tie not in ("sharp", "flat"):
        raise ValueError("variant must be 'sharp' or 'flat'")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rho, sums, sgn = _run(c, kind, tie, depth)
    # zeros in the certified tail recur along their phases; keep only the
    # prefix occurrences in zero_indices (complete when tail is zero free)
    zeros = tuple(n for n in range(depth + 1) if sgn[n] == 0)
    got = _certify(c, kind, tie, rho, sums, sgn, depth)
    if got is None:
        return StepTrace(SignSequence(tuple(rho)), sums, zeros, depth, None)
    cert, block = got
    return StepTrace(SignSequence(tuple(rho), (cert.start, block)), sums, zeros, depth, cert)


def build_rho(c: CoefficientSequence, variant: str, depth: int = DEFAULT_DEPTH) -> StepTrace:
    """Greedy maximizer recursion; variant 'sharp' -> smallest, 'flat' -> largest."""
    return _build_trace(c, "max", variant, depth)


def build_lambda(c: CoefficientSequence, variant: str, depth: int = DEFAULT_DEPTH) -> StepTrace:
    """Greedy minimizer recursion (sign-swapped comparisons)."""
    return _build_trace(c, "min", variant, depth)


def check_step_condition(
    c: CoefficientSequence, rho: SignSequence, depth: int, kind: str = "max"
) -> StepCheckResult:
    """Verify rho_n * S_{n-1} <= 0 (>= 0 for minima) for n = 1..depth."""
    upto = rho.determined_upto()
    if upto is not None and upto < depth + 1:
        raise ValueError("sign sequence not determined up to requested depth")
    # S_n = rho_0 S'_n, where S' is the sum with choices rho_0 rho_n from S'_0 = w_0
    sums = _partial_sums(c)
    for n in range(1, depth + 1):
        try:
            test = rho[n] * rho[0] * sums.sign(n - 1)
        except AbortUnresolved:
            return StepCheckResult("unresolved", n)
        if (kind == "max" and test > 0) or (kind == "min" and test < 0):
            return StepCheckResult("violated", n)
        sums.push(rho[0] * rho[n])
    return StepCheckResult("holds")


# ---------------------------------------------------------------------------
# classification


def _half_points(sharp: StepTrace) -> list[Fraction] | None:
    """T of each of the 2^|Z| step sequences of a sharp trace with a certified
    zero-free tail: the sharp one flipped after each subset of its zeros, its
    period block by the subset's parity; None past ENUMERATION_CAP zeros."""
    zeros = sharp.zero_indices
    if len(zeros) > ENUMERATION_CAP:
        return None
    start, block = sharp.signs.period
    if zeros and zeros[-1] >= start - 1:
        raise AssertionError("zero S_%d inside the certified tail from %d" % (zeros[-1], start))
    points = []
    for flips in product((1, -1), repeat=len(zeros)):
        flip_at = dict(zip(zeros, flips))
        sign, prefix = 1, []
        for n, s in enumerate(sharp.signs.prefix[:start]):
            prefix.append(sign * s)
            sign *= flip_at.get(n, 1)
        points.append(t_map_fraction(SignSequence(tuple(prefix), (start, tuple(sign * b for b in block)))))
    return points


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
    """Enclosure of f(t*) given only |t* - t| <= eps, 0 < eps < 1/2.

    |f(t*) - f(t)| <= sum_m |c_m| min(2^m eps, 1/2); the sum is split where
    2^m eps reaches 1/2 and the remainder is absorbed into the l1 tail bound.
    """
    lo, hi = scalar_enclosure(eval_series(c, t, width), width)
    cut = min(2048, scalars._width_bits(2 * eps))  # the least cut with 2^cut eps >= 1/2
    bounds = scalars.enclosures(islice(c.coefficients(), cut), Fraction(1, 2**48))
    slack = eps * sum(max(abs(clo), abs(chi)) * 2**m for m, (clo, chi) in enumerate(bounds))
    slack += c.tail_bound(cut - 1) / 2
    return lo - slack, hi + slack


def _extremum_value(c, kind, loc: Location, width: Fraction) -> tuple[Fraction, Fraction]:
    if loc.exact is not None:
        if _exact_geometric(c):
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

    Cardinality is reported as Finite only when the sharp recursion's tail is
    certified periodic and zero free, so that its zero set is complete and
    gives every step sequence, and it has at most ENUMERATION_CAP zeros; as a
    continuum (perfect set of dimension 1/(n0+1)) only when the
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
        half_points = _half_points(sharp)
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
    with finite support closing the induction.  A negative case whose witness
    `depth` is too shallow to certify is "unknown".
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
        return _negative_result(c, depth)
    sums = _partial_sums(c)
    end = c.support_end()
    for n in range(depth + 1):
        if n:
            sums.push(1)
        if sums.sign(n) < 0:
            return _negative_result(c, depth)
        if end is not None and n >= end:
            return NonnegResult("nonneg_certified")
    return NonnegResult("unknown", None, depth)


def _negative_result(c, depth) -> NonnegResult:
    """A witness t with f(t) < 0: the smallest minimizer, or its dyadic approximant.

    The value is certified through `_extremum_value`, so an exact location of
    a rational or algebraic Geometric sequence is evaluated in closed form by
    `eval_periodic` rather than summed term by term.  "unknown" when no width
    certifies it: at a shallow depth the approximant's location error can
    exceed |f| there, and no narrower width helps.
    """
    trace = _build_trace(c, "min", "sharp", depth)
    loc = Location.from_trace(trace)
    t = loc.exact if loc.exact is not None else loc.approx
    width = Fraction(1, 2**24)
    for _ in range(6):
        lo, hi = _extremum_value(c, "min", loc, width)
        if hi < 0:
            return NonnegResult("negative_witness", t, depth)
        width /= 2**8
    return NonnegResult("unknown", None, depth)
