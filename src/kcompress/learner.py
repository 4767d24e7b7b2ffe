"""Generalization bounds for selection schemes and guaranteed sample sizes.

The single-event bound is an Azuma-Hoeffding martingale bound on the
probability that total loss exceeds empirical loss by epsilon for one
fixed selection; the failure bound multiplies it by the number of
possible selections.  Everything is computed in log space so that
astronomically small bounds and astronomically large multipliers stay
finite and comparable.

The bound is written once, in _bound_terms, over an array of sample
sizes: the m_pac scan evaluates it on chunks of its window from the top
down, stopping below the last m where a condition fails (a failed scan
evaluates the whole window for its diagnostics), and every reported
breakdown comes from the same function through bound_columns, which
bound-table reads by column and azuma_bound by row.  Reported rows take
four steps per element in Python instead of NumPy: the partite ratio
((m - s)/m)**k with float power, log h and the logs inside _lgam with
math.log, and the exponentials with math.exp; NumPy's power, log and exp
miss these in the last bit on some inputs.  The scan keeps NumPy's
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexing import MODES, PARTITE, LabeledSample, side_count
from .losses import LossSpec
from .samples import Hypothesis
from .schemes import SelectionScheme, SizeMap, compress, reconstruct


def learn(scheme: SelectionScheme, labeled: LabeledSample) -> Hypothesis:
    """Compress, then reconstruct: the paper's learner induced by a scheme.
    Only tests call it: the generic PAC kernel (experiments._generic_pac)
    takes the two steps itself to keep the header."""
    sub, header = compress(scheme, labeled)
    return reconstruct(scheme, sub, header)


@dataclass(frozen=True, eq=False)
class GuaranteeInputs:
    """Everything the bounds need: arity, mode, loss bound, scheme sizes, targets.

    selection_size and header_size follow the SelectionScheme array
    contract: called on an ndarray of sample sizes they return the
    integer-valued sizes elementwise (a scalar return broadcasts to every
    m).  The bounds call each of them on float arrays of sample sizes:
    a breakdown once, on its rows; the m_pac scan once per chunk of its
    window it evaluates.
    """

    mode: str
    k: int
    sup_norm: float
    selection_size: SizeMap
    header_size: SizeMap
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.k < 1:
            raise ValueError("arity k must be >= 1")
        if not self.sup_norm > 0:
            raise ValueError("loss sup norm must be positive")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")

    @classmethod
    def from_scheme(
        cls, scheme: SelectionScheme, loss: LossSpec, epsilon: float, delta: float
    ) -> "GuaranteeInputs":
        return cls(
            mode=scheme.mode,
            k=scheme.k,
            sup_norm=loss.sup_norm,
            selection_size=scheme.selection_size,
            header_size=scheme.header_size,
            epsilon=epsilon,
            delta=delta,
        )

    @property
    def sides(self) -> int:
        """Sides a selection removes indices from: k partite, 1 nonpartite."""
        return side_count(self.mode, self.k)

    @property
    def denominator(self) -> float:
        """The Azuma exponent's denominator 2 k^2 ||l||^2 / sides:
        2 k ||l||^2 partite, 2 k^2 ||l||^2 nonpartite."""
        return 2.0 * self.k**2 / self.sides * self.sup_norm**2


@dataclass(frozen=True)
class BoundBreakdown:
    """All intermediate quantities behind one failure-probability bound.

    slack is the loss mass on tuples touching a removed index (the
    tuple fraction times ||l||); the effective epsilon is what remains
    of epsilon after it.  When the slack condition fails the breakdown
    is marked and the bounds degrade to the trivial 1.
    """

    m: int
    selection_size: int
    header_count: int
    slack: float
    effective_epsilon: float
    single_event_bound: float
    log_single_event: float
    multiplier: float
    log_multiplier: float
    total_bound: float
    log_total: float
    condition_ok: bool


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _each(f, x: np.ndarray) -> np.ndarray:
    """f applied to every element of x as a Python float."""
    return np.fromiter(map(f, x.tolist()), np.float64, len(x))


# cephes lgam (Moshier, "Methods and Programs for Mathematical Functions",
# 1989) at integer-valued x: log sqrt(2 pi), the correction polynomial
# below x = 1000, the three-term series from 1000 on, and lgam(n) =
# log (n - 1)! for n < 13 as the product cephes multiplies out (index 0
# stands for every x below 1: +inf)
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_SERIES = (
    7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333,
)
_LGAM_BELOW_13 = np.array([math.inf] + [math.log(math.factorial(n)) for n in range(12)])


def _polevl(p: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    """cephes polevl: the polynomial coefs[0] p**n + ... + coefs[n] by
    Horner's rule, written into out (not p)."""
    np.multiply(p, coefs[0], out=out)
    out += coefs[1]
    for a in coefs[2:]:
        out *= p
        out += a
    return out


def _lgam(x: np.ndarray, reported: bool, scratch: np.ndarray) -> np.ndarray:
    """log Gamma(x) at the integer-valued float array x, in place, step by
    step as cephes lgam takes it: (x - 1/2) log x - x + log sqrt(2 pi) plus
    a correction in 1/x**2, or the table below 13.  Entries below 1 give
    +inf.  scratch is three float arrays of x's shape.  The log is math.log
    per element when reported, which gives cephes's (gammaln's) bits
    exactly, and np.log otherwise, within 2 ulp of them."""
    q, p, c = scratch
    if reported:
        q[...] = _each(math.log, x)
    else:
        np.log(x, out=q)
    q *= np.subtract(x, 0.5, out=p)
    q -= x
    q += _LS2PI
    np.divide(1.0, np.multiply(x, x, out=p), out=p)
    _polevl(p, _LGAM_SERIES, c)
    below = np.flatnonzero(x < 1000.0)
    c[below] = _polevl(pb := p[below], _LGAM_A, np.empty_like(pb))
    c /= x
    c[x > 1e8] = 0.0
    small = np.flatnonzero(x < 13.0)
    table = _LGAM_BELOW_13[np.clip(x[small], 0, 12).astype(np.intp)]
    np.add(q, c, out=x)
    x[small] = table
    return x


def _bound_terms(inputs: GuaranteeInputs, m: np.ndarray, reported: bool = False):
    """The bound's terms at every sample size of the float array m.

    Returns the arrays (s, h, slack, eff, ok, log_mult, log_single,
    log_total); ok is the slack condition, and where it fails log_single
    and log_total are 0 (the trivial bound 1).  Each size map is called
    once, on m; a scalar result is broadcast as a read-only view.  Sizes
    outside s in [0, m], h >= 1 only fail the condition, unless reported
    is set: then they raise, and the partite ratio and log h are taken
    per element with Python's float power and math.log, which NumPy's
    power and log miss in the last bit on some inputs.
    """
    s = np.broadcast_to(np.asarray(inputs.selection_size(m), dtype=np.float64), m.shape)
    h = np.broadcast_to(np.asarray(inputs.header_size(m), dtype=np.float64), m.shape)
    ok = (s >= 0) & (s <= m) & (h >= 1)
    if reported and not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(
            f"at m={m[i]:g}: selection size s_m={s[i]:g} must lie in [0, m] "
            f"and header count h_m={h[i]:g} must be >= 1"
        )
    k = inputs.k
    rest = m - s
    with np.errstate(divide="ignore", invalid="ignore"):
        # in place where that keeps the bits, in one scratch block: a scan
        # window holds up to a million sample sizes, and each new array of
        # that size is fresh memory to fault in
        scratch = np.empty((3, *m.shape))
        if inputs.mode == PARTITE:
            ratio = rest / m
            if reported:
                ratio = _each(lambda b: b**k, ratio)
            else:
                ratio **= k
        else:
            # fraction of k-subsets of distinct indices avoiding the s removed
            ratio = np.ones_like(m)
            num, den = scratch[:2]
            for j in range(k):
                np.maximum(np.subtract(rest, j, out=num), 0.0, out=num)
                num /= np.subtract(m, j, out=den)
                ratio *= num
            # a sample smaller than the arity carries no tuple at all
            ratio[m < k] = 0.0
            ok &= m >= k
        slack = np.subtract(1.0, ratio, out=ratio)
        slack *= inputs.sup_norm
        eff = inputs.epsilon - slack
        ok &= eff > 0
        # -(eff**2) (m - s) / denominator; rounding is symmetric in sign
        log_single = np.multiply(eff, eff)
        log_single *= rest
        log_single /= -inputs.denominator
        log_single[~ok] = 0.0
        # log (m)_s = lgam(m + 1) - lgam(m - s + 1) with cephes lgam, the
        # gammaln every pinned bound byte was computed with: the port keeps
        # those bytes, its cancellation at large m included (an exact log
        # falling factorial would move them)
        log_mult = _lgam(m + 1, reported, scratch)
        rest += 1
        log_mult -= _lgam(rest, reported, scratch)
        del rest, scratch
        log_mult *= inputs.sides
        log_mult += _each(math.log, h) if reported else np.log(h)
        log_total = log_mult + log_single
        log_total[~ok] = 0.0
    return s, h, slack, eff, ok, log_mult, log_single, log_total


def bound_columns(inputs: GuaranteeInputs, ms) -> dict:
    """The BoundBreakdown fields at every sample size of ms, from one
    vectorized pass: one list per field, keyed and ordered as the fields.

    The exponentials are taken per element with math.exp, which NumPy's
    exp misses in the last bit on some inputs."""
    m = np.asarray(ms, dtype=np.float64)
    if (m < 1).any():
        raise ValueError("sample size m must be >= 1")
    s, h, slack, eff, ok, log_mult, log_single, log_total = (
        t.tolist() for t in _bound_terms(inputs, m, reported=True)
    )
    return dict(
        m=list(map(int, m.tolist())), selection_size=list(map(int, s)),
        header_count=list(map(int, h)), slack=slack, effective_epsilon=eff,
        single_event_bound=list(map(math.exp, log_single)), log_single_event=log_single,
        multiplier=list(map(_safe_exp, log_mult)), log_multiplier=log_mult,
        total_bound=[1.0 if x >= 0 else math.exp(x) for x in log_total],
        log_total=log_total, condition_ok=ok,
    )


def bound_breakdowns(inputs: GuaranteeInputs, ms) -> list[BoundBreakdown]:
    """azuma_bound at every sample size of ms: bound_columns, row by row."""
    return list(map(BoundBreakdown, *bound_columns(inputs, ms).values()))


def azuma_bound(inputs: GuaranteeInputs, m: int) -> BoundBreakdown:
    """Failure-probability bound at sample size m, with its full breakdown.

    single_event_bound = exp(-eff^2 (m - s) / (2 k ||l||^2)) in partite
    mode and exp(-eff^2 (m - s) / (2 k^2 ||l||^2)) in nonpartite mode,
    where eff = epsilon - slack.  total_bound multiplies by
    h_m * (m)_s^k (partite) or h_m * (m)_s (nonpartite) and clamps to
    [0, 1].  If eff <= 0 (or m < k nonpartite) the slack condition fails
    and both bounds are the trivial 1.
    """
    return bound_breakdowns(inputs, [m])[0]


class MPacNotFound(RuntimeError):
    """No guaranteed sample size was certified within the scanned window."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


# The m_pac scan window's bounds: a whole-window pass (a failed scan's
# diagnostics) holds about 82 B a size, about 330 MiB at MAX_SCAN_LIMIT.
MIN_SCAN_LIMIT = 10
MAX_SCAN_LIMIT = 2**22
# Sample sizes per evaluation of the bound below the top of the window.
SCAN_CHUNK = 16384


def _scan_terms(inputs: GuaranteeInputs, lo: int, hi: int):
    """(s, h, cond1, cond2, log_total) at m = lo+1 .. hi: the slack
    condition, both conditions, and the log total bound."""
    m = np.arange(lo + 1, hi + 1, dtype=np.float64)
    s, h, _, _, cond1, _, _, log_total = _bound_terms(inputs, m)
    cond2 = cond1 & (log_total <= math.log(inputs.delta))
    return s, h, cond1, cond2, log_total


def _not_found(inputs: GuaranteeInputs, scan_limit: int, m0: int | None) -> MPacNotFound:
    """The MPacNotFound of a failed scan, with diagnostics over the whole
    window: the conditions fail at the limit when m0 is None, otherwise
    the total bound is not decreasing over the top decile above m0."""
    s, h, cond1, cond2, _ = _scan_terms(inputs, 0, scan_limit)
    diagnostics = {
        "scan_limit": scan_limit,
        "cond1_holds": int(cond1.sum()),
        "cond2_holds": int(cond2.sum()),
        "holds_at_limit": bool(cond2[-1]),
    }
    if m0 is None:
        return MPacNotFound("conditions fail at the end of the scanned window", diagnostics)
    diagnostics["tail_monotone"] = False
    diagnostics["constant_sizes"] = bool(
        (s[m0 - 1 :] == s[m0 - 1]).all() and (h[m0 - 1 :] == h[m0 - 1]).all()
    )
    return MPacNotFound(
        "total bound is not decreasing over the top decile of the window", diagnostics
    )


def m_pac(inputs: GuaranteeInputs, scan_limit: int) -> int:
    """Smallest m0 such that both guarantee conditions hold for every
    scanned m >= m0.

    Condition 1 is the slack condition slack < epsilon; condition 2 is
    total_bound <= delta.  The scan is certified by requiring the
    log total bound to be nonincreasing across the top decile of the
    window (for the built-in constant-size schemes the bound is
    eventually analytically decreasing in m, which this check witnesses
    numerically).  Raises MPacNotFound with diagnostics otherwise.

    The window 1 .. scan_limit is scanned from the top down, in chunks:
    the first holds the top decile and the top SCAN_CHUNK sizes (or the
    whole window, if smaller), each later one the SCAN_CHUNK sizes below
    it.  The scan stops at the first chunk holding an m where a condition
    fails, so a certified m0 costs the bound at most at
    scan_limit - m0 + 1 + SCAN_CHUNK sizes, or at the first chunk if that
    is longer.  A failed scan evaluates the whole window once more for
    its diagnostics, which is why the window is capped at MAX_SCAN_LIMIT.
    """
    if not MIN_SCAN_LIMIT <= scan_limit <= MAX_SCAN_LIMIT:
        raise ValueError(f"scan_limit must lie in [{MIN_SCAN_LIMIT}, {MAX_SCAN_LIMIT}]")
    decile = int(scan_limit * 0.9)
    top = max(0, min(decile, scan_limit - SCAN_CHUNK))
    _, _, _, cond2, top_total = _scan_terms(inputs, top, scan_limit)
    if not cond2[-1]:
        raise _not_found(inputs, scan_limit, None)
    lo, failing = top, np.flatnonzero(~cond2)
    while not failing.size and lo > 0:
        hi, lo = lo, max(0, lo - SCAN_CHUNK)
        failing = np.flatnonzero(~_scan_terms(inputs, lo, hi)[3])
    m0 = lo + int(failing[-1]) + 2 if failing.size else 1
    tail_total = top_total[max(decile, m0 - 1) - top :]
    if not (np.diff(tail_total) <= 1e-12).all():
        raise _not_found(inputs, scan_limit, m0)
    return m0


def guarantee_conditions(inputs: GuaranteeInputs, m: int) -> tuple[bool, bool]:
    """The paper's guarantee conditions at one m: (slack condition,
    total-bound-below-delta condition).  Tests check m_pac's scan by it."""
    bd = azuma_bound(inputs, m)
    return bd.condition_ok, bd.condition_ok and bd.log_total <= math.log(inputs.delta)


def asymptotic_guarantee_reference(inputs: GuaranteeInputs) -> float:
    """Leading-order reference sample size: (2k ||l||^2 / eps^2) * max(1, ln(1/delta))
    in partite mode, with k^2 replacing k in nonpartite mode."""
    eps = inputs.epsilon
    # eps**2 underflows to 0 below about 1.5e-162; dividing by eps twice does
    # not, and overflows to inf for any loss norm above about 1.5e-8
    lead = inputs.denominator / eps**2 if eps**2 else inputs.denominator / eps / eps
    return lead * max(1.0, math.log(1.0 / inputs.delta))
