"""Generalization bounds for selection schemes and guaranteed sample sizes.

The single-event bound is an Azuma-Hoeffding martingale bound on the
probability that total loss exceeds empirical loss by epsilon for one
fixed selection; the failure bound multiplies it by the number of
possible selections.  Everything is computed in log space so that
astronomically small bounds and astronomically large multipliers stay
finite and comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .indexing import NONPARTITE, PARTITE, LabeledSample, MODES
from .losses import LossSpec
from .samples import Hypothesis
from .schemes import SelectionScheme, SizeMap, compress, reconstruct


def learn(scheme: SelectionScheme, labeled: LabeledSample) -> Hypothesis:
    """Compress, then reconstruct: the learner induced by a scheme."""
    sub, header = compress(scheme, labeled)
    return reconstruct(scheme, sub, header)


@dataclass(frozen=True, eq=False)
class GuaranteeInputs:
    """Everything the bounds need: arity, mode, loss bound, scheme sizes, targets.

    selection_size and header_size follow the SelectionScheme array
    contract: called on an ndarray of sample sizes they return the sizes
    elementwise (a scalar return broadcasts to every m).  The m_pac scan
    calls each of them once, on the whole window of float sample sizes;
    the scalar bounds call them on one int m and coerce the result to int.
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

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "selection_size": self.selection_size,
            "header_count": self.header_count,
            "slack": self.slack,
            "effective_epsilon": self.effective_epsilon,
            "single_event_bound": self.single_event_bound,
            "log_single_event": self.log_single_event,
            "multiplier": self.multiplier,
            "log_multiplier": self.log_multiplier,
            "total_bound": self.total_bound,
            "log_total": self.log_total,
            "condition_ok": self.condition_ok,
        }


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def slack_term(inputs: GuaranteeInputs, m: int) -> float:
    """Loss mass on index tuples that touch a removed index:
    (1 - fraction of surviving tuples) * ||l||."""
    s = int(inputs.selection_size(m))
    if s > m:
        raise ValueError(f"selection size s_m={s} exceeds m={m}")
    return _slack(inputs, m, s)


def _slack(inputs: GuaranteeInputs, m: int, s: int) -> float:
    """slack_term at m for the selection size s = s_m, already checked <= m."""
    k = inputs.k
    if inputs.mode == PARTITE:
        frac = 1.0 - ((m - s) / m) ** k if m > 0 else 1.0
        return frac * inputs.sup_norm
    if m < k:
        return inputs.sup_norm
    ratio = 1.0
    for j in range(k):
        ratio *= max(0, m - s - j) / (m - j)
    return (1.0 - ratio) * inputs.sup_norm


def _log_multiplier(inputs: GuaranteeInputs, m: int, s: int, h: int) -> float:
    log_falling = float(gammaln(m + 1) - gammaln(m - s + 1))
    sides = inputs.k if inputs.mode == PARTITE else 1
    return sides * log_falling + math.log(h)


def azuma_bound(inputs: GuaranteeInputs, m: int) -> BoundBreakdown:
    """Failure-probability bound at sample size m, with its full breakdown.

    single_event_bound = exp(-eff^2 (m - s) / (2 k ||l||^2)) in partite
    mode and exp(-eff^2 (m - s) / (2 k^2 ||l||^2)) in nonpartite mode,
    where eff = epsilon - slack.  total_bound multiplies by
    h_m * (m)_s^k (partite) or h_m * (m)_s (nonpartite) and clamps to
    [0, 1].  If eff <= 0 (or m < k nonpartite) the slack condition fails
    and both bounds are the trivial 1.
    """
    if m < 1:
        raise ValueError("sample size m must be >= 1")
    s = int(inputs.selection_size(m))
    h = int(inputs.header_size(m))
    if s > m:
        raise ValueError(f"selection size s_m={s} exceeds m={m}")
    if h < 1:
        raise ValueError("header count must be >= 1")
    slack = _slack(inputs, m, s)
    eff = inputs.epsilon - slack
    log_mult = _log_multiplier(inputs, m, s, h)
    condition_ok = eff > 0 and not (inputs.mode == NONPARTITE and m < inputs.k)
    if not condition_ok:
        return BoundBreakdown(
            m=m, selection_size=s, header_count=h, slack=slack,
            effective_epsilon=eff, single_event_bound=1.0, log_single_event=0.0,
            multiplier=_safe_exp(log_mult), log_multiplier=log_mult,
            total_bound=1.0, log_total=0.0, condition_ok=False,
        )
    if inputs.mode == PARTITE:
        denom = 2.0 * inputs.k * inputs.sup_norm**2
    else:
        denom = 2.0 * inputs.k**2 * inputs.sup_norm**2
    log_single = -(eff * eff) * (m - s) / denom
    log_total = log_mult + log_single
    return BoundBreakdown(
        m=m, selection_size=s, header_count=h, slack=slack,
        effective_epsilon=eff, single_event_bound=math.exp(log_single),
        log_single_event=log_single, multiplier=_safe_exp(log_mult),
        log_multiplier=log_mult, total_bound=1.0 if log_total >= 0 else math.exp(log_total),
        log_total=log_total, condition_ok=condition_ok,
    )


class MPacNotFound(RuntimeError):
    """No guaranteed sample size was certified within the scanned window."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


MIN_SCAN_LIMIT = 10


def _scan_conditions(inputs: GuaranteeInputs, scan_limit: int):
    """Vectorized condition evaluation over m = 1 .. scan_limit.

    Each size map is called once, on the float array of sample sizes; a
    scalar result is broadcast as a read-only view, not materialized.
    """
    m = np.arange(1, scan_limit + 1, dtype=np.float64)
    s = np.broadcast_to(np.asarray(inputs.selection_size(m), dtype=np.float64), m.shape)
    h = np.broadcast_to(np.asarray(inputs.header_size(m), dtype=np.float64), m.shape)
    valid = (s <= m) & (s >= 0) & (h >= 1)
    k = inputs.k
    if inputs.mode == PARTITE:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = ((m - s) / m) ** k
        applicable = valid
    else:
        ratio = np.ones_like(m)
        for j in range(k):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio *= np.maximum(m - s - j, 0.0) / (m - j)
        applicable = valid & (m >= k)
    slack = (1.0 - ratio) * inputs.sup_norm
    eff = inputs.epsilon - slack
    cond1 = applicable & (eff > 0)
    if inputs.mode == PARTITE:
        denom = 2.0 * k * inputs.sup_norm**2
    else:
        denom = 2.0 * k * k * inputs.sup_norm**2
    sides = k if inputs.mode == PARTITE else 1
    log_mult = sides * (gammaln(m + 1) - gammaln(m - s + 1)) + np.log(h)
    log_single = np.where(cond1, -(eff * eff) * (m - s) / denom, 0.0)
    log_total = log_mult + log_single
    cond2 = cond1 & (log_total <= math.log(inputs.delta))
    return m, cond1, cond2, log_total, s, h


def m_pac(inputs: GuaranteeInputs, scan_limit: int) -> int:
    """Smallest m0 such that both guarantee conditions hold for every
    scanned m >= m0.

    Condition 1 is the slack condition slack < epsilon; condition 2 is
    total_bound <= delta.  The scan is certified by requiring the
    log total bound to be nonincreasing across the top decile of the
    window (for the built-in constant-size schemes the bound is
    eventually analytically decreasing in m, which this check witnesses
    numerically).  Raises MPacNotFound with diagnostics otherwise.
    """
    if scan_limit < MIN_SCAN_LIMIT:
        raise ValueError(f"scan_limit must be >= {MIN_SCAN_LIMIT}")
    m, cond1, cond2, log_total, s, h = _scan_conditions(inputs, scan_limit)
    both = cond1 & cond2
    suffix_ok = np.logical_and.accumulate(both[::-1])[::-1]
    diagnostics = {
        "scan_limit": scan_limit,
        "cond1_holds": int(cond1.sum()),
        "cond2_holds": int(cond2.sum()),
        "holds_at_limit": bool(both[-1]),
    }
    if not suffix_ok[-1]:
        raise MPacNotFound(
            "conditions fail at the end of the scanned window", diagnostics
        )
    m0 = int(np.argmax(suffix_ok)) + 1
    tail_start = max(int(scan_limit * 0.9), m0 - 1)
    tail_total = log_total[tail_start:]
    decreasing = bool((np.diff(tail_total) <= 1e-12).all())
    diagnostics["tail_monotone"] = decreasing
    diagnostics["constant_sizes"] = bool(
        (s[m0 - 1 :] == s[m0 - 1]).all() and (h[m0 - 1 :] == h[m0 - 1]).all()
    )
    if not decreasing:
        raise MPacNotFound(
            "total bound is not decreasing over the top decile of the window",
            diagnostics,
        )
    return m0


def guarantee_conditions(inputs: GuaranteeInputs, m: int) -> tuple[bool, bool]:
    """(slack condition, total-bound-below-delta condition) at one m."""
    bd = azuma_bound(inputs, m)
    return bd.condition_ok, bd.condition_ok and bd.log_total <= math.log(inputs.delta)


def asymptotic_guarantee_reference(inputs: GuaranteeInputs) -> float:
    """Leading-order reference sample size: (2k ||l||^2 / eps^2) * max(1, ln(1/delta))
    in partite mode, with k^2 replacing k in nonpartite mode."""
    base = 2.0 * inputs.k if inputs.mode == PARTITE else 2.0 * inputs.k**2
    return (
        base * inputs.sup_norm**2 / inputs.epsilon**2
        * max(1.0, math.log(1.0 / inputs.delta))
    )
