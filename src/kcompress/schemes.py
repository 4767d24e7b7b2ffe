"""Selection schemes: compress a labeled sample, then rebuild a hypothesis.

A scheme is a triple of maps per sample size m: a selector returning an
injection vector of size s_m, a header map into {1, ..., h_m}, and a
reconstructor from (subsample, header) to a hypothesis.  The compression
map keeps only the selected subsample plus the header; a scheme is valid
when the rebuilt hypothesis has exactly zero empirical loss on every
realizable sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .indexing import (
    NONPARTITE,
    PARTITE,
    InjectionVector,
    LabeledSample,
    OrderChoice,
    falling_factorial,
    subsample,
)
from .losses import LossSpec, empirical_loss_nonpartite, empirical_loss_partite
from .samples import (
    Hypothesis,
    HypothesisClass,
    KeyedGenerator,
    ProductMeasure,
    _positive_code,
    _subset_sums,
    _threshold_set_masks,
    derive_seed,
    draw_sample,
    erm_realizability_check,
    label_sample,
    minimal_enclosing_box,
    spawn_rng,
)


# sample size m (an int or an ndarray of them) -> size at m, elementwise
SizeMap = Callable[[int | np.ndarray], int | np.ndarray]


@dataclass(frozen=True, eq=False)
class SelectionScheme:
    """Bundles (s_m, h_m, selector, header map, reconstructor) for one mode.

    selection_size and header_size are size maps with an array contract:
    given an ndarray of sample sizes they return s_m (resp. h_m)
    elementwise, and a scalar return value stands for the same size at
    every m (it broadcasts).  Callers that need one size call the map on
    one int m and coerce the result with int(), so records and JSON
    output always carry Python ints.
    """

    scheme_id: str
    mode: str
    k: int
    selection_size: SizeMap
    header_size: SizeMap
    select: Callable[[LabeledSample], InjectionVector]
    header: Callable[[LabeledSample], int]
    rebuild: Callable[[LabeledSample, int], Hypothesis]


def _kappa_full(scheme: SelectionScheme, labeled: LabeledSample):
    if labeled.mode != scheme.mode or labeled.k != scheme.k:
        raise ValueError("scheme does not match the sample's mode or arity")
    m = labeled.m
    s = int(scheme.selection_size(m))
    if s > m:
        raise ValueError(f"selection size s_m={s} exceeds sample size m={m}")
    inj = scheme.select(labeled)
    if inj.size != s:
        raise ValueError(f"selector returned size {inj.size}, expected s_m={s}")
    hdr = int(scheme.header(labeled))
    h = int(scheme.header_size(m))
    if not 1 <= hdr <= h:
        raise ValueError(f"header {hdr} outside [1, h_m={h}]")
    return inj, subsample(labeled, inj), hdr


def compress(scheme: SelectionScheme, labeled: LabeledSample) -> tuple[LabeledSample, int]:
    """The compression map: (selected subsample with labels, header)."""
    _, sub, hdr = _kappa_full(scheme, labeled)
    return sub, hdr


def reconstruct(scheme: SelectionScheme, sub: LabeledSample, header: int) -> Hypothesis:
    """Rebuild a hypothesis from compressed data alone."""
    return scheme.rebuild(sub, header)


# ---------------------------------------------------------------------------
# Built-in schemes


def trivial_scheme(klass: HypothesisClass, loss: LossSpec) -> SelectionScheme:
    """Keeps the whole sample (s_m = m, h_m = 1) and rebuilds by exact ERM."""

    def rebuild(sub: LabeledSample, header: int) -> Hypothesis:
        ok, witness = erm_realizability_check(klass, sub, loss)
        if ok:
            return witness
        if klass.class_id == "rectangle":
            return Hypothesis.empty_rectangle(klass.k)
        if klass.class_id == "sum-threshold":
            return Hypothesis.constant(klass.k, 0)
        return klass.members[0]

    return SelectionScheme(
        scheme_id="trivial",
        mode=klass.mode,
        k=klass.k,
        selection_size=lambda m: m,
        header_size=lambda m: 1,
        select=lambda labeled: InjectionVector.identity(
            labeled.mode, labeled.k, labeled.m
        ),
        header=lambda labeled: 1,
        rebuild=rebuild,
    )


def _capped_size(m, cap: int):
    """s_m = min(m, cap), elementwise on an array and an int for an int m."""
    return np.minimum(m, cap) if isinstance(m, np.ndarray) else min(int(m), cap)


def _rect_sizes(m):
    return _capped_size(m, 2)


def _rect_select(labeled: LabeledSample) -> InjectionVector:
    m, k = labeled.m, labeled.k
    s = _rect_sizes(m)
    pos = labeled.labels.codes == _positive_code(labeled.labels.alphabet)
    if not pos.any():
        return InjectionVector(PARTITE, m, (tuple(range(s)),) * k)
    maps = []
    for i in range(k):
        axes = tuple(j for j in range(k) if j != i)
        participating = pos.any(axis=axes) if axes else pos
        idxs = np.flatnonzero(participating)
        vals = labeled.sample.sides[i][idxs]
        # argmin/argmax take the first occurrence, so ties go to the
        # smallest index.
        imin = int(idxs[np.argmin(vals)])
        imax = int(idxs[np.argmax(vals)])
        if s == 1:
            maps.append((imin,))
        elif imin != imax:
            maps.append((imin, imax))
        else:
            # One distinct participating index: pad with the smallest
            # other index to keep the map injective.
            maps.append((imin, 0) if imin != 0 else (0, 1))
    return InjectionVector(PARTITE, m, tuple(maps))


def _rect_rebuild(sub: LabeledSample, header: int) -> Hypothesis:
    if header == 2:
        return Hypothesis.empty_rectangle(sub.k)
    # The minimal box of the subsample's positive tuples: padding indices
    # only ever sit in negative tuples, so they cannot widen the box.
    return minimal_enclosing_box(sub)


def rectangle_scheme(k: int) -> SelectionScheme:
    """Partite scheme for boxes: keep min/max participating point per side.

    Header 2 flags an all-negative sample and rebuilds the empty box.
    """
    return SelectionScheme(
        scheme_id="rectangle",
        mode=PARTITE,
        k=k,
        selection_size=_rect_sizes,
        header_size=lambda m: 2,
        select=_rect_select,
        header=lambda labeled: 1
        if (labeled.labels.codes == _positive_code(labeled.labels.alphabet)).any()
        else 2,
        rebuild=_rect_rebuild,
    )


def _thresh_sizes(k: int) -> SizeMap:
    return lambda m: _capped_size(m, k)


def _thresh_positive_sets(labeled: LabeledSample) -> np.ndarray:
    pos_sets, _, _ = _threshold_set_masks(labeled)
    return pos_sets


def _thresh_select(labeled: LabeledSample) -> InjectionVector:
    m, k = labeled.m, labeled.k
    s = _thresh_sizes(k)(m)
    if m < k:
        return InjectionVector(NONPARTITE, m, (tuple(range(s)),))
    pos_sets = _thresh_positive_sets(labeled)
    if not pos_sets.any():
        return InjectionVector(NONPARTITE, m, (tuple(range(s)),))
    sums = _subset_sums(labeled.sample, k)
    best = sums[pos_sets].min()
    # argwhere scans row-major, so the first hit is the lexicographically
    # smallest index tuple among minimal-sum positive subsets.
    first = np.argwhere(pos_sets & (sums == best))[0]
    return InjectionVector(NONPARTITE, m, (tuple(int(v) for v in first),))


def _thresh_header(labeled: LabeledSample) -> int:
    if labeled.m < labeled.k:
        return 2
    return 1 if _thresh_positive_sets(labeled).any() else 2


def _thresh_rebuild(sub: LabeledSample, header: int) -> Hypothesis:
    k = sub.k
    if header == 2 or sub.m < k:
        return Hypothesis.constant(k, 0)
    t = float(np.asarray(sub.sample.sides[0], dtype=float).sum())
    return Hypothesis.sum_threshold(k, t)


def sum_threshold_scheme(k: int) -> SelectionScheme:
    """Nonpartite scheme for sum thresholds: keep a minimal positive k-set.

    The rebuilt threshold is the sum of the kept points; header 2 flags an
    all-negative sample and rebuilds the constant 0.
    """
    return SelectionScheme(
        scheme_id="sum-threshold",
        mode=NONPARTITE,
        k=k,
        selection_size=_thresh_sizes(k),
        header_size=lambda m: 2,
        select=_thresh_select,
        header=_thresh_header,
        rebuild=_thresh_rebuild,
    )


BUILTIN_SCHEMES = ("trivial", "rectangle", "sum-threshold")


# ---------------------------------------------------------------------------
# Validity checking


@dataclass(frozen=True)
class CompressionReport:
    """One audited compression round trip."""

    trial: int
    m: int
    selection_size: int
    header: int
    selected: tuple
    hypothesis: str
    empirical_loss: float
    threshold: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "m": self.m,
            "selection_size": self.selection_size,
            "header": self.header,
            "selected": [list(mp) for mp in self.selected],
            "hypothesis": self.hypothesis,
            "empirical_loss": self.empirical_loss,
            "threshold": self.threshold,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ValidityReport:
    scheme_id: str
    trials: int
    m_values: tuple
    records: tuple
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def _realizable_trial_losses(
    scheme: SelectionScheme,
    labeled: LabeledSample,
    loss: LossSpec,
    n_order_choices: int,
    order_seed: int,
) -> tuple[float, InjectionVector, int, Hypothesis]:
    inj, sub, hdr = _kappa_full(scheme, labeled)
    H = reconstruct(scheme, sub, hdr)
    if scheme.mode == PARTITE:
        worst = empirical_loss_partite(labeled, H, loss)
    else:
        m, k = labeled.m, labeled.k
        orders = [OrderChoice.canonical(m, k)]
        for j in range(n_order_choices):
            orders.append(OrderChoice.random(m, k, spawn_rng(order_seed, j)))
        worst = max(empirical_loss_nonpartite(labeled, H, loss, o) for o in orders)
    return worst, inj, hdr, H


def _run_validity(
    scheme: SelectionScheme,
    klass: HypothesisClass,
    loss: LossSpec,
    trials: int,
    m_values: Sequence[int],
    seed: int,
    threshold_for_m: Callable[[int], float],
    measure: ProductMeasure | None,
    n_order_choices: int,
    fail_fast: bool,
) -> ValidityReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if klass.mode != scheme.mode or klass.k != scheme.k:
        raise ValueError("hypothesis class does not match the scheme")
    mu = measure if measure is not None else ProductMeasure.uniform(scheme.mode, scheme.k)
    records = []
    violations = []
    done = False
    rng = KeyedGenerator()
    for mi, m in enumerate(m_values):
        if done:
            break
        for t in range(trials):
            F = klass.sample_hypothesis(spawn_rng(seed, mi, t, 0))
            x = draw_sample(mu, m, derive_seed(seed, mi, t, 1), rng=rng)
            labeled = label_sample(F, x)
            worst, inj, hdr, H = _realizable_trial_losses(
                scheme, labeled, loss, n_order_choices, derive_seed(seed, mi, t, 2)
            )
            bound = threshold_for_m(m)
            rec = CompressionReport(
                trial=t,
                m=m,
                selection_size=inj.size,
                header=hdr,
                selected=inj.maps,
                hypothesis=H.describe(),
                empirical_loss=worst,
                threshold=bound,
                passed=worst <= bound,
            )
            records.append(rec)
            if not rec.passed:
                violations.append(rec)
                if fail_fast:
                    done = True
                    break
    return ValidityReport(
        scheme_id=scheme.scheme_id,
        trials=trials,
        m_values=tuple(m_values),
        records=tuple(records),
        violations=tuple(violations),
    )


def check_compression_validity(
    scheme: SelectionScheme,
    klass: HypothesisClass,
    loss: LossSpec,
    trials: int,
    m_values: Sequence[int],
    seed: int,
    measure: ProductMeasure | None = None,
    n_order_choices: int = 5,
    fail_fast: bool = False,
) -> ValidityReport:
    """Exact-zero empirical loss audit over freshly generated realizable samples.

    Labels always come from a sampled class member, so every sample is
    realizable by construction.  Nonpartite losses are additionally
    evaluated under random order choices; a violation is any strictly
    positive loss.  Violations are report content, not exceptions.
    """
    return _run_validity(
        scheme, klass, loss, trials, m_values, seed,
        threshold_for_m=lambda m: 0.0,
        measure=measure, n_order_choices=n_order_choices, fail_fast=fail_fast,
    )


def check_approximate_validity(
    scheme: SelectionScheme,
    klass: HypothesisClass,
    loss: LossSpec,
    eps_sequence: Callable[[int], float],
    trials: int,
    m_values: Sequence[int],
    seed: int,
    measure: ProductMeasure | None = None,
    n_order_choices: int = 5,
    fail_fast: bool = False,
) -> ValidityReport:
    """Like check_compression_validity but tolerating loss up to eps_sequence(m)."""
    return _run_validity(
        scheme, klass, loss, trials, m_values, seed,
        threshold_for_m=lambda m: float(eps_sequence(m)),
        measure=measure, n_order_choices=n_order_choices, fail_fast=fail_fast,
    )


def compression_size_and_bitlength(
    scheme: SelectionScheme, m: int, alphabet_size: int
) -> tuple[float, float]:
    """Number of distinct compressed values and its base-2 logarithm.

    Partite subsamples carry labels on s^k cells, nonpartite ones on the
    injective cells only, so the counts are h * |Y|**(s**k) and
    h * |Y|**falling_factorial(s, k).  Computed in log space; the count
    overflows to inf rather than erroring.
    """
    if alphabet_size < 1:
        raise ValueError("alphabet size must be >= 1")
    s = int(scheme.selection_size(m))
    h = int(scheme.header_size(m))
    cells = s**scheme.k if scheme.mode == PARTITE else falling_factorial(s, scheme.k)
    bits = math.log2(h) + cells * math.log2(alphabet_size)
    try:
        count = 2.0**bits
    except OverflowError:
        count = math.inf
    return count, bits
