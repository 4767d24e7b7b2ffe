"""Selection schemes: compress a labeled sample, then rebuild a hypothesis.

A scheme is a pair of maps per sample size m: a selector (the compression
map kappa) returning an injection vector of size s_m together with a header
in {1, ..., h_m}, and a reconstructor (rho) from (subsample, header) to a
hypothesis.  Only the selected subsample plus the header are kept; a scheme
is valid when the rebuilt hypothesis has exactly zero empirical loss on
every realizable sample.
"""

from __future__ import annotations

import itertools
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
    subsample,
)
from .losses import LossSpec, empirical_loss_partite, empirical_losses_nonpartite
from .samples import (
    Hypothesis,
    HypothesisClass,
    KeyedGenerator,
    ProductMeasure,
    _subset_label_masks,
    _subset_sums,
    coordinate_sum,
    draw_sample,
    erm_realizability_check,
    label_sample,
    minimal_enclosing_box,
    positive_point_masks,
    side_keys,
    stream_keys,
)


# sample size m (an int or an ndarray of them) -> size at m, elementwise
SizeMap = Callable[[int | np.ndarray], int | np.ndarray]


@dataclass(frozen=True, eq=False)
class SelectionScheme:
    """Bundles (s_m, h_m, selector, reconstructor) for one mode.

    select is the compression map kappa: it reads the labeled sample once
    and returns (selection, header).  rebuild is the reconstruction map rho.
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
    select: Callable[[LabeledSample], tuple[InjectionVector, int]]
    rebuild: Callable[[LabeledSample, int], Hypothesis]


def _kappa_full(scheme: SelectionScheme, labeled: LabeledSample):
    if labeled.mode != scheme.mode or labeled.k != scheme.k:
        raise ValueError("scheme does not match the sample's mode or arity")
    m = labeled.m
    s = int(scheme.selection_size(m))
    if s > m:
        raise ValueError(f"selection size s_m={s} exceeds sample size m={m}")
    inj, hdr = scheme.select(labeled)
    if inj.size != s:
        raise ValueError(f"selector returned size {inj.size}, expected s_m={s}")
    hdr = int(hdr)
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
        return witness if ok else klass.fallback

    return SelectionScheme(
        scheme_id="trivial",
        mode=klass.mode,
        k=klass.k,
        selection_size=lambda m: m,
        header_size=lambda m: 1,
        select=lambda labeled: (
            InjectionVector.identity(labeled.mode, labeled.k, labeled.m), 1
        ),
        rebuild=rebuild,
    )


def _capped_size(m, cap: int):
    """s_m = min(m, cap), elementwise on an array and an int for an int m."""
    return np.minimum(m, cap) if isinstance(m, np.ndarray) else min(int(m), cap)


def _rect_sizes(m):
    return _capped_size(m, 2)


def _rect_select(labeled: LabeledSample) -> tuple[InjectionVector, int]:
    m, k = labeled.m, labeled.k
    s = _rect_sizes(m)
    masks = positive_point_masks(labeled)
    if not masks[0].any():  # no positive tuple
        return InjectionVector(PARTITE, m, (tuple(range(s)),) * k), 2
    maps = []
    for side, mask in zip(labeled.sample.sides, masks):
        idxs = np.flatnonzero(mask)
        vals = side[idxs]
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
    return InjectionVector(PARTITE, m, tuple(maps)), 1


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
        rebuild=_rect_rebuild,
    )


def _thresh_sizes(k: int) -> SizeMap:
    return lambda m: _capped_size(m, k)


def _thresh_select(labeled: LabeledSample) -> tuple[InjectionVector, int]:
    m, k = labeled.m, labeled.k
    subsets, pos_sets, _, _ = _subset_label_masks(labeled)
    if not pos_sets.any():
        return InjectionVector(NONPARTITE, m, (tuple(range(_thresh_sizes(k)(m))),)), 2
    positive = np.flatnonzero(pos_sets)
    # argmin takes the first minimum and the rows are in lexicographic
    # order, so ties go to the smallest minimal-sum positive subset.
    best = positive[np.argmin(_subset_sums(labeled.sample, subsets[positive]))]
    return InjectionVector(NONPARTITE, m, (tuple(subsets[best].tolist()),)), 1


def _thresh_rebuild(sub: LabeledSample, header: int) -> Hypothesis:
    k = sub.k
    if header == 2 or sub.m < k:
        return Hypothesis.sum_threshold(k, math.inf)
    return Hypothesis.sum_threshold(k, float(coordinate_sum(sub.sample.sides[0])))


def sum_threshold_scheme(k: int) -> SelectionScheme:
    """Nonpartite scheme for sum thresholds: keep a minimal positive k-set.

    The rebuilt threshold is the sum of the kept points; header 2 flags an
    all-negative sample and rebuilds the empty threshold, +inf.
    """
    return SelectionScheme(
        scheme_id="sum-threshold",
        mode=NONPARTITE,
        k=k,
        selection_size=_thresh_sizes(k),
        header_size=lambda m: 2,
        select=_thresh_select,
        rebuild=_thresh_rebuild,
    )


# ---------------------------------------------------------------------------
# Validity checking

#: Random order choices a nonpartite validity trial checks besides the canonical one.
RANDOM_ORDER_CHOICES = 5


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


@dataclass(frozen=True)
class ValidityReport:
    records: tuple

    @property
    def violations(self) -> tuple:
        return tuple(r for r in self.records if not r.passed)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_compression_validity(
    scheme: SelectionScheme,
    klass: HypothesisClass,
    loss: LossSpec,
    trials: int,
    m_values: Sequence[int],
    seed: int,
    measure: ProductMeasure | None = None,
    fail_fast: bool = False,
) -> ValidityReport:
    """Exact-zero empirical loss audit over freshly generated realizable samples.

    Labels always come from a sampled class member, so every sample is
    realizable by construction.  Nonpartite losses are additionally
    evaluated under random order choices; a violation is any strictly
    positive loss.  Violations are report content, not exceptions.  This
    is check_approximate_validity with eps_sequence(m) = 0, on the same
    streams.
    """
    return check_approximate_validity(
        scheme, klass, loss, lambda m: 0.0, trials, m_values, seed,
        measure=measure, fail_fast=fail_fast,
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
    fail_fast: bool = False,
) -> ValidityReport:
    """Like check_compression_validity but tolerating loss up to eps_sequence(m).

    Trial t at the i-th sample size draws its target from the stream
    (seed, i, t, 0), its sample from the side streams of the seed
    derive_seed(seed, i, t, 1), and its j-th random order choice, j <
    RANDOM_ORDER_CHOICES, from the stream (derive_seed(seed, i, t, 2), j).
    The keys of every trial are derived up front in one batch, and every
    stream is drawn through one KeyedGenerator.  fail_fast stops at the
    first violation.  It audits the paper's schemes of non-trivial quality
    (loss up to eps_m).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if klass.mode != scheme.mode or klass.k != scheme.k:
        raise ValueError("hypothesis class does not match the scheme")
    mu = measure if measure is not None else ProductMeasure.uniform(scheme.mode, scheme.k)
    mis, ts = np.arange(len(m_values)), np.arange(trials)
    # the keys of the streams (seed, i, t, 0), (seed, i, t, 1) and (seed, i, t, 2);
    # the first word of a key is derive_seed's value for its path
    keys = stream_keys(seed, mis[:, None, None], ts[:, None], np.arange(3))
    target_keys = keys[:, :, 0].tolist()
    sample_keys = side_keys(mu, keys[:, :, 1, 0])
    order_keys = stream_keys(keys[:, :, 2, 0, None], np.arange(RANDOM_ORDER_CHOICES)).tolist()
    rng = KeyedGenerator()
    records = []
    for (mi, m), t in itertools.product(enumerate(m_values), range(trials)):
        F = klass.sample_hypothesis(rng.at(target_keys[mi][t]))
        x = draw_sample(mu, m, keys=sample_keys[mi][t], rng=rng)
        labeled = label_sample(F, x)
        inj, sub, hdr = _kappa_full(scheme, labeled)
        H = reconstruct(scheme, sub, hdr)
        if scheme.mode == PARTITE:
            worst = empirical_loss_partite(labeled, H, loss)
        else:
            orders = [OrderChoice.canonical(m, scheme.k)]
            orders += OrderChoice.random(m, scheme.k, (rng.at(key) for key in order_keys[mi][t]))
            worst = max(empirical_losses_nonpartite(labeled, H, loss, orders))
        bound = float(eps_sequence(m))
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
        if fail_fast and not rec.passed:
            break
    return ValidityReport(tuple(records))


def compression_size_and_bitlength(
    scheme: SelectionScheme, m: int, alphabet_size: int
) -> tuple[float, float]:
    """Number of distinct compressed values and its base-2 logarithm.

    Partite subsamples carry labels on s^k cells, nonpartite ones on the
    injective cells only, so the counts are h * |Y|**(s**k) and
    h * |Y|**perm(s, k).  Computed in log space; the count
    overflows to inf rather than erroring.  The paper's compression size;
    the bounds need only s and h, so only tests call it.
    """
    if alphabet_size < 1:
        raise ValueError("alphabet size must be >= 1")
    s = int(scheme.selection_size(m))
    h = int(scheme.header_size(m))
    cells = s**scheme.k if scheme.mode == PARTITE else math.perm(s, scheme.k)
    bits = math.log2(h) + cells * math.log2(alphabet_size)
    try:
        count = 2.0**bits
    except OverflowError:
        count = math.inf
    return count, bits
