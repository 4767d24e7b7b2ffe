"""Empirical and total loss functionals for both sample modes.

Partite empirical loss averages a per-tuple loss over all m^k index
tuples.  Nonpartite empirical loss averages a per-subset loss over all
C(m, k) k-subsets, where guesses and truths enter as orientation
bundles relative to an order choice.  Total losses are measure-side
expectations, estimated by Monte Carlo or computed in closed form for
the built-in families.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .indexing import (
    NONPARTITE,
    PARTITE,
    LabeledSample,
    OrderChoice,
    bundle_orientations,
    enumerate_permutations,
    sorted_subsets,
)
from .samples import (
    Hypothesis,
    KeyedGenerator,
    ProductMeasure,
    encode_labels,
    stream_keys,
)

#: Two-sided 99% normal quantile used for every confidence interval here.
CI99_MULTIPLIER = 2.576


@dataclass(frozen=True, eq=False)
class LossSpec:
    """A bounded per-tuple (partite) or per-bundle (nonpartite) loss.

    Partite fn signature:    fn(points, guess_label, true_label) -> float
    Nonpartite fn signature: fn(points, guess_bundle, true_bundle) -> float
    where bundles are tuples indexed by enumerate_permutations(k).
    Values must lie in [0, sup_norm].
    """

    mode: str
    kind: str
    sup_norm: float
    fn: Callable

    def __post_init__(self):
        if self.sup_norm <= 0:
            raise ValueError("sup_norm must be positive")


def zero_one_partite() -> LossSpec:
    return LossSpec(
        PARTITE, "zero-one", 1.0, lambda xs, guess, truth: 0.0 if guess == truth else 1.0
    )


def zero_one_nonpartite() -> LossSpec:
    """1 iff the guessed orientation bundle differs from the true one anywhere."""
    return LossSpec(
        NONPARTITE,
        "zero-one",
        1.0,
        lambda xs, guess, truth: 0.0 if tuple(guess) == tuple(truth) else 1.0,
    )


def _hypothesis_codes(H: Hypothesis, labeled: LabeledSample) -> np.ndarray:
    return encode_labels(H.label_grid(labeled.sample.axes), labeled.labels.alphabet)


def empirical_loss_partite(labeled: LabeledSample, H: Hypothesis, loss: LossSpec) -> float:
    """Average loss of H against the labels over all m^k tuples; 0 when m == 0."""
    if labeled.mode != PARTITE or loss.mode != PARTITE:
        raise ValueError("empirical_loss_partite expects partite sample and loss")
    if H.k != labeled.k:
        raise ValueError("hypothesis arity does not match the sample")
    m, k = labeled.m, labeled.k
    if m == 0:
        return 0.0
    if loss.kind == "zero-one":
        guess = _hypothesis_codes(H, labeled)
        return float(np.count_nonzero(guess != labeled.labels.codes)) / m**k
    total = 0.0
    alphabet = labeled.labels.alphabet
    for idx in np.ndindex(*(m,) * k):
        xs = tuple(labeled.sample.sides[i][idx[i]] for i in range(k))
        total += loss.fn(xs, H.value(xs), alphabet[int(labeled.labels.codes[idx])])
    return total / m**k


def empirical_loss_nonpartite(
    labeled: LabeledSample, H: Hypothesis, loss: LossSpec, order: OrderChoice
) -> float:
    """Average bundle loss of H over all C(m, k) subsets; 0 when m < k.

    The zero-one bundle loss does not depend on which ordering the order
    choice picks (a bundle mismatch in any orientation is a mismatch in
    all of them), so the zero-one path only validates the order choice:
    it counts the rows of sorted_subsets whose labels differ from H's in
    some orientation.  Custom losses are evaluated per subset through the bundles.
    """
    if labeled.mode != NONPARTITE or loss.mode != NONPARTITE:
        raise ValueError("empirical_loss_nonpartite expects nonpartite sample and loss")
    if H.k != labeled.k:
        raise ValueError("hypothesis arity does not match the sample")
    m, k = labeled.m, labeled.k
    if m < k:
        return 0.0
    if (order.m, order.k) != (m, k):
        raise ValueError("order choice shape does not match the sample")
    if loss.kind == "zero-one":
        neq = _hypothesis_codes(H, labeled) != labeled.labels.codes
        subsets = sorted_subsets(m, k)
        differs = np.zeros(len(subsets), dtype=bool)
        for perm in enumerate_permutations(k):
            differs |= neq[tuple(subsets[:, p] for p in perm)]
        return int(np.count_nonzero(differs)) / math.comb(m, k)
    return _empirical_loss_nonpartite_generic(labeled, H, loss, order)


def _empirical_loss_nonpartite_generic(
    labeled: LabeledSample, H: Hypothesis, loss: LossSpec, order: OrderChoice
) -> float:
    """Direct per-subset evaluation through orientation bundles."""
    m, k = labeled.m, labeled.k
    perms = enumerate_permutations(k)
    pts = labeled.sample.sides[0]
    truths = bundle_orientations(labeled.labels, order).values()
    total = 0.0
    for ordering, truth in zip(order.orders.tolist(), truths):
        xs = tuple(pts[i] for i in ordering)
        guess = tuple(
            H.value(tuple(pts[ordering[p]] for p in perm)) for perm in perms
        )
        total += loss.fn(xs, guess, truth)
    return total / math.comb(m, k)


def total_loss_monte_carlo(
    mu: ProductMeasure,
    F: Hypothesis,
    H: Hypothesis,
    loss: LossSpec,
    n_draws: int,
    seed: int,
) -> tuple[float, float]:
    """Estimate the expected loss of H against F under mu.

    Partite draws are one point per side; nonpartite draws are k i.i.d.
    points compared through their orientation bundles.  Returns
    (estimate, half_width) where half_width is a 99% normal interval
    capped at the loss sup norm.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    if mu.mode != loss.mode:
        raise ValueError("measure and loss modes disagree")
    k = mu.k
    if F.k != k or H.k != k:
        raise ValueError("hypothesis arity does not match the measure")
    # column i draws from the stream (seed, i): side i (partite), or the
    # i-th of k i.i.d. draws from the one ground distribution (nonpartite)
    rng = KeyedGenerator()
    keys = stream_keys(seed, np.arange(k))
    cols = [d.draw(rng.at(key), n_draws) for d, key in zip(itertools.cycle(mu.distributions), keys)]
    if mu.mode == PARTITE:
        if loss.kind == "zero-one":
            values = (H.eval_columns(cols) != F.eval_columns(cols)).astype(float)
        else:
            values = np.asarray(
                [
                    loss.fn(
                        tuple(c[j] for c in cols),
                        H.value(tuple(c[j] for c in cols)),
                        F.value(tuple(c[j] for c in cols)),
                    )
                    for j in range(n_draws)
                ],
                dtype=float,
            )
    else:
        perms = enumerate_permutations(k)
        if loss.kind == "zero-one":
            differs = np.zeros(n_draws, dtype=bool)
            for perm in perms:
                oriented = [cols[p] for p in perm]
                differs |= H.eval_columns(oriented) != F.eval_columns(oriented)
            values = differs.astype(float)
        else:
            values = np.empty(n_draws, dtype=float)
            for j in range(n_draws):
                row = tuple(c[j] for c in cols)
                guess = tuple(H.value(tuple(row[p] for p in perm)) for perm in perms)
                truth = tuple(F.value(tuple(row[p] for p in perm)) for perm in perms)
                values[j] = loss.fn(row, guess, truth)
    estimate = float(values.mean())
    spread = float(values.std(ddof=1)) if n_draws > 1 else 0.0
    half = min(CI99_MULTIPLIER * spread / math.sqrt(n_draws), loss.sup_norm)
    return estimate, half


def _first_max(a, b):
    """max(a, b) elementwise as Python's max picks: b only where b > a, so
    of equal values (0.0 and -0.0) the first, and a where b is NaN."""
    return np.where(b > a, b, a)


def _first_min(a, b):
    """min(a, b) elementwise as Python's min picks: b only where b < a."""
    return np.where(b < a, b, a)


def _volume(lengths: np.ndarray) -> np.ndarray:
    """Product over the last axis, taken side by side from the first, as
    math.prod multiplies."""
    vol = lengths[..., 0]
    for i in range(1, lengths.shape[-1]):
        vol = vol * lengths[..., i]
    return vol


def _clipped_lengths(lo, hi) -> np.ndarray:
    """max(0.0, min(hi, 1.0) - max(lo, 0.0)): side lengths inside the unit cube."""
    return _first_max(0.0, _first_min(hi, 1.0) - _first_max(lo, 0.0))


def exact_total_loss_gap(mu: ProductMeasure) -> str | None:
    """Why the closed-form total loss of mu's family does not cover mu, or
    None when it does: boxes (partite) and sum thresholds (nonpartite, k = 2),
    both under the uniform measure."""
    if mu.mode == PARTITE:
        return None if mu.is_uniform else "exact rectangle loss requires uniform sides"
    if mu.k != 2:
        return "exact sum-threshold loss covers nonpartite k=2 only"
    return None if mu.is_uniform else "exact sum-threshold loss requires the uniform measure"


def total_loss_exact_rectangles(mu: ProductMeasure, F, H) -> np.ndarray:
    """Symmetric-difference volume of boxes under the uniform product measure.

    F and H are box ends as samples.box_ends gives them, (lo, hi) per side
    in arrays of shape (..., k, 2) that broadcast together; the volumes
    have their broadcast shape less the last two axes.  A block of
    hypotheses is one call.  Each volume has the bits of the scalar
    formula on one pair: side lengths max(0.0, min(hi, 1.0) - max(lo,
    0.0)) with Python's min and max, multiplied side by side from the
    first, and vol(F) + vol(H) - 2 vol(F & H).
    """
    if mu.mode != PARTITE:
        raise ValueError("exact rectangle loss is a partite computation")
    gap = exact_total_loss_gap(mu)
    if gap:
        raise ValueError(gap)
    F, H = np.asarray(F, dtype=float), np.asarray(H, dtype=float)
    flo, fhi, hlo, hhi = F[..., 0], F[..., 1], H[..., 0], H[..., 1]
    vol_f = _volume(_clipped_lengths(flo, fhi))
    vol_h = _volume(_clipped_lengths(hlo, hhi))
    # the intersection's sides: max(flo, hlo, 0.0) to min(fhi, hhi, 1.0)
    lo = _first_max(_first_max(flo, hlo), 0.0)
    hi = _first_min(_first_min(fhi, hhi), 1.0)
    vol_both = _volume(_first_max(0.0, hi - lo))
    return vol_f + vol_h - 2.0 * vol_both


def _pair_sum_upper_tail(t) -> np.ndarray:
    """P(U1 + U2 >= t) for independent uniforms on the unit interval, elementwise."""
    t = np.asarray(t, dtype=float)
    u = 2.0 - t
    # NaN compares false everywhere and gets 0.0, as the scalar branches give it
    return np.where(
        t <= 1.0,
        np.where(t <= 0.0, 1.0, 1.0 - t * t / 2.0),
        np.where(t <= 2.0, u * u / 2.0, 0.0),
    )


def total_loss_exact_sum_threshold(mu: ProductMeasure, F, H) -> np.ndarray:
    """Exact bundle disagreement probability of two sum-threshold rules, k = 2.

    F and H are thresholds as samples.threshold_of gives them (the
    constant 0 as +inf), floats or arrays that broadcast together; the
    probabilities have their broadcast shape.  Sum-threshold rules are
    symmetric, so the orientation bundle of a draw disagrees exactly when
    the pointwise predictions do, which happens when the coordinate sum
    falls between the two thresholds.
    """
    if mu.mode != NONPARTITE:
        raise ValueError("exact sum-threshold loss covers nonpartite k=2 only")
    gap = exact_total_loss_gap(mu)
    if gap:
        raise ValueError(gap)
    return np.abs(_pair_sum_upper_tail(F) - _pair_sum_upper_tail(H))
