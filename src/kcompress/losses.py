"""Empirical and total loss functionals for both sample modes.

A loss is taken over tuples held as columns: LossSpec.fn gets the points,
guesses and truths of every tuple at once, as arrays, and returns one loss
per tuple.  Partite empirical loss averages it over all m^k index tuples.
Nonpartite empirical loss averages it over all C(m, k) k-subsets, where
guesses and truths enter as (k!, C(m, k)) orientation bundles relative to
an order choice.  Total losses are measure-side expectations, estimated
by Monte Carlo or computed in closed form for the built-in families.
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
    LabeledSample,
    OrderChoice,
    enumerate_permutations,
    grid_columns,
    orientation_cells,
)
from .samples import (
    Hypothesis,
    KeyedGenerator,
    ProductMeasure,
    decode_labels,
    stream_keys,
)

#: Two-sided 99% normal quantile used for every confidence interval here.
CI99_MULTIPLIER = 2.576

#: Orientation cells that one nonpartite loss.fn call gets at most, unless a
#: single order choice has more (k! C(m, k)): the order choices of an
#: empirical_losses_nonpartite call are stacked in groups of that size, as
#: the fast concentration engine stacks trials in blocks of 2^14 points.
_BLOCK_CELLS = 2**14


@dataclass(frozen=True, eq=False)
class LossSpec:
    """A bounded loss, taken on columns: fn(points, guess, truth) -> losses.

    Partite: points are k arrays, one per side, that broadcast together to
    the shape of the tuples (the (m,)*k grid of a sample); guess and truth
    are label arrays of that shape, and so are the losses.
    Nonpartite: points are k arrays of n tuples, each tuple a k-subset read
    in its chosen ordering; guess and truth are (k!, n) orientation
    bundles, row j the labels of orientation enumerate_permutations(k)[j];
    the losses have shape (n,).
    Labels are compared as values.  Losses must lie in [0, sup_norm].  For
    example, the nonpartite fn np.where((guess == truth).all(axis=0), 0.0,
    xs[0]) charges a bundle mismatch by the first point of the ordering.
    """

    mode: str
    kind: str
    sup_norm: float
    fn: Callable

    def __post_init__(self):
        if self.sup_norm <= 0:
            raise ValueError("sup_norm must be positive")

    def evaluate(self, points, guess, truth, shape: tuple) -> np.ndarray:
        """fn's losses as floats, checked to have one entry per tuple of shape."""
        values = np.asarray(self.fn(points, guess, truth), dtype=float)
        if values.shape != shape:
            raise ValueError(f"loss {self.kind!r} gave shape {values.shape}, expected {shape}")
        return values


def zero_one_partite() -> LossSpec:
    """1 where the guessed label differs from the true one."""
    return LossSpec(
        PARTITE, "zero-one", 1.0, lambda xs, guess, truth: (guess != truth).astype(float)
    )


def zero_one_nonpartite() -> LossSpec:
    """1 where the guessed orientation bundle differs from the true one anywhere."""
    return LossSpec(
        NONPARTITE,
        "zero-one",
        1.0,
        lambda xs, guess, truth: (guess != truth).any(axis=0).astype(float),
    )


def empirical_loss_partite(labeled: LabeledSample, H: Hypothesis, loss: LossSpec) -> float:
    """Average loss of H against the labels over all m^k tuples; 0 when m == 0."""
    if labeled.mode != PARTITE or loss.mode != PARTITE:
        raise ValueError("empirical_loss_partite expects partite sample and loss")
    if H.k != labeled.k:
        raise ValueError("hypothesis arity does not match the sample")
    m, k = labeled.m, labeled.k
    if m == 0:
        return 0.0
    points = grid_columns(labeled.sample.sides)
    truth = decode_labels(labeled.labels.codes, labeled.labels.alphabet)
    values = loss.evaluate(points, H.eval_columns(points), truth, truth.shape)
    return float(values.sum()) / m**k


def empirical_loss_nonpartite(
    labeled: LabeledSample, H: Hypothesis, loss: LossSpec, order: OrderChoice
) -> float:
    """Average bundle loss of H over all C(m, k) subsets under one order
    choice: empirical_losses_nonpartite of the one order."""
    return empirical_losses_nonpartite(labeled, H, loss, [order])[0]


def empirical_losses_nonpartite(
    labeled: LabeledSample, H: Hypothesis, loss: LossSpec, orders: Sequence[OrderChoice]
) -> list[float]:
    """Average bundle loss of H over all C(m, k) subsets under each order
    choice, in the order given; 0 each when m < k.

    Each subset is read in its ordering under an order choice: its points
    in that order, and the bundles of H and of the labels at the cells
    orientation_cells gives.  H labels the grid once.  The orders' tuples
    reach loss.fn stacked, up to _BLOCK_CELLS cells a call (one order at
    least), and each order's n losses are summed on their own, so each
    average has the bits of a call with that order alone.
    """
    if labeled.mode != NONPARTITE or loss.mode != NONPARTITE:
        raise ValueError("empirical_loss_nonpartite expects nonpartite sample and loss")
    if H.k != labeled.k:
        raise ValueError("hypothesis arity does not match the sample")
    m, k = labeled.m, labeled.k
    if m < k:
        return [0.0] * len(orders)
    if any((order.m, order.k) != (m, k) for order in orders):
        raise ValueError("order choice shape does not match the sample")
    n = math.comb(m, k)
    pts = labeled.sample.sides[0]
    guesses = H.label_grid(labeled.sample.axes).ravel()
    codes = labeled.labels.codes.ravel()
    per_call = max(1, _BLOCK_CELLS // (math.factorial(k) * n))
    averages = []
    for start in range(0, len(orders), per_call):
        group = orders[start:start + per_call]
        rows = np.concatenate([order.orders for order in group])
        cells = orientation_cells(rows, m)
        points = [pts[col] for col in rows.T]
        truth = decode_labels(codes[cells], labeled.labels.alphabet)
        values = loss.evaluate(points, guesses[cells], truth, (len(rows),))
        averages.extend(float(v.sum()) / n for v in values.reshape(len(group), n))
    return averages


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
        guess, truth = H.eval_columns(cols), F.eval_columns(cols)
    else:
        oriented = [[cols[p] for p in perm] for perm in enumerate_permutations(k)]
        guess = np.stack([H.eval_columns(c) for c in oriented])
        truth = np.stack([F.eval_columns(c) for c in oriented])
    values = loss.evaluate(cols, guess, truth, (n_draws,))
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
    empty threshold +inf), floats or arrays that broadcast together; the
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
