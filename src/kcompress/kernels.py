"""Fast counting kernels of the built-in families: boxes and sum thresholds.

The concentration kernels run on a block of trials: the drawn points of
each trial stacked into one (count, sides, m) array.  Box masks, minimal
boxes and factorized counts are computed for the whole block; sum
thresholds take one sort per block and, per threshold, one searchsorted
per row.  They build no Hypothesis: each returns its trials' hypotheses
as one array of parameters, box ends (count, k, 2) as samples.box_ends
lays them out (the empty box (+inf, -inf) on every side) or thresholds
(count,) as samples.threshold_of gives them (the constant 0 as +inf),
and the list of their empirical losses.  The PAC kernels run on one
sample and return a Hypothesis.  All read only the drawn points, so they
run under any measure, and they give exactly the records of the dense
reference path.

The sum-threshold kernels work on the sorted points through exact prefix
boundaries: rounded addition is monotone, so for each point the partners
whose float sum with it falls below a threshold are a prefix of the sorted
points.  Pair counts and the extreme pair sums around a threshold are read
off those boundaries, so they match the grid semantics of the dense path
in exact float arithmetic, ties and sums landing on the threshold
included.  Every boundary guessed from a rounded difference is checked,
and a row whose guess fails is fixed up exactly (_row_boundaries).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .samples import (
    Hypothesis,
    box_ends,
    coordinate_sum,
    minimal_box,
    threshold_hypothesis,
    threshold_of,
)


def _rect_masks(H: Hypothesis, sides: Sequence[np.ndarray]):
    """Per-side membership masks of a box hypothesis; all-false when empty."""
    return [(s >= lo) & (s <= hi) for (lo, hi), s in zip(H.intervals, sides)]


def _rect_xor_count(fmasks, hmasks) -> int:
    """Number of grid tuples where the two boxes disagree, via factorized counts."""
    cf = ch = cfh = 1
    for fm, hm in zip(fmasks, hmasks):
        cf *= int(fm.sum())
        ch *= int(hm.sum())
        cfh *= int((fm & hm).sum())
    return cf + ch - 2 * cfh


def _row_boundaries(xs: np.ndarray, t: float, start: np.ndarray | None = None) -> np.ndarray:
    """p[i] = #{j : float(xs[i] + xs[j]) < t} for sorted xs (j == i included).

    Rounded addition is monotone, so row i's qualifying partners are the
    prefix xs[:p[i]].  The guess (searchsorted on t - xs, or start) is
    off only where t - xs[i] rounds.  Rows whose last partner is not
    below t move down, then rows whose first non-partner is below t move
    up, each step past the whole run of values equal to the offending
    partner, until xs[i] + xs[p - 1] < t <= xs[i] + xs[p] on every row.
    """
    p = np.searchsorted(xs, t - xs) if start is None else start.copy()
    # ends[j + 1] = xs[j]; the NaN ends compare false, so p = 0 never
    # moves down and p = m never moves up
    ends = np.concatenate(([math.nan], xs, [math.nan]))
    rows = np.flatnonzero(xs + ends[p] >= t)
    while len(rows):
        p[rows] = np.searchsorted(xs, ends[p[rows]], side="left")
        rows = rows[xs[rows] + ends[p[rows]] >= t]
    rows = np.flatnonzero(xs + ends[p + 1] < t)
    while len(rows):
        p[rows] = np.searchsorted(xs, ends[p[rows] + 1], side="right")
        rows = rows[xs[rows] + ends[p[rows] + 1] < t]
    return p


def _below_count(xs: np.ndarray, t: float, p: np.ndarray) -> int:
    """#{(i, j): i != j, float(xs[i] + xs[j]) < t} from the row boundaries p at t."""
    return int(p.sum()) - int(np.count_nonzero(xs + xs < t))


def _boundary_extremes(xs: np.ndarray, p: np.ndarray):
    """(min pair sum >= t, max pair sum < t) over i != j from the row boundaries
    p at t, each None when no such pair.  Row i's candidates are its first
    partner at or above the boundary and its last below it, skipping j == i."""
    idx = np.arange(len(xs))
    # ends[j + 1] = xs[j]; the -inf/+inf ends stand for "no partner"
    ends = np.concatenate(([-math.inf], xs, [math.inf]))
    up = p + (p == idx)
    down = p - 1
    down -= down == idx
    min_pos = float((xs + ends[up + 1]).min(initial=math.inf))
    max_neg = float((xs + ends[down + 1]).max(initial=-math.inf))
    return (
        None if min_pos == math.inf else min_pos,
        None if max_neg == -math.inf else max_neg,
    )


def _block_box_masks(lo: np.ndarray, hi: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Membership of points (..., k, n) in the boxes with ends lo, hi (..., k)."""
    return (pts >= lo[..., None]) & (pts <= hi[..., None])


def box_concentration(k, F, sigma, eta, m, pts):
    f_lo, f_hi = box_ends(F).T
    fmasks = _block_box_masks(f_lo, f_hi, pts)
    count = len(pts)
    if eta == 2:
        lo, hi = np.full((count, k), math.inf), np.full((count, k), -math.inf)
    else:
        # the minimal box around the F-positive selected points, per trial;
        # a trial with a side holding none gets the empty box
        sel = np.take_along_axis(pts, np.asarray(sigma.maps, dtype=np.intp)[None], axis=2)
        smasks = _block_box_masks(f_lo, f_hi, sel)
        lo = np.where(smasks, sel, math.inf).min(axis=2, initial=math.inf)
        hi = np.where(smasks, sel, -math.inf).max(axis=2, initial=-math.inf)
        empty = ~smasks.any(axis=2).all(axis=1)
        lo[empty], hi[empty] = math.inf, -math.inf
    hmasks = _block_box_masks(lo, hi, pts)
    # factorized counts, per side, of F, of H and of both; Python ints,
    # since m**k outgrows int64
    cf, ch, cfh = (
        list(map(math.prod, side_counts))
        for side_counts in np.count_nonzero(
            np.stack((fmasks, hmasks, fmasks & hmasks)), axis=3
        ).tolist()
    )
    cells = m**k
    emps = [(f + h - 2 * fh) / cells for f, h, fh in zip(cf, ch, cfh)]
    return np.stack((lo, hi), axis=-1), emps


def _padded_sorted(points: np.ndarray) -> np.ndarray:
    """Rows of points (count, m), each sorted, between a NaN on either end:
    (count, m + 2), for _block_pairs_below."""
    ends = np.full((len(points), points.shape[1] + 2), math.nan)
    ends[:, 1:-1] = points
    ends[:, 1:-1].sort(axis=1)
    return ends


def _block_pairs_below(ends: np.ndarray, t: np.ndarray) -> np.ndarray:
    """below[b] = #{(i, j): i != j, float(xs[b, i] + xs[b, j]) < t[b]} for
    the sorted rows xs = ends[:, 1:-1] of _padded_sorted, one threshold
    t[b] per row.

    One searchsorted per row guesses the row's boundaries, as
    _row_boundaries does; a row whose guess fails
    xs[i] + xs[p - 1] < t <= xs[i] + xs[p] anywhere gets _row_boundaries'
    fix-up from that guess.
    """
    count, m = len(ends), ends.shape[1] - 2
    xs, t = ends[:, 1:-1], t[:, None]
    sums = t - xs
    p = np.empty(sums.shape, dtype=np.intp)
    for b in range(count):
        p[b] = xs[b].searchsorted(sums[b])
    # flat ends[b * (m + 2) + j + 1] = xs[b, j]; the NaN ends compare
    # false, so p = 0 is never checked below and p = m never above.  p is
    # shifted to flat indices in place and the checks reuse the buffer
    # sums, so a block holds two arrays of its size besides its points.
    flat = ends.ravel()
    offsets = np.arange(0, count * (m + 2), m + 2)[:, None]
    p += offsets
    np.add(xs, flat.take(p, out=sums, mode="clip"), out=sums)
    wrong = sums >= t
    np.add(xs, flat[1:].take(p, out=sums, mode="clip"), out=sums)
    wrong |= sums < t
    p -= offsets
    for b in np.flatnonzero(wrong.any(axis=1)):
        p[b] = _row_boundaries(xs[b], t[b, 0], start=p[b])
    return p.sum(axis=1) - np.count_nonzero(np.add(xs, xs, out=sums) < t, axis=1)


def threshold_concentration(k, F, sigma, eta, m, pts):
    if eta == 2:
        t_h = np.full(len(pts), math.inf)
    else:
        t_h = coordinate_sum(list(pts[:, 0, list(sigma.maps[0])].T))
    t_f = threshold_of(F)
    ends = _padded_sorted(pts[:, 0])
    # the counts read the sorted copy only; the engine holds no other
    # reference to the block, so this frees it
    del pts
    below_lo, below_hi = (
        _block_pairs_below(ends, t) for t in (np.minimum(t_f, t_h), np.maximum(t_f, t_h))
    )
    pairs = math.comb(m, k)
    return t_h, [(c // 2) / pairs for c in (below_hi - below_lo).tolist()]


def box_pac(k, F, m, x):
    fmasks = _rect_masks(F, x.sides)
    header = 1 if all(bool(fm.any()) for fm in fmasks) else 2
    # the positive tuples are the product of F's points on each side
    H = minimal_box(x.sides, fmasks)
    count = _rect_xor_count(fmasks, _rect_masks(H, x.sides))
    # H is the minimal box around the positive tuples, so the sample is
    # realizable iff H holds no negative tuple: iff H and F agree everywhere
    return H, header, count / m**k, count == 0


def threshold_pac(k, F, m, x):
    xs = np.sort(x.sides[0])
    t_f = threshold_of(F)
    p_f = _row_boundaries(xs, t_f)
    min_pos, max_neg = _boundary_extremes(xs, p_f)
    # with no positive pair, H is the constant 0, whose threshold is +inf
    t_h = math.inf if min_pos is None else min_pos
    # no pair of distinct points sums into [t_f, t_h), so the boundaries at
    # t_h are those at t_f moved past at most one self-sum per row
    p_h = _row_boundaries(xs, t_h, start=p_f)
    count = (_below_count(xs, t_h, p_h) - _below_count(xs, t_f, p_f)) // 2
    emp = count / math.comb(m, k)
    realizable = min_pos is None or max_neg is None or max_neg < min_pos
    return threshold_hypothesis(k, t_h), 1 if min_pos is not None else 2, emp, realizable
