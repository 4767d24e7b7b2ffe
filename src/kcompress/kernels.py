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
sample and return its hypothesis as one such parameter row, box ends
(k, 2) or a threshold.  All read only the drawn points, so they run
under any measure, and they give exactly the records of the dense
reference path.

The sum-threshold kernels work on the sorted points through exact prefix
boundaries: rounded addition is monotone, so for each point the partners
whose float sum with it falls below a threshold are a prefix of the sorted
points.  Pair counts and the extreme pair sums around a threshold are read
off those boundaries, so they match the grid semantics of the dense path
in exact float arithmetic, ties and sums landing on the threshold
included.  Every boundary guessed from a rounded difference is checked,
and a row whose guess fails is fixed up exactly (_row_boundaries, the one
boundary search).

Sorted points live in NaN-padded rows (_padded_sorted), and the searches
read partners through take(out=) into a float scratch of the row's size,
so the m-length temporaries of a call are a few buffers reused in place.
The PAC threshold kernel holds one padded row, one float scratch and one
boundary array, moved in place from t_f to t_h.  This matters beyond the
copying: glibc serves each array of 128 KiB or more (16384 floats) from a
fresh mmap until a large free raises its dynamic threshold, and every
fresh mapping faults its pages in again.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from .samples import (
    Hypothesis,
    box_ends,
    coordinate_sum,
    minimal_box,
    threshold_of,
)


def _rect_masks(H: Hypothesis, sides: Sequence[np.ndarray]):
    """Per-side membership masks of a box hypothesis; all-false when empty."""
    return [(s >= lo) & (s <= hi) for (lo, hi), s in zip(H.intervals, sides)]


def _rect_xor_count(fmasks, hmasks) -> int:
    """Number of grid tuples where the two boxes disagree, via factorized counts.

    count_nonzero is 5-8x as fast as a bool array's sum; int() keeps the
    counts, and what is compared with them, Python values."""
    cf = ch = cfh = 1
    for fm, hm in zip(fmasks, hmasks):
        cf *= int(np.count_nonzero(fm))
        ch *= int(np.count_nonzero(hm))
        cfh *= int(np.count_nonzero(fm & hm))
    return cf + ch - 2 * cfh


def _row_boundaries(
    ends: np.ndarray, t: float, f: np.ndarray, p: np.ndarray | None = None
) -> np.ndarray:
    """p[i] = #{j : float(xs[i] + xs[j]) < t} for the sorted row xs = ends[1:-1]
    of _padded_sorted (j == i included), with f a float scratch of xs's size.

    Rounded addition is monotone, so row i's qualifying partners are the
    prefix xs[:p[i]].  The guess p (searchsorted on t - xs when None) is
    fixed in place; it is off only where t - xs[i] rounds.  Rows whose last
    partner is not below t move down, then rows whose first non-partner is
    below t move up, each step past the whole run of values equal to the
    offending partner, until xs[i] + xs[p - 1] < t <= xs[i] + xs[p] on
    every row.  ends[p] = xs[p - 1] and ends[p + 1] = xs[p]; the NaN ends
    compare false, so p = 0 never moves down and p = m never moves up.
    """
    xs = ends[1:-1]
    if p is None:
        p = xs.searchsorted(np.subtract(t, xs, out=f))
    rows = np.flatnonzero(np.add(xs, ends.take(p, out=f, mode="clip"), out=f) >= t)
    while len(rows):
        p[rows] = np.searchsorted(xs, ends[p[rows]], side="left")
        rows = rows[xs[rows] + ends[p[rows]] >= t]
    rows = np.flatnonzero(np.add(xs, ends[1:].take(p, out=f, mode="clip"), out=f) < t)
    while len(rows):
        p[rows] = np.searchsorted(xs, ends[p[rows] + 1], side="right")
        rows = rows[xs[rows] + ends[p[rows] + 1] < t]
    return p


def _below_count(ends: np.ndarray, t: float, p: np.ndarray, f: np.ndarray) -> int:
    """#{(i, j): i != j, float(xs[i] + xs[j]) < t} from the row boundaries p
    at t of the sorted row xs = ends[1:-1], with f a float scratch."""
    xs = ends[1:-1]
    return int(p.sum()) - int(np.count_nonzero(np.add(xs, xs, out=f) < t))


def _self_row(p: np.ndarray, d: int) -> int | None:
    """The row i with p[i] == i + d, or None.  p falls along the rows while
    i rises, so p[i] - i strictly falls and at most one row has it."""
    i = bisect.bisect_left(range(len(p)), -d, key=lambda i: i - p[i])
    return i if i < len(p) and p[i] == i + d else None


def _boundary_extremes(ends: np.ndarray, p: np.ndarray, f: np.ndarray):
    """(min pair sum >= t, max pair sum < t) over i != j from the row
    boundaries p at t of the sorted row xs = ends[1:-1], with f a float
    scratch; each None when no such pair.  Row i's candidates are its first
    partner at or above the boundary, xs[p] = ends[p + 1], and its last
    below it, xs[p - 1] = ends[p]; on the one row where either is j == i it
    moves a step further.  A NaN end stands for "no partner"."""
    xs = ends[1:-1]
    np.add(xs, ends[1:].take(p, out=f, mode="clip"), out=f)
    if (i := _self_row(p, 0)) is not None:
        f[i] = xs[i] + ends[i + 2]
    min_pos = float(np.fmin.reduce(f, initial=math.inf))
    np.add(xs, ends.take(p, out=f, mode="clip"), out=f)
    if (i := _self_row(p, 1)) is not None:
        f[i] = xs[i] + ends[i]
    max_neg = float(np.fmax.reduce(f, initial=-math.inf))
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
    (count, m + 2), for _block_pairs_below.  Only the end columns are
    written with NaN: the sorted copy fills the rest."""
    ends = np.empty((len(points), points.shape[1] + 2))
    ends[:, 0] = ends[:, -1] = math.nan
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
        _row_boundaries(ends[b], t[b, 0], sums[b], p[b])
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
    return box_ends(H), header, count / m**k, count == 0


def threshold_pac(k, F, m, x):
    ends = _padded_sorted(x.sides[0][None])[0]
    f = np.empty(m)
    t_f = threshold_of(F)
    p = _row_boundaries(ends, t_f, f)
    min_pos, max_neg = _boundary_extremes(ends, p, f)
    below_f = _below_count(ends, t_f, p, f)
    # with no positive pair, H is the constant 0, whose threshold is +inf
    t_h = math.inf if min_pos is None else min_pos
    # no pair of distinct points sums into [t_f, t_h), so the boundaries at
    # t_h are those at t_f moved past at most one self-sum per row
    _row_boundaries(ends, t_h, f, p)
    count = (_below_count(ends, t_h, p, f) - below_f) // 2
    emp = count / math.comb(m, k)
    realizable = min_pos is None or max_neg is None or max_neg < min_pos
    return t_h, 1 if min_pos is not None else 2, emp, realizable
