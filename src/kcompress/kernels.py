"""Fast counting kernels of the built-in families: boxes and sum thresholds.

The concentration kernels run on a block of trials: the drawn points of
each trial stacked into one (count, sides, m) array.  Box masks, minimal
boxes and factorized counts are computed for the whole block; sum
thresholds take one sort per block and, per threshold, one searchsorted
per row.  They build no Hypothesis: each returns its trials' hypotheses
as one array of parameters, box ends (count, k, 2) as samples.box_ends
lays them out (the empty box (+inf, -inf) on every side) or thresholds
(count,) as samples.threshold_of gives them (the empty threshold +inf),
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

Rounded addition is also commutative, so the pair relation is symmetric
and the boundaries form a self-conjugate staircase.  Every other row
mirrors into the rows up to the diagonal, whose self-sums fall below the
threshold, and the diagonal's own row (_diagonal).  By monotonicity, the
full rows, whose sum with the largest point falls below the threshold,
come first and hold every partner (_full_rows).  So the sum-threshold
kernels search only the rows from the first one not full up to the
diagonal (the PAC kernel, which bisects for both ends, the diagonal's own
row too): the ordered pair count (_pairs_below) and the extreme pair sums
(_boundary_extremes) read off those rows and the full rows' count.

Sorted points live in NaN-padded rows (_padded_sorted), and the searches
read partners through take(out=) into a float scratch of the searched
rows' size, so the m-length temporaries of a call are a few buffers
reused in place; all but one of the block kernel's are as long as its
searched rows.  The PAC threshold kernel holds one padded row, and one
float scratch and one boundary array of the searched rows (none above
every pair sum), moved in place from t_f to t_h.  This matters beyond the
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
    ends: np.ndarray, t: float, f: np.ndarray, p: np.ndarray | None = None, first: int = 0
) -> np.ndarray:
    """p[i - first] = #{j : float(xs[i] + xs[j]) < t} for the len(f) rows
    i from first of the sorted row xs = ends[1:-1] of _padded_sorted
    (j == i included), with f a float scratch of that many rows.

    Rounded addition is monotone, so row i's qualifying partners are the
    prefix xs[:p[i]].  The guess p (searchsorted on t - xs[i] when None) is
    fixed in place; it is off only where t - xs[i] rounds.  Rows whose last
    partner is not below t move down, then rows whose first non-partner is
    below t move up, each step past the whole run of values equal to the
    offending partner, until xs[i] + xs[p - 1] < t <= xs[i] + xs[p] on
    every row.  ends[p] = xs[p - 1] and ends[p + 1] = xs[p]; the NaN ends
    compare false, so p = 0 never moves down and p = m never moves up.
    """
    xs, head = ends[1:-1], ends[first + 1 : first + len(f) + 1]
    if p is None:
        p = xs.searchsorted(np.subtract(t, head, out=f))
    rows = np.flatnonzero(np.add(head, ends.take(p, out=f, mode="clip"), out=f) >= t)
    while len(rows):
        p[rows] = np.searchsorted(xs, ends[p[rows]], side="left")
        rows = rows[head[rows] + ends[p[rows]] >= t]
    rows = np.flatnonzero(np.add(head, ends[1:].take(p, out=f, mode="clip"), out=f) < t)
    while len(rows):
        p[rows] = np.searchsorted(xs, ends[p[rows] + 1], side="right")
        rows = rows[head[rows] + ends[p[rows] + 1] < t]
    return p


def _diagonal(xs: np.ndarray, t: float) -> int:
    """#{i : float(xs[i] + xs[i]) < t} for the sorted row xs: the rows whose
    self-sum is below t, a prefix since rounded addition is monotone."""
    return bisect.bisect_left(xs, True, key=lambda x: x + x >= t)


def _full_rows(xs: np.ndarray, t: float) -> int:
    """#{i : float(xs[i] + xs[-1]) < t} for the sorted row xs: the rows
    whose every partner sums below t, a prefix no longer than _diagonal's."""
    return bisect.bisect_left(xs, True, key=lambda x: x + xs[-1] >= t)


def _pairs_below(searched, r, d, m):
    """#{(i, j): i != j, float(xs[i] + xs[j]) < t} for m points, from the
    full rows r at t (_full_rows), the diagonal d at t (_diagonal) and the
    sum of the boundaries p[i] at t of the rows r <= i < d; elementwise
    over arrays of these.

    The relation is symmetric, so its row prefixes p form a self-conjugate
    staircase: the rows i < d hold all of [0, d), the rows i >= d none of
    [d, m), and the pairs (i >= d, j < d) mirror the pairs (j, i) that the
    rows j < d hold past d.  So the count is
    d**2 - d + 2 * sum(p[i] - d for i < d), with p[i] = m for i < r."""
    return 2 * (r * m + searched) - d * d - d


def _self_row(p: np.ndarray, first: int, step: int) -> int | None:
    """The i with p[i] == first + i + step, or None.  p falls along the rows
    while i rises, so p[i] - i strictly falls and at most one row has it."""
    i = bisect.bisect_left(range(len(p)), -first - step, key=lambda i: i - p[i])
    return i if i < len(p) and p[i] == first + i + step else None


def _boundary_extremes(ends: np.ndarray, p: np.ndarray, f: np.ndarray, first: int = 0):
    """(min pair sum >= t, max pair sum < t) over i != j from the
    boundaries p at t of the len(p) rows i from first of the sorted row
    xs = ends[1:-1], whose rows before first are full (_full_rows), with f
    a float scratch of that many rows; each None when no such pair.  Row i's
    candidates are its first partner at or above the boundary,
    xs[p] = ends[p + 1], and its last below it, xs[p - 1] = ends[p]; on
    the one row where either is j == i it moves a step further.  A NaN end
    stands for "no partner".

    The rows from first up to the diagonal d at t (_diagonal) and row d
    itself cover every other pair: a pair with both points at d or above
    is at or above t, and the least such is row d's candidate; any other
    pair mirrors into the row of its point below d.  Of the full rows'
    pairs, all below t, the greatest is row first - 1's with the last
    point, or with the one before it when that row is the last."""
    xs = ends[first + 1 : first + len(p) + 1]
    np.add(xs, ends[1:].take(p, out=f, mode="clip"), out=f)
    if (i := _self_row(p, first, 0)) is not None:
        f[i] = xs[i] + ends[first + i + 2]
    min_pos = float(np.fmin.reduce(f, initial=math.inf))
    np.add(xs, ends.take(p, out=f, mode="clip"), out=f)
    if (i := _self_row(p, first, 1)) is not None:
        f[i] = xs[i] + ends[first + i]
    # fmax drops the NaN end that stands for no full row
    full = np.fmax(-math.inf, ends[first] + ends[-2 if first + 2 < len(ends) else -3])
    max_neg = float(np.fmax.reduce(f, initial=full))
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
    # factorized counts, per side, of F and of H; Python ints, since m**k
    # outgrows int64.  Each side of H lies inside F's, so H's tuples are
    # F's tuples too: count(F and H) = count(H), and the disagreement
    # f + h - 2 * count(F and H) is f - h
    cf, ch = (
        list(map(math.prod, side_counts))
        for side_counts in np.count_nonzero(np.stack((fmasks, hmasks)), axis=3).tolist()
    )
    cells = m**k
    emps = [(f - h) / cells for f, h in zip(cf, ch)]
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

    The count reads off the staircase of the rows below the diagonal
    d = #{i : xs[i] + xs[i] < t}, as _pairs_below does.  Rounded addition
    is monotone, so the full rows r = #{i : xs[i] + xs[m - 1] < t} come
    first (r <= d) and hold all m partners: only the rows r <= i < d are
    searched, one searchsorted per block row guessing their boundaries as
    _row_boundaries does, and only their guesses are checked and fixed up.
    At t = +inf, r = d = m, and at t = -inf, d = 0: nothing is searched.
    """
    count, w = ends.shape
    m, flat, xs = w - 2, ends.ravel(), ends[:, 1:-1]
    # row b of each mask is true on the first d[b] or r[b] points and
    # false on the NaN ends, so argmin finds where its prefix ends
    sums = np.add(ends, ends)
    diagonal = sums < t[:, None]
    full = np.add(ends, ends[:, -2:-1], out=sums) < t[:, None]
    d, r = np.argmin(diagonal[:, 1:], axis=1), np.argmin(full[:, 1:], axis=1)
    # the searched rows' points, flat in ends; the keys and checks of these
    # points reuse the buffer sums
    at = np.flatnonzero(np.not_equal(diagonal, full, out=diagonal))
    head = flat[at]
    # in place, at becomes each point's block row, then that row's start
    rows = np.floor_divide(at, w, out=at)
    t_at = t[rows]
    keys = np.subtract(t_at, head, out=sums.ravel()[: len(at)])
    # the boundaries p follow a 0 that starts their prefix sums
    cum = np.zeros(len(at) + 1, dtype=np.intp)
    p = cum[1:]
    n = d - r
    stops = np.cumsum(n)
    for b, k, stop in zip(range(count), n.tolist(), stops.tolist()):
        if k:
            p[stop - k : stop] = xs[b].searchsorted(keys[stop - k : stop])
    # flat ends[b * w + p] = xs[b, p - 1]; the NaN ends compare false, so
    # p = 0 is never checked below and p = m never above
    base = np.multiply(rows, w, out=rows)
    p += base
    np.add(head, flat.take(p, out=keys, mode="clip"), out=keys)
    wrong = keys >= t_at
    np.add(head, flat[1:].take(p, out=keys, mode="clip"), out=keys)
    wrong |= keys < t_at
    p -= base
    for b in set((base[wrong] // w).tolist()):
        rows_b = slice(stops[b] - n[b], stops[b])
        _row_boundaries(ends[b], t[b], keys[rows_b], p[rows_b], r[b])
    np.cumsum(cum, out=cum)
    return _pairs_below(cum[stops] - cum[stops - n], r, d, m)


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
    xs = ends[1:-1]
    t_f = threshold_of(F)
    # the full rows i < r hold every partner; the rows r..d, up to the
    # diagonal and its own row, hold every other pair
    r, d = _full_rows(xs, t_f), _diagonal(xs, t_f)
    f = np.empty(min(d + 1, m) - r)
    p = _row_boundaries(ends, t_f, f, first=r)
    min_pos, max_neg = _boundary_extremes(ends, p, f, r)
    below_f = _pairs_below(int(p[: d - r].sum()), r, d, m)
    # with no positive pair, H is the empty threshold, +inf; + 0.0 makes the
    # sum -0.0 + -0.0 the +0.0 that coordinate_sum gives the dense path
    t_h = math.inf if min_pos is None else min_pos + 0.0
    # no pair of distinct points sums into [t_f, t_h), so at most one
    # self-sum does (the sum of two such points would lie between them): the
    # diagonal at t_h is d or d + 1, inside the searched rows, and their
    # boundaries at t_h are those at t_f moved past that one self-sum; the
    # full rows at t_h include those at t_f
    _row_boundaries(ends, t_h, f, p, r)
    d_h = _diagonal(xs, t_h)
    count = (_pairs_below(int(p[: d_h - r].sum()), r, d_h, m) - below_f) // 2
    emp = count / math.comb(m, k)
    realizable = min_pos is None or max_neg is None or max_neg < min_pos
    return t_h, 1 if min_pos is not None else 2, emp, realizable
