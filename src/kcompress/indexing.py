"""Combinatorial index calculus for k-partite and k-ary samples.

A size-m sample either has m points on each of k independent sides
("partite" mode) or m points in one shared ground set ("nonpartite"
mode).  Labels live on index tuples: all of [m]^k in partite mode, only
the injective tuples in nonpartite mode.  This module provides the
tuple machinery everything else is built on: point selection along a
tuple, subsampling along injections, order choices over k-subsets, and
orientation bundles.

Conventions, fixed here once for the whole package:

* indices are 0-based,
* k-subsets are enumerated once, by sorted_subsets: ascending rows in
  itertools.combinations order, which every per-subset computation
  (order choices, bundles, nonpartite losses, threshold ERM) reads,
* the orientations of a k-subset follow enumerate_permutations(k), and
  orientation_cells alone lays out the grid cells they read,
* the subsets of each (m, k) are built once and cached, read-only, as
  the orders of the canonical OrderChoice, within SUBSET_CACHE_BYTES,
* dense label tensors are stored row-major (last coordinate fastest),
* nonpartite cells with a repeated index hold the sentinel code -1.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

PARTITE = "partite"
NONPARTITE = "nonpartite"
MODES = (PARTITE, NONPARTITE)

#: Operations that enumerate S_k refuse arities beyond this (k! blowup).
MAX_ARITY = 8

#: Default ceiling on the number of dense tensor cells m**k.
DEFAULT_CELL_BUDGET = 100_000_000

#: Code stored in nonpartite tensor cells whose index tuple repeats an index.
SENTINEL = -1


class CellBudgetError(ValueError):
    """A dense m**k tensor would exceed DEFAULT_CELL_BUDGET cells."""


def check_cell_budget(m: int, k: int) -> None:
    """Refuse a dense m**k tensor above DEFAULT_CELL_BUDGET, read at the call."""
    if m**k > DEFAULT_CELL_BUDGET:
        raise CellBudgetError(
            f"m = {m}, k = {k}: m**k = {m**k} exceeds budget {DEFAULT_CELL_BUDGET}"
        )


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def _check_arity(k: int) -> None:
    if not 1 <= k <= MAX_ARITY:
        raise ValueError(f"arity k={k} outside [1, {MAX_ARITY}]")


def _of_checked(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as they are,
    without __post_init__'s checks: for values valid by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def side_count(mode: str, k: int) -> int:
    """Independent point lists of a k-ary sample: k partite, 1 nonpartite."""
    return k if mode == PARTITE else 1


def enumerate_permutations(k: int) -> list[tuple[int, ...]]:
    """All permutations of range(k) in lexicographic order.

    The returned order indexes orientation bundles everywhere in the
    package, so it must never change.
    """
    if k < 1:
        raise ValueError("arity k must be >= 1")
    if k > MAX_ARITY:
        raise ValueError(f"arity k={k} exceeds the supported maximum {MAX_ARITY}")
    return list(itertools.permutations(range(k)))


def check_injection(mp: Sequence[int], m: int) -> None:
    """Check one injection map into range(m): every entry an integer in
    range, none repeated."""
    for e in mp:
        try:
            operator.index(e)
        except TypeError:
            raise TypeError(f"index {e!r} is not an integer") from None
    if mp and not (0 <= min(mp) and max(mp) < m):
        e = next(e for e in mp if not 0 <= e < m)
        raise IndexError(f"index {int(e)} out of range for m={m}")
    if len(set(mp)) != len(mp):
        raise ValueError(f"index tuple {tuple(map(int, mp))} is not injective")


@dataclass(frozen=True, eq=False)
class Sample:
    """Unlabeled sample: k point lists (partite) or one point list (nonpartite)."""

    mode: str
    k: int
    sides: tuple[np.ndarray, ...]

    def __post_init__(self):
        _check_mode(self.mode)
        _check_arity(self.k)
        expected = side_count(self.mode, self.k)
        if len(self.sides) != expected:
            raise ValueError(
                f"{self.mode} sample needs {expected} side(s), got {len(self.sides)}"
            )
        sizes = {len(s) for s in self.sides}
        if len(sizes) > 1:
            raise ValueError(f"sides have unequal sizes {sorted(sizes)}")

    @classmethod
    def partite(cls, sides: Iterable[Sequence]) -> "Sample":
        arrs = tuple(np.asarray(s) for s in sides)
        return cls(PARTITE, len(arrs), arrs)

    @classmethod
    def nonpartite(cls, points: Sequence, k: int) -> "Sample":
        return cls(NONPARTITE, k, (np.asarray(points),))

    @property
    def m(self) -> int:
        return len(self.sides[0])

    @property
    def axes(self) -> list:
        """The point list of each tuple coordinate: the sides (partite), or
        the one ground set k times (nonpartite)."""
        return list(self.sides) if self.mode == PARTITE else [self.sides[0]] * self.k


def grid_columns(sides: Sequence) -> list:
    """The sides as columns of their product grid: side i lies along axis i,
    so the columns broadcast together to shape (len(side) for side in sides)."""
    k = len(sides)
    return [
        np.asarray(s).reshape((1,) * i + (-1,) + (1,) * (k - 1 - i)) for i, s in enumerate(sides)
    ]


def injective_mask(m: int, k: int) -> np.ndarray:
    """Boolean (m,)*k grid, True where all coordinates are pairwise distinct."""
    check_cell_budget(m, k)
    cols = grid_columns([np.arange(m)] * k)
    mask = np.ones((m,) * k, dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            mask &= cols[i] != cols[j]
    return mask


@dataclass(frozen=True, eq=False)
class LabelTensor:
    """Dense labels on index tuples, stored as codes into a finite alphabet.

    codes has shape (m,)*k with dtype int64.  Valid cells hold an index
    into alphabet; in nonpartite mode every non-injective cell holds
    SENTINEL and every injective cell a valid code.  In nonpartite mode,
    injective holds injective_mask(m, k), which the codes are validated
    against: a caller that built the mask passes it, otherwise it is built
    here.  Partite tensors hold None.
    """

    mode: str
    k: int
    m: int
    alphabet: tuple
    codes: np.ndarray
    injective: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_mode(self.mode)
        _check_arity(self.k)
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be a nonempty tuple of distinct labels")
        if self.codes.shape != (self.m,) * self.k:
            raise ValueError(
                f"codes shape {self.codes.shape} does not match (m,)*k = {(self.m,) * self.k}"
            )
        n = len(self.alphabet)
        if self.mode == PARTITE:
            if self.codes.min(initial=0) < 0 or self.codes.max(initial=0) >= n:
                raise ValueError("partite tensor has codes outside the alphabet")
        else:
            inj = self.injective
            if inj is None:
                inj = injective_mask(self.m, self.k)
                object.__setattr__(self, "injective", inj)
            elif inj.shape != self.codes.shape:
                raise ValueError("injective mask shape does not match the codes")
            on = self.codes[inj]
            if on.size and (on.min() < 0 or on.max() >= n):
                raise ValueError("nonpartite tensor has codes outside the alphabet")
            if not np.all(self.codes[~inj] == SENTINEL):
                raise ValueError("non-injective cells must hold the sentinel")

    @classmethod
    def from_codes(
        cls, mode: str, k: int, m: int, alphabet: Sequence, codes: np.ndarray
    ) -> "LabelTensor":
        check_cell_budget(m, k)
        arr = np.ascontiguousarray(np.asarray(codes, dtype=np.int64))
        return cls(mode, k, m, tuple(alphabet), arr)


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """A sample together with a label tensor of matching shape."""

    sample: Sample
    labels: LabelTensor

    def __post_init__(self):
        s, t = self.sample, self.labels
        if (s.mode, s.k, s.m) != (t.mode, t.k, t.m):
            raise ValueError(
                f"sample {(s.mode, s.k, s.m)} and labels {(t.mode, t.k, t.m)} disagree"
            )

    @property
    def mode(self) -> str:
        return self.sample.mode

    @property
    def k(self) -> int:
        return self.sample.k

    @property
    def m(self) -> int:
        return self.sample.m


@dataclass(frozen=True, eq=False)
class InjectionVector:
    """A tuple of injections into range(m): k of them (partite) or one.

    Subsampling a size-m sample along an InjectionVector of size s yields
    a size-s sample; maps[i][v] is the source index of target index v.
    """

    mode: str
    m: int
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_mode(self.mode)
        most = side_count(self.mode, MAX_ARITY)
        if not 1 <= len(self.maps) <= most:
            raise ValueError(f"{self.mode} injection vector needs 1 to {most} maps")
        sizes = {len(mp) for mp in self.maps}
        if len(sizes) > 1:
            raise ValueError("injection maps have unequal sizes")
        for mp in self.maps:
            check_injection(mp, self.m)

    @property
    def size(self) -> int:
        return len(self.maps[0])

    @classmethod
    def identity(cls, mode: str, k: int, m: int) -> "InjectionVector":
        return cls(mode, m, (tuple(range(m)),) * side_count(mode, k))

    @classmethod
    def top(cls, mode: str, k: int, m: int, s: int) -> "InjectionVector":
        """Injection onto the s largest indices, ascending, on every side."""
        if not 0 <= s <= m:
            raise ValueError(f"size s={s} outside [0, m={m}]")
        return cls(mode, m, (tuple(range(m - s, m)),) * side_count(mode, k))

    @classmethod
    def random(
        cls, mode: str, k: int, m: int, s: int, rng: np.random.Generator
    ) -> "InjectionVector":
        if not 0 <= s <= m:
            raise ValueError(f"size s={s} outside [0, m={m}]")
        maps = tuple(
            tuple(int(v) for v in rng.choice(m, size=s, replace=False))
            for _ in range(side_count(mode, k))
        )
        return cls(mode, m, maps)

    def compose(self, inner: "InjectionVector") -> "InjectionVector":
        """self o inner, sidewise: (self o inner).maps[i][v] = self.maps[i][inner.maps[i][v]].
        Only the property test that subsampling along self, then inner, is
        subsampling along self o inner calls it."""
        if inner.mode != self.mode or len(inner.maps) != len(self.maps):
            raise ValueError("injection vectors are not composable")
        if inner.m != self.size:
            raise ValueError(
                f"inner target size {inner.m} does not match outer source size {self.size}"
            )
        maps = tuple(
            tuple(outer[v] for v in inner.maps[i])
            for i, outer in enumerate(self.maps)
        )
        return InjectionVector(self.mode, self.m, maps)


def _subsample_sides(sample: Sample, inj: InjectionVector) -> Sample:
    sides = tuple(
        side[np.asarray(mp, dtype=np.intp)] for side, mp in zip(sample.sides, inj.maps)
    )
    return Sample(sample.mode, sample.k, sides)


def _subsample_labels(tensor: LabelTensor, inj: InjectionVector) -> LabelTensor:
    if tensor.mode == PARTITE:
        maps = [np.asarray(mp, dtype=np.intp) for mp in inj.maps]
    else:
        maps = [np.asarray(inj.maps[0], dtype=np.intp)] * tensor.k
    # the open mesh np.ix_ builds, at under half its time
    cells = tuple(grid_columns(maps))
    # An injective map composed with an injective tuple stays injective, so
    # the mask pulls back to the subsample's own and the sentinels land
    # exactly on its non-injective cells: valid by construction, unchecked.
    injective = None if tensor.injective is None else tensor.injective[cells]
    return _of_checked(
        LabelTensor, mode=tensor.mode, k=tensor.k, m=inj.size, alphabet=tensor.alphabet,
        codes=tensor.codes[cells], injective=injective,
    )


def subsample(obj, inj: InjectionVector):
    """Restrict a Sample, LabelTensor, or LabeledSample along an InjectionVector.

    Index v of the result is index inj.maps[i][v] of the input (per side in
    partite mode); label cells pull back coordinatewise the same way.
    """
    if not isinstance(obj, (LabeledSample, Sample, LabelTensor)):
        raise TypeError(f"cannot subsample object of type {type(obj).__name__}")
    what = type(obj).__name__
    if obj.mode != inj.mode or inj.m != obj.m:
        raise ValueError(f"injection vector does not match the {what}")
    if len(inj.maps) != side_count(obj.mode, obj.k):
        raise ValueError(f"injection vector arity does not match the {what}")
    if isinstance(obj, LabeledSample):
        return LabeledSample(
            _subsample_sides(obj.sample, inj), _subsample_labels(obj.labels, inj)
        )
    if isinstance(obj, Sample):
        return _subsample_sides(obj, inj)
    return _subsample_labels(obj, inj)


@lru_cache(maxsize=None)
def _merge_exchange(n: int) -> tuple:
    """Batcher's merge exchange (Knuth, TAOCP vol. 3, 5.2.2, Algorithm M;
    its network in 5.3.4): compare-exchange pairs (i, j), i < j, that sort
    any n keys when applied in order."""
    pairs = []
    t = (n - 1).bit_length()
    p = 1 << (t - 1) if t else 0
    while p:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs.extend((i, i + d) for i in range(n - d) if i & p == r)
            if q == p:
                break
            d, q, r = q - p, q // 2, p
        p //= 2
    return tuple(pairs)


def ascending_columns(cols: list) -> list:
    """The columns, broadcast, with each tuple's coordinates put in ascending
    order by a compare-exchange network.  min and max do not round, so each
    tuple gets the values np.sort gives it: exactly for integers, and for
    finite floats up to the order of equal ones (0.0 and -0.0), which keeps
    a tuple's ascending sum bit for bit.  Each exchange writes the smaller
    values over a column of its own, so at most k + 1 columns are alive at
    once, and the given columns are never written."""
    shape = np.broadcast(*cols).shape
    dtype = np.result_type(*cols)
    owned = [False] * len(cols)
    for i, j in _merge_exchange(len(cols)):
        a, b = cols[i], cols[j]
        cols[j] = np.maximum(a, b, out=np.empty(shape, dtype))
        cols[i] = np.minimum(a, b, out=a if owned[i] else np.empty(shape, dtype))
        owned[i] = owned[j] = True
    return cols


# The cache keeps one canonical OrderChoice per (m, k), whose orders are
# the subsets, up to this many bytes of them in all: the 39 sizes
# m = 2..40 a validity sweep cycles through take 0.16 MiB at k = 2 and
# 2.3 MiB at k = 3, while one large dense call (4.5M rows at m = 3000,
# k = 2) takes 69 MiB and is not kept
SUBSET_CACHE_BYTES = 2**24
_subset_cache: OrderedDict = OrderedDict()


def _canonical(m: int, k: int) -> "OrderChoice":
    choice = _subset_cache.get((m, k))
    if choice is not None:
        _subset_cache.move_to_end((m, k))
        return choice
    _check_arity(k)
    rows = np.fromiter(
        itertools.combinations(range(m), k),
        dtype=np.dtype((np.intp, k)),
        count=math.comb(m, k),
    )
    rows.setflags(write=False)
    choice = _of_checked(OrderChoice, m=m, k=k, orders=rows)
    if rows.nbytes <= SUBSET_CACHE_BYTES:
        _subset_cache[(m, k)] = choice
        held = sum(c.orders.nbytes for c in _subset_cache.values())
        while held > SUBSET_CACHE_BYTES:
            held -= _subset_cache.popitem(last=False)[1].orders.nbytes
    return choice


def sorted_subsets(m: int, k: int) -> np.ndarray:
    """All k-subsets of range(m) as ascending rows, in itertools.combinations
    order (so lexicographic): a read-only (C(m, k), k) array, cached as the
    orders of OrderChoice.canonical(m, k)."""
    return _canonical(m, k).orders


def _checked_orders(m: int, k: int, orders) -> np.ndarray:
    """orders as a read-only intp array, checked to be one order choice of
    shape (C(m, k), k) or a stack (count, C(m, k), k) of them: integers,
    row r a permutation of row r of sorted_subsets(m, k).  The network
    sorts a whole stack in one pass (np.sort's rows on integers)."""
    _check_arity(k)
    rows = np.asarray(orders)
    if rows.dtype.kind not in "iu":
        raise ValueError(f"order choice has dtype {rows.dtype}, expected integers")
    rows = rows.astype(np.intp, copy=False)
    n = math.comb(m, k)
    if rows.ndim not in (2, 3) or rows.shape[-2:] != (n, k):
        raise ValueError(
            f"order choice has shape {rows.shape}, expected (C({m},{k}), {k}) = {(n, k)}"
        )
    subsets = sorted_subsets(m, k)
    ascending = ascending_columns([rows[..., i] for i in range(k)])
    differs = ascending[0] != subsets[:, 0]
    for col, want in zip(ascending[1:], subsets.T[1:]):
        differs |= col != want
    bad = np.flatnonzero(differs)
    if bad.size:
        b = int(bad[0])
        raise ValueError(
            f"ordering {tuple(rows.reshape(-1, k)[b].tolist())} is not a permutation of "
            f"subset {tuple(subsets[b % n].tolist())}"
        )
    if rows.flags.writeable:
        rows = rows.view()
        rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class OrderChoice:
    """For every k-subset U of range(m), one ordering of U.

    orders is a (C(m, k), k) integer array.  Row r lists the r-th subset
    of itertools.combinations(range(m), k) in the chosen order, so sorting
    each row gives back the subsets in that same deterministic order.
    """

    m: int
    k: int
    orders: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "orders", _checked_orders(self.m, self.k, self.orders))

    @classmethod
    def canonical(cls, m: int, k: int) -> "OrderChoice":
        """Ascending order on every subset: one cached object per (m, k),
        whose orders are the sorted_subsets array itself."""
        return _canonical(m, k)

    @classmethod
    def random(cls, m: int, k: int, rngs: Iterable[np.random.Generator]) -> list["OrderChoice"]:
        """One independent uniformly random ordering of every subset per
        generator of rngs.  Each generator draws its ordering in full before
        the next is taken, so a KeyedGenerator's streams pass as
        (rng.at(key) for key in keys).  The orderings are checked stacked,
        in one network pass."""
        subsets = sorted_subsets(m, k)
        drawn = [rng.permuted(subsets, axis=1) for rng in rngs]
        stack = np.stack(drawn) if drawn else np.empty((0,) + subsets.shape, np.intp)
        # each slot has passed _checked_orders, which the constructor repeats
        stack = _checked_orders(m, k, stack)
        return [_of_checked(cls, m=m, k=k, orders=rows) for rows in stack]


def canonical_order_choice(m: int, k: int) -> OrderChoice:
    return OrderChoice.canonical(m, k)


@lru_cache(maxsize=MAX_ARITY)
def _permutation_rows(k: int) -> np.ndarray:
    """enumerate_permutations(k) as a read-only (k!, k) array, built once per k."""
    perms = np.array(enumerate_permutations(k), dtype=np.intp)
    perms.setflags(write=False)
    return perms


def orientation_cells(rows: np.ndarray, m: int) -> np.ndarray:
    """Row-major flat cells of the (m,)*k grid that the orientations of
    each row read, as a (k!, n) array for rows of shape (n, k).

    Entry (j, r) is the cell (w[pi[0]], ..., w[pi[k-1]]) of the row w =
    rows[r] under the j-th permutation pi of enumerate_permutations(k);
    row 0 (the identity) reads each row as it is ordered.
    """
    perms = _permutation_rows(rows.shape[1])
    # coords[i] is the (k!, n) array of coordinate i of every orientation
    coords = rows.T[perms.T]
    flat = coords[0]
    for c in coords[1:]:
        flat *= m
        flat += c
    return flat


def bundle_orientations(tensor: LabelTensor, order: OrderChoice) -> np.ndarray:
    """Orientation bundles of a nonpartite tensor, as a (k!, C(m, k)) label array.

    Column r is the bundle of the r-th subset of sorted_subsets(m, k):
    entry (j, r) is the label y[w o pi] for the j-th permutation pi of
    enumerate_permutations(k), where w is the subset's row in order.orders.
    """
    from .samples import decode_labels  # samples imports this module

    if tensor.mode != NONPARTITE:
        raise ValueError("orientation bundles are defined for nonpartite tensors")
    if (order.m, order.k) != (tensor.m, tensor.k):
        raise ValueError("order choice shape does not match the tensor")
    cells = orientation_cells(order.orders, order.m)
    return decode_labels(tensor.codes.ravel()[cells], tensor.alphabet)
