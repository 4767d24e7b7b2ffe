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
* dense label tensors are stored row-major (last coordinate fastest),
* nonpartite cells with a repeated index hold the sentinel code -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    """A dense m**k tensor would exceed the configured cell budget."""

    def __init__(self, m: int, k: int, budget: int):
        super().__init__(f"m = {m}, k = {k}: m**k = {m**k} exceeds budget {budget}")


def check_cell_budget(m: int, k: int, budget: int) -> None:
    if m**k > budget:
        raise CellBudgetError(m, k, budget)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def side_count(mode: str, k: int) -> int:
    """Independent point lists of a k-ary sample: k partite, 1 nonpartite."""
    return k if mode == PARTITE else 1


def falling_factorial(n: int, k: int) -> int:
    """Number of injective k-tuples from an n-element set: n(n-1)...(n-k+1).

    Returns 1 when k == 0 and 0 when k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("falling_factorial requires n >= 0 and k >= 0")
    return math.perm(n, k)


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


def check_index_tuple(
    entries: Sequence[int], k: int, m: int, injective: bool = False
) -> tuple[int, ...]:
    """Validate a k-tuple of indices into range(m) and return it as a tuple."""
    idx = tuple(int(e) for e in entries)
    if len(idx) != k:
        raise ValueError(f"index tuple {idx} has length {len(idx)}, expected k={k}")
    for e in idx:
        if not 0 <= e < m:
            raise IndexError(f"index {e} out of range for m={m}")
    if injective and len(set(idx)) != k:
        raise ValueError(f"index tuple {idx} is not injective")
    return idx


@dataclass(frozen=True, eq=False)
class Sample:
    """Unlabeled sample: k point lists (partite) or one point list (nonpartite)."""

    mode: str
    k: int
    sides: tuple[np.ndarray, ...]

    def __post_init__(self):
        _check_mode(self.mode)
        if not 1 <= self.k <= MAX_ARITY:
            raise ValueError(f"arity k={self.k} outside [1, {MAX_ARITY}]")
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


def tuple_points(sample: Sample, idx: Sequence[int]) -> tuple:
    """Points selected by an index tuple.

    Partite: entry i indexes side i.  Nonpartite: every entry indexes the
    one ground set and the tuple must be injective.
    """
    injective = sample.mode == NONPARTITE
    t = check_index_tuple(idx, sample.k, sample.m, injective=injective)
    return tuple(axis[e] for axis, e in zip(sample.axes, t))


def injective_mask(m: int, k: int, budget: int = DEFAULT_CELL_BUDGET) -> np.ndarray:
    """Boolean (m,)*k grid, True where all coordinates are pairwise distinct."""
    check_cell_budget(m, k, budget)
    # column i is range(m) along axis i, broadcasting against the others
    cols = [np.arange(m).reshape((m,) + (1,) * (k - 1 - i)) for i in range(k)]
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
    SENTINEL and every injective cell a valid code.
    """

    mode: str
    k: int
    m: int
    alphabet: tuple
    codes: np.ndarray

    def __post_init__(self):
        _check_mode(self.mode)
        if not 1 <= self.k <= MAX_ARITY:
            raise ValueError(f"arity k={self.k} outside [1, {MAX_ARITY}]")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be a nonempty tuple of distinct labels")
        if self.codes.shape != (self.m,) * self.k:
            raise ValueError(
                f"codes shape {self.codes.shape} does not match (m,)*k = {(self.m,) * self.k}"
            )
        n = len(self.alphabet)
        if self.m > 0:
            if self.mode == PARTITE:
                if self.codes.min(initial=0) < 0 or self.codes.max(initial=0) >= n:
                    raise ValueError("partite tensor has codes outside the alphabet")
            else:
                inj = injective_mask(self.m, self.k)
                on = self.codes[inj]
                if on.size and (on.min() < 0 or on.max() >= n):
                    raise ValueError("nonpartite tensor has codes outside the alphabet")
                if not np.all(self.codes[~inj] == SENTINEL):
                    raise ValueError("non-injective cells must hold the sentinel")

    @classmethod
    def from_codes(
        cls,
        mode: str,
        k: int,
        m: int,
        alphabet: Sequence,
        codes: np.ndarray,
        budget: int = DEFAULT_CELL_BUDGET,
    ) -> "LabelTensor":
        check_cell_budget(m, k, budget)
        arr = np.ascontiguousarray(np.asarray(codes, dtype=np.int64))
        return cls(mode, k, m, tuple(alphabet), arr)

    @property
    def num_cells(self) -> int:
        return self.m**self.k

    def code_at(self, idx: Sequence[int]) -> int:
        t = check_index_tuple(idx, self.k, self.m)
        return int(self.codes[t])

    def value_at(self, idx: Sequence[int]):
        """Label value at an index tuple; nonpartite tuples must be injective."""
        injective = self.mode == NONPARTITE
        t = check_index_tuple(idx, self.k, self.m, injective=injective)
        c = int(self.codes[t])
        return self.alphabet[c]


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
        if self.mode == NONPARTITE and len(self.maps) != 1:
            raise ValueError("nonpartite injection vector carries exactly one map")
        if self.mode == PARTITE and not 1 <= len(self.maps) <= MAX_ARITY:
            raise ValueError("partite injection vector needs 1..MAX_ARITY maps")
        sizes = {len(mp) for mp in self.maps}
        if len(sizes) > 1:
            raise ValueError("injection maps have unequal sizes")
        for mp in self.maps:
            check_index_tuple(mp, len(mp), self.m, injective=True)

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
        """self o inner, sidewise: (self o inner).maps[i][v] = self.maps[i][inner.maps[i][v]]."""
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
    if tensor.m == 0 or inj.size == 0:
        codes = np.empty((inj.size,) * tensor.k, dtype=np.int64)
        if tensor.mode == NONPARTITE and inj.size > 0:
            codes[~injective_mask(inj.size, tensor.k)] = SENTINEL
    else:
        codes = tensor.codes[np.ix_(*maps)]
    # An injective map composed with an injective tuple stays injective, so
    # sentinels land exactly on the subsample's non-injective cells.
    return LabelTensor(tensor.mode, tensor.k, inj.size, tensor.alphabet, codes)


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


# a validity sweep over m = 2..40 cycles through 39 sizes per audit; with
# fewer entries than that, the cache would miss on every one of them
@lru_cache(maxsize=64)
def sorted_subsets(m: int, k: int) -> np.ndarray:
    """All k-subsets of range(m) as ascending rows, in itertools.combinations
    order (so lexicographic): a read-only (C(m, k), k) array, cached."""
    rows = np.fromiter(
        itertools.combinations(range(m), k),
        dtype=np.dtype((np.intp, k)),
        count=math.comb(m, k),
    )
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
        if not 1 <= self.k <= MAX_ARITY:
            raise ValueError(f"arity k={self.k} outside [1, {MAX_ARITY}]")
        rows = np.asarray(self.orders, dtype=np.intp).view()
        expected = math.comb(self.m, self.k)
        if rows.shape != (expected, self.k):
            raise ValueError(
                f"order choice has shape {rows.shape}, expected "
                f"(C({self.m},{self.k}), {self.k}) = {(expected, self.k)}"
            )
        subsets = sorted_subsets(self.m, self.k)
        bad = np.flatnonzero((np.sort(rows, axis=1) != subsets).any(axis=1))
        if bad.size:
            r = int(bad[0])
            raise ValueError(
                f"ordering {tuple(rows[r].tolist())} is not a permutation of "
                f"subset {tuple(subsets[r].tolist())}"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "orders", rows)

    @classmethod
    def canonical(cls, m: int, k: int) -> "OrderChoice":
        """Ascending order on every subset."""
        return cls(m, k, sorted_subsets(m, k))

    @classmethod
    def random(cls, m: int, k: int, rng: np.random.Generator) -> "OrderChoice":
        """An independent uniformly random ordering of every subset."""
        return cls(m, k, rng.permuted(sorted_subsets(m, k), axis=1))


def canonical_order_choice(m: int, k: int) -> OrderChoice:
    return OrderChoice.canonical(m, k)


def bundle_orientations(tensor: LabelTensor, order: OrderChoice) -> dict:
    """Orientation bundles of a nonpartite tensor.

    Maps each sorted k-subset U, as a tuple, to the tuple of label values
    (y[w o pi] for pi in enumerate_permutations(k)), where w is U's row
    in order.orders.  Keys follow the row order.  Empty when m < k.
    """
    if tensor.mode != NONPARTITE:
        raise ValueError("orientation bundles are defined for nonpartite tensors")
    if (order.m, order.k) != (tensor.m, tensor.k):
        raise ValueError("order choice shape does not match the tensor")
    perms = enumerate_permutations(tensor.k)
    out = {}
    subsets = sorted_subsets(tensor.m, tensor.k).tolist()
    for u, ordering in zip(subsets, order.orders.tolist()):
        out[tuple(u)] = tuple(
            tensor.alphabet[int(tensor.codes[tuple(ordering[p] for p in perm)])]
            for perm in perms
        )
    return out
