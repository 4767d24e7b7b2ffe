"""Product measures, deterministic sample generation, hypotheses, and ERM.

Randomness is counter-based: every stream is a Philox generator keyed by
a master seed plus an integer path, so any draw is reproducible from
(seed, path) alone and independent streams never overlap.  The key of
the stream (seed, path) is np.random.SeedSequence(seed, spawn_key=path)
.generate_state(2, np.uint64); numpy's SeedSequence is the tests'
reference, and no code here builds one.

stream_keys is the one derivation of seeds and keys.  SeedSequence is
a fixed sequence of uint32 operations on the words of its entropy, and
the mirror runs them elementwise on uint32 arrays, so a batch of trials
derives its seeds and keys in one call: the entropy is assembled exactly
as numpy assembles it (one word per 32 bits of the seed or of a scalar
path element, 0 taking one word, the seed zero-padded to the pool size),
so every result equals SeedSequence's bit for bit.  An array path
element must lie in [0, 2**32): a larger one would take more than one
word, and is refused rather than hashed differently.  Every operand of
the mirror, its hash constants included, is uint32, so the arithmetic
wraps at 32 bits under NumPy 1's and NumPy 2's promotion rules alike.
Draws go through one KeyedGenerator, a Philox generator re-keyed in
place, instead of a new Philox and Generator per stream; a Philox stream
is fixed by its key and counter alone, so the draws are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .indexing import (
    NONPARTITE,
    PARTITE,
    SENTINEL,
    LabelTensor,
    LabeledSample,
    Sample,
    _check_arity,
    _check_mode,
    _of_checked,
    ascending_columns,
    check_cell_budget,
    grid_columns,
    injective_mask,
    orientation_cells,
    side_count,
    sorted_subsets,
)

BINARY_ALPHABET = (0, 1)


def spawn_rng(seed: int, *path: int) -> np.random.Generator:
    """A new generator at the start of the stream (seed, path)."""
    return np.random.Generator(np.random.Philox(key=stream_keys(seed, *path)))


def derive_seed(seed, *path):
    """A 64-bit child seed: the first word of stream_keys(seed, *path).

    Scalar arguments give a Python int.  With ndarray arguments (seeds
    below 2**64, path elements below 2**32) the derivation is elementwise
    over their broadcast shape and returns a uint64 array equal, element
    by element, to the scalar result.
    """
    state = stream_keys(seed, *path)[..., 0]
    return int(state) if state.ndim == 0 else state


class KeyedGenerator:
    """One Philox generator, re-keyed in place for each stream it draws.

    at(key) resets it to the start of the stream with that Philox key
    (counter 0, empty buffer) and returns it, so it draws what
    np.random.Generator(np.random.Philox(key=key)) draws.  Each stream
    must be drawn in full before the next at().
    """

    def __init__(self):
        self._generator = np.random.Generator(np.random.Philox(0))
        self._stream = {"counter": [0, 0, 0, 0], "key": [0, 0]}
        self._state = {
            "bit_generator": "Philox", "state": self._stream,
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }

    def at(self, key) -> np.random.Generator:
        self._stream["key"] = key
        self._generator.bit_generator.state = self._state
        return self._generator


# np.random.SeedSequence's constants: a pool of four uint32 words, the
# multiplicative hash of its entropy mixing and of generate_state.  The
# hash constants are np.uint32 so that every operation of the mirror is
# uint32 with uint32, which wraps at 32 bits under NumPy 1's value-based
# promotion and NumPy 2's NEP 50 alike; a Python int operand would
# promote a NumPy 1 scalar to int64.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = np.uint32(0x43B0D7E5), np.uint32(0x931E8875)
_INIT_B, _MULT_B = np.uint32(0x8B51F9DD), np.uint32(0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _int_words(n: int) -> list:
    """The 32-bit words of a nonnegative int, low word first; 0 is one word."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _checked_array(a: np.ndarray, bits: int, what: str) -> np.ndarray:
    if a.dtype.kind not in "iu":
        raise TypeError(f"{what} must be an integer array, got dtype {a.dtype}")
    if a.size and (int(a.min()) < 0 or int(a.max()) >= 1 << bits):
        raise ValueError(f"{what} must lie in [0, 2**{bits}) in a batched derivation")
    return a.astype(np.uint64)


def _entropy_words(seed, path) -> list:
    """SeedSequence's assembled entropy, one np.uint32 or uint32 array per word.

    The seed's words are zero-padded to the pool size: numpy pads them
    when a spawn key is present, and without one a missing word mixes in
    exactly as a zero word does.
    """
    if isinstance(seed, np.ndarray):
        s = _checked_array(seed, 64, "seed")
        words = [s.astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32)]
    else:
        words = [np.uint32(w) for w in _int_words(int(seed))]
    words += [np.uint32(0)] * (_POOL_SIZE - len(words))
    for p in path:
        if isinstance(p, np.ndarray):
            words.append(_checked_array(p, 32, "path element").astype(np.uint32))
        else:
            words.extend(np.uint32(w) for w in _int_words(int(p)))
    return words


def _hashmix(value, h: np.uint32):
    """SeedSequence's hashmix of one word: (hashed word, next hash constant)."""
    h_next = h * _MULT_A
    value = (value ^ h) * h_next
    return value ^ (value >> _XSHIFT), h_next


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def stream_keys(seed, *path) -> np.ndarray:
    """The Philox key of the stream (seed, path), a (2,) uint64 array:
    SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64).

    spawn_rng(seed, *path) and KeyedGenerator().at(key) both draw the
    stream with this key.  ndarray arguments are elementwise, as in
    derive_seed, and give shape (..., 2); the words the whole batch
    shares (the seed, a scalar path prefix) are hashed once.
    """
    words = _entropy_words(seed, path)
    with np.errstate(over="ignore"):
        h = _INIT_A
        pool = []
        for w in words[:_POOL_SIZE]:
            v, h = _hashmix(w, h)
            pool.append(v)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    v, h = _hashmix(pool[src], h)
                    pool[dst] = _mix(pool[dst], v)
        for w in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                v, h = _hashmix(w, h)
                pool[dst] = _mix(pool[dst], v)
        h = _INIT_B
        state = []
        for word in pool:
            v = word ^ h
            h = h * _MULT_B
            v = v * h
            state.append(np.asarray(v ^ (v >> _XSHIFT), dtype=np.uint64))
    state = np.stack(np.broadcast_arrays(*state), axis=-1)
    # little-endian pairs of uint32 words make each uint64
    return state[..., 0::2] | (state[..., 1::2] << np.uint64(32))


@dataclass(frozen=True)
class Uniform01:
    """Uniform distribution on the unit interval."""

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random(n)


@dataclass(frozen=True)
class FiniteDiscrete:
    """Finite distribution over explicit finite real atoms with explicit weights."""

    values: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.values) != len(self.weights) or not self.values:
            raise ValueError("values and weights must be nonempty and equal-length")
        if len(set(self.values)) != len(self.values):
            raise ValueError("atoms must be distinct")
        if not np.isfinite(np.asarray(self.values, dtype=float)).all():
            raise ValueError("atoms must be finite")
        w = np.asarray(self.weights, dtype=float)
        # a NaN weight fails every comparison, so finiteness is checked first
        if not np.isfinite(w).all() or (w < 0).any() or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be finite, nonnegative and sum to 1")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.choice(len(self.values), size=n, p=np.asarray(self.weights, dtype=float))
        return np.asarray(self.values)[idx]


@dataclass(frozen=True, eq=False)
class ProductMeasure:
    """k per-side distributions (partite) or one ground distribution."""

    mode: str
    k: int
    distributions: tuple

    def __post_init__(self):
        _check_mode(self.mode)
        _check_arity(self.k)
        expected = side_count(self.mode, self.k)
        if len(self.distributions) != expected:
            raise ValueError(
                f"{self.mode} measure needs {expected} distribution(s), got {len(self.distributions)}"
            )

    @classmethod
    def uniform(cls, mode: str, k: int) -> "ProductMeasure":
        return cls(mode, k, (Uniform01(),) * side_count(mode, k))

    @cached_property
    def is_uniform(self) -> bool:
        return all(isinstance(d, Uniform01) for d in self.distributions)


def side_keys(mu: ProductMeasure, seeds: np.ndarray) -> list:
    """Per sample seed, the Philox keys of its side streams (seed, side):
    nested lists of shape seeds.shape + (n_sides, 2), for draw_sample."""
    return stream_keys(seeds[..., None], np.arange(len(mu.distributions))).tolist()


def draw_sample(
    mu: ProductMeasure,
    m: int,
    seed: int | None = None,
    *,
    keys: Sequence | None = None,
    rng: KeyedGenerator | None = None,
) -> Sample:
    """m independent points per side (partite) or m points total (nonpartite).

    Side i draws from the stream (seed, i), so the draw is fully
    determined by the seed and point index; the side keys come from one
    stream_keys call.  A batch of trials passes keys instead of seed: the
    trial's side keys, from side_keys for the whole batch.  The streams
    are drawn through rng; a caller that draws many samples passes one
    KeyedGenerator for all of them, otherwise each call makes its own.
    """
    if m < 0:
        raise ValueError("sample size m must be >= 0")
    if (seed is None) == (keys is None):
        raise ValueError("pass exactly one of seed and keys")
    n_sides = len(mu.distributions)
    if keys is None:
        # the seed stays a scalar: as an array, one >= 2**64 has dtype object
        keys = stream_keys(seed, np.arange(n_sides))
    elif len(keys) != n_sides:
        raise ValueError(f"expected {n_sides} side keys, got {len(keys)}")
    if rng is None:
        rng = KeyedGenerator()
    # each side's stream is drawn in full before rng is re-keyed
    sides = tuple(d.draw(rng.at(key), m) for d, key in zip(mu.distributions, keys))
    # valid by construction: mu checked mode, arity and sides, each of m points
    return _of_checked(Sample, mode=mu.mode, k=mu.k, sides=sides)


# ---------------------------------------------------------------------------
# Hypotheses


# describe()'s text of a box side, of a sum threshold and of the empty
# sum threshold; describe_boxes and describe_thresholds format whole
# blocks with them
_SIDE_TEXT = "[%.6g, %.6g]"
_THRESHOLD_TEXT = "sum-threshold(t=%.6g)"
_EMPTY_THRESHOLD_TEXT = "constant(0)"


@dataclass(frozen=True, eq=False)
class Hypothesis:
    """Total evaluation rule from a k-tuple of points to a label.

    Kinds:
      rectangle      label 1 inside a closed box, 0 outside; the empty box
                     (constant 0 within the family) has the ends (+inf, -inf)
                     on every side
      sum-threshold  label 1 iff the coordinate sum is >= threshold; the
                     empty one (constant 0 within the family) has the
                     threshold +inf
      constant       always const_value
      table          explicit lookup over finite per-coordinate supports
    """

    kind: str
    k: int
    intervals: tuple | None = None
    threshold: float | None = None
    const_value: object = None
    table_support: tuple | None = None
    table_labels: tuple | None = None

    @classmethod
    def rectangle(cls, intervals) -> "Hypothesis":
        if intervals is None:
            raise ValueError("use empty_rectangle for the empty box")
        ivs = tuple((float(lo), float(hi)) for lo, hi in intervals)
        for lo, hi in ivs:
            # "not <=" also refuses a NaN end
            if not lo <= hi:
                raise ValueError(f"interval [{lo}, {hi}] is not lo <= hi; use empty_rectangle")
        return cls("rectangle", len(ivs), intervals=ivs)

    @classmethod
    def empty_rectangle(cls, k: int) -> "Hypothesis":
        return cls("rectangle", k, intervals=((math.inf, -math.inf),) * k)

    @classmethod
    def sum_threshold(cls, k: int, threshold: float) -> "Hypothesis":
        return cls("sum-threshold", k, threshold=float(threshold))

    @classmethod
    def constant(cls, k: int, value) -> "Hypothesis":
        """Always value.  No family holds a constant (the empty sum threshold
        is t = +inf); the loss tests need constants of any label."""
        return cls("constant", k, const_value=value)

    @classmethod
    def table(cls, k: int, support, labels) -> "Hypothesis":
        """Lookup table.

        support: one tuple of point values per coordinate (a single tuple
        shared by all coordinates is accepted for nonpartite use).
        labels: row-major tuple of length prod(|support_i|).

        No family draws tables; the loss tests need the only kind that may
        be asymmetric or label outside {0, 1}.
        """
        sup = tuple(tuple(s) for s in support)
        if len(sup) == 1 and k > 1:
            sup = sup * k
        if len(sup) != k:
            raise ValueError(f"need {k} supports, got {len(sup)}")
        total = math.prod(len(s) for s in sup)
        labs = tuple(labels)
        if len(labs) != total:
            raise ValueError(f"table needs {total} labels, got {len(labs)}")
        return cls("table", k, table_support=sup, table_labels=labs)

    # -- evaluation ---------------------------------------------------------

    def value(self, xs: Sequence):
        """Label of one k-tuple of points, as a Python scalar: h(x) as the
        paper writes it, which the tests' brute-force loss references call."""
        return np.asarray(self.eval_columns(xs)).item()

    def eval_columns(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized evaluation on tuples given as k columns that broadcast
        together; the labels have the broadcast shape."""
        if len(cols) != self.k:
            raise ValueError(f"expected {self.k} columns, got {len(cols)}")
        shape = np.broadcast(*cols).shape
        if self.kind == "rectangle":
            out = np.ones(shape, dtype=bool)
            for (lo, hi), c in zip(self.intervals, cols):
                out &= (c >= lo) & (c <= hi)
            return out.astype(np.int64)
        if self.kind == "sum-threshold":
            return (coordinate_sum(cols) >= self.threshold).astype(np.int64)
        if self.kind == "constant":
            return np.full(shape, self.const_value)
        if self.kind == "table":
            flat = np.zeros(shape, dtype=np.int64)
            for c, sup in zip(cols, self.table_support):
                idx = _support_indices(np.ravel(c), sup).reshape(np.shape(c))
                flat = flat * len(sup) + idx
            return np.asarray(self.table_labels, dtype=object)[flat]
        raise ValueError(f"unknown hypothesis kind {self.kind!r}")

    def label_grid(self, sides: Sequence[np.ndarray]) -> np.ndarray:
        """Labels on the full product grid of the given sides, shape (m1,...,mk)."""
        return self.eval_columns(grid_columns(sides))

    def describe(self) -> str:
        if self.kind == "rectangle":
            # only empty_rectangle makes a side with lo > hi, and it makes all of them so
            if self.intervals[:1] == ((math.inf, -math.inf),):
                return "rectangle(empty)"
            return "rectangle(" + ", ".join(_SIDE_TEXT % side for side in self.intervals) + ")"
        if self.kind == "sum-threshold":
            if self.threshold == math.inf:
                return _EMPTY_THRESHOLD_TEXT
            return _THRESHOLD_TEXT % self.threshold
        if self.kind == "constant":
            return f"constant({self.const_value!r})"
        return f"table(k={self.k})"


def coordinate_sum(cols: Sequence):
    """Coordinate sums of k-tuples given as k columns that broadcast together.

    Float addition is not associative, so for k > 2 each tuple's
    coordinates are added in ascending order: every orientation of a
    tuple, and every site that sums one, gets the same float.  Two are
    added as given, since a + b == b + a.
    """
    cols = [np.asarray(c, dtype=float) for c in cols]
    if len(cols) <= 2:
        total = 0.0
        for c in cols:
            total = total + c
        return total
    cols = ascending_columns(cols)
    total = np.add(cols[0], 0.0, out=cols[0])
    for c in cols[1:]:
        np.add(total, c, out=total)
    return total if total.ndim else total[()]


def threshold_of(H: Hypothesis) -> float:
    """The threshold of sum threshold H; the empty one's is +inf."""
    if H.kind != "sum-threshold":
        raise ValueError(f"not a sum threshold but a {H.kind}: {H.describe()}")
    return float(H.threshold)


def describe_thresholds(ts: np.ndarray) -> list:
    """Hypothesis.sum_threshold(k, t).describe() of each t of ts, shape (count,)."""
    return [_EMPTY_THRESHOLD_TEXT if t == math.inf else _THRESHOLD_TEXT % t for t in ts.tolist()]


def box_ends(H: Hypothesis) -> np.ndarray:
    """The ends of box H as a (k, 2) array, (lo, hi) per side; the empty
    box's are (+inf, -inf) on every side."""
    return np.asarray(H.intervals, dtype=float)


def box_of_ends(k: int, ends: np.ndarray) -> Hypothesis:
    """The box with the ends (k, 2) that box_ends gives."""
    ivs = ends.tolist()
    # only the empty box has a side with lo > hi, and it has them all so
    return Hypothesis.empty_rectangle(k) if ivs[0][0] > ivs[0][1] else Hypothesis.rectangle(ivs)


def describe_boxes(ends: np.ndarray) -> list:
    """box_of_ends(k, e).describe() of each e of ends, shape (count, k, 2)."""
    count, k = ends.shape[:2]
    text = ("rectangle(" + ", ".join([_SIDE_TEXT] * k) + ")").__mod__
    empty = Hypothesis.empty_rectangle(k).describe()
    is_empty = (ends[:, 0, 0] > ends[:, 0, 1]).tolist()
    return [
        empty if e else text(tuple(row))
        for e, row in zip(is_empty, ends.reshape(count, -1).tolist())
    ]


def _support_indices(points: np.ndarray, support: tuple) -> np.ndarray:
    lookup = {v: i for i, v in enumerate(support)}
    try:
        return np.asarray([lookup[p] for p in np.asarray(points).tolist()], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"point {exc.args[0]!r} not in the table support") from exc


def encode_labels(values: np.ndarray, alphabet: tuple) -> np.ndarray:
    """Map label values to int64 codes into the alphabet.  Under the binary
    alphabet an int64 array of labels is its own codes and is returned as
    it is."""
    if alphabet == BINARY_ALPHABET:
        arr = np.asarray(values)
        codes = arr.astype(np.int64, copy=False)
        # integers convert exactly, except that uint64 above 2**63 turns negative
        exact = arr.dtype.kind in "biu" or np.array_equal(codes, arr)
        if not exact or codes.size and (codes.min() < 0 or codes.max() > 1):
            raise ValueError("labels outside the binary alphabet (0, 1)")
        return codes
    lookup = {v: i for i, v in enumerate(alphabet)}
    flat = np.asarray(values).ravel()
    try:
        codes = np.asarray([lookup[v] for v in flat.tolist()], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} not in the alphabet") from exc
    return codes.reshape(np.asarray(values).shape)


def decode_labels(codes: np.ndarray, alphabet: tuple) -> np.ndarray:
    """The label values of int64 codes into the alphabet: encode_labels inverted.

    Under the binary alphabet code i is label i, and the codes are returned
    as they are.  Any other alphabet decodes through an object array, since
    np.asarray((2, 'b', 0, 1.5)) would be an array of strings.
    """
    if alphabet == BINARY_ALPHABET:
        return codes
    return np.fromiter(alphabet, dtype=object, count=len(alphabet))[codes]


def label_sample(F: Hypothesis, x: Sample, alphabet: tuple = BINARY_ALPHABET) -> LabeledSample:
    """Labels of F on every tuple of x (injective tuples only, nonpartite).

    Nonpartite samples with m < k get an all-sentinel tensor.
    """
    m, k = x.m, x.k
    check_cell_budget(m, k)
    codes = encode_labels(F.label_grid(x.axes), tuple(alphabet))
    injective = None
    if x.mode == NONPARTITE:
        # built once per sample: the tensor validates against it and
        # subsamples pull it back
        injective = injective_mask(m, k)
        codes = np.where(injective, codes, SENTINEL)
    tensor = LabelTensor(x.mode, k, m, tuple(alphabet), codes, injective)
    return LabeledSample(x, tensor)


# ---------------------------------------------------------------------------
# Hypothesis classes


@dataclass(frozen=True, eq=False)
class HypothesisClass:
    """A family of hypotheses, carrying its maps the way a SelectionScheme does.

    sample_hypothesis(rng) draws one random member; erm(labeled) is exact
    ERM under the zero-one loss, (realizable, witness or None); fallback
    is the member a learner returns when no member fits.  The constructors
    set them.
    """

    mode: str
    k: int
    sample_hypothesis: Callable[[np.random.Generator], Hypothesis]
    erm: Callable[[LabeledSample], tuple]
    fallback: Hypothesis

    @classmethod
    def rectangles(cls, k: int) -> "HypothesisClass":
        """Closed axis-aligned boxes in the unit cube, plus the empty box."""
        return cls(
            PARTITE, k,
            # each side's ends are two uniform draws, so degenerate boxes occur
            sample_hypothesis=lambda rng: Hypothesis.rectangle(
                [sorted(rng.random(2)) for _ in range(k)]
            ),
            erm=_box_erm,
            fallback=Hypothesis.empty_rectangle(k),
        )

    @classmethod
    def sum_thresholds(cls, k: int) -> "HypothesisClass":
        """Nonpartite rules 1[sum of coordinates >= t], plus the empty one,
        t = +inf (the constant 0)."""
        return cls(
            NONPARTITE, k,
            sample_hypothesis=lambda rng: Hypothesis.sum_threshold(k, rng.uniform(0.0, float(k))),
            erm=_threshold_erm,
            fallback=Hypothesis.sum_threshold(k, math.inf),
        )


# ---------------------------------------------------------------------------
# Exact empirical risk minimization for the built-in families


def _positive_code(alphabet: tuple) -> int:
    if 1 not in alphabet or 0 not in alphabet:
        raise ValueError("built-in ERM expects an alphabet containing 0 and 1")
    return alphabet.index(1)


def positive_point_masks(labeled: LabeledSample) -> list:
    """Per side, a mask of the points that lie in some positive tuple."""
    pos = labeled.labels.codes == _positive_code(labeled.labels.alphabet)
    k = labeled.k
    return [pos.any(axis=tuple(j for j in range(k) if j != i)) for i in range(k)]


def minimal_box(sides: Sequence[np.ndarray], masks: Sequence[np.ndarray]) -> Hypothesis:
    """Smallest closed box around the masked points of every side; the empty
    box when some side has none.  With positive_point_masks that is the
    minimal box around the positive tuples."""
    intervals = []
    for s, mask in zip(sides, masks):
        # one compaction per side: masking twice made box_pac 1.6-2x as
        # slow, and s.compress(mask) holds the values of s[mask] at a
        # quarter to a third of its time on 16852 and 33704 points
        coords = s.compress(mask)
        if not len(coords):
            return Hypothesis.empty_rectangle(len(sides))
        intervals.append((float(coords.min()), float(coords.max())))
    return Hypothesis.rectangle(intervals)


def minimal_enclosing_box(labeled: LabeledSample) -> Hypothesis:
    """Smallest closed box containing every positive tuple; empty box if none."""
    if labeled.mode != PARTITE:
        raise ValueError("minimal_enclosing_box expects a partite sample")
    return minimal_box(labeled.sample.sides, positive_point_masks(labeled))


def _subset_label_masks(labeled: LabeledSample):
    """The k-subsets of the sample (sorted_subsets rows) and, per row, whether
    its orientations are labeled all positive, all negative, or mixed."""
    subsets = sorted_subsets(labeled.m, labeled.k)
    pos_code = _positive_code(labeled.labels.alphabet)
    # subsets are injective, so no gathered cell holds SENTINEL
    cells = orientation_cells(subsets, labeled.m)
    pos = labeled.labels.codes.ravel()[cells] == pos_code
    any_pos, any_neg = pos.any(axis=0), (~pos).any(axis=0)
    return subsets, any_pos & ~any_neg, any_neg & ~any_pos, any_pos & any_neg


def _subset_sums(sample: Sample, subsets: np.ndarray) -> np.ndarray:
    """Coordinate sums of the sample's points over each subset row."""
    pts = np.asarray(sample.sides[0], dtype=float)
    return coordinate_sum([pts[col] for col in subsets.T])


def erm_realizability_check(
    klass: HypothesisClass, labeled: LabeledSample, loss
) -> tuple[bool, Hypothesis | None]:
    """Exact ERM: is there a member with zero empirical loss, and which one.

    Runs the class's own ERM, under the zero-one loss only.  For
    rectangles the witness candidate is the minimal enclosing box of the
    positive tuples; the sample is realizable iff no negative tuple falls
    inside it.  For sum thresholds it is realizable iff every orientation
    bundle is constant and the minimal positive subset sum exceeds the
    maximal negative one; the witness threshold is the minimal positive
    sum.
    """
    if getattr(loss, "kind", None) != "zero-one":
        raise ValueError("exact ERM is only implemented for the zero-one loss")
    if klass.mode != labeled.mode or klass.k != labeled.k:
        raise ValueError("hypothesis class does not match the sample")
    return klass.erm(labeled)


def _box_erm(labeled: LabeledSample) -> tuple[bool, Hypothesis | None]:
    box = minimal_enclosing_box(labeled)
    pos = labeled.labels.codes == _positive_code(labeled.labels.alphabet)
    realizable = np.array_equal(box.label_grid(labeled.sample.sides), pos)
    return realizable, (box if realizable else None)


def _threshold_erm(labeled: LabeledSample) -> tuple[bool, Hypothesis | None]:
    k = labeled.k
    subsets, pos_sets, neg_sets, mixed = _subset_label_masks(labeled)
    if mixed.any():
        return False, None
    if not pos_sets.any():
        return True, Hypothesis.sum_threshold(k, math.inf)
    sums = _subset_sums(labeled.sample, subsets)
    min_pos = float(sums[pos_sets].min())
    if neg_sets.any() and float(sums[neg_sets].max()) >= min_pos:
        return False, None
    return True, Hypothesis.sum_threshold(k, min_pos)
