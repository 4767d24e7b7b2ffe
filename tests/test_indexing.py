"""Tests for the tuple/index calculus: subsampling, orders, bundles."""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcompress import indexing
from kcompress.indexing import (
    MAX_ARITY,
    NONPARTITE,
    PARTITE,
    SENTINEL,
    SUBSET_CACHE_BYTES,
    CellBudgetError,
    InjectionVector,
    LabelTensor,
    LabeledSample,
    OrderChoice,
    Sample,
    bundle_orientations,
    canonical_order_choice,
    check_injection,
    enumerate_permutations,
    injective_mask,
    sorted_subsets,
    subsample,
)


def make_tensor(mode, k, m, n_labels=2, rng=None):
    """Random dense label tensor with alphabet range(n_labels)."""
    rng = rng or np.random.default_rng(0)
    codes = rng.integers(n_labels, size=(m,) * k)
    if mode == NONPARTITE and m > 0:
        codes[~injective_mask(m, k)] = SENTINEL
    return LabelTensor.from_codes(mode, k, m, tuple(range(n_labels)), codes)


def random_injection(mode, k, m, s, rng):
    return InjectionVector.random(mode, k, m, s, rng)


# ---------------------------------------------------------------------------
# scalar helpers


def test_enumerate_permutations_lexicographic():
    assert enumerate_permutations(1) == [(0,)]
    assert enumerate_permutations(2) == [(0, 1), (1, 0)]
    assert enumerate_permutations(3) == [
        (0, 1, 2),
        (0, 2, 1),
        (1, 0, 2),
        (1, 2, 0),
        (2, 0, 1),
        (2, 1, 0),
    ]
    assert len(enumerate_permutations(4)) == 24


def test_enumerate_permutations_arity_guard():
    with pytest.raises(ValueError):
        enumerate_permutations(0)
    with pytest.raises(ValueError):
        enumerate_permutations(MAX_ARITY + 1)


def test_check_index_tuple():
    check_injection((1, 0), 3)
    check_injection((), 3)
    with pytest.raises(IndexError, match=r"^index 3 out of range for m=3$"):
        check_injection((1, 3), 3)
    with pytest.raises(IndexError, match=r"^index -1 out of range for m=3$"):
        check_injection((0, -1, 3), 3)
    with pytest.raises(ValueError, match=r"^index tuple \(1, 1\) is not injective$"):
        check_injection((1, 1), 3)


# ---------------------------------------------------------------------------
# samples


def test_sample_constructors():
    sp = Sample.partite([[0.1, 0.2], [0.3, 0.4]])
    assert sp.mode == PARTITE and sp.k == 2 and sp.m == 2
    assert np.allclose(sp.sides[1], [0.3, 0.4])

    sn = Sample.nonpartite([0.1, 0.2, 0.3], k=2)
    assert sn.mode == NONPARTITE and sn.k == 2 and sn.m == 3


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample.partite([[0.1, 0.2], [0.3]])
    with pytest.raises(ValueError):
        Sample(PARTITE, 2, (np.array([0.1]),))
    with pytest.raises(ValueError):
        Sample("weird", 1, (np.array([0.1]),))
    with pytest.raises(ValueError):
        Sample.nonpartite([0.1], k=MAX_ARITY + 1)


@pytest.mark.parametrize("m,k", [(3, 2), (4, 2), (4, 3), (5, 1), (2, 3)])
def test_mask_counts(m, k):
    assert injective_mask(m, k).sum() == math.perm(m, k)
    assert len(sorted_subsets(m, k)) == math.comb(m, k)


def test_injective_mask_peak_memory_stays_near_the_mask():
    # no (k, m, ..., m) index grid: the pairwise comparisons broadcast columns
    tracemalloc.start()
    try:
        mask = injective_mask(2000, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * mask.nbytes


def test_sorted_subsets_cache_keeps_sweep_sizes_and_releases_large_ones():
    sweep = [sorted_subsets(m, 2) for m in range(2, 41)]
    # about 18 MB, more than the whole cache may hold
    large = sorted_subsets(1500, 2)
    assert large.nbytes > SUBSET_CACHE_BYTES
    alive = weakref.ref(large)
    del large
    assert alive() is None
    # the 39 sizes of a validity sweep are all still cached
    assert all(sorted_subsets(m, 2) is rows for m, rows in zip(range(2, 41), sweep))


def test_sorted_subsets_cache_holds_no_large_size(monkeypatch):
    # a smaller budget makes the large sizes cheap to build under tracemalloc
    monkeypatch.setattr(indexing, "SUBSET_CACHE_BYTES", 2**20)
    tracemalloc.start()
    try:
        for m in (400, 401, 402):
            assert sorted_subsets(m, 2).nbytes > 2**20
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**16


def test_sorted_subsets_cache_drops_least_recently_used(monkeypatch):
    row = 2 * np.dtype(np.intp).itemsize
    monkeypatch.setattr(indexing, "_subset_cache", type(indexing._subset_cache)())
    # room for C(10, 2) + C(11, 2) = 45 + 55 rows, not for C(9, 2) = 36 more
    monkeypatch.setattr(indexing, "SUBSET_CACHE_BYTES", 110 * row)
    ten, eleven = sorted_subsets(10, 2), sorted_subsets(11, 2)
    assert sorted_subsets(10, 2) is ten  # now the most recently used
    large = sorted_subsets(100, 2)  # 4950 rows: more than the cache holds
    assert list(indexing._subset_cache) == [(11, 2), (10, 2)]
    assert sorted_subsets(100, 2) is not large
    assert np.array_equal(sorted_subsets(100, 2), large)
    sorted_subsets(9, 2)
    assert list(indexing._subset_cache) == [(10, 2), (9, 2)]
    assert sorted_subsets(11, 2) is not eleven
    assert np.array_equal(sorted_subsets(11, 2), eleven)


def test_canonical_order_choice_is_cached_with_its_subsets():
    m, k = 7, 3
    canonical = OrderChoice.canonical(m, k)
    assert canonical is canonical_order_choice(m, k)
    # the canonical order choice holds the subsets array itself
    assert canonical.orders is sorted_subsets(m, k)
    assert not canonical.orders.flags.writeable
    with pytest.raises(ValueError):
        canonical.orders[0, 0] = 1
    with pytest.raises(ValueError, match=r"arity k=9 outside"):
        OrderChoice.canonical(12, 9)


def _cached_arrays():
    return [c.orders for c in indexing._subset_cache.values()]


def test_canonical_order_choice_cache_stays_within_its_budget(monkeypatch):
    monkeypatch.setattr(indexing, "_subset_cache", type(indexing._subset_cache)())
    monkeypatch.setattr(indexing, "SUBSET_CACHE_BYTES", 2**16)
    for m in range(2, 41):
        OrderChoice.canonical(m, 2)
        assert sum(r.nbytes for r in _cached_arrays()) <= indexing.SUBSET_CACHE_BYTES
    assert (40, 2) in indexing._subset_cache and (2, 2) not in indexing._subset_cache
    # at this budget the subsets of m = 100 do not fit, so neither they nor
    # the canonical choice holding them are kept, and nothing else is dropped
    kept = list(indexing._subset_cache)
    tracemalloc.start()
    try:
        for m in (100, 101, 102):
            assert OrderChoice.canonical(m, 2).orders.nbytes > indexing.SUBSET_CACHE_BYTES
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**14
    assert list(indexing._subset_cache) == kept


def test_validity_sweep_cache_entries_stay_small(monkeypatch):
    monkeypatch.setattr(indexing, "_subset_cache", type(indexing._subset_cache)())
    # every (m, k) entry a k = 2 validity sweep over m = 2..40 reads
    for m in range(2, 41):
        OrderChoice.canonical(m, 2)
    assert len(indexing._subset_cache) == 39
    assert sum(r.nbytes for r in _cached_arrays()) < 2**18


def test_mask_budget(monkeypatch):
    monkeypatch.setattr(indexing, "DEFAULT_CELL_BUDGET", 100)
    with pytest.raises(CellBudgetError):
        injective_mask(10, 3)


# ---------------------------------------------------------------------------
# label tensors


def test_label_tensor_partite_roundtrip():
    codes = np.arange(9).reshape(3, 3)
    t = LabelTensor.from_codes(PARTITE, 2, 3, tuple(range(9)), codes)
    assert t.codes.size == 9
    assert t.codes[2, 0] == 6
    assert t.alphabet[t.codes[2, 0]] == 6


def test_label_tensor_rejects_bad_codes():
    codes = np.array([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        LabelTensor.from_codes(PARTITE, 2, 2, (0, 1), codes)


def test_label_tensor_sentinel_enforced():
    codes = np.zeros((3, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        LabelTensor.from_codes(NONPARTITE, 2, 3, (0, 1), codes)
    codes[np.diag_indices(3)] = SENTINEL
    t = LabelTensor.from_codes(NONPARTITE, 2, 3, (0, 1), codes)
    assert t.codes[1, 1] == SENTINEL
    assert t.alphabet[t.codes[0, 1]] == 0


@pytest.mark.parametrize("mode", [PARTITE, NONPARTITE])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_label_tensor_at_m_zero(mode, k):
    # the general validation holds for an empty tensor; nonpartite tensors
    # hold their (empty) injective mask at m = 0 as at every other m
    t = LabelTensor(mode, k, 0, (0, 1), np.zeros((0,) * k, dtype=np.int64))
    assert t.codes.shape == (0,) * k
    if mode == NONPARTITE:
        assert t.injective.shape == (0,) * k
    else:
        assert t.injective is None


def test_label_tensor_budget(monkeypatch):
    monkeypatch.setattr(indexing, "DEFAULT_CELL_BUDGET", 10**6)
    with pytest.raises(CellBudgetError):
        LabelTensor.from_codes(PARTITE, 4, 100, (0, 1), np.zeros((100,) * 4))


def test_labeled_sample_shape_mismatch():
    sp = Sample.partite([[0.1, 0.2], [0.3, 0.4]])
    t = make_tensor(PARTITE, 2, 3)
    with pytest.raises(ValueError):
        LabeledSample(sp, t)


# ---------------------------------------------------------------------------
# injection vectors and subsampling


def test_injection_identity_and_top():
    ident = InjectionVector.identity(PARTITE, 2, 4)
    assert ident.size == 4 and ident.maps == ((0, 1, 2, 3),) * 2
    top = InjectionVector.top(PARTITE, 2, 5, 2)
    assert top.maps == ((3, 4), (3, 4))
    topn = InjectionVector.top(NONPARTITE, 3, 5, 2)
    assert topn.maps == ((3, 4),)


def test_injection_validation():
    with pytest.raises(ValueError):
        InjectionVector(PARTITE, 3, ((0, 0),))
    with pytest.raises(ValueError):
        InjectionVector(NONPARTITE, 3, ((0,), (1,)))
    with pytest.raises(IndexError):
        InjectionVector(PARTITE, 3, ((0, 3),))
    with pytest.raises(ValueError):
        InjectionVector.top(PARTITE, 2, 3, 4)


def test_injection_refuses_non_integer_entries():
    # a float entry would be truncated by subsample while the record kept it
    with pytest.raises(TypeError, match=r"^index 0\.5 is not an integer$"):
        InjectionVector(PARTITE, 3, ((0.5, 2.7), (1, 2)))
    with pytest.raises(TypeError, match=r"^index 1\.0 is not an integer$"):
        check_injection((0, 1.0), 3)
    # numpy integers are integers
    inj = InjectionVector(PARTITE, 3, ((np.int64(0), np.int64(2)), (np.intp(1), 2)))
    sub = subsample(make_tensor(PARTITE, 2, 3), inj)
    assert sub.m == 2


def test_injection_random_is_injective():
    rng = np.random.default_rng(5)
    inj = InjectionVector.random(PARTITE, 3, 10, 4, rng)
    assert len(inj.maps) == 3 and inj.size == 4
    for mp in inj.maps:
        assert len(set(mp)) == 4
        assert all(0 <= v < 10 for v in mp)


def test_injection_compose():
    outer = InjectionVector(PARTITE, 5, ((4, 1, 3), (0, 2, 4)))
    inner = InjectionVector(PARTITE, 3, ((2, 0), (1, 2)))
    comp = outer.compose(inner)
    assert comp.m == 5
    assert comp.maps == ((3, 4), (2, 4))
    with pytest.raises(ValueError):
        inner.compose(outer)


def test_subsample_partite_example():
    # y[i, j] = 3 i + j on a 3x3 grid; restrict both sides along (2, 0).
    codes = np.arange(9).reshape(3, 3)
    t = LabelTensor.from_codes(PARTITE, 2, 3, tuple(range(9)), codes)
    inj = InjectionVector(PARTITE, 3, ((2, 0), (2, 0)))
    sub = subsample(t, inj)
    assert sub.m == 2
    assert sub.codes[0, 1] == t.codes[2, 0]
    expected = np.array([[8, 6], [2, 0]])
    assert np.array_equal(sub.codes, expected)


def test_subsample_labeled_sample():
    sp = Sample.partite([[10.0, 11.0, 12.0], [20.0, 21.0, 22.0]])
    t = make_tensor(PARTITE, 2, 3)
    z = LabeledSample(sp, t)
    inj = InjectionVector(PARTITE, 3, ((1, 2), (0, 2)))
    sub = subsample(z, inj)
    assert np.allclose(sub.sample.sides[0], [11.0, 12.0])
    assert np.allclose(sub.sample.sides[1], [20.0, 22.0])
    assert sub.labels.codes[0, 1] == t.codes[1, 2]


def test_subsample_nonpartite_keeps_sentinels():
    t = make_tensor(NONPARTITE, 2, 4)
    inj = InjectionVector(NONPARTITE, 4, ((3, 1),))
    sub = subsample(t, inj)
    assert sub.codes[0, 0] == SENTINEL
    assert sub.codes[0, 1] == t.codes[3, 1]
    assert sub.codes[1, 0] == t.codes[1, 3]


def test_subsample_mode_mismatch():
    t = make_tensor(PARTITE, 2, 3)
    inj = InjectionVector(NONPARTITE, 3, ((0, 1),))
    with pytest.raises(ValueError):
        subsample(t, inj)
    with pytest.raises(TypeError):
        subsample([1, 2, 3], InjectionVector.identity(PARTITE, 1, 3))


def test_subsample_empty_injection():
    t = make_tensor(NONPARTITE, 2, 4)
    inj = InjectionVector.top(NONPARTITE, 2, 4, 0)
    sub = subsample(t, inj)
    assert sub.m == 0 and sub.codes.shape == (0, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subsample_identity_and_composition(data):
    mode = data.draw(st.sampled_from([PARTITE, NONPARTITE]))
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(k if mode == NONPARTITE else 1, 6))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    t = make_tensor(mode, k, m, rng=rng)

    ident = InjectionVector.identity(mode, k, m)
    assert np.array_equal(subsample(t, ident).codes, t.codes)

    s = data.draw(st.integers(k if mode == NONPARTITE else 0, m))
    r = data.draw(st.integers(k if mode == NONPARTITE else 0, s))
    alpha = random_injection(mode, k, m, s, rng)
    beta = random_injection(mode, k, s, r, rng)
    two_step = subsample(subsample(t, alpha), beta)
    one_step = subsample(t, alpha.compose(beta))
    assert np.array_equal(two_step.codes, one_step.codes)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subsample_labels_pass_the_tensor_check(data):
    # subsample builds its tensor without LabelTensor's check, as valid by
    # construction: the public constructor accepts its fields, and builds
    # from them the injective mask it holds
    mode = data.draw(st.sampled_from([PARTITE, NONPARTITE]))
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    t = make_tensor(mode, k, m, n_labels=3, rng=rng)
    sub = subsample(t, random_injection(mode, k, m, data.draw(st.integers(0, m)), rng))
    checked = LabelTensor(sub.mode, sub.k, sub.m, sub.alphabet, sub.codes)
    assert (checked.mode, checked.k, checked.m, checked.alphabet) == (mode, k, sub.m, t.alphabet)
    assert checked.codes.dtype == sub.codes.dtype == np.int64
    assert np.array_equal(checked.codes, sub.codes)
    if mode == PARTITE:
        assert sub.injective is None
    else:
        assert np.array_equal(checked.injective, sub.injective)


# ---------------------------------------------------------------------------
# order choices and orientation bundles


def test_order_choice_canonical():
    oc = canonical_order_choice(4, 2)
    assert oc.orders.shape == (math.comb(4, 2), 2)
    assert [tuple(r) for r in oc.orders.tolist()] == list(itertools.combinations(range(4), 2))


def test_order_choice_random_valid():
    rng = np.random.default_rng(3)
    [oc] = OrderChoice.random(5, 3, [rng])
    assert oc.orders.shape == (math.comb(5, 3), 3)
    for u, val in zip(itertools.combinations(range(5), 3), oc.orders.tolist()):
        assert tuple(sorted(val)) == u
    # a random order choice that is silently canonical would never test
    # the order-choice invariance the validity audit promises
    assert not np.all(np.diff(oc.orders, axis=1) > 0)


# rows of an order choice that is not one, each with the message naming its
# first bad row; valid rows are reversed, so only the bad ones are rejected
BAD_ORDERINGS = {
    2: [
        # subsets (0, 1), (0, 2), (1, 2)
        ([[1, 1], [2, 0], [2, 1]], "ordering (1, 1) is not a permutation of subset (0, 1)"),
        ([[1, 0], [2, 1], [2, 1]], "ordering (2, 1) is not a permutation of subset (0, 2)"),
        ([[1, 0], [2, 0], [3, 1]], "ordering (3, 1) is not a permutation of subset (1, 2)"),
        ([[1, 0], [-1, 2], [2, 1]], "ordering (-1, 2) is not a permutation of subset (0, 2)"),
        ([[2, 0], [1, 0], [2, 1]], "ordering (2, 0) is not a permutation of subset (0, 1)"),
    ],
    3: [
        # subsets (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
        ([[2, 1, 0], [1, 1, 3], [3, 2, 0], [1, 1, 3]],
         "ordering (1, 1, 3) is not a permutation of subset (0, 1, 3)"),
        ([[2, 1, 0], [3, 1, 0], [3, 2, 1], [3, 2, 1]],
         "ordering (3, 2, 1) is not a permutation of subset (0, 2, 3)"),
        ([[2, 1, 0], [3, 1, 0], [3, 2, 0], [4, 2, 1]],
         "ordering (4, 2, 1) is not a permutation of subset (1, 2, 3)"),
        ([[3, 1, 0], [2, 1, 0], [3, 2, 0], [3, 2, 1]],
         "ordering (3, 1, 0) is not a permutation of subset (0, 1, 2)"),
    ],
}


def test_order_choice_validation():
    with pytest.raises(ValueError, match=r"shape \(1, 2\), expected"):
        OrderChoice(3, 2, np.array([[0, 1]]))
    for k, cases in BAD_ORDERINGS.items():
        m = k + 1
        for rows, message in cases:
            with pytest.raises(ValueError) as caught:
                OrderChoice(m, k, np.array(rows))
            assert str(caught.value) == message
            # the same rows less the bad ones are an order choice
            fixed = [r if sorted(r) == list(s) else list(s)
                     for r, s in zip(rows, itertools.combinations(range(m), k))]
            assert OrderChoice(m, k, np.array(fixed)).orders.tolist() == fixed


class _FixedPermutation:
    """Stands in for a generator whose permutation of any subsets is rows."""

    def __init__(self, rows):
        self.rows = rows

    def permuted(self, x, axis):
        return np.array(self.rows)


def test_stacked_order_check_names_the_bad_row_of_any_slot():
    for k, cases in BAD_ORDERINGS.items():
        m = k + 1
        for rows, message in cases:
            for slot in range(5):
                rngs = [np.random.default_rng(j) for j in range(5)]
                rngs[slot] = _FixedPermutation(rows)
                with pytest.raises(ValueError) as caught:
                    OrderChoice.random(m, k, rngs)
                assert str(caught.value) == message


def test_order_choice_refuses_non_integer_orderings():
    # a float ordering would be truncated to a permutation and pass
    with pytest.raises(ValueError, match=r"^order choice has dtype float64, expected integers$"):
        OrderChoice(2, 2, np.array([[0.7, 1.3]]))
    with pytest.raises(ValueError, match=r"dtype bool"):
        OrderChoice(2, 2, np.array([[False, True]]))
    with pytest.raises(ValueError, match=r"dtype float64"):
        OrderChoice.random(2, 2, [np.random.default_rng(0), _FixedPermutation([[0.7, 1.3]])])
    for dtype in (np.int32, np.uint8, np.int64):
        assert OrderChoice(2, 2, np.array([[1, 0]], dtype=dtype)).orders.tolist() == [[1, 0]]


def test_random_order_choices_draw_each_stream_in_full():
    # one call over several streams gives each stream's own ordering, read-only
    subsets = sorted_subsets(6, 3)
    choices = OrderChoice.random(6, 3, [np.random.default_rng(j) for j in range(4)])
    assert len(choices) == 4
    for j, oc in enumerate(choices):
        assert (oc.m, oc.k) == (6, 3)
        assert np.array_equal(oc.orders, np.random.default_rng(j).permuted(subsets, axis=1))
        assert not oc.orders.flags.writeable
    assert OrderChoice.random(6, 3, []) == []


def test_bundle_orientations_example():
    # m=3, k=2 tensor with codes 3 i + j off the diagonal.
    codes = np.arange(9).reshape(3, 3).copy()
    codes[np.diag_indices(3)] = SENTINEL
    t = LabelTensor.from_codes(NONPARTITE, 2, 3, tuple(range(9)), codes)

    # columns follow the subsets (0, 1), (0, 2), (1, 2)
    oc = OrderChoice(3, 2, np.array([[0, 1], [2, 0], [1, 2]]))
    bundles = bundle_orientations(t, oc)
    assert bundles.shape == (math.factorial(2), math.comb(3, 2))
    # subset {0, 2} is read in order (2, 0): identity perm gives y[2,0],
    # the swap gives y[0,2]
    assert bundles[:, 1].tolist() == [t.alphabet[t.codes[2, 0]], t.alphabet[t.codes[0, 2]]]
    assert bundles[:, 1].tolist() == [6, 2]
    assert bundles[:, 0].tolist() == [1, 3]


def test_bundle_orientations_shape():
    t = make_tensor(NONPARTITE, 3, 5)
    bundles = bundle_orientations(t, canonical_order_choice(5, 3))
    assert bundles.shape == (math.factorial(3), math.comb(5, 3))


def test_bundle_orientations_guards():
    tp = make_tensor(PARTITE, 2, 3)
    with pytest.raises(ValueError):
        bundle_orientations(tp, canonical_order_choice(3, 2))
    tn = make_tensor(NONPARTITE, 2, 3)
    with pytest.raises(ValueError):
        bundle_orientations(tn, canonical_order_choice(4, 2))
