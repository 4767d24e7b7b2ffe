"""Tests for the tuple/index calculus: subsampling, orders, bundles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcompress.indexing import (
    MAX_ARITY,
    NONPARTITE,
    PARTITE,
    SENTINEL,
    CellBudgetError,
    InjectionVector,
    LabelTensor,
    LabeledSample,
    OrderChoice,
    Sample,
    bundle_orientations,
    canonical_order_choice,
    check_index_tuple,
    enumerate_permutations,
    falling_factorial,
    injective_mask,
    sorted_subsets,
    subsample,
    tuple_points,
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


def test_falling_factorial_values():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 4) == 0
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(0, 0) == 1
    assert falling_factorial(4, 4) == 24


def test_falling_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorial(-1, 2)
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


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
    assert check_index_tuple([1, 0], 2, 3) == (1, 0)
    with pytest.raises(ValueError):
        check_index_tuple([1], 2, 3)
    with pytest.raises(IndexError):
        check_index_tuple([1, 3], 2, 3)
    with pytest.raises(ValueError):
        check_index_tuple([1, 1], 2, 3, injective=True)
    assert check_index_tuple([1, 1], 2, 3, injective=False) == (1, 1)


# ---------------------------------------------------------------------------
# samples and point selection


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


def test_tuple_points_partite():
    sp = Sample.partite([[10, 11, 12], [20, 21, 22]])
    assert tuple_points(sp, (2, 0)) == (12, 20)
    assert tuple_points(sp, (1, 1)) == (11, 21)


def test_tuple_points_nonpartite_requires_injective():
    sn = Sample.nonpartite([10, 11, 12], k=2)
    assert tuple_points(sn, (2, 0)) == (12, 10)
    with pytest.raises(ValueError):
        tuple_points(sn, (1, 1))


@pytest.mark.parametrize("m,k", [(3, 2), (4, 2), (4, 3), (5, 1), (2, 3)])
def test_mask_counts(m, k):
    assert injective_mask(m, k).sum() == falling_factorial(m, k)
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


def test_mask_budget():
    with pytest.raises(CellBudgetError):
        injective_mask(10, 3, budget=100)


# ---------------------------------------------------------------------------
# label tensors


def test_label_tensor_partite_roundtrip():
    codes = np.arange(9).reshape(3, 3)
    t = LabelTensor.from_codes(PARTITE, 2, 3, tuple(range(9)), codes)
    assert t.num_cells == 9
    assert t.code_at((2, 0)) == 6
    assert t.value_at((2, 0)) == 6


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
    assert t.code_at((1, 1)) == SENTINEL
    with pytest.raises(ValueError):
        t.value_at((1, 1))
    assert t.value_at((0, 1)) == 0


def test_label_tensor_budget():
    with pytest.raises(CellBudgetError):
        LabelTensor.from_codes(
            PARTITE, 4, 100, (0, 1), np.zeros((100,) * 4), budget=10**6
        )


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
    assert sub.code_at((0, 1)) == t.code_at((2, 0))
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
    assert sub.labels.code_at((0, 1)) == t.code_at((1, 2))


def test_subsample_nonpartite_keeps_sentinels():
    t = make_tensor(NONPARTITE, 2, 4)
    inj = InjectionVector(NONPARTITE, 4, ((3, 1),))
    sub = subsample(t, inj)
    assert sub.code_at((0, 0)) == SENTINEL
    assert sub.code_at((0, 1)) == t.code_at((3, 1))
    assert sub.code_at((1, 0)) == t.code_at((1, 3))


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


# ---------------------------------------------------------------------------
# order choices and orientation bundles


def test_order_choice_canonical():
    oc = canonical_order_choice(4, 2)
    assert oc.orders.shape == (math.comb(4, 2), 2)
    assert [tuple(r) for r in oc.orders.tolist()] == list(itertools.combinations(range(4), 2))


def test_order_choice_random_valid():
    rng = np.random.default_rng(3)
    oc = OrderChoice.random(5, 3, rng)
    assert oc.orders.shape == (math.comb(5, 3), 3)
    for u, val in zip(itertools.combinations(range(5), 3), oc.orders.tolist()):
        assert tuple(sorted(val)) == u
    # a random order choice that is silently canonical would never test
    # the order-choice invariance the validity audit promises
    assert not np.all(np.diff(oc.orders, axis=1) > 0)


def test_order_choice_validation():
    with pytest.raises(ValueError):
        OrderChoice(3, 2, np.array([[0, 1]]))
    with pytest.raises(ValueError):
        OrderChoice(3, 2, np.array([[0, 2], [0, 2], [1, 2]]))


def test_bundle_orientations_example():
    # m=3, k=2 tensor with codes 3 i + j off the diagonal.
    codes = np.arange(9).reshape(3, 3).copy()
    codes[np.diag_indices(3)] = SENTINEL
    t = LabelTensor.from_codes(NONPARTITE, 2, 3, tuple(range(9)), codes)

    # rows follow the subsets (0, 1), (0, 2), (1, 2)
    oc = OrderChoice(3, 2, np.array([[0, 1], [2, 0], [1, 2]]))
    bundles = bundle_orientations(t, oc)
    assert len(bundles) == math.comb(3, 2)
    # subset {0, 2} is read in order (2, 0): identity perm gives y[2,0],
    # the swap gives y[0,2]
    assert bundles[(0, 2)] == (t.value_at((2, 0)), t.value_at((0, 2)))
    assert bundles[(0, 2)] == (6, 2)
    assert bundles[(0, 1)] == (1, 3)


def test_bundle_orientations_shape():
    t = make_tensor(NONPARTITE, 3, 5)
    bundles = bundle_orientations(t, canonical_order_choice(5, 3))
    assert len(bundles) == math.comb(5, 3)
    assert all(len(v) == math.factorial(3) for v in bundles.values())


def test_bundle_orientations_guards():
    tp = make_tensor(PARTITE, 2, 3)
    with pytest.raises(ValueError):
        bundle_orientations(tp, canonical_order_choice(3, 2))
    tn = make_tensor(NONPARTITE, 2, 3)
    with pytest.raises(ValueError):
        bundle_orientations(tn, canonical_order_choice(4, 2))
