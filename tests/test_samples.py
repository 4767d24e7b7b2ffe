"""Tests for measures, hypotheses, labeling, ERM, and serialization."""

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
    InjectionVector,
    LabeledSample,
    Sample,
    injective_mask,
    subsample,
)
from kcompress.losses import zero_one_nonpartite, zero_one_partite
from kcompress.samples import (
    FiniteDiscrete,
    Hypothesis,
    HypothesisClass,
    KeyedGenerator,
    ProductMeasure,
    Uniform01,
    _ascending_columns,
    box_ends,
    box_of_ends,
    coordinate_sum,
    derive_seed,
    describe_boxes,
    describe_thresholds,
    draw_sample,
    encode_labels,
    erm_realizability_check,
    label_sample,
    labeled_sample_from_json,
    labeled_sample_to_json,
    minimal_enclosing_box,
    side_keys,
    spawn_rng,
    stream_keys,
    threshold_hypothesis,
    threshold_of,
)


# ---------------------------------------------------------------------------
# randomness plumbing


def test_spawn_rng_deterministic():
    a = spawn_rng(7, 1, 2).random(5)
    b = spawn_rng(7, 1, 2).random(5)
    assert np.array_equal(a, b)
    c = spawn_rng(7, 1, 3).random(5)
    assert not np.array_equal(a, c)


def test_derive_seed_deterministic():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert 0 <= derive_seed(0) < 2**64


def seed_sequence_state(seed, path, n_words):
    ss = np.random.SeedSequence(seed, spawn_key=tuple(path))
    return ss.generate_state(n_words, np.uint64)


@st.composite
def batched_paths(draw):
    """(seed, prefix, column, suffix): a column of 32-bit path words that
    holds both extremes, between scalar path words up to 2**40."""
    seed = draw(st.integers(0, 2**70 - 1))
    prefix = draw(st.lists(st.integers(0, 2**40), max_size=3))
    column = draw(st.lists(st.integers(0, 2**32 - 1), max_size=6)) + [0, 2**32 - 1]
    suffix = draw(st.lists(st.integers(0, 2**40), max_size=1))
    return seed, prefix, draw(st.permutations(column)), suffix


@settings(max_examples=60, deadline=None)
@given(batched_paths())
def test_batched_derivation_matches_seed_sequence(case):
    seed, prefix, column, suffix = case
    col = np.asarray(column, dtype=np.int64)
    seeds = derive_seed(seed, *prefix, col, *suffix)
    keys = stream_keys(seed, *prefix, col, *suffix)
    assert seeds.dtype == np.uint64 and seeds.shape == (len(column),)
    assert keys.dtype == np.uint64 and keys.shape == (len(column), 2)
    for j, c in enumerate(column):
        path = [*prefix, c, *suffix]
        assert int(seeds[j]) == int(seed_sequence_state(seed, path, 1)[0])
        assert int(seeds[j]) == derive_seed(seed, *path)
        assert keys[j].tolist() == seed_sequence_state(seed, path, 2).tolist()
        assert stream_keys(seed, *path).tolist() == seed_sequence_state(seed, path, 2).tolist()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8), st.integers(1, 4))
def test_batched_side_keys_match_seed_sequence(seeds, n_sides):
    seeds = [0, 1, 2**32 - 1, 2**32, *seeds]
    arr = np.asarray(seeds, dtype=np.uint64)
    keys = stream_keys(arr[:, None], np.arange(n_sides))
    assert keys.shape == (len(seeds), n_sides, 2)
    for j, s in enumerate(seeds):
        for i in range(n_sides):
            assert keys[j, i].tolist() == seed_sequence_state(s, [i], 2).tolist()
    # a seed array without a path is a batch of root seeds
    assert derive_seed(arr).tolist() == [derive_seed(s) for s in seeds]


def test_batched_derivation_refuses_words_it_would_hash_differently():
    for bad in ([2**32], [-1], [0, 2**32 + 5]):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            derive_seed(7, 1, np.asarray(bad, dtype=np.int64))
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream_keys(7, np.asarray(bad, dtype=np.int64), 0)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        derive_seed(np.asarray([-3]), 1)
    with pytest.raises(TypeError):
        derive_seed(7, np.asarray([0.5]))
    with pytest.raises(ValueError):
        derive_seed(-1, np.arange(3))
    # the largest word is still accepted, the scalar path takes any size
    assert derive_seed(7, np.asarray([2**32 - 1]))[0] == derive_seed(7, 2**32 - 1)
    assert derive_seed(7, 2**32) == int(seed_sequence_state(7, [2**32], 1)[0])


def test_mirror_hashes_only_uint32_operands():
    # a Python int operand would promote a uint32 scalar to int64 under
    # NumPy 1's value-based promotion, and the hash would stop wrapping
    from kcompress import samples

    for c in (samples._INIT_A, samples._MULT_A, samples._INIT_B, samples._MULT_B,
              samples._MIX_MULT_L, samples._MIX_MULT_R, samples._XSHIFT):
        assert type(c) is np.uint32
    with np.errstate(over="ignore"):
        v, h = samples._hashmix(np.uint32(2**32 - 1), samples._INIT_A)
        assert type(v) is np.uint32 and type(h) is np.uint32
        assert type(samples._mix(v, h)) is np.uint32


def test_keyed_generator_replays_spawned_streams(numpy_stream):
    rng = KeyedGenerator()
    d = FiniteDiscrete((0.1, 0.5, 0.9), (0.2, 0.3, 0.5))
    for seed, path in [(0, (0,)), (31, (1, 2, 5)), (2**40 + 3, (7,)), (2**64 + 5, (2**32 + 1, 3))]:
        key = stream_keys(seed, *path)
        want = numpy_stream(seed, *path).random(9)
        assert np.array_equal(rng.at(key).random(9), want)
        assert np.array_equal(spawn_rng(seed, *path).random(9), want)
        # a half-used 64-bit word and a partly read buffer do not leak
        # into the next stream
        rng.at(key).integers(0, 2**32, 3, dtype=np.uint32)
        assert np.array_equal(
            rng.at(key.tolist()).integers(0, 2**32, 5, dtype=np.uint32),
            numpy_stream(seed, *path).integers(0, 2**32, 5, dtype=np.uint32),
        )
        # FiniteDiscrete.draw goes through Generator.choice
        assert np.array_equal(d.draw(rng.at(key), 40), d.draw(numpy_stream(seed, *path), 40))


@pytest.mark.parametrize(
    "mu",
    [
        ProductMeasure.uniform(PARTITE, 3),
        ProductMeasure.uniform(NONPARTITE, 2),
        ProductMeasure(PARTITE, 2, (FiniteDiscrete((0.25, 0.75), (0.5, 0.5)),) * 2),
    ],
    ids=["partite-k3", "nonpartite", "discrete"],
)
def test_draw_sample_with_batch_keys_equals_spawned_draw(mu, numpy_stream):
    n_sides = mu.k if mu.mode == PARTITE else 1
    seeds = derive_seed(5, 0, np.arange(4))
    keys = side_keys(mu, seeds)
    rng = KeyedGenerator()
    for j, seed in enumerate(seeds.tolist()):
        want = [d.draw(numpy_stream(seed, i), 12) for i, d in enumerate(mu.distributions)]
        for got in (
            draw_sample(mu, 12, seed),
            draw_sample(mu, 12, seed, rng=rng),
            draw_sample(mu, 12, keys=keys[j], rng=rng),
        ):
            assert len(got.sides) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got.sides, want))
    # a scalar seed of any size, beyond the 2**64 of a batch's seed array
    for seed in (2**64, 2**64 + 9, 2**200 + 1):
        want = [d.draw(numpy_stream(seed, i), 12) for i, d in enumerate(mu.distributions)]
        got = draw_sample(mu, 12, seed, rng=rng)
        assert all(np.array_equal(a, b) for a, b in zip(got.sides, want))
    assert len(keys[0]) == n_sides
    with pytest.raises(ValueError, match="side keys"):
        draw_sample(mu, 12, keys=keys[0] + [[1, 2]], rng=rng)
    for seed, trial_keys in ((None, None), (0, keys[0])):
        with pytest.raises(ValueError, match="exactly one of seed and keys"):
            draw_sample(mu, 12, seed, keys=trial_keys, rng=rng)


def test_draw_sample_deterministic_and_per_side():
    mu = ProductMeasure.uniform(PARTITE, 2)
    x1 = draw_sample(mu, 10, seed=42)
    x2 = draw_sample(mu, 10, seed=42)
    assert all(np.array_equal(a, b) for a, b in zip(x1.sides, x2.sides))
    # sides use distinct streams
    assert not np.array_equal(x1.sides[0], x1.sides[1])
    # the first points of a longer draw agree with a shorter draw per side
    x3 = draw_sample(mu, 4, seed=42)
    assert np.array_equal(x3.sides[0], x1.sides[0][:4])


def test_draw_sample_nonpartite():
    mu = ProductMeasure.uniform(NONPARTITE, 3)
    x = draw_sample(mu, 5, seed=0)
    assert x.mode == NONPARTITE and x.k == 3 and x.m == 5
    assert len(x.sides) == 1
    with pytest.raises(ValueError):
        draw_sample(mu, -1, seed=0)


def test_finite_discrete_point_mass():
    d = FiniteDiscrete((0.5,), (1.0,))
    draws = d.draw(np.random.default_rng(0), 100)
    assert np.all(draws == 0.5)


def test_finite_discrete_frequencies():
    d = FiniteDiscrete((0.0, 1.0), (0.3, 0.7))
    n = 100_000
    draws = d.draw(spawn_rng(123), n)
    freq = float(np.mean(draws == 1.0))
    assert abs(freq - 0.7) <= 3 * math.sqrt(0.7 * 0.3 / n)


def test_finite_discrete_validation():
    with pytest.raises(ValueError):
        FiniteDiscrete((0.1, 0.1), (0.5, 0.5))
    with pytest.raises(ValueError):
        FiniteDiscrete((0.1, 0.2), (0.5, 0.6))
    with pytest.raises(ValueError):
        FiniteDiscrete((), ())


@pytest.mark.parametrize(
    "values, weights, reason",
    [
        ((0.25, 0.75), (math.nan, 1.0), "weights must be finite"),
        ((0.25, 0.75), (0.25, math.nan), "weights must be finite"),
        ((0.25, 0.75), (math.inf, -math.inf), "weights must be finite"),
        ((math.nan, 0.75), (0.5, 0.5), "atoms must be finite"),
        ((math.inf, 0.75), (0.5, 0.5), "atoms must be finite"),
        ((0.25, -math.inf), (0.5, 0.5), "atoms must be finite"),
    ],
)
def test_finite_discrete_rejects_non_finite_atoms_and_weights(values, weights, reason):
    # a NaN weight fails every comparison, so a sum check alone lets it through
    with pytest.raises(ValueError, match=reason):
        FiniteDiscrete(values, weights)


def test_product_measure_shape():
    with pytest.raises(ValueError):
        ProductMeasure(PARTITE, 2, (Uniform01(),))
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    assert len(mu.distributions) == 1 and mu.is_uniform
    coin = FiniteDiscrete((0.25, 0.75), (0.5, 0.5))
    assert not ProductMeasure(PARTITE, 2, (Uniform01(), coin)).is_uniform


# ---------------------------------------------------------------------------
# hypotheses


def test_rectangle_value_and_grid():
    F = Hypothesis.rectangle([(0.0, 0.5), (0.0, 0.5)])
    x = Sample.partite([[0.1, 0.9], [0.2, 0.8]])
    grid = F.label_grid(list(x.sides))
    assert np.array_equal(grid, [[1, 0], [0, 0]])
    assert F.value((0.5, 0.5)) == 1  # closed boundary
    assert F.value((0.50001, 0.2)) == 0


def test_empty_rectangle():
    F = Hypothesis.empty_rectangle(2)
    assert F.value((0.3, 0.3)) == 0
    assert np.all(F.label_grid([np.array([0.1]), np.array([0.2])]) == 0)
    with pytest.raises(ValueError):
        Hypothesis.rectangle(None)
    with pytest.raises(ValueError):
        Hypothesis.rectangle([(0.5, 0.1)])


@pytest.mark.parametrize(
    "side", [(math.nan, math.nan), (0.2, math.nan), (math.nan, 0.2)], ids=str
)
def test_rectangle_refuses_nan_ends(side):
    # a NaN end would make a box that labels every point 0 but does not
    # describe itself as the empty box
    with pytest.raises(ValueError, match="not lo <= hi"):
        Hypothesis.rectangle([side])
    with pytest.raises(ValueError, match="not lo <= hi"):
        Hypothesis.rectangle([(0.0, 1.0), side])


def test_box_and_threshold_rows_round_trip():
    # the rows the concentration engine holds hypotheses as, and their text
    boxes = [
        Hypothesis.rectangle([(0.1, 0.5), (-0.0, 0.0)]),
        Hypothesis.empty_rectangle(2),
        Hypothesis.rectangle([(0.0, 1.0), (1 / 3, 0.5)]),
    ]
    ends = np.stack([box_ends(H) for H in boxes])
    assert ends.shape == (3, 2, 2)
    assert ends[1].tolist() == [[math.inf, -math.inf]] * 2
    assert describe_boxes(ends) == [H.describe() for H in boxes]
    for H, e in zip(boxes, ends):
        assert box_of_ends(2, e).intervals == H.intervals
    members = [
        Hypothesis.sum_threshold(2, 0.75), Hypothesis.constant(2, 0),
        Hypothesis.sum_threshold(2, 1e-9),
    ]
    ts = np.array([threshold_of(H) for H in members])
    assert ts.tolist() == [0.75, math.inf, 1e-9]
    assert describe_thresholds(ts) == [H.describe() for H in members]
    for H, t in zip(members, ts.tolist()):
        assert threshold_hypothesis(2, t).describe() == H.describe()


def test_sum_threshold_boundary():
    F = Hypothesis.sum_threshold(2, 1.0)
    assert F.value((0.5, 0.5)) == 1  # >= at the threshold
    assert F.value((0.5, 0.49)) == 0
    cols = [np.array([0.5, 0.5]), np.array([0.5, 0.49])]
    assert np.array_equal(F.eval_columns(cols), [1, 0])


def test_constant_and_table():
    C = Hypothesis.constant(2, 1)
    assert C.value((0.1, 0.9)) == 1
    T = Hypothesis.table(2, [(0.0, 1.0)], [0, 1, 1, 0])
    assert T.value((0.0, 1.0)) == 1
    assert T.value((1.0, 1.0)) == 0
    grid = T.label_grid([np.array([0.0, 1.0]), np.array([0.0, 1.0])])
    assert np.array_equal(grid.astype(int), [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        Hypothesis.table(2, [(0.0, 1.0)], [0, 1, 1])
    with pytest.raises(ValueError):
        T.value((0.5, 1.0))


def test_value_returns_the_python_types_of_each_kind():
    # value is eval_columns on one tuple; the label is a Python scalar of the
    # type a per-tuple rule returns: int for boxes and thresholds, the stored
    # object for a constant or a table
    cases = [
        (Hypothesis.rectangle([(0.0, 0.5), (0.0, 0.5)]), (0.5, 0.25), 1),
        (Hypothesis.rectangle([(0.0, 0.5), (0.0, 0.5)]), (0.5, 0.75), 0),
        (Hypothesis.empty_rectangle(2), (0.5, 0.25), 0),
        (Hypothesis.sum_threshold(2, 1.0), (0.5, 0.5), 1),
        (Hypothesis.sum_threshold(3, 1.0), (0.5, 0.25, 0.0), 0),
        (Hypothesis.constant(2, 1), (0.1, 0.9), 1),
        (Hypothesis.constant(2, True), (0.1, 0.9), True),
        (Hypothesis.constant(2, "spam"), (0.1, 0.9), "spam"),
        (Hypothesis.constant(2, 0.5), (0.1, 0.9), 0.5),
        (Hypothesis.table(2, [("a", "b")], ["no", "yes", "yes", "no"]), ("a", "b"), "yes"),
        (Hypothesis.table(2, [(0.0, 1.0)], [0, 1, 1, 0]), (1.0, 1.0), 0),
    ]
    for H, xs, want in cases:
        got = H.value(xs)
        assert got == want and type(got) is type(want), H.describe()
        assert got == H.eval_columns([np.asarray(x) for x in xs])


def test_eval_arity_checks():
    F = Hypothesis.sum_threshold(2, 1.0)
    with pytest.raises(ValueError):
        F.value((0.1,))
    with pytest.raises(ValueError):
        F.eval_columns([np.array([0.1])])


def test_encode_labels():
    codes = encode_labels(np.array([[0, 1], [1, 0]]), (0, 1))
    assert codes.dtype == np.int64 and np.array_equal(codes, [[0, 1], [1, 0]])
    codes = encode_labels(np.array(["a", "b"], dtype=object), ("b", "a"))
    assert np.array_equal(codes, [1, 0])
    with pytest.raises(ValueError):
        encode_labels(np.array([2]), (0, 1))
    with pytest.raises(ValueError):
        encode_labels(np.array(["c"], dtype=object), ("a", "b"))


def sort_coordinate_sum(cols):
    """The sum of each tuple's coordinates in the order np.sort puts them."""
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in cols))
    total = 0.0
    for c in np.sort(np.stack(cols), axis=0):
        total = total + c
    return total


# ties, signed zeros, and magnitudes far apart, so that the order of the
# additions changes the rounded sum
_SUM_ATOMS = (0.0, -0.0, 1e-17, 0.1, 0.2, 0.30000000000000004, 0.7, 1.0, 3.5, -2.25, 1e16, -1e16)


@pytest.mark.parametrize("k", range(3, MAX_ARITY + 1))
def test_coordinate_sum_network_equals_sort(k):
    rng = np.random.default_rng(k)
    m = 4 if k <= 6 else 3
    axes = [(m,) + (1,) * (k - 1 - i) for i in range(k)]
    cases = [
        [rng.random(m).reshape(shape) for shape in axes],
        [rng.choice(_SUM_ATOMS, m).reshape(shape) for shape in axes],
        [rng.random(3000) for _ in range(k)],
        [rng.choice(_SUM_ATOMS, 3000) for _ in range(k)],
        [rng.choice(_SUM_ATOMS[:3], 3000) for _ in range(k)],
    ]
    for cols in cases:
        got, want = coordinate_sum(cols), sort_coordinate_sum(cols)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    scalars = rng.choice(_SUM_ATOMS, k).tolist()
    got = coordinate_sum(scalars)
    assert type(got) is np.float64 and got == sort_coordinate_sum(scalars)


@pytest.mark.parametrize("k", range(1, MAX_ARITY + 1))
def test_coordinate_sum_network_sorts_every_zero_one_input(k):
    # a comparator network that sorts every 0-1 input sorts every input
    # (Knuth, TAOCP vol. 3, 5.3.4, Theorem Z)
    bits = np.asarray(list(itertools.product([0.0, 1.0], repeat=k)))
    out = np.stack(_ascending_columns(list(bits.T)), axis=1)
    assert np.array_equal(out, np.sort(bits, axis=1))


def test_coordinate_sum_peak_memory_at_k3():
    # no stacked copy of the k grids and no sorted copy of it: the network
    # holds at most k + 1 grids
    m = 100
    cols = [np.random.default_rng(0).random(m).reshape((m,) + (1,) * (2 - i)) for i in range(3)]
    tracemalloc.start()
    try:
        total = coordinate_sum(cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total.shape == (m, m, m)
    assert peak < 4.5 * total.nbytes


# ---------------------------------------------------------------------------
# labeling


def test_label_sample_partite_example():
    F = Hypothesis.rectangle([(0.0, 0.5), (0.0, 0.5)])
    x = Sample.partite([[0.1, 0.9], [0.2, 0.8]])
    z = label_sample(F, x)
    assert np.array_equal(z.labels.codes, [[1, 0], [0, 0]])
    assert z.labels.alphabet == (0, 1)


def test_label_sample_nonpartite_sentinels():
    F = Hypothesis.sum_threshold(2, 1.0)
    x = Sample.nonpartite([0.2, 0.5, 0.9], k=2)
    z = label_sample(F, x)
    c = z.labels.codes
    assert c[0, 0] == SENTINEL and c[1, 1] == SENTINEL and c[2, 2] == SENTINEL
    assert c[0, 1] == 0 and c[0, 2] == 1 and c[1, 2] == 1
    assert np.array_equal(c, c.T)  # a symmetric rule labels symmetrically


def test_label_sample_small_nonpartite_all_sentinel():
    F = Hypothesis.sum_threshold(3, 1.0)
    x = Sample.nonpartite([0.2, 0.5], k=3)
    z = label_sample(F, x)
    assert np.all(z.labels.codes == SENTINEL)


def test_label_sample_arity_mismatch():
    F = Hypothesis.sum_threshold(3, 1.0)
    x = Sample.partite([[0.1], [0.2]])
    with pytest.raises(ValueError):
        label_sample(F, x)


# ---------------------------------------------------------------------------
# hypothesis classes


def test_class_membership_and_sampling():
    rng = spawn_rng(9)
    boxes = HypothesisClass.rectangles(2)
    for _ in range(20):
        H = boxes.sample_hypothesis(rng)
        assert boxes.contains(H)
        assert all(0.0 <= lo <= hi <= 1.0 for lo, hi in H.intervals)
    thr = HypothesisClass.sum_thresholds(2)
    for _ in range(20):
        H = thr.sample_hypothesis(rng)
        assert thr.contains(H)
        assert 0.0 <= H.threshold <= 2.0
    assert thr.contains(Hypothesis.constant(2, 0))
    assert not thr.contains(Hypothesis.constant(2, 1))
    assert not boxes.contains(Hypothesis.rectangle([(0.0, 1.0)]))


def test_table_list_class():
    members = [Hypothesis.constant(2, 0), Hypothesis.constant(2, 1)]
    klass = HypothesisClass.table_list(PARTITE, 2, members)
    assert klass.contains(members[0])
    assert not klass.contains(Hypothesis.constant(2, 2))


# ---------------------------------------------------------------------------
# exact ERM


def box_erm_bruteforce(labeled):
    """Try every box with corners on sample coordinates, plus the empty box."""
    target = (labeled.labels.codes == 1).astype(np.int64)
    sides = list(labeled.sample.sides)
    if not target.any():
        return True
    candidates = []
    for side in sides:
        vals = sorted(set(side.tolist()))
        candidates.append(
            [(lo, hi) for lo in vals for hi in vals if lo <= hi]
        )
    for combo in itertools.product(*candidates):
        H = Hypothesis.rectangle(combo)
        if np.array_equal(H.label_grid(sides).astype(np.int64), target):
            return True
    return False


def test_erm_rectangle_realizable():
    F = Hypothesis.rectangle([(0.2, 0.4), (0.1, 0.3)])
    x = Sample.partite([[0.2, 0.4, 0.7], [0.3, 0.1, 0.9]])
    z = label_sample(F, x)
    ok, witness = erm_realizability_check(
        HypothesisClass.rectangles(2), z, zero_one_partite()
    )
    assert ok
    assert witness.kind == "rectangle"
    grid = witness.label_grid(list(x.sides))
    assert np.array_equal(grid.astype(np.int64), z.labels.codes)


def test_erm_rectangle_blocked_by_interior_negative():
    # positives at (0.2, 0.3) and (0.4, 0.1); the point (0.3, 0.2) sits
    # inside their minimal enclosing box, so labeling it 0 kills every box
    x = Sample.partite([[0.2, 0.4, 0.3], [0.3, 0.1, 0.2]])
    box = Hypothesis.rectangle([(0.2, 0.4), (0.1, 0.3)])
    codes = box.label_grid(list(x.sides)).astype(np.int64)
    assert codes[2, 2] == 1
    codes[2, 2] = 0
    z = label_sample_from_codes(x, codes)
    ok, witness = erm_realizability_check(
        HypothesisClass.rectangles(2), z, zero_one_partite()
    )
    assert not ok and witness is None
    assert not box_erm_bruteforce(z)


def label_sample_from_codes(x, codes):
    from kcompress.indexing import LabelTensor

    t = LabelTensor.from_codes(x.mode, x.k, x.m, (0, 1), codes)
    return LabeledSample(x, t)


def test_erm_rectangle_all_negative_gives_empty_box():
    x = Sample.partite([[0.2, 0.4], [0.3, 0.1]])
    z = label_sample(Hypothesis.empty_rectangle(2), x)
    ok, witness = erm_realizability_check(
        HypothesisClass.rectangles(2), z, zero_one_partite()
    )
    assert ok and witness.kind == "rectangle" and witness.describe() == "rectangle(empty)"
    assert witness.intervals == Hypothesis.empty_rectangle(2).intervals


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**16))
def test_erm_rectangle_matches_bruteforce(m, seed):
    rng = np.random.default_rng(seed)
    x = Sample.partite([rng.random(m), rng.random(m)])
    codes = rng.integers(2, size=(m, m))
    z = label_sample_from_codes(x, codes)
    ok, witness = erm_realizability_check(
        HypothesisClass.rectangles(2), z, zero_one_partite()
    )
    assert ok == box_erm_bruteforce(z)
    if ok:
        grid = witness.label_grid(list(x.sides))
        assert np.array_equal(grid.astype(np.int64), z.labels.codes)


def test_erm_threshold_binary_fractions():
    # pair sums 0.75, 0.375, 0.625 are exact in binary floating point
    x = Sample.nonpartite([0.25, 0.5, 0.125], k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 0.625), x)
    ok, witness = erm_realizability_check(
        HypothesisClass.sum_thresholds(2), z, zero_one_nonpartite()
    )
    assert ok
    assert witness.kind == "sum-threshold"
    assert witness.threshold == 0.625  # the minimal positive pair sum


def test_erm_threshold_blocked_by_sum_order():
    # y(0.1, 0.9) = 0 but y(0.2, 0.5) = 1 with 0.7 < 1.0: no threshold fits
    x = Sample.nonpartite([0.1, 0.9, 0.2, 0.5], k=2)
    codes = np.full((4, 4), SENTINEL, dtype=np.int64)
    inj = injective_mask(4, 2)
    codes[inj] = 0
    codes[2, 3] = codes[3, 2] = 1
    z = label_sample_from_codes(x, codes)
    ok, witness = erm_realizability_check(
        HypothesisClass.sum_thresholds(2), z, zero_one_nonpartite()
    )
    assert not ok and witness is None


def test_erm_threshold_mixed_bundle_not_realizable():
    # an asymmetric labeling cannot come from a symmetric threshold rule
    x = Sample.nonpartite([0.3, 0.6], k=2)
    codes = np.full((2, 2), SENTINEL, dtype=np.int64)
    codes[0, 1] = 1
    codes[1, 0] = 0
    z = label_sample_from_codes(x, codes)
    ok, witness = erm_realizability_check(
        HypothesisClass.sum_thresholds(2), z, zero_one_nonpartite()
    )
    assert not ok and witness is None


def test_erm_threshold_all_negative_and_tiny():
    x = Sample.nonpartite([0.1, 0.2], k=2)
    z = label_sample(Hypothesis.constant(2, 0), x)
    ok, witness = erm_realizability_check(
        HypothesisClass.sum_thresholds(2), z, zero_one_nonpartite()
    )
    assert ok and witness.kind == "constant" and witness.const_value == 0

    tiny = label_sample(Hypothesis.sum_threshold(2, 0.5), Sample.nonpartite([0.9], k=2))
    ok, witness = erm_realizability_check(
        HypothesisClass.sum_thresholds(2), tiny, zero_one_nonpartite()
    )
    assert ok  # no injective pair exists, anything fits


def test_erm_table_list():
    members = [Hypothesis.constant(2, 0), Hypothesis.constant(2, 1)]
    klass = HypothesisClass.table_list(PARTITE, 2, members)
    x = Sample.partite([[0.1, 0.2], [0.3, 0.4]])
    z = label_sample(Hypothesis.constant(2, 1), x)
    ok, witness = erm_realizability_check(klass, z, zero_one_partite())
    assert ok and witness is members[1]


def test_erm_rejects_wrong_loss_or_mode():
    x = Sample.partite([[0.1], [0.2]])
    z = label_sample(Hypothesis.empty_rectangle(2), x)
    with pytest.raises(ValueError):
        erm_realizability_check(HypothesisClass.rectangles(2), z, object())
    with pytest.raises(ValueError):
        erm_realizability_check(HypothesisClass.sum_thresholds(2), z, zero_one_nonpartite())


def test_minimal_enclosing_box():
    x = Sample.partite([[0.2, 0.7, 0.4], [0.3, 0.1, 0.5]])
    box = Hypothesis.rectangle([(0.2, 0.4), (0.1, 0.3)])
    z = label_sample(box, x)
    out = minimal_enclosing_box(z)
    assert out.intervals == ((0.2, 0.4), (0.1, 0.3))


# ---------------------------------------------------------------------------
# labeling commutes with subsampling


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_labeling_commutes_with_subsampling(data):
    mode = data.draw(st.sampled_from([PARTITE, NONPARTITE]))
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 6))
    s = data.draw(st.integers(0, m))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)

    if mode == PARTITE:
        F = HypothesisClass.rectangles(k).sample_hypothesis(rng)
    else:
        F = HypothesisClass.sum_thresholds(k).sample_hypothesis(rng)
    x = draw_sample(ProductMeasure.uniform(mode, k), m, seed=seed)
    inj = InjectionVector.random(mode, k, m, s, rng)

    label_then_cut = subsample(label_sample(F, x), inj)
    cut_then_label = label_sample(F, subsample(x, inj))
    assert np.array_equal(label_then_cut.labels.codes, cut_then_label.labels.codes)
    for a, b in zip(label_then_cut.sample.sides, cut_then_label.sample.sides):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("mode,k,m", [(PARTITE, 2, 3), (NONPARTITE, 2, 4), (NONPARTITE, 3, 3), (PARTITE, 1, 5)])
def test_json_roundtrip_bit_exact(mode, k, m):
    rng = np.random.default_rng(17)
    x = draw_sample(ProductMeasure.uniform(mode, k), m, seed=17)
    if mode == PARTITE:
        F = HypothesisClass.rectangles(k).sample_hypothesis(rng)
    else:
        F = HypothesisClass.sum_thresholds(k).sample_hypothesis(rng)
    z = label_sample(F, x)
    text = labeled_sample_to_json(z)
    back = labeled_sample_from_json(text)
    assert np.array_equal(back.labels.codes, z.labels.codes)
    for a, b in zip(back.sample.sides, z.sample.sides):
        assert np.array_equal(a, b)  # exact, not approximate
    assert labeled_sample_to_json(back) == text


def test_json_rejects_inconsistent_documents():
    x = Sample.partite([[0.1, 0.2], [0.3, 0.4]])
    z = label_sample(Hypothesis.empty_rectangle(2), x)
    text = labeled_sample_to_json(z)
    import json

    doc = json.loads(text)
    doc["m"] = 3
    with pytest.raises(ValueError):
        labeled_sample_from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["labels"] = doc["labels"][:-1]
    with pytest.raises(ValueError):
        labeled_sample_from_json(json.dumps(doc))
