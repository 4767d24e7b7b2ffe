"""Tests for empirical and total loss functionals."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcompress.indexing import (
    NONPARTITE,
    PARTITE,
    OrderChoice,
    Sample,
    canonical_order_choice,
)
from kcompress.losses import (
    CI99_MULTIPLIER,
    LossSpec,
    _empirical_loss_nonpartite_generic,
    _pair_sum_upper_tail,
    empirical_loss_nonpartite,
    empirical_loss_partite,
    total_loss_exact_rectangles,
    total_loss_exact_sum_threshold,
    total_loss_monte_carlo,
    zero_one_nonpartite,
    zero_one_partite,
)
from kcompress.samples import (
    FiniteDiscrete,
    Hypothesis,
    HypothesisClass,
    ProductMeasure,
    box_ends,
    label_sample,
    spawn_rng,
    threshold_of,
)

UNIT_BOX = Hypothesis.rectangle([(0.0, 1.0), (0.0, 1.0)])
HALF_BOX = Hypothesis.rectangle([(0.0, 0.5), (0.0, 0.5)])


def test_zero_one_specs():
    lp = zero_one_partite()
    assert (lp.mode, lp.kind, lp.sup_norm) == (PARTITE, "zero-one", 1.0)
    assert lp.fn((0.1, 0.2), 1, 1) == 0.0
    assert lp.fn((0.1, 0.2), 1, 0) == 1.0
    ln = zero_one_nonpartite()
    assert ln.fn((0.1, 0.2), (1, 0), (1, 0)) == 0.0
    assert ln.fn((0.1, 0.2), (1, 0), (1, 1)) == 1.0
    with pytest.raises(ValueError):
        LossSpec(PARTITE, "zero-one", 0.0, lambda *a: 0.0)


def test_empirical_partite_three_quarters():
    x = Sample.partite([[0.1, 0.9], [0.2, 0.8]])
    z = label_sample(Hypothesis.constant(2, 1), x)
    assert empirical_loss_partite(z, HALF_BOX, zero_one_partite()) == 0.75


def test_empirical_partite_empty_sample():
    x = Sample.partite([[], []])
    z = label_sample(Hypothesis.constant(2, 1), x)
    assert empirical_loss_partite(z, HALF_BOX, zero_one_partite()) == 0.0


def test_empirical_partite_self_consistency():
    rng = spawn_rng(3)
    for _ in range(5):
        F = HypothesisClass.rectangles(2).sample_hypothesis(rng)
        x = Sample.partite([rng.random(6), rng.random(6)])
        z = label_sample(F, x)
        assert empirical_loss_partite(z, F, zero_one_partite()) == 0.0


def test_empirical_partite_custom_loss():
    const_loss = LossSpec(PARTITE, "const", 1.0, lambda xs, g, t: 0.25)
    x = Sample.partite([[0.1, 0.9], [0.2, 0.8]])
    z = label_sample(Hypothesis.constant(2, 1), x)
    assert empirical_loss_partite(z, HALF_BOX, const_loss) == 0.25


def test_empirical_partite_guards():
    x = Sample.partite([[0.1], [0.2]])
    z = label_sample(Hypothesis.constant(2, 1), x)
    with pytest.raises(ValueError):
        empirical_loss_partite(z, HALF_BOX, zero_one_nonpartite())
    with pytest.raises(ValueError):
        empirical_loss_partite(z, Hypothesis.sum_threshold(3, 1.0), zero_one_partite())


def test_empirical_nonpartite_one_third():
    # truth from t=1.0 labels pair sums 0.7, 1.1, 1.4 as 0, 1, 1;
    # a t=1.3 rule flips only the middle pair
    x = Sample.nonpartite([0.2, 0.5, 0.9], k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 1.0), x)
    H = Hypothesis.sum_threshold(2, 1.3)
    loss = empirical_loss_nonpartite(z, H, zero_one_nonpartite(), canonical_order_choice(3, 2))
    assert loss == pytest.approx(1.0 / 3.0)


def test_empirical_nonpartite_small_m():
    x = Sample.nonpartite([0.2], k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 1.0), x)
    H = Hypothesis.constant(2, 1)
    assert empirical_loss_nonpartite(z, H, zero_one_nonpartite(), canonical_order_choice(1, 2)) == 0.0


def test_empirical_nonpartite_self_consistency():
    rng = spawn_rng(4)
    for _ in range(5):
        F = HypothesisClass.sum_thresholds(2).sample_hypothesis(rng)
        x = Sample.nonpartite(rng.random(6), k=2)
        z = label_sample(F, x)
        oc = canonical_order_choice(6, 2)
        assert empirical_loss_nonpartite(z, F, zero_one_nonpartite(), oc) == 0.0


def test_empirical_nonpartite_order_choice_invariance():
    # zero-one bundle loss ignores which ordering each subset is read in
    rng = spawn_rng(8)
    x = Sample.nonpartite(rng.random(7), k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 0.9), x)
    H = Hypothesis.sum_threshold(2, 1.2)
    ref = empirical_loss_nonpartite(z, H, zero_one_nonpartite(), canonical_order_choice(7, 2))
    for j in range(3):
        oc = OrderChoice.random(7, 2, spawn_rng(100, j))
        fast = empirical_loss_nonpartite(z, H, zero_one_nonpartite(), oc)
        slow = _empirical_loss_nonpartite_generic(z, H, zero_one_nonpartite(), oc)
        assert fast == ref
        assert slow == ref


def test_empirical_nonpartite_custom_bundle_loss():
    # charge 0.5 whenever the identity orientation disagrees, ignore the swap
    fn = lambda xs, guess, truth: 0.5 if guess[0] != truth[0] else 0.0
    loss = LossSpec(NONPARTITE, "first-orientation", 0.5, fn)
    x = Sample.nonpartite([0.2, 0.5, 0.9], k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 1.0), x)
    H = Hypothesis.sum_threshold(2, 1.3)
    got = empirical_loss_nonpartite(z, H, loss, canonical_order_choice(3, 2))
    assert got == pytest.approx(0.5 / 3.0)


def test_empirical_nonpartite_guards():
    x = Sample.nonpartite([0.1, 0.2], k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 1.0), x)
    with pytest.raises(ValueError):
        empirical_loss_nonpartite(z, HALF_BOX, zero_one_partite(), canonical_order_choice(2, 2))
    with pytest.raises(ValueError):
        empirical_loss_nonpartite(z, Hypothesis.sum_threshold(2, 1.0), zero_one_nonpartite(), canonical_order_choice(3, 2))


# ---------------------------------------------------------------------------
# exact total losses


def test_exact_rectangles_three_quarters():
    mu = ProductMeasure.uniform(PARTITE, 2)
    unit, half = box_ends(UNIT_BOX), box_ends(HALF_BOX)
    empty = box_ends(Hypothesis.empty_rectangle(2))
    assert total_loss_exact_rectangles(mu, unit, half) == 0.75
    assert total_loss_exact_rectangles(mu, half, unit) == 0.75
    assert total_loss_exact_rectangles(mu, half, half) == 0.0
    assert total_loss_exact_rectangles(mu, half, empty) == 0.25
    assert total_loss_exact_rectangles(mu, empty, empty) == 0.0
    # a block of boxes against one, in one call
    got = total_loss_exact_rectangles(mu, half, np.stack([unit, half, empty]))
    assert got.tolist() == [0.75, 0.0, 0.25]


def empty_as_none_rectangle_loss(f, h, k):
    """The closed form with the empty box written as None and special-cased:
    symmetric-difference volume under the uniform product measure."""
    def lengths(ivs):
        if ivs is None:
            return [0.0] * k
        return [max(0.0, min(hi, 1.0) - max(lo, 0.0)) for lo, hi in ivs]

    vol_f, vol_h = math.prod(lengths(f)), math.prod(lengths(h))
    if f is None or h is None:
        vol_both = 0.0
    else:
        vol_both = 1.0
        for (flo, fhi), (hlo, hhi) in zip(f, h):
            lo, hi = max(flo, hlo, 0.0), min(fhi, hhi, 1.0)
            vol_both *= max(0.0, hi - lo)
    return vol_f + vol_h - 2.0 * vol_both


# ends in and around the unit interval, with ties, signed zeros and lengths
# whose products underflow to 0 at k >= 2
_ENDS = st.one_of(
    st.sampled_from([-0.5, -0.0, 0.0, 5e-324, 1e-200, 0.25, 0.5, 1 - 1e-16, 1.0, 1.5]),
    st.floats(-0.25, 1.25),
)


def _boxes(k):
    side = st.lists(_ENDS, min_size=2, max_size=2).map(sorted)
    return st.one_of(st.none(), st.lists(side, min_size=k, max_size=k))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), _boxes(k), st.lists(_boxes(k), min_size=1, max_size=6))
))
def test_exact_rectangles_bits_equal_the_empty_as_none_formula(case):
    # one call on a block of boxes gives each the float of the scalar
    # formula on its own, bit for bit: degenerate, out-of-cube, touching
    # and empty boxes (the empty one has the ends +inf and -inf on every
    # side), with the block on either side of the call
    k, f, hs = case
    mu = ProductMeasure.uniform(PARTITE, k)

    def ends(ivs):
        return box_ends(Hypothesis.empty_rectangle(k) if ivs is None else Hypothesis.rectangle(ivs))

    block = np.stack([ends(h) for h in hs])
    got = total_loss_exact_rectangles(mu, ends(f), block)
    assert [x.hex() for x in got.tolist()] == [
        empty_as_none_rectangle_loss(f, h, k).hex() for h in hs
    ]
    got = total_loss_exact_rectangles(mu, block, ends(f))
    assert [x.hex() for x in got.tolist()] == [
        empty_as_none_rectangle_loss(h, f, k).hex() for h in hs
    ]
    # a single pair is the block of one
    one = total_loss_exact_rectangles(mu, ends(f), ends(hs[0]))
    assert float(one).hex() == empty_as_none_rectangle_loss(f, hs[0], k).hex()


def test_exact_rectangles_clips_to_unit_cube():
    mu = ProductMeasure.uniform(PARTITE, 2)
    wide = Hypothesis.rectangle([(-1.0, 2.0), (-1.0, 2.0)])
    assert total_loss_exact_rectangles(mu, box_ends(wide), box_ends(UNIT_BOX)) == 0.0


def test_exact_rectangles_guards():
    unit, half = box_ends(UNIT_BOX), box_ends(HALF_BOX)
    with pytest.raises(ValueError):
        total_loss_exact_rectangles(ProductMeasure.uniform(NONPARTITE, 2), unit, half)
    mu = ProductMeasure(PARTITE, 2, (FiniteDiscrete((0.5,), (1.0,)),) * 2)
    with pytest.raises(ValueError):
        total_loss_exact_rectangles(mu, unit, half)


def test_exact_losses_refuse_a_discrete_measure_on_every_call():
    # a measure works out is_uniform once; every direct call still checks it
    coin = FiniteDiscrete((0.25, 0.75), (0.5, 0.5))
    cases = [
        (ProductMeasure(PARTITE, 2, (coin, coin)), total_loss_exact_rectangles,
         box_ends(UNIT_BOX), "exact rectangle loss requires uniform sides"),
        (ProductMeasure(NONPARTITE, 2, (coin,)), total_loss_exact_sum_threshold, 1.0,
         "exact sum-threshold loss requires the uniform measure"),
    ]
    for mu, exact, F, reason in cases:
        assert "is_uniform" not in vars(mu)
        for _ in range(3):
            with pytest.raises(ValueError, match=reason):
                exact(mu, F, F)
        assert vars(mu)["is_uniform"] is False
    uniform = ProductMeasure.uniform(PARTITE, 2)
    assert total_loss_exact_rectangles(uniform, box_ends(UNIT_BOX), box_ends(HALF_BOX)) == 0.75
    assert vars(uniform)["is_uniform"] is True


def test_pair_sum_upper_tail_values():
    assert _pair_sum_upper_tail(-0.5) == 1.0
    assert _pair_sum_upper_tail(0.0) == 1.0
    assert _pair_sum_upper_tail(0.5) == 0.875
    assert _pair_sum_upper_tail(1.0) == 0.5
    assert _pair_sum_upper_tail(1.5) == 0.125
    assert _pair_sum_upper_tail(2.0) == 0.0
    assert _pair_sum_upper_tail(2.5) == 0.0
    assert _pair_sum_upper_tail(math.inf) == 0.0
    assert _pair_sum_upper_tail(-math.inf) == 1.0


def test_exact_sum_threshold_values():
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    # the constants 0 and 1 are the thresholds +inf and -inf
    zero = threshold_of(Hypothesis.constant(2, 0))
    one = threshold_of(Hypothesis.constant(2, 1))
    assert total_loss_exact_sum_threshold(mu, 0.5, 1.5) == 0.75
    assert total_loss_exact_sum_threshold(mu, 0.5, 0.5) == 0.0
    assert total_loss_exact_sum_threshold(mu, zero, one) == 1.0
    assert total_loss_exact_sum_threshold(mu, 0.5, zero) == 0.875
    got = total_loss_exact_sum_threshold(mu, 0.5, np.array([1.5, 0.5, zero]))
    assert got.tolist() == [0.75, 0.0, 0.875]


def scalar_pair_sum_upper_tail(t):
    """P(U1 + U2 >= t), one threshold, branch by branch."""
    if t <= 0.0:
        return 1.0
    if t <= 1.0:
        return 1.0 - t * t / 2.0
    if t <= 2.0:
        return (2.0 - t) * (2.0 - t) / 2.0
    return 0.0


# thresholds at and around the ends of each branch, signed zeros, the
# constants' +inf and -inf
_THRESHOLDS = st.one_of(
    st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 1.5, 2.0, 2.5, math.inf]),
    st.floats(-0.5, 2.5),
)


@settings(max_examples=150, deadline=None)
@given(_THRESHOLDS, st.lists(_THRESHOLDS, min_size=1, max_size=8))
def test_exact_sum_threshold_bits_equal_the_scalar_formula(t_f, t_hs):
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    want = [
        abs(scalar_pair_sum_upper_tail(t_f) - scalar_pair_sum_upper_tail(t)).hex() for t in t_hs
    ]
    got = total_loss_exact_sum_threshold(mu, t_f, np.array(t_hs))
    assert [x.hex() for x in got.tolist()] == want
    got = total_loss_exact_sum_threshold(mu, np.array(t_hs), t_f)
    assert [x.hex() for x in got.tolist()] == want


def test_exact_sum_threshold_guards():
    mu3 = ProductMeasure.uniform(NONPARTITE, 3)
    with pytest.raises(ValueError):
        total_loss_exact_sum_threshold(mu3, 1.0, 1.0)
    # a hypothesis outside the family has no threshold to pass
    with pytest.raises(ValueError):
        threshold_of(Hypothesis.constant(2, 0.5))


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def test_monte_carlo_matches_exact_rectangles():
    mu = ProductMeasure.uniform(PARTITE, 2)
    rng = spawn_rng(21)
    for trial in range(5):
        F = HypothesisClass.rectangles(2).sample_hypothesis(rng)
        H = HypothesisClass.rectangles(2).sample_hypothesis(rng)
        exact = total_loss_exact_rectangles(mu, box_ends(F), box_ends(H))
        est, half = total_loss_monte_carlo(mu, F, H, zero_one_partite(), 20000, seed=trial)
        assert abs(est - exact) <= max(half, 1e-12)


def test_monte_carlo_matches_exact_thresholds():
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    rng = spawn_rng(22)
    for trial in range(5):
        F = HypothesisClass.sum_thresholds(2).sample_hypothesis(rng)
        H = HypothesisClass.sum_thresholds(2).sample_hypothesis(rng)
        exact = total_loss_exact_sum_threshold(mu, threshold_of(F), threshold_of(H))
        est, half = total_loss_monte_carlo(mu, F, H, zero_one_nonpartite(), 20000, seed=trial)
        assert abs(est - exact) <= max(half, 1e-12)


def test_monte_carlo_identical_hypotheses():
    mu = ProductMeasure.uniform(PARTITE, 2)
    est, half = total_loss_monte_carlo(mu, HALF_BOX, HALF_BOX, zero_one_partite(), 500, seed=0)
    assert est == 0.0 and half == 0.0


def test_monte_carlo_half_width_capped():
    # find a 2-draw seed whose draws straddle 0.5 so the sample spread is
    # maximal and the normal interval would exceed the sup norm
    mu = ProductMeasure(PARTITE, 1, (ProductMeasure.uniform(PARTITE, 1).distributions[0],))
    F = Hypothesis.rectangle([(0.0, 0.5)])
    H = Hypothesis.empty_rectangle(1)
    seed = next(
        s for s in range(100)
        if np.sum(spawn_rng(s, 0).random(2) <= 0.5) == 1
    )
    est, half = total_loss_monte_carlo(mu, F, H, zero_one_partite(), 2, seed=seed)
    assert est == 0.5
    assert half == 1.0  # capped at the sup norm


def test_monte_carlo_nonpartite_bundle_semantics():
    # an asymmetric table vs a symmetric rule: disagreement shows up in
    # some orientation of almost every draw
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    F = Hypothesis.constant(2, 0)
    H = Hypothesis.sum_threshold(2, -1.0)  # constant 1 on all pairs
    est, _ = total_loss_monte_carlo(mu, F, H, zero_one_nonpartite(), 100, seed=0)
    assert est == 1.0


ATOMS = FiniteDiscrete(tuple(0.05 + 0.1 * i for i in range(10)), (0.1,) * 10)


@pytest.mark.parametrize(
    "mode, F, H",
    [
        (PARTITE, Hypothesis.rectangle([(0.1, 0.6), (0.3, 0.9), (0.0, 0.5)]),
         Hypothesis.rectangle([(0.2, 0.7), (0.3, 0.8), (0.1, 0.5)])),
        (NONPARTITE, Hypothesis.sum_threshold(3, 1.2), Hypothesis.sum_threshold(3, 1.6)),
    ],
    ids=["partite", "nonpartite"],
)
@pytest.mark.parametrize("seed", [0, 77, 2**64 + 3])
def test_monte_carlo_equals_numpy_streams(mode, F, H, seed, numpy_stream):
    # column i is the stream (seed, i) of side i, or of the i-th ground point
    k, n = 3, 500
    mu = ProductMeasure(mode, k, (ATOMS,) * (k if mode == PARTITE else 1))
    loss = zero_one_partite() if mode == PARTITE else zero_one_nonpartite()
    cols = [ATOMS.draw(numpy_stream(seed, i), n) for i in range(k)]
    differs = np.zeros(n, dtype=bool)
    for perm in itertools.permutations(range(k)) if mode == NONPARTITE else [range(k)]:
        oriented = [cols[p] for p in perm]
        differs |= H.eval_columns(oriented) != F.eval_columns(oriented)
    values = differs.astype(float)
    half = min(CI99_MULTIPLIER * float(values.std(ddof=1)) / math.sqrt(n), 1.0)
    assert 0.0 < values.mean() < 1.0
    assert total_loss_monte_carlo(mu, F, H, loss, n, seed) == (float(values.mean()), half)


def test_monte_carlo_guards():
    mu = ProductMeasure.uniform(PARTITE, 2)
    with pytest.raises(ValueError):
        total_loss_monte_carlo(mu, UNIT_BOX, HALF_BOX, zero_one_partite(), 0, seed=0)
    with pytest.raises(ValueError):
        total_loss_monte_carlo(mu, UNIT_BOX, HALF_BOX, zero_one_nonpartite(), 10, seed=0)
    with pytest.raises(ValueError):
        total_loss_monte_carlo(mu, Hypothesis.sum_threshold(3, 1.0), HALF_BOX, zero_one_partite(), 10, seed=0)


def test_ci_multiplier_is_99_percent():
    assert CI99_MULTIPLIER == 2.576
