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
    label_sample,
    spawn_rng,
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
    assert total_loss_exact_rectangles(mu, UNIT_BOX, HALF_BOX) == 0.75
    assert total_loss_exact_rectangles(mu, HALF_BOX, UNIT_BOX) == 0.75
    assert total_loss_exact_rectangles(mu, HALF_BOX, HALF_BOX) == 0.0
    empty = Hypothesis.empty_rectangle(2)
    assert total_loss_exact_rectangles(mu, HALF_BOX, empty) == 0.25
    assert total_loss_exact_rectangles(mu, empty, empty) == 0.0


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
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), _boxes(k), _boxes(k))))
def test_exact_rectangles_bits_equal_the_empty_as_none_formula(case):
    # degenerate, out-of-cube and empty boxes (the empty one has the ends
    # +inf and -inf on every side) give the same float, bit for bit
    k, f, h = case
    mu = ProductMeasure.uniform(PARTITE, k)

    def box(ivs):
        return Hypothesis.empty_rectangle(k) if ivs is None else Hypothesis.rectangle(ivs)

    got = total_loss_exact_rectangles(mu, box(f), box(h))
    assert got.hex() == empty_as_none_rectangle_loss(f, h, k).hex()


def test_exact_rectangles_clips_to_unit_cube():
    mu = ProductMeasure.uniform(PARTITE, 2)
    wide = Hypothesis.rectangle([(-1.0, 2.0), (-1.0, 2.0)])
    assert total_loss_exact_rectangles(mu, wide, UNIT_BOX) == 0.0


def test_exact_rectangles_guards():
    with pytest.raises(ValueError):
        total_loss_exact_rectangles(ProductMeasure.uniform(NONPARTITE, 2), UNIT_BOX, HALF_BOX)
    mu = ProductMeasure(PARTITE, 2, (FiniteDiscrete((0.5,), (1.0,)),) * 2)
    with pytest.raises(ValueError):
        total_loss_exact_rectangles(mu, UNIT_BOX, HALF_BOX)


def test_exact_losses_refuse_a_discrete_measure_on_every_call():
    # a measure works out is_uniform once; every direct call still checks it
    coin = FiniteDiscrete((0.25, 0.75), (0.5, 0.5))
    threshold = Hypothesis.sum_threshold(2, 1.0)
    cases = [
        (ProductMeasure(PARTITE, 2, (coin, coin)), total_loss_exact_rectangles, UNIT_BOX,
         "exact rectangle loss requires uniform sides"),
        (ProductMeasure(NONPARTITE, 2, (coin,)), total_loss_exact_sum_threshold, threshold,
         "exact sum-threshold loss requires the uniform measure"),
    ]
    for mu, exact, F, reason in cases:
        assert "is_uniform" not in vars(mu)
        for _ in range(3):
            with pytest.raises(ValueError, match=reason):
                exact(mu, F, F)
        assert vars(mu)["is_uniform"] is False
    uniform = ProductMeasure.uniform(PARTITE, 2)
    assert total_loss_exact_rectangles(uniform, UNIT_BOX, HALF_BOX) == 0.75
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
    F = Hypothesis.sum_threshold(2, 0.5)
    H = Hypothesis.sum_threshold(2, 1.5)
    assert total_loss_exact_sum_threshold(mu, F, H) == 0.75
    assert total_loss_exact_sum_threshold(mu, F, F) == 0.0
    zero = Hypothesis.constant(2, 0)
    one = Hypothesis.constant(2, 1)
    assert total_loss_exact_sum_threshold(mu, zero, one) == 1.0
    assert total_loss_exact_sum_threshold(mu, F, zero) == 0.875


def test_exact_sum_threshold_guards():
    mu3 = ProductMeasure.uniform(NONPARTITE, 3)
    F = Hypothesis.sum_threshold(3, 1.0)
    with pytest.raises(ValueError):
        total_loss_exact_sum_threshold(mu3, F, F)
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    with pytest.raises(ValueError):
        total_loss_exact_sum_threshold(mu, Hypothesis.constant(2, 0.5), Hypothesis.constant(2, 0))


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def test_monte_carlo_matches_exact_rectangles():
    mu = ProductMeasure.uniform(PARTITE, 2)
    rng = spawn_rng(21)
    for trial in range(5):
        F = HypothesisClass.rectangles(2).sample_hypothesis(rng)
        H = HypothesisClass.rectangles(2).sample_hypothesis(rng)
        exact = total_loss_exact_rectangles(mu, F, H)
        est, half = total_loss_monte_carlo(mu, F, H, zero_one_partite(), 20000, seed=trial)
        assert abs(est - exact) <= max(half, 1e-12)


def test_monte_carlo_matches_exact_thresholds():
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    rng = spawn_rng(22)
    for trial in range(5):
        F = HypothesisClass.sum_thresholds(2).sample_hypothesis(rng)
        H = HypothesisClass.sum_thresholds(2).sample_hypothesis(rng)
        exact = total_loss_exact_sum_threshold(mu, F, H)
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
