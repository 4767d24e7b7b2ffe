"""Tests for the built-in selection schemes and the validity checkers."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcompress.indexing import (
    NONPARTITE,
    PARTITE,
    SENTINEL,
    InjectionVector,
    LabeledSample,
    LabelTensor,
    OrderChoice,
    Sample,
    canonical_order_choice,
)
from kcompress.losses import (
    LossSpec,
    empirical_loss_nonpartite,
    empirical_loss_partite,
    zero_one_nonpartite,
    zero_one_partite,
)
from kcompress.samples import (
    FiniteDiscrete,
    Hypothesis,
    HypothesisClass,
    _subset_label_masks,
    _subset_sums,
    draw_sample,
    erm_realizability_check,
    label_sample,
    ProductMeasure,
    spawn_rng,
)
from kcompress import schemes
from kcompress.experiments import FAMILIES
from kcompress.schemes import (
    RANDOM_ORDER_CHOICES,
    CompressionReport,
    check_approximate_validity,
    check_compression_validity,
    compress,
    compression_size_and_bitlength,
    reconstruct,
    rectangle_scheme,
    sum_threshold_scheme,
    trivial_scheme,
)


def test_builtin_scheme_ids():
    trivial = trivial_scheme(HypothesisClass.rectangles(2), zero_one_partite())
    assert trivial.scheme_id == "trivial"
    for name, family in FAMILIES.items():
        assert family.scheme(2).scheme_id == name


@pytest.mark.parametrize(
    "scheme",
    [
        trivial_scheme(HypothesisClass.rectangles(2), zero_one_partite()),
        rectangle_scheme(1),
        rectangle_scheme(2),
        rectangle_scheme(3),
        sum_threshold_scheme(2),
        sum_threshold_scheme(3),
    ],
    ids=lambda s: f"{s.scheme_id}-k{s.k}",
)
def test_size_maps_accept_arrays(scheme):
    ms = np.arange(1, 501)
    for size in (scheme.selection_size, scheme.header_size):
        per_m = [size(int(m)) for m in ms]
        assert all(type(v) is int for v in per_m)
        for arr in (ms, ms.astype(np.float64)):
            got = np.broadcast_to(size(arr), arr.shape)
            assert got.tolist() == per_m


# ---------------------------------------------------------------------------
# rectangle scheme


def test_rectangle_select_min_max_per_side():
    x = Sample.partite([[0.3, 0.1, 0.5], [0.2, 0.6, 0.4]])
    z = label_sample(Hypothesis.rectangle([(0.1, 0.5), (0.2, 0.6)]), x)
    scheme = rectangle_scheme(2)
    sub, hdr = compress(scheme, z)
    assert hdr == 1
    inj, hdr = scheme.select(z)
    assert inj.maps == ((1, 2), (0, 1)) and hdr == 1
    H = reconstruct(scheme, sub, hdr)
    assert H.intervals == ((0.1, 0.5), (0.2, 0.6))
    assert empirical_loss_partite(z, H, zero_one_partite()) == 0.0


def test_rectangle_select_tie_breaks_to_smallest_index():
    x = Sample.partite([[0.5, 0.2, 0.2], [0.3, 0.3, 0.7]])
    z = label_sample(Hypothesis.rectangle([(0.2, 0.5), (0.3, 0.7)]), x)
    inj, hdr = rectangle_scheme(2).select(z)
    assert inj.maps == ((1, 0), (0, 2)) and hdr == 1


def test_rectangle_all_negative_header():
    x = Sample.partite([[0.3, 0.1], [0.2, 0.6]])
    z = label_sample(Hypothesis.empty_rectangle(2), x)
    scheme = rectangle_scheme(2)
    sub, hdr = compress(scheme, z)
    assert hdr == 2
    inj, hdr = scheme.select(z)
    assert inj.maps == ((0, 1), (0, 1)) and hdr == 2
    H = reconstruct(scheme, sub, hdr)
    assert H.kind == "rectangle" and H.describe() == "rectangle(empty)"
    assert H.intervals == Hypothesis.empty_rectangle(2).intervals
    assert empirical_loss_partite(z, H, zero_one_partite()) == 0.0


def test_rectangle_degenerate_pad_does_not_widen_box():
    # a single positive tuple forces one participating index per side; the
    # injectivity pad must not leak the padding point into the rebuilt box
    x = Sample.partite([[0.4, 0.1, 0.9], [0.5, 0.3, 0.8]])
    z = label_sample(Hypothesis.rectangle([(0.4, 0.4), (0.5, 0.5)]), x)
    scheme = rectangle_scheme(2)
    inj, hdr = scheme.select(z)
    assert inj.maps == ((0, 1), (0, 1)) and hdr == 1
    sub, hdr = compress(scheme, z)
    H = reconstruct(scheme, sub, hdr)
    assert H.intervals == ((0.4, 0.4), (0.5, 0.5))
    assert empirical_loss_partite(z, H, zero_one_partite()) == 0.0


def test_rectangle_single_point_sample():
    x = Sample.partite([[0.4], [0.5]])
    z = label_sample(Hypothesis.rectangle([(0.3, 0.5), (0.3, 0.6)]), x)
    scheme = rectangle_scheme(2)
    assert scheme.selection_size(1) == 1
    sub, hdr = compress(scheme, z)
    assert sub.m == 1 and hdr == 1
    H = reconstruct(scheme, sub, hdr)
    assert H.intervals == ((0.4, 0.4), (0.5, 0.5))


# ---------------------------------------------------------------------------
# sum-threshold scheme


def test_threshold_select_lexicographically_first_minimal_pair():
    # pair sums: {0,3} and {1,2} both hit the minimum positive sum 1.0;
    # the lexicographically smaller (0, 3) must be picked
    x = Sample.nonpartite([0.5, 0.3, 0.7, 0.5], k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 1.0), x)
    scheme = sum_threshold_scheme(2)
    inj, hdr = scheme.select(z)
    assert inj.maps == ((0, 3),) and hdr == 1
    sub, hdr = compress(scheme, z)
    assert hdr == 1
    H = reconstruct(scheme, sub, hdr)
    assert H.kind == "sum-threshold" and H.threshold == 1.0
    from kcompress.indexing import canonical_order_choice

    assert (
        empirical_loss_nonpartite(z, H, zero_one_nonpartite(), canonical_order_choice(4, 2))
        == 0.0
    )


def test_threshold_rebuild_sums_kept_points():
    x = Sample.nonpartite([0.3, 0.45], k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 0.7), x)
    scheme = sum_threshold_scheme(2)
    sub, hdr = compress(scheme, z)
    H = reconstruct(scheme, sub, hdr)
    assert H.threshold == 0.75
    assert H.value((0.4, 0.4)) == 1


def test_threshold_all_negative_and_tiny_samples():
    scheme = sum_threshold_scheme(2)
    x = Sample.nonpartite([0.1, 0.2, 0.3], k=2)
    z = label_sample(Hypothesis.sum_threshold(2, 5.0), x)
    sub, hdr = compress(scheme, z)
    inj, selected_hdr = scheme.select(z)
    assert hdr == selected_hdr == 2 and inj.maps == ((0, 1),)
    H = reconstruct(scheme, sub, hdr)
    assert H.kind == "sum-threshold" and H.threshold == math.inf

    tiny = label_sample(Hypothesis.sum_threshold(2, 0.1), Sample.nonpartite([0.9], k=2))
    assert scheme.selection_size(1) == 1
    sub, hdr = compress(scheme, tiny)
    assert hdr == 2
    assert reconstruct(scheme, sub, hdr).threshold == math.inf


def test_threshold_select_breaks_triple_ties_lexicographically():
    # (0,1,5), (0,2,4), (1,2,3) and (2,3,5) all sum to the minimal positive
    # 0.75; the first positive subset, (0,1,2), sums to 0.875
    x = Sample.nonpartite([0.5, 0.125, 0.25, 0.375, 0.0, 0.125], k=3)
    z = label_sample(Hypothesis.sum_threshold(3, 0.75), x)
    scheme = sum_threshold_scheme(3)
    inj, hdr = scheme.select(z)
    assert inj.maps == ((0, 1, 5),) and hdr == 1
    H = reconstruct(scheme, *compress(scheme, z))
    assert H.threshold == 0.75
    loss = empirical_loss_nonpartite(z, H, zero_one_nonpartite(), canonical_order_choice(6, 3))
    assert loss == 0.0


# a few atoms, dyadic and not, so that subset sums tie with each other
# and with the thresholds
_SUM_ATOMS = (0.0, 0.125, 0.25, 0.5, 0.1, 0.2, 0.3, 0.7)


@st.composite
def oriented_labelings(draw):
    """(labeled, H): a nonpartite sample at k = 1..4, m = 0..k+4, labeled by
    a sum threshold with some cells flipped, so that the orientations of a
    subset may disagree; H is a sum threshold or an asymmetric table rule."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(0, k + 4))
    x = Sample.nonpartite(draw(st.lists(st.sampled_from(_SUM_ATOMS), min_size=m, max_size=m)), k)
    thresholds = st.sampled_from([0.125 * i for i in range(8 * k + 1)])
    codes = label_sample(Hypothesis.sum_threshold(k, draw(thresholds)), x).labels.codes.copy()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flip = rng.random(codes.shape) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    codes[flip & (codes != SENTINEL)] ^= 1
    labeled = LabeledSample(x, LabelTensor.from_codes(NONPARTITE, k, m, (0, 1), codes))
    if draw(st.booleans()):
        H = Hypothesis.sum_threshold(k, draw(thresholds))
    else:
        labels = rng.integers(0, 2, size=len(_SUM_ATOMS) ** k).tolist()
        H = Hypothesis.table(k, (_SUM_ATOMS,), labels)
    return labeled, H


@settings(max_examples=150, deadline=None)
@given(oriented_labelings())
def test_subset_paths_match_bruteforce_over_orientations(case):
    labeled, H = case
    m, k = labeled.m, labeled.k
    pts, codes = labeled.sample.sides[0], labeled.labels.codes
    subsets = list(itertools.combinations(range(m), k))
    orientations = [list(itertools.permutations(u)) for u in subsets]
    labels = [{int(codes[p]) for p in perms} for perms in orientations]
    # coordinates added in ascending order, as coordinate_sum adds them
    sums = [sum(sorted(float(pts[i]) for i in u)) for u in subsets]

    rows, pos, neg, mixed = _subset_label_masks(labeled)
    assert rows.tolist() == [list(u) for u in subsets]
    assert pos.tolist() == [ls == {1} for ls in labels]
    assert neg.tolist() == [ls == {0} for ls in labels]
    assert mixed.tolist() == [ls == {0, 1} for ls in labels]
    assert _subset_sums(labeled.sample, rows).tolist() == sums

    wrong = sum(
        any(H.value(tuple(pts[i] for i in p)) != codes[p] for p in perms)
        for perms in orientations
    )
    loss = empirical_loss_nonpartite(
        labeled, H, zero_one_nonpartite(), canonical_order_choice(m, k)
    )
    assert loss == (wrong / len(subsets) if subsets else 0.0)

    positive = [(s, u) for s, u, ls in zip(sums, subsets, labels) if ls == {1}]
    scheme = sum_threshold_scheme(k)
    want = min(positive)[1] if positive else tuple(range(min(m, k)))
    inj, hdr = scheme.select(labeled)
    assert inj.maps == (want,)
    assert hdr == (1 if positive else 2)

    negative = [s for s, ls in zip(sums, labels) if ls == {0}]
    ok, witness = erm_realizability_check(
        HypothesisClass.sum_thresholds(k), labeled, zero_one_nonpartite()
    )
    if {0, 1} in labels or (positive and negative and max(negative) >= min(positive)[0]):
        assert (ok, witness) == (False, None)
    elif not positive:
        assert ok and witness.kind == "sum-threshold" and witness.threshold == math.inf
    else:
        assert ok and witness.threshold == min(positive)[0]


# ---------------------------------------------------------------------------
# trivial scheme


def test_trivial_scheme_erm_round_trip():
    klass = HypothesisClass.rectangles(2)
    scheme = trivial_scheme(klass, zero_one_partite())
    assert scheme.selection_size(7) == 7 and scheme.header_size(7) == 1
    x = draw_sample(ProductMeasure.uniform(PARTITE, 2), 5, seed=1)
    z = label_sample(klass.sample_hypothesis(spawn_rng(2)), x)
    sub, hdr = compress(scheme, z)
    assert sub.m == 5 and hdr == 1
    H = reconstruct(scheme, sub, hdr)
    assert empirical_loss_partite(z, H, zero_one_partite()) == 0.0


def test_trivial_scheme_fallback_on_unrealizable_input():
    # rebuild must still return a class member when no member fits
    klass = HypothesisClass.rectangles(2)
    scheme = trivial_scheme(klass, zero_one_partite())
    x = Sample.partite([[0.2, 0.4, 0.3], [0.3, 0.1, 0.2]])
    box = Hypothesis.rectangle([(0.2, 0.4), (0.1, 0.3)])
    codes = box.label_grid(list(x.sides)).astype(np.int64)
    codes[2, 2] = 0
    from kcompress.indexing import LabelTensor, LabeledSample

    z = LabeledSample(x, LabelTensor.from_codes(PARTITE, 2, 3, (0, 1), codes))
    H = reconstruct(scheme, *compress(scheme, z))
    assert H.kind == "rectangle" and H.intervals == klass.fallback.intervals
    assert H.describe() == "rectangle(empty)"


# ---------------------------------------------------------------------------
# kappa plumbing and purity


def test_kappa_validation_errors():
    scheme = rectangle_scheme(2)
    zn = label_sample(
        Hypothesis.sum_threshold(2, 1.0), Sample.nonpartite([0.1, 0.2], k=2)
    )
    with pytest.raises(ValueError):
        compress(scheme, zn)

    x = Sample.partite([[0.3, 0.1, 0.5], [0.2, 0.6, 0.4]])
    z = label_sample(Hypothesis.rectangle([(0.1, 0.5), (0.2, 0.6)]), x)
    wrong_size = dataclasses.replace(
        scheme, select=lambda labeled: (InjectionVector.identity(PARTITE, 2, labeled.m), 1)
    )
    with pytest.raises(ValueError):
        compress(wrong_size, z)
    bad_header = dataclasses.replace(
        scheme, select=lambda labeled: (scheme.select(labeled)[0], 3)
    )
    with pytest.raises(ValueError):
        compress(bad_header, z)
    oversized = dataclasses.replace(scheme, selection_size=lambda m: m + 1)
    with pytest.raises(ValueError):
        compress(oversized, z)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_selector_reads_the_sample_once_for_selection_and_header(name, monkeypatch):
    # kappa is one map: a nonpartite compress gathers the subset label
    # masks once, and the header is 1 iff some label cell is positive,
    # else 2 with the first s_m indices selected
    calls = []

    def counting(labeled):
        calls.append(labeled)
        return _subset_label_masks(labeled)

    monkeypatch.setattr(schemes, "_subset_label_masks", counting)
    family = FAMILIES[name]
    rng = np.random.default_rng(7)
    headers = set()
    for k, m, all_negative in itertools.product((1, 2, 3), range(1, 7), (False, True)):
        klass, scheme = family.hypothesis_class(k), family.scheme(k)
        F = klass.fallback if all_negative else klass.sample_hypothesis(rng)
        x = draw_sample(ProductMeasure.uniform(family.mode, k), m, seed=int(rng.integers(2**31)))
        z = label_sample(F, x)
        del calls[:]
        sub, hdr = compress(scheme, z)
        assert len(calls) == (1 if family.mode == NONPARTITE else 0)

        cells = itertools.product(range(m), repeat=k)
        if family.mode == PARTITE:
            points = [tuple(side[i] for side, i in zip(x.sides, c)) for c in cells]
        else:
            points = [tuple(x.sides[0][i] for i in c) for c in cells if len(set(c)) == k]
        positive = any(F.value(p) == 1 for p in points)
        inj, selected_hdr = scheme.select(z)
        assert hdr == selected_hdr == (1 if positive else 2)
        if not positive:
            first = tuple(range(int(scheme.selection_size(m))))
            assert inj.maps == (first,) * len(inj.maps)
        headers.add(hdr)
    assert headers == {1, 2}


RECONSTRUCTION_CASES = {
    "rectangle-positive": (PARTITE, Hypothesis.rectangle([(0.2, 0.6), (0.1, 0.5)]), 1),
    "rectangle-all-negative": (PARTITE, Hypothesis.empty_rectangle(2), 2),
    "sum-threshold-positive": (NONPARTITE, Hypothesis.sum_threshold(2, 0.9), 1),
    "sum-threshold-all-negative": (NONPARTITE, Hypothesis.sum_threshold(2, 3.0), 2),
}


@pytest.mark.parametrize("case", sorted(RECONSTRUCTION_CASES))
def test_reconstruction_reads_only_the_compressed_data(case):
    # everything the reconstructor needs must live in (subsample, header):
    # a fresh labeled sample built from copies of the subsample's points
    # and codes rebuilds the same hypothesis
    mode, F, expected_hdr = RECONSTRUCTION_CASES[case]
    scheme = rectangle_scheme(2) if mode == PARTITE else sum_threshold_scheme(2)
    z = label_sample(F, draw_sample(ProductMeasure.uniform(mode, 2), 8, seed=3))
    sub, hdr = compress(scheme, z)
    assert hdr == expected_hdr
    fresh = LabeledSample(
        Sample(sub.mode, sub.k, tuple(side.copy() for side in sub.sample.sides)),
        LabelTensor.from_codes(
            sub.mode, sub.k, sub.m, sub.labels.alphabet, sub.labels.codes.copy()
        ),
    )
    assert reconstruct(scheme, fresh, hdr).describe() == reconstruct(scheme, sub, hdr).describe()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**16))
def test_selector_outputs_are_valid_injections(m, seed):
    rng = np.random.default_rng(seed)
    scheme = rectangle_scheme(2)
    F = HypothesisClass.rectangles(2).sample_hypothesis(rng)
    z = label_sample(F, draw_sample(ProductMeasure.uniform(PARTITE, 2), m, seed=seed))
    inj, hdr = scheme.select(z)
    assert inj.size == scheme.selection_size(m)
    for mp in inj.maps:
        assert len(set(mp)) == len(mp)
        assert all(0 <= v < m for v in mp)
    assert 1 <= hdr <= scheme.header_size(m)

    tscheme = sum_threshold_scheme(2)
    Ft = HypothesisClass.sum_thresholds(2).sample_hypothesis(rng)
    zt = label_sample(Ft, draw_sample(ProductMeasure.uniform(NONPARTITE, 2), m, seed=seed))
    injt, hdrt = tscheme.select(zt)
    assert injt.size == tscheme.selection_size(m)
    assert len(set(injt.maps[0])) == injt.size
    assert 1 <= hdrt <= tscheme.header_size(m)


# ---------------------------------------------------------------------------
# validity checkers


def test_validity_rectangle_scheme_small():
    report = check_compression_validity(
        rectangle_scheme(2),
        HypothesisClass.rectangles(2),
        zero_one_partite(),
        trials=10,
        m_values=(1, 2, 5),
        seed=0,
    )
    assert report.passed
    assert len(report.records) == 30
    assert all(r.empirical_loss == 0.0 for r in report.records)
    assert report.records[0].m == 1


def test_validity_threshold_scheme_small():
    report = check_compression_validity(
        sum_threshold_scheme(2),
        HypothesisClass.sum_thresholds(2),
        zero_one_nonpartite(),
        trials=10,
        m_values=(2, 4, 6),
        seed=0,
    )
    assert report.passed
    assert all(r.empirical_loss == 0.0 for r in report.records)


def test_validity_catches_broken_scheme():
    # clobbering the reconstructor makes positive samples fail loudly
    broken = dataclasses.replace(
        rectangle_scheme(2), rebuild=lambda sub, hdr: Hypothesis.empty_rectangle(2)
    )
    report = check_compression_validity(
        broken,
        HypothesisClass.rectangles(2),
        zero_one_partite(),
        trials=10,
        m_values=(4, 8),
        seed=0,
    )
    assert not report.passed
    assert report.violations
    assert all(v.empirical_loss > 0.0 for v in report.violations)

    stopped = check_compression_validity(
        broken,
        HypothesisClass.rectangles(2),
        zero_one_partite(),
        trials=10,
        m_values=(4, 8),
        seed=0,
        fail_fast=True,
    )
    assert len(stopped.violations) == 1
    assert len(stopped.records) <= len(report.records)
    assert not stopped.records[-1].passed


def test_approximate_validity_tolerates_bounded_error():
    broken = dataclasses.replace(
        rectangle_scheme(2), rebuild=lambda sub, hdr: Hypothesis.empty_rectangle(2)
    )
    report = check_approximate_validity(
        broken,
        HypothesisClass.rectangles(2),
        zero_one_partite(),
        eps_sequence=lambda m: 1.0,
        trials=5,
        m_values=(4,),
        seed=0,
    )
    assert report.passed
    assert all(r.threshold == 1.0 for r in report.records)


def validity_reference(numpy_seed, numpy_stream, scheme, klass, loss, trials, m_values,
                       seed, fail_fast):
    """check_compression_validity's records, built trial by trial on numpy's
    own streams: target (seed, i, t, 0), sample side j (s1, j) with
    s1 = seed (seed, i, t, 1), order choice j < RANDOM_ORDER_CHOICES
    (s2, j) with s2 = seed (seed, i, t, 2)."""
    mu = ProductMeasure.uniform(scheme.mode, scheme.k)
    records = []
    for (mi, m), t in itertools.product(enumerate(m_values), range(trials)):
        F = klass.sample_hypothesis(numpy_stream(seed, mi, t, 0))
        s1 = numpy_seed(seed, mi, t, 1)
        x = Sample(mu.mode, mu.k, tuple(
            d.draw(numpy_stream(s1, j), m) for j, d in enumerate(mu.distributions)
        ))
        labeled = label_sample(F, x)
        inj, _ = scheme.select(labeled)
        sub, hdr = compress(scheme, labeled)
        H = reconstruct(scheme, sub, hdr)
        if scheme.mode == PARTITE:
            worst = empirical_loss_partite(labeled, H, loss)
        else:
            s2 = numpy_seed(seed, mi, t, 2)
            orders = [canonical_order_choice(m, scheme.k)] + OrderChoice.random(
                m, scheme.k, [numpy_stream(s2, j) for j in range(RANDOM_ORDER_CHOICES)]
            )
            worst = max(empirical_loss_nonpartite(labeled, H, loss, o) for o in orders)
        records.append(CompressionReport(
            trial=t, m=m, selection_size=inj.size, header=hdr, selected=inj.maps,
            hypothesis=H.describe(), empirical_loss=worst, threshold=0.0,
            passed=worst <= 0.0,
        ))
        if fail_fast and not records[-1].passed:
            break
    return records


@pytest.mark.parametrize("fail_fast", [False, True])
@pytest.mark.parametrize("broken", [False, True], ids=["valid", "broken"])
@pytest.mark.parametrize(
    "family, k",
    [("boxes", 2), ("boxes", 3), ("thresholds", 2), ("thresholds", 3),
     ("thresholds-weighted", 2)],
)
def test_batched_validity_equals_trial_by_trial(
    family, k, broken, fail_fast, numpy_seed, numpy_stream
):
    if family == "boxes":
        scheme, klass, loss = rectangle_scheme(k), HypothesisClass.rectangles(k), zero_one_partite()
        wrong = Hypothesis.empty_rectangle(k)
    else:
        scheme = sum_threshold_scheme(k)
        klass, loss = HypothesisClass.sum_thresholds(k), zero_one_nonpartite()
        wrong = Hypothesis.constant(k, 1)
    if family == "thresholds-weighted":
        # weighting a mismatch by the ordering's first point makes the
        # loss, and so the records, depend on the random order choices
        loss = LossSpec(
            NONPARTITE, "weighted", 1.0,
            lambda xs, guess, truth: np.where((guess == truth).all(axis=0), 0.0, xs[0]),
        )
    if broken:
        # a reconstructor that ignores its input fails on most samples
        scheme = dataclasses.replace(scheme, rebuild=lambda sub, hdr: wrong)
    args = dict(trials=3, m_values=(k, 4, 6), seed=2**33 + 17)
    report = check_compression_validity(scheme, klass, loss, fail_fast=fail_fast, **args)
    want = validity_reference(
        numpy_seed, numpy_stream, scheme, klass, loss, fail_fast=fail_fast, **args
    )
    assert list(report.records) == want
    assert list(report.violations) == [r for r in want if not r.passed]
    assert report.passed == (not broken)
    if broken and fail_fast:
        assert len(report.violations) == 1 and report.records[-1] is report.violations[0]


@pytest.mark.parametrize("measure", ["uniform", "ties"])
@pytest.mark.parametrize("family, k", [("boxes", 2), ("thresholds", 2), ("thresholds", 3)])
def test_validity_records_do_not_depend_on_the_index_cache(family, k, measure, monkeypatch):
    # the subset cache holds only what (m, k) alone fixes: a run that builds
    # every canonical order choice afresh for each trial gives the warm
    # run's records
    from kcompress import indexing

    if family == "boxes":
        scheme, klass, loss = rectangle_scheme(k), HypothesisClass.rectangles(k), zero_one_partite()
    else:
        scheme, klass = sum_threshold_scheme(k), HypothesisClass.sum_thresholds(k)
        # weighted by the ordering's first point, so the records read the order choices
        loss = LossSpec(
            NONPARTITE, "weighted", 1.0,
            lambda xs, guess, truth: np.where((guess == truth).all(axis=0), 0.0, xs[0]),
        )
    mu = None
    if measure == "ties":
        # three atoms: equal points, and equal sums of distinct subsets
        atoms = FiniteDiscrete((0.25, 0.5, 0.75), (0.25, 0.5, 0.25))
        mu = ProductMeasure(scheme.mode, k, (atoms,) * (k if scheme.mode == PARTITE else 1))
    args = dict(trials=3, m_values=(k, 5, 9), seed=2**40 + 7, measure=mu)
    check_compression_validity(scheme, klass, loss, **args)
    warm = check_compression_validity(scheme, klass, loss, **args).records

    draw = schemes.draw_sample
    cleared = []

    def cold_draw(*a, **kw):
        indexing._subset_cache.clear()
        cleared.append(1)
        return draw(*a, **kw)

    monkeypatch.setattr(schemes, "draw_sample", cold_draw)
    cold = check_compression_validity(scheme, klass, loss, **args).records
    assert len(cleared) == len(cold) == 9
    assert cold == warm


def test_validity_argument_checks():
    with pytest.raises(ValueError):
        check_compression_validity(
            rectangle_scheme(2),
            HypothesisClass.rectangles(2),
            zero_one_partite(),
            trials=0,
            m_values=(2,),
            seed=0,
        )
    with pytest.raises(ValueError):
        check_compression_validity(
            rectangle_scheme(2),
            HypothesisClass.sum_thresholds(2),
            zero_one_partite(),
            trials=1,
            m_values=(2,),
            seed=0,
        )


# ---------------------------------------------------------------------------
# compression size


def test_compression_size_values():
    count, bits = compression_size_and_bitlength(rectangle_scheme(2), 5, 2)
    assert (count, bits) == (32.0, 5.0)
    count, bits = compression_size_and_bitlength(sum_threshold_scheme(2), 5, 2)
    assert (count, bits) == (8.0, 3.0)
    trivial = trivial_scheme(HypothesisClass.rectangles(2), zero_one_partite())
    count, bits = compression_size_and_bitlength(trivial, 0, 2)
    assert (count, bits) == (1.0, 0.0)


def test_compression_size_overflow_to_inf():
    trivial = trivial_scheme(HypothesisClass.rectangles(2), zero_one_partite())
    count, bits = compression_size_and_bitlength(trivial, 1000, 2)
    assert math.isinf(count) and bits == 10**6
    with pytest.raises(ValueError):
        compression_size_and_bitlength(trivial, 5, 0)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rectangle_scheme_growth_premise(k):
    # constant selection and header sizes keep the compression bitlength
    # logarithmic in m, comfortably below the sqrt(2km) ln m envelope
    for m in (16, 32, 64, 128, 1024, 10**6):
        lhs = math.log(2) + 2 * k * math.log(m)
        rhs = math.sqrt(2 * k * m) * math.log(m)
        assert lhs <= rhs
