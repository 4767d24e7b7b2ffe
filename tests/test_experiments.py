"""Tests for the experiment harness: config, kernels, engines, writers."""

import dataclasses
import functools
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcompress import experiments
from kcompress.cli import dispatch
from kcompress.experiments import (
    BOUND_TABLE_COLUMNS,
    CONCENTRATION_COLUMNS,
    FAMILIES,
    PAC_COLUMNS,
    MAX_TRIALS,
    VALIDITY_COLUMNS,
    ConfigError,
    ExperimentConfig,
    _VARIANT_SALT,
    Records,
    TrialRecord,
    _cell_columns,
    _ci_half_width,
    _concentration_fits,
    _generic_concentration,
    _generic_pac,
    _kernels,
    _pac_columns,
    build_all,
    build_measure,
    canonical_config_text,
    config_hash,
    config_to_dict,
    load_config,
    parse_config,
    records_to_jsonl,
    run_bound_table,
    run_concentration_experiment,
    run_concentration_suite,
    run_pac_experiment,
    run_validity_experiment,
    table_to_csv,
    table_to_json,
    write_outputs,
)
from kcompress.indexing import (
    NONPARTITE,
    PARTITE,
    SENTINEL,
    InjectionVector,
    LabelTensor,
    LabeledSample,
    OrderChoice,
    Sample,
)
from kcompress.kernels import (
    _block_box_masks,
    _block_pairs_below,
    _boundary_extremes,
    _diagonal,
    _full_rows,
    _padded_sorted,
    _pairs_below,
    _rect_masks,
    _rect_xor_count,
    _row_boundaries,
    box_concentration,
    box_pac,
    threshold_concentration,
    threshold_pac,
)
from kcompress.losses import empirical_loss_nonpartite, zero_one_nonpartite
from kcompress.samples import (
    FiniteDiscrete,
    Hypothesis,
    ProductMeasure,
    Uniform01,
    box_ends,
    derive_seed,
    describe_boxes,
    describe_thresholds,
    draw_sample,
    erm_realizability_check,
    label_sample,
    minimal_box,
    spawn_rng,
    threshold_of,
)
from kcompress.schemes import compress, reconstruct, sum_threshold_scheme, trivial_scheme
from kcompress.indexing import subsample


# ---------------------------------------------------------------------------
# configuration


GOLDEN_CONFIG = """\
# concentration sweep over two sample sizes
mode = partite
k = 2
scheme_id = rectangle
class_id = rectangle
measure = uniform
loss_id = zero-one
epsilon = 0.2       # target accuracy
delta = 0.1
m_values = 50, 200
trials = 25
estimator = exact
n_draws = 5000
seed = 7
"""


def test_parse_config_golden():
    cfg = parse_config(GOLDEN_CONFIG)
    assert cfg == ExperimentConfig(
        mode="partite", k=2, scheme_id="rectangle", class_id="rectangle",
        measure="uniform", loss_id="zero-one", epsilon=0.2, delta=0.1,
        m_values=(50, 200), trials=25, estimator="exact", n_draws=5000, seed=7,
    )


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert cfg.m_values == (50, 200) and cfg.scheme_id == "rectangle"


def test_parse_config_errors_name_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2.*'k_value'"):
        parse_config("k = 2\nk_value = 3\n")
    with pytest.raises(ConfigError, match=r"line 3.*duplicate.*'seed'"):
        parse_config("seed = 1\nk = 2\nseed = 2\n")
    with pytest.raises(ConfigError, match=r"line 1.*key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match=r"bad value for 'trials'"):
        parse_config("trials = lots\n")
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config("epsilon = 1.5\n")


def test_parse_config_mode_floor():
    parse_config("mode = nonpartite\nclass_id = sum-threshold\nscheme_id = sum-threshold\nm_values = 2, 5\n")
    with pytest.raises(ConfigError, match="below the minimum"):
        parse_config("mode = nonpartite\nclass_id = sum-threshold\nscheme_id = sum-threshold\nm_values = 1, 5\n")


def test_validate_rejects_bad_fields():
    for text in [
        "mode = sideways\n",
        "k = 0\n",
        "k = 9\n",
        "scheme_id = magic\n",
        "class_id = magic\n",
        "loss_id = hinge\n",
        "delta = 0\n",
        "m_values =\n",
        "trials = 0\n",
        f"trials = {MAX_TRIALS + 1}\n",
        "estimator = guess\n",
        "n_draws = 0\n",
        "seed = -1\n",
    ]:
        with pytest.raises(ConfigError):
            parse_config(text)


def test_canonical_text_round_trips():
    cfg = parse_config(GOLDEN_CONFIG)
    assert parse_config(canonical_config_text(cfg)) == cfg


def test_config_hash_covers_every_field():
    cfg = parse_config(GOLDEN_CONFIG)
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert list(config_to_dict(cfg)) == names
    assert [line.partition(" = ")[0] for line in canonical_config_text(cfg).splitlines()] == names
    other = {
        "mode": NONPARTITE, "k": 3, "scheme_id": "trivial", "class_id": "sum-threshold",
        "measure": "discrete:0.25@0.5,0.75@0.5", "loss_id": "zero-one-other",
        "epsilon": 0.15, "delta": 0.05, "m_values": (50, 201), "trials": 26,
        "estimator": "monte-carlo", "n_draws": 5001, "seed": 8,
    }
    assert sorted(other) == sorted(names)
    hashes = {config_hash(cfg)}
    for name, value in other.items():
        assert getattr(cfg, name) != value
        hashes.add(config_hash(dataclasses.replace(cfg, **{name: value})))
    assert len(hashes) == 1 + len(names)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.cfg"))
    p = tmp_path / "ok.cfg"
    p.write_text("seed = 3\n")
    assert load_config(str(p)).seed == 3


# ---------------------------------------------------------------------------
# builders


def test_build_measure_uniform_and_discrete():
    cfg = ExperimentConfig()
    mu = build_measure(cfg)
    assert isinstance(mu.distributions[0], Uniform01)
    dcfg = dataclasses.replace(cfg, measure="discrete:0.25@0.5,0.75@0.5")
    mu = build_measure(dcfg)
    d = mu.distributions[0]
    assert isinstance(d, FiniteDiscrete)
    assert d.values == (0.25, 0.75) and d.weights == (0.5, 0.5)
    for bad in ("discrete:0.25", "discrete:x@0.5,0.75@0.5", "discrete:0.2@0.5,0.2@0.5", "gaussian"):
        with pytest.raises(ConfigError):
            build_measure(dataclasses.replace(cfg, measure=bad))


def test_build_class_and_scheme_mode_consistency():
    with pytest.raises(ConfigError, match="class_id rectangle requires partite mode"):
        build_all(ExperimentConfig(mode=NONPARTITE, class_id="rectangle", m_values=(5,)))
    with pytest.raises(ConfigError, match="scheme_id rectangle requires partite mode"):
        build_all(ExperimentConfig(mode=NONPARTITE, class_id="sum-threshold", m_values=(5,)))
    mu, klass, loss, scheme = build_all(ExperimentConfig())
    assert scheme.scheme_id == "rectangle" and klass.fallback.kind == "rectangle"
    assert klass.mode == loss.mode == PARTITE


# ---------------------------------------------------------------------------
# pair-sum counting kernels


def brute_ordered_below(xs, t):
    n = len(xs)
    return sum(
        1 for i in range(n) for j in range(n) if i != j and xs[i] + xs[j] < t
    )


def brute_extremes(xs, t):
    sums = [
        xs[i] + xs[j]
        for i in range(len(xs))
        for j in range(len(xs))
        if i != j
    ]
    pos = [s for s in sums if s >= t]
    neg = [s for s in sums if s < t]
    return (min(pos) if pos else None, max(neg) if neg else None)


@st.composite
def sorted_points(draw):
    n = draw(st.integers(2, 30))
    if draw(st.booleans()):
        # grid values force exact ties and boundary-exact pair sums
        vals = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))
        xs = np.asarray(vals, dtype=float) / 16.0
    else:
        seed = draw(st.integers(0, 2**16))
        xs = np.random.default_rng(seed).random(n)
    return np.sort(xs)


@st.composite
def thresholds(draw, xs):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(st.floats(-0.5, 2.5, allow_nan=False))
    if choice == 1:
        i = draw(st.integers(0, len(xs) - 1))
        j = draw(st.integers(0, len(xs) - 1))
        return float(xs[i] + xs[j])  # lands exactly on a realized sum
    return math.inf if choice == 2 else -math.inf


@st.composite
def sorted_point_blocks(draw):
    """A block of 1 to 4 sorted rows of one length, as sorted_points draws them."""
    n = draw(st.integers(2, 30))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            vals = draw(st.lists(st.integers(0, 16), min_size=n, max_size=n))
            rows.append(np.asarray(vals, dtype=float) / 16.0)
        else:
            rows.append(np.random.default_rng(draw(st.integers(0, 2**16))).random(n))
    return np.sort(np.asarray(rows), axis=1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ordered_pairs_below_matches_bruteforce(data):
    xs = data.draw(sorted_point_blocks())
    ts = np.asarray([[data.draw(thresholds(row)) for _ in range(2)] for row in xs])
    ends = _padded_sorted(xs)
    below = np.stack([_block_pairs_below(ends, ts[:, q]) for q in range(2)], axis=1)
    assert below.tolist() == [
        [brute_ordered_below(row, t) for t in row_ts] for row, row_ts in zip(xs, ts)
    ]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pairs_in_range_matches_bruteforce(data):
    # the threshold kernel's count of pairs between F's threshold and H's,
    # H rebuilt from a selected pair of each row, or constant 0 at eta = 2
    xs = data.draw(sorted_point_blocks())
    count, n = xs.shape
    pair = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    sigma = InjectionVector(NONPARTITE, n, (pair,))
    t_f = data.draw(thresholds(xs[0]))
    eta = data.draw(st.sampled_from([1, 2]))
    t_hs, emps = threshold_concentration(
        2, Hypothesis.sum_threshold(2, t_f), sigma, eta, n, xs[:, None, :]
    )
    assert t_hs.shape == (count,)
    for row, t, text, emp in zip(xs, t_hs.tolist(), describe_thresholds(t_hs), emps):
        t_h = math.inf if eta == 2 else row[pair[0]] + row[pair[1]]
        assert t == t_h
        assert text == (
            "constant(0)" if eta == 2 else Hypothesis.sum_threshold(2, t_h).describe()
        )
        lo, hi = min(t_f, t_h), max(t_f, t_h)
        want = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if lo <= row[i] + row[j] < hi
        )
        assert emp == want / math.comb(n, 2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_extreme_pair_sums_match_bruteforce(data):
    xs = data.draw(sorted_points())
    t = data.draw(thresholds(xs))
    # from every row, and from the rows threshold_pac searches
    for rows in (range(len(xs)), diagonal_rows(xs, t)):
        ends, f = padded_row(xs, len(rows))
        p = _row_boundaries(ends, t, f, first=rows.start)
        assert _boundary_extremes(ends, p, f, rows.start) == brute_extremes(xs, t)


def test_extreme_pair_sums_tiny():
    xs = np.array([0.5])
    assert diagonal_rows(xs, 1.0) == range(1)
    ends, f = padded_row(xs, 1)
    assert _boundary_extremes(ends, _row_boundaries(ends, 1.0, f), f) == (None, None)


def padded_row(xs, n=None):
    """The sorted points xs as the NaN-padded row the boundary search reads,
    and a float scratch of n rows (all of them when None)."""
    return _padded_sorted(xs[None])[0], np.empty(len(xs) if n is None else n)


def diagonal_rows(xs, t):
    """The rows threshold_pac searches: from the first row not full at t
    up to the diagonal at t and the diagonal's own row."""
    return range(_full_rows(xs, t), min(_diagonal(xs, t) + 1, len(xs)))


def row_boundaries(xs, t, rows=None):
    """_row_boundaries of the range rows (all when None) of the sorted
    points xs, from the cold guess."""
    rows = range(len(xs)) if rows is None else rows
    ends, f = padded_row(xs, len(rows))
    return _row_boundaries(ends, t, f, first=rows.start)


def brute_row_boundaries(xs, t):
    return np.array([sum(1 for y in xs if x + y < t) for x in xs], dtype=np.intp)


# magnitudes far apart make t - xs[i] round, so searchsorted on it guesses wrong
_ADVERSARIAL_ATOMS = (
    0.0, 1e-17, 3e-17, 0.1, float(np.nextafter(0.1, 1.0)), 0.2,
    float(np.nextafter(0.2, 0.0)), 0.30000000000000004, 0.7, 0.9,
)


@st.composite
def adversarial_points(draw, n=None):
    """Sorted points with long runs of a few tied atoms and mixed magnitudes;
    n of them, or 1 to 60 when None."""
    if n is None:
        n = draw(st.integers(1, 60))
    atoms = draw(st.lists(
        st.sampled_from(_ADVERSARIAL_ATOMS), min_size=1, max_size=4, unique=True
    ))
    picks = draw(st.lists(st.integers(0, len(atoms) - 1), min_size=n, max_size=n))
    return np.sort(np.asarray([atoms[i] for i in picks], dtype=float))


@st.composite
def boundary_thresholds(draw, xs):
    """A realized sum (self-sums included), or its float neighbor on either side."""
    i = draw(st.integers(0, len(xs) - 1))
    j = draw(st.integers(0, len(xs) - 1))
    s = xs[i] + xs[j]
    return float(draw(st.sampled_from([s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)])))


def test_row_boundaries_fix_wrong_guesses():
    xs = np.array([0.0, 1e-17, 1e-17, 0.1, 0.2])
    t = 0.1 + 0.2
    # the plain guess is wrong on the last two rows; the fix must correct them
    assert np.searchsorted(xs, t - xs).tolist() == [5, 5, 5, 5, 4]
    assert row_boundaries(xs, t).tolist() == [5, 5, 5, 4, 3]
    # the diagonal at t is 4 (0.2 + 0.2 is not below 0.1 + 0.2) and the
    # full rows 3 (0.1 + 0.2 is not), so the search takes rows 3 and 4, both
    # fixed up, and a shorter prefix the same values
    assert diagonal_rows(xs, t) == range(3, 5)
    assert row_boundaries(xs, t, diagonal_rows(xs, t)).tolist() == [4, 3]
    assert [row_boundaries(xs, t, range(n)).tolist() for n in (4, 1, 0)] == [
        [5, 5, 5, 4], [5], []
    ]
    assert row_boundaries(xs, math.inf).tolist() == [5] * 5
    assert row_boundaries(xs, -math.inf).tolist() == [0] * 5
    assert row_boundaries(xs, -math.inf, diagonal_rows(xs, -math.inf)).tolist() == [0]
    assert row_boundaries(np.zeros(0), 1.0).tolist() == []


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_boundaries_match_bruteforce(data):
    xs = data.draw(adversarial_points())
    t = data.draw(boundary_thresholds(xs))
    d = _diagonal(xs, t)
    for rows in (range(len(xs)), diagonal_rows(xs, t)):
        ends, f = padded_row(xs, len(rows))
        r = rows.start
        p = _row_boundaries(ends, t, f, first=r)
        assert np.array_equal(p, brute_row_boundaries(xs, t)[rows])
        assert _pairs_below(int(p[: d - r].sum()), r, d, len(xs)) == brute_ordered_below(xs, t)
        assert _boundary_extremes(ends, p, f, r) == brute_extremes(xs, t)
    # the block count's guesses go wrong here, so its fix-ups run
    assert _block_pairs_below(_padded_sorted(xs[None]), np.array([t])).tolist() == [
        brute_ordered_below(xs, t)
    ]


@st.composite
def adversarial_blocks(draw):
    """(xs, t): 1 to 4 rows of adversarial points of one length, each with
    its own threshold on a realized sum, beside one, or at +-inf, so the
    diagonal d and the full rows r differ between the rows of a block."""
    n = draw(st.integers(1, 60))
    xs = np.stack([draw(adversarial_points(n)) for _ in range(draw(st.integers(1, 4)))])
    ends = st.sampled_from([math.inf, -math.inf])
    return xs, np.array([draw(st.one_of(boundary_thresholds(row), ends)) for row in xs])


@settings(max_examples=150, deadline=None)
@given(adversarial_blocks())
# per row: r = d = 1 < m; d = 0 at -inf; r = d = m at +inf; r = 0 < d = 2
@example((
    np.array([[0.0, 0.3, 0.3], [0.1, 0.2, 0.7], [0.1, 0.1, 0.2], [0.1, 0.2, 0.7]]),
    np.array([0.5, -math.inf, math.inf, 0.5]),
))
# r = 3, d = 4, and the guess of row 3 is wrong: its fix-up starts there
@example((np.array([[0.0, 1e-17, 1e-17, 0.1, 0.2]]), np.array([0.1 + 0.2])))
def test_block_pairs_below_searches_rows_r_to_d(case):
    # the block count searches only the rows r <= i < d of each block row:
    # the full rows i < r come before the diagonal and hold every partner
    xs, ts = case
    for row, t in zip(xs, ts):
        r = sum(1 for x in row if x + row[-1] < t)
        assert r <= _diagonal(row, t)
        assert (brute_row_boundaries(row, t)[:r] == len(row)).all()
    below = _block_pairs_below(_padded_sorted(xs), ts)
    assert below.tolist() == [brute_ordered_below(row, t) for row, t in zip(xs, ts)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_boundaries_warm_start_equals_cold(data):
    xs = data.draw(adversarial_points())
    a = data.draw(boundary_thresholds(xs))
    b = data.draw(st.one_of(boundary_thresholds(xs), st.just(math.inf)))
    lo, hi = min(a, b), max(a, b)
    ends, f = padded_row(xs)
    warm = _row_boundaries(ends, hi, f, _row_boundaries(ends, lo, f))
    assert np.array_equal(warm, row_boundaries(xs, hi))
    assert np.array_equal(warm, brute_row_boundaries(xs, hi))


@st.composite
def diagonal_cases(draw):
    """(xs, t): adversarial points and a threshold on a pair sum, on a
    self-sum, or on the float neighbour of one, or +-inf (d = m, d = 0)."""
    xs = draw(adversarial_points())
    s = 2 * xs[draw(st.integers(0, len(xs) - 1))]
    self_sums = st.sampled_from(
        [s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf), math.inf, -math.inf]
    )
    return xs, float(draw(st.one_of(boundary_thresholds(xs), self_sums)))


@settings(max_examples=300, deadline=None)
@given(diagonal_cases())
@example((np.array([0.1, 0.2]), 0.2))  # m = 2, t on the least self-sum: d = 0
@example((np.array([0.0, 0.0, 0.1]), math.inf))  # d = m
@example((np.array([0.0, 0.2, 0.7]), 0.4))  # 0.2 + 0.2 lies in [t_f, t_h) = [0.4, 0.7)
def test_half_search_matches_bruteforce(case):
    # threshold_pac's search: the rows from r up to the diagonal d and row d
    xs, t_f = case
    d, rows = _diagonal(xs, t_f), diagonal_rows(xs, t_f)
    r, n = rows.start, rows.stop
    assert d == sum(1 for x in xs if x + x < t_f)
    ends, f = padded_row(xs, len(rows))
    p = _row_boundaries(ends, t_f, f, first=r)
    assert np.array_equal(p, brute_row_boundaries(xs, t_f)[rows])
    assert _pairs_below(int(p[: d - r].sum()), r, d, len(xs)) == brute_ordered_below(xs, t_f)
    min_pos, max_neg = _boundary_extremes(ends, p, f, r)
    assert (min_pos, max_neg) == brute_extremes(xs, t_f)
    # the move to t_h, the least pair sum at or above t_f: no pair of
    # distinct points sums into [t_f, t_h), so at most one self-sum does,
    # and the rows searched hold the diagonal at t_h
    t_h = math.inf if min_pos is None else min_pos
    d_h = _diagonal(xs, t_h)
    assert d_h == sum(1 for x in xs if x + x < t_h)
    assert d <= d_h <= n
    _row_boundaries(ends, t_h, f, p, r)
    assert np.array_equal(p, brute_row_boundaries(xs, t_h)[rows])
    assert _pairs_below(int(p[: d_h - r].sum()), r, d_h, len(xs)) == brute_ordered_below(xs, t_h)


@st.composite
def full_row_cases(draw):
    """(xs, t): 2 to 60 adversarial points and a threshold on a pair sum,
    on a sum with the largest point, on the float neighbour of one, or
    +-inf (r = d = m, d = 0)."""
    xs = draw(adversarial_points(draw(st.integers(2, 60))))
    s = xs[draw(st.integers(0, len(xs) - 1))] + xs[-1]
    last_sums = st.sampled_from(
        [s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf), math.inf, -math.inf]
    )
    return xs, float(draw(st.one_of(boundary_thresholds(xs), last_sums)))


@settings(max_examples=300, deadline=None)
@given(full_row_cases())
@example((np.array([0.0, 0.2, 0.7]), 2.0))  # t above every pair sum: r = d = m
@example((np.array([0.1, 0.2, 0.7]), 0.5))  # r = 0 < d = 2
@example((np.array([0.0, 0.1, 0.2, 0.7]), 0.75))  # 0 < r = 1 < d = 3
@example((np.array([0.1, 0.2, 0.3]), 0.55))  # r = m - 1 = d
# the float neighbour above xs[2] + xs[m - 1]: r = 3, and row 3's guess is wrong
@example((np.array([0.0, 1e-17, 0.1, 0.2]), float(np.nextafter(0.1 + 0.2, np.inf))))
@example((np.array([0.1, 0.1, 0.1, 0.2, 0.2]), float(np.nextafter(0.1 + 0.2, np.inf))))  # ties
# the greatest pair sum below t, 0.0 + 0.5, is the full row 0's with the last point
@example((np.array([0.0, 0.3, 0.4, 0.5]), 0.55))
def test_cut_search_matches_bruteforce(case):
    # threshold_pac searches only the rows r <= i <= min(d, m - 1): the full
    # rows i < r hold every partner
    xs, t_f = case
    m, rows, d = len(xs), diagonal_rows(xs, t_f), _diagonal(xs, t_f)
    r = rows.start
    assert r == sum(1 for x in xs if x + xs[-1] < t_f) <= d
    assert (brute_row_boundaries(xs, t_f)[:r] == m).all()
    ends, f = padded_row(xs, len(rows))
    p = _row_boundaries(ends, t_f, f, first=r)
    assert np.array_equal(p, brute_row_boundaries(xs, t_f)[rows])
    assert _pairs_below(int(p[: d - r].sum()), r, d, m) == brute_ordered_below(xs, t_f)
    min_pos, max_neg = _boundary_extremes(ends, p, f, r)
    assert (min_pos, max_neg) == brute_extremes(xs, t_f)
    # the move to t_h keeps the rows: the full rows at t_h include those at t_f
    t_h = math.inf if min_pos is None else min_pos
    d_h = _diagonal(xs, t_h)
    _row_boundaries(ends, t_h, f, p, r)
    assert np.array_equal(p, brute_row_boundaries(xs, t_h)[rows])
    assert _pairs_below(int(p[: d_h - r].sum()), r, d_h, m) == brute_ordered_below(xs, t_h)
    cfg = NONPARTITE_CFG
    mu, klass, loss, scheme = build_all(cfg)
    x, F = Sample.nonpartite(xs.tolist(), 2), Hypothesis.sum_threshold(2, t_f)
    fast, generic = (
        pac_trial(cfg, mu, loss, m, 0, F, x, None, kernels(cfg, engine)[1]) for engine in ENGINES
    )
    assert fast == generic


# ---------------------------------------------------------------------------
# rectangle counting kernels


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rect_xor_count_matches_dense(data):
    k = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    sizes = [data.draw(st.integers(1, 6)) for _ in range(k)]
    fmasks = [rng.random(n) < 0.5 for n in sizes]
    hmasks = [rng.random(n) < 0.5 for n in sizes]
    fgrid = functools.reduce(np.logical_and.outer, fmasks)
    hgrid = functools.reduce(np.logical_and.outer, hmasks)
    assert _rect_xor_count(fmasks, hmasks) == int((fgrid ^ hgrid).sum())


def test_rect_masks_and_minimal_box():
    sides = [np.array([0.1, 0.5, 0.9]), np.array([0.2, 0.6, 0.4])]
    F = Hypothesis.rectangle([(0.0, 0.5), (0.3, 0.7)])
    masks = _rect_masks(F, sides)
    assert np.array_equal(masks[0], [True, True, False])
    assert np.array_equal(masks[1], [False, True, True])
    box = minimal_box(sides, masks)
    assert box.intervals == ((0.1, 0.5), (0.4, 0.6))
    empty = _rect_masks(Hypothesis.empty_rectangle(2), sides)
    assert not any(m.any() for m in empty)
    assert minimal_box(sides, empty).intervals == Hypothesis.empty_rectangle(2).intervals
    # one side without a masked point empties the whole box
    box = minimal_box(sides, [masks[0], empty[1]])
    assert box.describe() == "rectangle(empty)"
    assert box.intervals == Hypothesis.empty_rectangle(2).intervals


def test_block_box_masks_and_minimal_boxes():
    pts = np.array([
        [[0.1, 0.5, 0.9], [0.2, 0.6, 0.4]],
        [[0.6, 0.7, 0.8], [0.2, 0.6, 0.4]],
    ])
    F = Hypothesis.rectangle([(0.0, 0.5), (0.3, 0.7)])
    masks = _block_box_masks(*box_ends(F).T, pts)
    assert masks[0].tolist() == [[True, True, False], [False, True, True]]
    assert masks[1].tolist() == [[False, False, False], [False, True, True]]
    assert not _block_box_masks(*box_ends(Hypothesis.empty_rectangle(2)).T, pts).any()
    # the empty box's infinite ends hold no infinite point either
    assert not _block_box_masks(
        *box_ends(Hypothesis.empty_rectangle(1)).T, np.array([[[-np.inf, np.inf]]])
    ).any()
    sigma = InjectionVector(PARTITE, 3, ((2, 0), (1, 2)))
    ends, emps = box_concentration(2, F, sigma, 1, 3, pts)
    # trial 0 keeps 0.1 of side 0 and both points of side 1; trial 1 keeps
    # no point of F on side 0, so its box is empty on every side
    empty = box_ends(Hypothesis.empty_rectangle(2)).tolist()
    assert ends.tolist() == [[[0.1, 0.1], [0.4, 0.6]], empty]
    assert describe_boxes(ends) == ["rectangle([0.1, 0.1], [0.4, 0.6])", "rectangle(empty)"]
    assert emps == [2 / 9, 0.0]
    ends, emps = box_concentration(2, F, sigma, 2, 3, pts)
    assert ends.tolist() == [empty] * 2
    assert emps == [4 / 9, 0.0]


_BOX_ATOMS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)


def brute_minimal_box(F, sides, sigma):
    """Minimal box around the F-positive tuples of the selected points: the
    extremes, per side, of its selected points inside F's interval."""
    inside = [
        [side[i] for i in mp if lo <= side[i] <= hi]
        for (lo, hi), side, mp in zip(F.intervals, sides, sigma.maps)
    ]
    if not all(inside):
        return Hypothesis.empty_rectangle(len(sides))
    return Hypothesis.rectangle([(min(v), max(v)) for v in inside])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_box_block_kernel_matches_dense(data):
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(1, 4))
    n = count * k * m
    pts = np.asarray(
        data.draw(st.lists(st.sampled_from(_BOX_ATOMS), min_size=n, max_size=n))
    ).reshape(count, k, m)
    edges = st.lists(st.sampled_from(_BOX_ATOMS), min_size=2, max_size=2).map(sorted)
    F = data.draw(st.one_of(
        st.just(Hypothesis.empty_rectangle(k)),
        st.lists(edges, min_size=k, max_size=k).map(Hypothesis.rectangle),
    ))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    sigma = InjectionVector.random(PARTITE, k, m, data.draw(st.integers(0, m)), rng)
    eta = data.draw(st.sampled_from([1, 2]))
    ends, emps = box_concentration(k, F, sigma, eta, m, pts)
    assert ends.shape == (count, k, 2) and len(emps) == count
    for sides, e, text, emp in zip(pts, ends, describe_boxes(ends), emps):
        sides = [side.tolist() for side in sides]
        want = Hypothesis.empty_rectangle(k) if eta == 2 else brute_minimal_box(F, sides, sigma)
        assert e.tolist() == box_ends(want).tolist()
        assert text == want.describe()
        disagree = sum(
            F.value(tup) != want.value(tup) for tup in itertools.product(*sides)
        )
        assert emp == disagree / m**k


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_box_block_losses_count_f_and_h_from_their_masks(data):
    # the kernel counts F and H only: H's sides lie inside F's, so the
    # count of F and H is H's, and the loss (f + h - 2 fh) / m**k is f - h
    k = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(1, 4))
    n = count * k * m
    pts = np.asarray(
        data.draw(st.lists(st.sampled_from(_BOX_ATOMS), min_size=n, max_size=n))
    ).reshape(count, k, m)
    # (0.3, 0.4) holds no atom, so an F with it leaves that side empty
    edges = st.one_of(
        st.lists(st.sampled_from(_BOX_ATOMS), min_size=2, max_size=2).map(sorted),
        st.just([0.3, 0.4]),
    )
    F = Hypothesis.rectangle(data.draw(st.lists(edges, min_size=k, max_size=k)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    sigma = InjectionVector.random(PARTITE, k, m, data.draw(st.integers(0, m)), rng)
    eta = data.draw(st.sampled_from([1, 2]))
    ends, emps = box_concentration(k, F, sigma, eta, m, pts)
    fmasks = _block_box_masks(*box_ends(F).T, pts)
    hmasks = _block_box_masks(ends[..., 0], ends[..., 1], pts)
    for fm, hm, emp in zip(fmasks, hmasks, emps):
        f, h, fh = (
            math.prod(int(np.count_nonzero(side)) for side in masks)
            for masks in (fm, hm, fm & hm)
        )
        assert fh == h
        assert emp == (f + h - 2 * fh) / m**k


# ---------------------------------------------------------------------------
# engine equivalence


PARTITE_CFG = ExperimentConfig(m_values=(30, 60), trials=40, epsilon=0.2, seed=5)
NONPARTITE_CFG = ExperimentConfig(
    mode=NONPARTITE, scheme_id="sum-threshold", class_id="sum-threshold",
    m_values=(30, 60), trials=40, epsilon=0.2, seed=5,
)


def records_of(result):
    return [vars(r) for r in result.records]


ENGINES = ("fast", "generic")


def kernels(cfg, engine):
    """(concentration kernel, PAC kernel) of the engine on cfg."""
    mu, klass, loss, scheme = build_all(cfg)
    return _kernels(cfg, klass, loss, scheme, engine)


def concentration_columns(cfg, mu, loss, F, sigma, eta, variant, m, ts, xs, mc_seeds, kernel):
    """The record columns of the trials ts on the samples xs, as the runner
    builds them: the kernel's fits, then the columns of the cell."""
    rows, emps = _concentration_fits(cfg, kernel, F, sigma, eta, m, xs, len(xs))
    return _cell_columns(
        cfg, mu, loss, variant, m, ts, FAMILIES[cfg.class_id].params(F), rows, emps,
        [eta] * len(ts), mc_seeds,
    )


def concentration_trial(cfg, mu, loss, F, sigma, eta, variant, m, t, x, mc_seed, kernel):
    """The record of one trial, through the code of the runner; the kernel
    runs on a block of this one sample."""
    records = Records(TrialRecord)
    records.extend(concentration_columns(
        cfg, mu, loss, F, sigma, eta, variant, m, np.array([t]), [x], [mc_seed], kernel
    ))
    [record] = records
    return record


def pac_trial(cfg, mu, loss, m, t, F, x, mc_seed, kernel):
    """The record of one PAC trial, through the code of the runner."""
    records = Records(TrialRecord)
    records.extend(_pac_columns(cfg, mu, loss, kernel, m, np.array([t]), [F], [x], [mc_seed]))
    [record] = records
    return record


@pytest.mark.parametrize("cfg", [PARTITE_CFG, NONPARTITE_CFG], ids=["partite", "nonpartite"])
def test_concentration_engines_agree(cfg):
    fast = run_concentration_suite(cfg, engine="fast")
    slow = run_concentration_suite(cfg, engine="generic")
    assert records_of(fast) == records_of(slow)
    assert fast.rows == slow.rows


@pytest.mark.parametrize("cfg", [PARTITE_CFG, NONPARTITE_CFG], ids=["partite", "nonpartite"])
def test_pac_engines_agree(cfg):
    fast = run_pac_experiment(cfg, engine="fast")
    slow = run_pac_experiment(cfg, engine="generic")
    assert records_of(fast) == records_of(slow)
    assert fast.rows == slow.rows


# a few atoms, so points tie and pair sums tie with each other and with
# the atoms that box edges and thresholds sit on
_TIE_ATOMS = (0.0, 0.1, 0.2, 0.25, 0.30000000000000004, 0.5, 0.7, 0.75, 1.0)


@st.composite
def tied_trials(draw, mode, pool=_TIE_ATOMS):
    """(m, sample, target) with the points drawn from a few atoms of pool;
    box edges lie on atoms, thresholds on atoms, on pair sums or next to
    them."""
    atoms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    m = draw(st.integers(2, 10))

    def points():
        return draw(st.lists(st.sampled_from(atoms), min_size=m, max_size=m))

    if mode == PARTITE:
        edges = st.lists(st.sampled_from(atoms), min_size=2, max_size=2).map(sorted)
        return m, Sample.partite([points(), points()]), Hypothesis.rectangle(
            [draw(edges), draw(edges)]
        )
    x = Sample.nonpartite(points(), 2)
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    s = x.sides[0][i] + x.sides[0][j]
    t = draw(st.sampled_from([*atoms, s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)]))
    return m, x, Hypothesis.sum_threshold(2, t)


@pytest.mark.parametrize("cfg", [PARTITE_CFG, NONPARTITE_CFG], ids=["partite", "nonpartite"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fast_kernels_equal_generic_on_ties(cfg, data):
    mu, klass, loss, scheme = build_all(cfg)
    (fast_conc, fast_pac), (generic_conc, generic_pac) = (kernels(cfg, e) for e in ENGINES)
    m, x, F = data.draw(tied_trials(cfg.mode))
    pac = [pac_trial(cfg, mu, loss, m, 0, F, x, None, k) for k in (fast_pac, generic_pac)]
    assert pac[0] == pac[1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    sigma = InjectionVector.random(cfg.mode, cfg.k, m, int(scheme.selection_size(m)), rng)
    for eta in (1, 2):
        args = (cfg, mu, loss, F, sigma, eta, "fixed", m, 0, x, None)
        assert concentration_trial(*args, fast_conc) == concentration_trial(*args, generic_conc)


@pytest.mark.parametrize("m", [200, 1000])
@pytest.mark.parametrize("atoms", [_TIE_ATOMS, _ADVERSARIAL_ATOMS], ids=["ties", "adversarial"])
def test_threshold_pac_equals_generic_on_large_tied_samples(m, atoms):
    # long runs of tied points around one point whose value occurs once, so
    # a self-sum is no pair sum; thresholds sit on pair sums, on that
    # self-sum, or on their float neighbours
    cfg = NONPARTITE_CFG
    mu, klass, loss, scheme = build_all(cfg)
    pac_kernels = [kernels(cfg, engine)[1] for engine in ENGINES]
    rng = np.random.default_rng(m)
    for _ in range(3):
        once, *pool = rng.choice(atoms, size=4, replace=False)
        points = rng.choice(pool, size=m)
        i, j = rng.integers(m, size=2)
        points[i] = once
        x = Sample.nonpartite(points.tolist(), 2)
        for s in {points[i] + points[i], points[i] + points[j], points[j] + points[j - 1]}:
            for t in (s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)):
                F = Hypothesis.sum_threshold(2, float(t))
                fast, generic = (
                    pac_trial(cfg, mu, loss, m, 0, F, x, None, kernel) for kernel in pac_kernels
                )
                assert fast == generic


# two points at -0.0 sum to -0.0, which the dense rebuild's coordinate_sum,
# starting from 0.0, gives as +0.0
_SIGNED_ZERO_ATOMS = (-0.0, -0.5, 0.5, 0.25)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_threshold_pac_equals_generic_on_signed_zeros(data):
    cfg = NONPARTITE_CFG
    mu, klass, loss, scheme = build_all(cfg)
    pac_kernels = [kernels(cfg, engine)[1] for engine in ENGINES]
    m, x, F = data.draw(tied_trials(NONPARTITE, _SIGNED_ZERO_ATOMS))
    fast, generic = (pac_trial(cfg, mu, loss, m, 0, F, x, None, k) for k in pac_kernels)
    assert fast == generic


def test_threshold_pac_gives_a_sum_of_negative_zeros_as_plus_zero():
    x = Sample.nonpartite([-0.0, -0.0, 0.5], 2)
    t_h, header, emp, realizable = threshold_pac(2, Hypothesis.sum_threshold(2, -0.0), 3, x)
    assert (t_h, math.copysign(1.0, t_h)) == (0.0, 1.0)
    assert (header, emp, realizable) == (1, 0.0, True)
    assert Hypothesis.sum_threshold(2, t_h).describe() == "sum-threshold(t=0)"


def test_threshold_pac_peak_memory_stays_near_its_padded_row():
    # a target below every pair sum: the diagonal is 0, so one row is
    # searched, and the padded row is the only m-length array
    m = 36342
    x = Sample.nonpartite(np.random.default_rng(0).random(m), 2)
    F = Hypothesis.sum_threshold(2, -1.0)
    tracemalloc.start()
    try:
        threshold_pac(2, F, m, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (m + 2) * 8


@pytest.mark.parametrize("t", [1.9, 2.5])
def test_threshold_pac_peak_memory_skips_its_full_rows(t):
    # a target above most pair sums: the rows before r hold every partner
    # and are not searched, so the scratch and the boundaries stay short
    m = 36342
    x = Sample.nonpartite(np.random.default_rng(0).random(m), 2)
    F = Hypothesis.sum_threshold(2, t)
    tracemalloc.start()
    try:
        threshold_pac(2, F, m, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (m + 2) * 8


def sorted_box_pac(F, sides):
    """box_pac's results by brute force: the ends of the minimal box H
    around F's points of each side, from np.sort of those points; the
    header; and the grid tuples where F and H disagree, from counts by
    binary search in each sorted side."""
    ends = []
    for (lo, hi), side in zip(F.intervals, sides):
        inside = np.sort(side[(side >= lo) & (side <= hi)])
        ends.append([inside[0], inside[-1]] if len(inside) else None)
    if None in ends:
        ends = [[math.inf, -math.inf]] * len(sides)
    both = [(max(f[0], h[0]), min(f[1], h[1])) for f, h in zip(F.intervals, ends)]
    xss = [np.sort(side) for side in sides]

    def tuples_in(box):
        return math.prod(
            int(np.searchsorted(xs, hi, side="right")) - int(np.searchsorted(xs, lo))
            if lo <= hi else 0
            for (lo, hi), xs in zip(box, xss)
        )

    count = tuples_in(F.intervals) + tuples_in(ends) - 2 * tuples_in(both)
    return ends, 2 if ends[0][0] > ends[0][1] else 1, count


@pytest.mark.parametrize("m", [200, 1000, 16852, 33704])
@pytest.mark.parametrize("atoms", [_TIE_ATOMS, _ADVERSARIAL_ATOMS], ids=["ties", "adversarial"])
def test_box_pac_equals_generic_on_large_tied_samples(m, atoms):
    # long runs of tied points on each side, with box edges on the drawn
    # atoms, so that points sit on the edges, and one target whose side 1
    # is an atom no point takes, so it holds none: header 2, the empty box.
    # Every m is checked against the sorted brute force; where the generic
    # engine's label grid stays small (m = 200, 1000), against it as well.
    cfg = PARTITE_CFG
    mu, klass, loss, scheme = build_all(cfg)
    pac_kernels = [kernels(cfg, engine)[1] for engine in ENGINES]
    rng = np.random.default_rng(m)
    for _ in range(3):
        spare, *pool = rng.choice(atoms, size=4, replace=False)
        x = Sample.partite([rng.choice(pool, size=m) for _ in range(2)])
        targets = [
            Hypothesis.rectangle([sorted(rng.choice(pool, size=2)) for _ in range(2)])
            for _ in range(4)
        ]
        targets.append(Hypothesis.rectangle([sorted(rng.choice(pool, size=2)), (spare, spare)]))
        for F in targets:
            ends, header, count = sorted_box_pac(F, x.sides)
            row, got_header, emp, realizable = box_pac(2, F, m, x)
            assert row.tolist() == ends
            assert (got_header, emp, realizable) == (header, count / m**2, count == 0)
            if m <= 1000:
                fast, generic = (
                    pac_trial(cfg, mu, loss, m, 0, F, x, None, kernel) for kernel in pac_kernels
                )
                assert fast == generic
        # the last target's side 1 held no point
        assert header == 2 and ends == [[math.inf, -math.inf]] * 2


@st.composite
def tied_blocks(draw, mode):
    """(m, samples, target) as tied_trials draws them, with 1 to 5 samples
    of one size sharing the atoms; a threshold may sit on a pair sum of the
    first sample, or next to it."""
    atoms = draw(st.lists(st.sampled_from(_TIE_ATOMS), min_size=1, max_size=4, unique=True))
    m = draw(st.integers(2, 10))
    count = draw(st.integers(1, 5))

    def points():
        return draw(st.lists(st.sampled_from(atoms), min_size=m, max_size=m))

    if mode == PARTITE:
        edges = st.lists(st.sampled_from(atoms), min_size=2, max_size=2).map(sorted)
        xs = [Sample.partite([points(), points()]) for _ in range(count)]
        return m, xs, Hypothesis.rectangle([draw(edges), draw(edges)])
    xs = [Sample.nonpartite(points(), 2) for _ in range(count)]
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    s = xs[0].sides[0][i] + xs[0].sides[0][j]
    t = draw(st.sampled_from([*atoms, s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)]))
    return m, xs, Hypothesis.sum_threshold(2, t)


@pytest.mark.parametrize("cfg", [PARTITE_CFG, NONPARTITE_CFG], ids=["partite", "nonpartite"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_kernels_equal_generic_on_tied_blocks(cfg, data):
    mu, klass, loss, scheme = build_all(cfg)
    conc = {engine: kernels(cfg, engine)[0] for engine in ENGINES}
    m, xs, F = data.draw(tied_blocks(cfg.mode))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    sigma = InjectionVector.random(cfg.mode, cfg.k, m, int(scheme.selection_size(m)), rng)
    for eta in (1, 2):
        fits = {
            engine: _concentration_fits(cfg, kernel, F, sigma, eta, m, xs, len(xs))
            for engine, kernel in conc.items()
        }
        # the same parameter rows, bit for bit, and empirical losses
        rows, emps = fits["fast"]
        assert len(rows) == len(emps) == len(xs)
        assert rows.tobytes() == fits["generic"][0].tobytes()
        assert emps == fits["generic"][1]
        records = {
            engine: concentration_columns(
                cfg, mu, loss, F, sigma, eta, "fixed", m, np.arange(len(xs)), xs,
                [None] * len(xs), kernel,
            )
            for engine, kernel in conc.items()
        }
        assert records["fast"] == records["generic"]


def force_reruns(monkeypatch):
    """Make every cell fail its first pass, so each m also runs the
    re-measured block of trials cfg.trials .. 5 * cfg.trials - 1: a
    confidence half-width of -2 puts every frequency above its bound, and
    a guaranteed size of 1 makes the PAC bound apply at every m."""
    monkeypatch.setattr(experiments, "_ci_half_width", lambda p_hat, n: -2.0)
    monkeypatch.setattr(experiments, "m_pac", lambda inputs, window: 1)


def trial_numbers_per_m(cfg, records):
    return {m: [r.trial for r in records if r.m == m] for m in cfg.m_values}


# ten atoms, so that boxes disagree on some and the Monte Carlo total
# loss depends on its seed
MC_DISCRETE_CFG = dataclasses.replace(
    PARTITE_CFG, measure="discrete:" + ",".join(f"{0.05 + 0.1 * i:.2f}@0.1" for i in range(10)),
    estimator="monte-carlo", n_draws=300, m_values=(30, 45), trials=6,
)
# the one built-in config that auto sends to the generic engine: the fast
# sum-threshold kernels count pairs, and no exact total loss covers k = 3
NONPARTITE_K3_MC_CFG = dataclasses.replace(
    NONPARTITE_CFG, k=3, estimator="monte-carlo", n_draws=300, m_values=(50, 60), trials=6,
)


@pytest.mark.parametrize("engine", ["fast", "generic"])
@pytest.mark.parametrize(
    "cfg",
    [PARTITE_CFG, NONPARTITE_CFG, MC_DISCRETE_CFG],
    ids=["partite", "nonpartite", "discrete-monte-carlo"],
)
def test_result_columns_hold_exact_python_values(cfg, engine):
    # columns built from arrays and kernel results must hold no numpy
    # scalar (np.count_nonzero gives np.intp, and np.intp == 0 an np.bool_,
    # which json cannot write), in the records and in the summary table
    cfg = dataclasses.replace(cfg, m_values=(30,), trials=4)
    for run in (run_pac_experiment, run_concentration_suite):
        result = run(cfg, engine=engine)
        assert len(result.records) > 0
        for name, values in [*result.records.columns.items(), *result.table.items()]:
            kinds = set(map(type, values))
            assert kinds <= {bool, int, float, str}, (run.__name__, name, kinds)


BATCHED_CFGS = [PARTITE_CFG, NONPARTITE_CFG, MC_DISCRETE_CFG, NONPARTITE_K3_MC_CFG]
BATCHED_IDS = ["partite", "nonpartite", "discrete-monte-carlo", "nonpartite-k3-monte-carlo"]


@pytest.mark.parametrize("cfg", BATCHED_CFGS, ids=BATCHED_IDS)
def test_batched_concentration_equals_trial_by_trial(cfg, monkeypatch):
    # blocks of 130 drawn points hold 2 to 4 trials at the smaller sizes, so
    # that blocks straddle the 5 first-pass trials and the 20 re-measured ones
    force_reruns(monkeypatch)
    monkeypatch.setattr(experiments, "_BLOCK_POINTS", 130)
    cfg = dataclasses.replace(cfg, trials=5)
    mu, klass, loss, scheme = build_all(cfg)
    F = klass.sample_hypothesis(spawn_rng(cfg.seed, 11))
    sel = int(scheme.selection_size(min(cfg.m_values)))

    def sigma(m):
        return InjectionVector.top(cfg.mode, cfg.k, m, sel)

    for variant, eta in (("fixed", 1), ("random", 2)):
        result = run_concentration_experiment(cfg, sigma, eta, F, variant)
        assert all(row["rerun"] for row in result.rows)
        assert trial_numbers_per_m(cfg, result.records) == {
            m: list(range(5 * cfg.trials)) for m in cfg.m_values
        }
        kernel = kernels(cfg, "generic" if cfg.estimator == "monte-carlo" else "fast")[0]
        vsalt = _VARIANT_SALT[variant]
        for r in result.records:
            mi = cfg.m_values.index(r.m)
            x = draw_sample(mu, r.m, derive_seed(cfg.seed, vsalt, mi, r.trial))
            mc_seed = derive_seed(cfg.seed, vsalt, mi, r.trial, 7)
            want = concentration_trial(
                cfg, mu, loss, F, sigma(r.m), eta, variant, r.m, r.trial, x, mc_seed, kernel,
            )
            assert r == want


@pytest.mark.parametrize(
    "cfg",
    [
        PARTITE_CFG,
        NONPARTITE_CFG,
        *(
            dataclasses.replace(
                cfg, measure=MC_DISCRETE_CFG.measure, estimator="monte-carlo", n_draws=300
            )
            for cfg in (PARTITE_CFG, NONPARTITE_CFG)
        ),
    ],
    ids=["partite", "nonpartite", "partite-discrete", "nonpartite-discrete"],
)
def test_block_engine_equals_generic_across_block_edges(cfg, monkeypatch):
    # blocks of 2 and 1 trials (partite, m = 30 and 60) and of 4 and 2
    # (nonpartite): 5 first-pass trials and the 20 re-measured ones, which
    # number on from 5, fill no whole number of blocks
    force_reruns(monkeypatch)
    monkeypatch.setattr(experiments, "_BLOCK_POINTS", 130)
    cfg = dataclasses.replace(cfg, trials=5)
    fast = run_concentration_suite(cfg, engine="fast")
    slow = run_concentration_suite(cfg, engine="generic")
    assert all(row["rerun"] for row in fast.rows)
    for variant in ("fixed", "random"):
        recs = [r for r in fast.records if r.variant == variant]
        assert trial_numbers_per_m(cfg, recs) == {m: list(range(25)) for m in cfg.m_values}
    assert records_of(fast) == records_of(slow)
    assert fast.rows == slow.rows


@pytest.mark.parametrize("cfg", BATCHED_CFGS, ids=BATCHED_IDS)
def test_batched_pac_equals_trial_by_trial(cfg, monkeypatch):
    force_reruns(monkeypatch)
    cfg = dataclasses.replace(cfg, trials=5)
    result = run_pac_experiment(cfg)
    assert all(row["rerun"] for row in result.rows)
    assert trial_numbers_per_m(cfg, result.records) == {
        m: list(range(5 * cfg.trials)) for m in cfg.m_values
    }
    mu, klass, loss, scheme = build_all(cfg)
    kernel = kernels(cfg, "generic" if cfg.estimator == "monte-carlo" else "fast")[1]
    for r in result.records:
        mi = cfg.m_values.index(r.m)
        F = klass.sample_hypothesis(spawn_rng(cfg.seed, mi, r.trial, 0))
        x = draw_sample(mu, r.m, derive_seed(cfg.seed, mi, r.trial, 1))
        mc_seed = derive_seed(cfg.seed, mi, r.trial, 7)
        want = pac_trial(cfg, mu, loss, r.m, r.trial, F, x, mc_seed, kernel)
        assert r == want


@pytest.mark.parametrize(
    "cfg",
    [
        dataclasses.replace(
            cfg, measure=MC_DISCRETE_CFG.measure, estimator="monte-carlo", n_draws=300
        )
        for cfg in (PARTITE_CFG, NONPARTITE_CFG)
    ],
    ids=["partite", "nonpartite"],
)
def test_engines_agree_on_a_discrete_measure(cfg):
    # the fast kernels read only the drawn points, so atoms (and the ties
    # they bring) change nothing
    for run in (run_concentration_suite, run_pac_experiment):
        fast = run(cfg, engine="fast")
        slow = run(cfg, engine="generic")
        assert records_of(fast) == records_of(slow)
        assert fast.rows == slow.rows


@pytest.mark.parametrize("cfg", [PARTITE_CFG, NONPARTITE_CFG], ids=["partite", "nonpartite"])
@pytest.mark.parametrize("count", [1, 3])
def test_concentration_kernels_keep_the_block_contract(cfg, count):
    # rows (count, *params(F).shape) and count losses from both engines'
    # kernels, on a block stacked as the runner stacks it, so that the
    # blocks of a cell concatenate
    mu, klass, loss, scheme = build_all(cfg)
    family = FAMILIES[cfg.class_id]
    F = klass.sample_hypothesis(spawn_rng(cfg.seed, 11))
    m = 12
    sigma = InjectionVector.top(cfg.mode, cfg.k, m, int(scheme.selection_size(m)))
    points = np.dtype((float, (len(mu.distributions), m)))
    pts = np.fromiter((draw_sample(mu, m, seed).sides for seed in range(count)), points)
    for eta in (1, 2):
        fits = {e: kernels(cfg, e)[0](cfg.k, F, sigma, eta, m, pts.copy()) for e in ENGINES}
        for rows, emps in fits.values():
            assert rows.shape == (count, *np.shape(family.params(F)))
            assert len(emps) == count
        assert fits["fast"][0].tobytes() == fits["generic"][0].tobytes()
        assert fits["fast"][1] == fits["generic"][1]


def block_sizes(n, per_block):
    """The trial count of each block of a pass of n trials."""
    return [min(per_block, n - start) for start in range(0, n, per_block)]


@pytest.mark.parametrize("tiny_bound", [False, True], ids=["one-pass", "re-measured"])
@pytest.mark.parametrize(
    "cfg, per_block",
    [
        # a partite trial at m = 50 draws 100 points, so a block holds 163
        # trials, and 163 fill one exactly; a nonpartite one draws 50
        (dataclasses.replace(PARTITE_CFG, m_values=(50,), trials=163), 163),
        (dataclasses.replace(PARTITE_CFG, m_values=(50,), trials=200), 163),
        (dataclasses.replace(NONPARTITE_CFG, m_values=(50,), trials=400), 327),
    ],
    ids=["partite-exact-multiple", "partite", "nonpartite"],
)
def test_concentration_cells_run_their_exact_blocks(cfg, per_block, tiny_bound, monkeypatch):
    # no kernel call gets an empty block: a pass of n trials makes
    # ceil(n / per_block) calls, and a re-measured cell one more pass of
    # RERUN_FACTOR * n trials
    sizes = []
    for name, family in list(experiments.FAMILIES.items()):

        def counted(k, F, sigma, eta, m, pts, kernel=family.concentration_kernel):
            sizes.append(len(pts))
            return kernel(k, F, sigma, eta, m, pts)

        monkeypatch.setitem(
            experiments.FAMILIES, name, dataclasses.replace(family, concentration_kernel=counted)
        )
    if tiny_bound:
        bound = experiments.azuma_bound
        monkeypatch.setattr(
            experiments, "azuma_bound",
            lambda inputs, m: dataclasses.replace(bound(inputs, m), single_event_bound=-1.0),
        )
    result = run_concentration_suite(cfg, engine="fast")
    assert [row["rerun"] for row in result.rows] == [tiny_bound] * 2
    passes = [cfg.trials, experiments.RERUN_FACTOR * cfg.trials][: 1 + tiny_bound]
    assert min(sizes) >= 1
    assert len(sizes) == 2 * sum(math.ceil(n / per_block) for n in passes)
    assert sizes == [size for _ in range(2) for n in passes for size in block_sizes(n, per_block)]


@pytest.mark.parametrize("cfg", [PARTITE_CFG, NONPARTITE_CFG], ids=["partite", "nonpartite"])
def test_pac_kernels_agree_on_one_sample(cfg):
    mu, klass, loss, scheme = build_all(cfg)
    for seed in range(4):
        F = klass.sample_hypothesis(spawn_rng(cfg.seed, seed))
        x = draw_sample(mu, 30, seed)
        (row, *rest), (want_row, *want_rest) = (
            kernels(cfg, e)[1](cfg.k, F, 30, x) for e in ENGINES
        )
        assert np.asarray(row).tobytes() == np.asarray(want_row).tobytes()
        assert rest == want_rest


@pytest.mark.parametrize(
    "cfg, fast",
    [(PARTITE_CFG, True), (NONPARTITE_CFG, True), (NONPARTITE_K3_MC_CFG, False)],
    ids=["partite", "nonpartite", "nonpartite-k3"],
)
def test_auto_engine_takes_the_fast_kernels_where_they_exist(cfg, fast):
    conc, pac = kernels(cfg, "auto")
    family = FAMILIES[cfg.class_id]
    if fast:
        assert (conc, pac) == (family.concentration_kernel, family.pac_kernel)
    else:
        assert (conc.func, pac.func) == (_generic_concentration, _generic_pac)


def test_every_path_to_the_empty_sum_threshold_gives_t_inf(monkeypatch):
    # the empty sum threshold is the ordinary member t = +inf, not a constant
    family = FAMILIES["sum-threshold"]
    _, klass, loss, scheme = build_all(NONPARTITE_CFG)
    x = Sample.nonpartite([0.1, 0.2, 0.3], k=2)
    negative = label_sample(Hypothesis.sum_threshold(2, 5.0), x)
    tiny = label_sample(Hypothesis.sum_threshold(2, 0.1), Sample.nonpartite([0.9], k=2))
    # the pair (0, 1) is positive and the larger-sum pair (1, 2) negative
    codes = np.zeros((3, 3), dtype=np.int64)
    codes[0, 1] = codes[1, 0] = 1
    codes[np.diag_indices(3)] = SENTINEL
    unrealizable = LabeledSample(x, LabelTensor.from_codes(NONPARTITE, 2, 3, (0, 1), codes))
    trivial = trivial_scheme(klass, loss)
    got = {
        "class fallback": klass.fallback,
        "ERM, all negative": erm_realizability_check(klass, negative, loss)[1],
        "reconstruct, header 2": reconstruct(scheme, *compress(scheme, negative)),
        "reconstruct, m < k": reconstruct(scheme, *compress(scheme, tiny)),
        "trivial rebuild, all negative": reconstruct(trivial, *compress(trivial, negative)),
        "trivial rebuild, no member fits": reconstruct(trivial, *compress(trivial, unrealizable)),
    }
    # the generic kernels rebuild through the module attribute
    rebuilt = []

    def recording(*args):
        rebuilt.append(reconstruct(*args))
        return rebuilt[-1]

    monkeypatch.setattr(experiments, "reconstruct", recording)
    conc, pac = kernels(NONPARTITE_CFG, "generic")
    sigma = InjectionVector.top(NONPARTITE, 2, 3, 2)
    rows, _ = conc(2, Hypothesis.sum_threshold(2, 0.25), sigma, 2, 3, np.array([x.sides]))
    assert rows.tolist() == [math.inf]
    got["generic concentration kernel, header 2"] = rebuilt.pop()
    row, header, _, _ = pac(2, Hypothesis.sum_threshold(2, 5.0), 3, x)
    assert (row, header) == (math.inf, 2)
    got["generic PAC kernel, header 2"] = rebuilt.pop()
    for path, H in got.items():
        assert (H.kind, family.params(H), H.describe()) == (
            "sum-threshold", math.inf, "constant(0)"
        ), path
    assert family.describe_params(np.array([math.inf])) == ["constant(0)"]
    # a constant is no member of the family, so it has no threshold
    with pytest.raises(ValueError, match="not a sum threshold"):
        threshold_of(Hypothesis.constant(2, 0))


def test_nonpartite_monte_carlo_counts_its_orientation_labels(monkeypatch):
    # k = 3: 3 * 200 points fit under a ceiling of 1000, 3! * 200 labels do not
    monkeypatch.setattr(experiments, "DEFAULT_CELL_BUDGET", 1000)
    cfg = dataclasses.replace(NONPARTITE_K3_MC_CFG, n_draws=200)
    for run in (run_concentration_suite, run_pac_experiment):
        with pytest.raises(ConfigError, match="holds 1200 values, above the ceiling 1000"):
            run(cfg)


def test_fast_engine_refuses_unsupported_configs():
    cfg = dataclasses.replace(PARTITE_CFG, scheme_id="trivial")
    with pytest.raises(ValueError, match="fast engine"):
        run_pac_experiment(cfg, engine="fast")
    with pytest.raises(ValueError, match="unknown engine"):
        run_pac_experiment(PARTITE_CFG, engine="turbo")


def rebinding(fixed: InjectionVector):
    """sigma(m): the maps of a fixed selection, at every sample size m."""
    return lambda m: InjectionVector(fixed.mode, m, fixed.maps)


def test_concentration_fixed_vector_reused_across_sizes():
    # a fixed selection must behave identically under both engines even
    # when the configured sizes differ from the vector's source size
    cfg = dataclasses.replace(PARTITE_CFG, m_values=(30, 60), trials=20)
    sigma = rebinding(InjectionVector.top(PARTITE, 2, 30, 2))
    F = Hypothesis.rectangle([(0.2, 0.7), (0.1, 0.6)])
    fast = run_concentration_experiment(cfg, sigma, 1, F, engine="fast")
    slow = run_concentration_experiment(cfg, sigma, 1, F, engine="generic")
    assert records_of(fast) == records_of(slow)
    assert [row["m"] for row in fast.rows] == [30, 60]


def test_concentration_fixed_vector_out_of_range():
    # m=20 keeps the slack condition satisfied, so the runner actually
    # reaches the rebinding step instead of skipping the size
    cfg = dataclasses.replace(PARTITE_CFG, m_values=(20,), trials=5)
    sigma = rebinding(InjectionVector.top(PARTITE, 2, 30, 2))  # indices 28, 29
    with pytest.raises(IndexError):
        run_concentration_experiment(cfg, sigma, 1, Hypothesis.empty_rectangle(2))


# ---------------------------------------------------------------------------
# runner behavior


def test_concentration_skips_condition_violated_sizes():
    cfg = dataclasses.replace(PARTITE_CFG, scheme_id="trivial", m_values=(5, 9), trials=5)
    sigma = lambda m: InjectionVector.identity(PARTITE, 2, m)
    result = run_concentration_experiment(cfg, sigma, 1, Hypothesis.empty_rectangle(2))
    assert result.passed
    assert not result.records
    assert [row["note"] for row in result.rows] == ["condition-violated"] * 2
    assert all(not row["condition_ok"] for row in result.rows)
    assert len(result.notes) == 2


def test_concentration_row_shape_and_verdict():
    result = run_concentration_suite(dataclasses.replace(PARTITE_CFG, trials=30))
    assert list(result.table) == CONCENTRATION_COLUMNS
    assert {row["variant"] for row in result.rows} == {"fixed", "random"}
    for row in result.rows:
        assert row["p_hat"] - row["ci_half_width"] <= row["single_event_bound"]
        assert row["passed"]
    assert result.passed


def test_concentration_rejects_bad_variant():
    with pytest.raises(ValueError, match="variant"):
        run_concentration_experiment(
            PARTITE_CFG, lambda m: InjectionVector.top(PARTITE, 2, m, 2), 1,
            Hypothesis.empty_rectangle(2), variant="weird",
        )


def test_concentration_monte_carlo_estimator():
    cfg = dataclasses.replace(
        PARTITE_CFG, estimator="monte-carlo", n_draws=2000, m_values=(30,), trials=20
    )
    result = run_concentration_suite(cfg)
    assert result.passed
    for rec in result.records:
        assert 0.0 <= rec.total_loss <= 1.0


def test_pac_rows_and_applicability():
    # guaranteed size for these targets is far above the configured m,
    # so the delta assertion is vacuous at both sizes
    result = run_pac_experiment(PARTITE_CFG)
    assert list(result.table) == PAC_COLUMNS
    assert result.passed
    assert [row["m"] for row in result.rows] == [30, 60]
    for row in result.rows:
        assert row["m_pac"] == 3619
        assert not row["applies"]
    assert all(rec.realizable for rec in result.records)


def test_pac_trivial_scheme_reports_no_guarantee():
    cfg = dataclasses.replace(PARTITE_CFG, scheme_id="trivial", m_values=(10,), trials=5)
    result = run_pac_experiment(cfg, scan_limit=500)
    assert result.rows[0]["m_pac"] == ""
    assert not result.rows[0]["applies"]
    assert any("no guaranteed sample size" in n for n in result.notes)


def test_nonpartite_verdicts_are_order_choice_invariant():
    # m=25 keeps the slack below epsilon so the size is not skipped
    cfg = dataclasses.replace(NONPARTITE_CFG, m_values=(25,), trials=10, seed=3)
    F = Hypothesis.sum_threshold(2, 0.9)
    sigma = lambda m: InjectionVector.top(NONPARTITE, 2, m, 2)
    result = run_concentration_experiment(cfg, sigma, 1, F, variant="fixed")
    assert result.records
    mu = ProductMeasure.uniform(NONPARTITE, 2)
    scheme = sum_threshold_scheme(2)
    loss = zero_one_nonpartite()
    for rec in result.records:
        sample_seed = derive_seed(cfg.seed, 0, 0, rec.trial)
        x = draw_sample(mu, rec.m, sample_seed)
        labeled = label_sample(F, x)
        sub = subsample(labeled, InjectionVector.top(NONPARTITE, 2, rec.m, 2))
        H = reconstruct(scheme, sub, 1)
        assert H.describe() == rec.hypothesis
        for j in range(3):
            [oc] = OrderChoice.random(rec.m, 2, [spawn_rng(999, j)])
            assert empirical_loss_nonpartite(labeled, H, loss, oc) == rec.empirical_loss


def test_ci_half_width_values():
    assert _ci_half_width(0.0, 100) == 0.0
    assert _ci_half_width(0.5, 100) == pytest.approx(2.576 * 0.05)


# ---------------------------------------------------------------------------
# bound table and validity runners


def test_bound_table_matches_direct_bound():
    cfg = dataclasses.replace(PARTITE_CFG, m_values=(1000, 5000), epsilon=0.2)
    result = run_bound_table(cfg, scan_limit=8000)
    assert list(result.table) == BOUND_TABLE_COLUMNS
    assert len(result.rows) == 2
    row = result.rows[1]
    assert row["m"] == 5000 and row["m_pac"] == 3619
    from kcompress.learner import GuaranteeInputs, azuma_bound
    from kcompress.losses import zero_one_partite
    from kcompress.schemes import rectangle_scheme

    gi = GuaranteeInputs.from_scheme(rectangle_scheme(2), zero_one_partite(), 0.2, 0.1)
    bd = azuma_bound(gi, 5000)
    assert row["slack"] == bd.slack
    assert row["single_event_bound"] == bd.single_event_bound
    assert row["total_bound"] == bd.total_bound
    assert row["asymptotic_reference"] == pytest.approx(2 * 2 / 0.04 * math.log(10))


def test_bound_table_rows_come_from_one_vectorized_call(monkeypatch):
    from kcompress.learner import bound_columns

    calls = []

    def counted(inputs, ms):
        calls.append(tuple(ms))
        return bound_columns(inputs, ms)

    monkeypatch.setattr(experiments, "bound_columns", counted)
    cfg = dataclasses.replace(PARTITE_CFG, m_values=(1000, 2000, 5000), epsilon=0.2)
    result = run_bound_table(cfg, scan_limit=8000)
    assert calls == [(1000, 2000, 5000)]
    assert [row["m"] for row in result.rows] == [1000, 2000, 5000]


def test_bound_table_without_guarantee():
    cfg = dataclasses.replace(PARTITE_CFG, scheme_id="trivial", m_values=(50,))
    result = run_bound_table(cfg, scan_limit=100)
    assert result.rows[0]["m_pac"] == ""
    assert result.notes


def test_validity_runner_rows():
    cfg = dataclasses.replace(PARTITE_CFG, m_values=(2, 6), trials=15)
    result = run_validity_experiment(cfg)
    assert list(result.table) == VALIDITY_COLUMNS
    assert result.passed
    assert [row["m"] for row in result.rows] == [2, 6]
    for row in result.rows:
        assert row["trials"] == 15 and row["violations"] == 0
        assert row["max_empirical_loss"] == 0.0


def test_validity_rows_one_per_m_values_entry(monkeypatch):
    # a repeated m is its own row with its own trials, as in concentration
    # and pac, not one merged count printed twice
    cfg = dataclasses.replace(PARTITE_CFG, m_values=(5, 5, 7), trials=3)
    result = run_validity_experiment(cfg)
    assert [(row["m"], row["trials"]) for row in result.rows] == [(5, 3), (5, 3), (7, 3)]
    assert len(result.records) == 9
    # under fail_fast the rows end at the entry holding the first violation:
    # the scheme breaks from its seventh rebuild on (trial 2 of the second entry)
    real, calls = experiments.BOXES.scheme(2), itertools.count()
    broken = dataclasses.replace(
        real, rebuild=lambda sub, hdr: (
            Hypothesis.empty_rectangle(2) if next(calls) >= 6 else real.rebuild(sub, hdr)
        ),
    )
    family = dataclasses.replace(experiments.BOXES, scheme=lambda k: broken)
    monkeypatch.setitem(experiments.FAMILIES, "rectangle", family)
    cfg = dataclasses.replace(cfg, m_values=(6, 6, 6), trials=4)
    result = run_validity_experiment(cfg, fail_fast=True)
    assert not result.passed and len(result.records) == 7
    assert [(row["m"], row["trials"], row["violations"], row["passed"]) for row in result.rows] == [
        (6, 4, 0, True), (6, 3, 1, False),
    ]


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("scheme_id", ["sum-threshold", "trivial"])
def test_validity_sum_thresholds_beyond_pairs(k, scheme_id):
    # a rebuilt threshold must label its own kept set positive whatever
    # order the coordinates of a k-tuple are added in
    cfg = ExperimentConfig(
        mode=NONPARTITE, k=k, scheme_id=scheme_id, class_id="sum-threshold",
        m_values=tuple(range(k, 13)), trials=20, seed=101,
    )
    result = run_validity_experiment(cfg)
    assert [row["violations"] for row in result.rows] == [0] * len(cfg.m_values)
    assert result.passed


def test_validity_builds_one_injective_mask_per_trial(monkeypatch):
    # label_sample builds the mask; the label tensor validates against it
    # and the subsample's tensor against its pull-back
    from kcompress import indexing, samples

    calls = []
    build = indexing.injective_mask

    def counted(m, k, *args, **kwargs):
        calls.append((m, k))
        return build(m, k, *args, **kwargs)

    for module in (indexing, samples):
        monkeypatch.setattr(module, "injective_mask", counted)
    cfg = ExperimentConfig(
        mode=NONPARTITE, k=3, scheme_id="sum-threshold", class_id="sum-threshold",
        m_values=tuple(range(4, 13)), trials=20, seed=101,
    )
    result = run_validity_experiment(cfg)
    assert result.passed and len(result.records) == 180
    assert calls == [(r.m, 3) for r in result.records]


def break_boxes(monkeypatch):
    """Swap in a box scheme whose rebuilds give the empty box from the
    seventh one of each run on."""

    def scheme(k):
        real, calls = experiments.BOXES.scheme(k), itertools.count()
        return dataclasses.replace(real, rebuild=lambda sub, hdr: (
            Hypothesis.empty_rectangle(k) if next(calls) >= 6 else real.rebuild(sub, hdr)
        ))

    monkeypatch.setitem(
        experiments.FAMILIES, "rectangle", dataclasses.replace(experiments.BOXES, scheme=scheme)
    )


def tiny_first_bound(monkeypatch):
    """Make the single-event bound at the first m = 30 negative, so that
    cell fails and the others keep their bounds."""
    bound = experiments.azuma_bound

    def tiny(inputs, m):
        bd = bound(inputs, m)
        return dataclasses.replace(bd, single_event_bound=-1.0) if m == 30 else bd

    monkeypatch.setattr(experiments, "azuma_bound", tiny)


def fail_pac_at_60(monkeypatch):
    """Make the PAC bound apply from m = 60 on, where a confidence
    half-width of -2 puts the failure frequency above delta."""
    monkeypatch.setattr(experiments, "m_pac", lambda inputs, window: 60)
    monkeypatch.setattr(experiments, "_ci_half_width", lambda p_hat, n: -2.0)


VALIDITY_CFG = dataclasses.replace(PARTITE_CFG, m_values=(6, 6, 6), trials=4)


@pytest.mark.parametrize(
    "run, argv, cfg, setup, want",
    [
        (run_validity_experiment, ["validate-scheme"], VALIDITY_CFG, None, True),
        (run_validity_experiment, ["validate-scheme"], VALIDITY_CFG, break_boxes, False),
        (
            functools.partial(run_validity_experiment, fail_fast=True),
            ["validate-scheme", "--fail-fast"], VALIDITY_CFG, break_boxes, False,
        ),
        (run_concentration_suite, ["concentration"], PARTITE_CFG, None, True),
        (run_concentration_suite, ["concentration"], PARTITE_CFG, tiny_first_bound, False),
        (run_pac_experiment, ["pac"], PARTITE_CFG, None, True),
        (run_pac_experiment, ["pac"], PARTITE_CFG, fail_pac_at_60, False),
        (run_bound_table, ["bound-table"], PARTITE_CFG, None, True),
    ],
    ids=[
        "validity", "validity-broken", "validity-broken-fail-fast", "concentration",
        "concentration-tiny-bound", "pac", "pac-failing", "bound-table",
    ],
)
def test_verdict_is_the_summary_passed_column(run, argv, cfg, setup, want, tmp_path, monkeypatch):
    # the result, the manifest and the exit code read one verdict: every
    # summary row passed (a bound-table has no passed column, and passes)
    if setup:
        setup(monkeypatch)
    result = run(cfg)
    assert result.passed is want
    assert result.passed == all(result.table.get("passed", ()))
    assert ("passed" in result.table) != (run is run_bound_table)
    config = tmp_path / "run.cfg"
    config.write_text(canonical_config_text(cfg))
    out = tmp_path / "out"
    code = dispatch([*argv, "--config", str(config), "--out", str(out), "--format", "json"])
    assert code == (0 if want else 1)
    assert json.loads((out / "manifest.json").read_text())["passed"] is want
    rows = json.loads((out / "summary.json").read_text())["rows"]
    assert rows == result.rows


# ---------------------------------------------------------------------------
# determinism and writers


def test_cell_formatting_in_csv():
    text = table_to_csv({"a": [True], "b": [1 / 3], "c": ["x"]})
    assert text == "a,b,c\ntrue,0.3333333333333333,x\n"


def test_table_to_csv_pins_mixed_cells():
    class Half(float):
        pass

    table = {
        "flag": [True, False, True, False, True],
        "count": [3, -12, 0, 2**70, 1],
        "x": [0.1, 1e-300, float("inf"), -0.0, Half(0.5)],
        "blank": [""] * 5,
        "np64": list(map(np.float64, [0.25, 1 / 3, -0.0, 1e22, 3.0])),
        "mixed": ["", 16852, 2.5, True, Half(0.75)],
        "npint": [np.int64(7), np.int64(-1), np.int64(0), np.int64(2**40), np.int32(5)],
    }
    # bool before float, float subclasses (np.float64 too) through repr
    np64 = list(map(repr, table["np64"]))
    header = "flag,count,x,blank,np64,mixed,npint\n"
    body = (
        f"true,3,0.1,,{np64[0]},,7\n"
        f"false,-12,1e-300,,{np64[1]},16852,-1\n"
        f"true,0,inf,,{np64[2]},2.5,0\n"
        f"false,1180591620717411303424,-0.0,,{np64[3]},true,1099511627776\n"
        f"true,1,0.5,,{np64[4]},0.75,5\n"
    )
    assert table_to_csv(table) == header + body
    assert table_to_csv({c: [] for c in table}) == header
    # long enough to span several formatting blocks; compared line by line,
    # which keeps a failure report short
    long_text = table_to_csv({c: cells * 211 for c, cells in table.items()})
    assert long_text.endswith("\n")
    assert long_text.splitlines() == (header + body * 211).splitlines()
    # a column holding one object is formatted once; equal objects that are
    # not the same one (0.0 and -0.0) keep their own text
    zero, nan = 0.0, float("nan")
    same = {"z": [zero, zero, -zero, zero], "n": [nan] * 4, "b": [True] * 4}
    assert table_to_csv(same) == (
        "z,n,b\n0.0,nan,true\n0.0,nan,true\n-0.0,nan,true\n0.0,nan,true\n"
    )


def csv_text_for_non_finite(v):
    """v with each non-finite float in it, at any depth, replaced by its CSV
    text, "inf", "-inf" or "nan": the strict JSON writers' spelling."""
    if isinstance(v, float) and not math.isfinite(v):
        return repr(float(v))
    if isinstance(v, dict):
        return {key: csv_text_for_non_finite(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [csv_text_for_non_finite(x) for x in v]
    return v


def json_dumps_of_table(table: dict) -> str:
    """summary.json's text of a table held by columns, through one dict per row."""
    rows = [csv_text_for_non_finite(dict(zip(table, row))) for row in zip(*table.values())]
    return json.dumps({"columns": list(table), "rows": rows}, sort_keys=True, indent=2) + "\n"


def test_table_to_json_is_json_dumps_with_indent():
    class Half(float):
        pass

    nan, inf = float("nan"), float("inf")
    table = {
        "zeta": [True, False, True, False, True, False],
        "count": [3, -12, 0, 2**70, 1, True],
        "x": [0.1, nan, inf, -inf, -0.0, Half(0.5)],
        "note": ["", "ünï ☃", 'q " \\ s', "%s %%", "tab\tline\n", "nan"],
        "np64": list(map(np.float64, [0.25, 1 / 3, -0.0, 1e22, nan, -inf])),
        "mixed": ["", 16852, 2.5, True, None, Half(0.75)],
        "%d key": [1, 2, 3, 4, 5, 6],
        "nested": [[1, 2], {"b": 1, "a": [nan]}, [], {}, "x", 0],
    }
    assert table_to_json(table) == json_dumps_of_table(table)
    # long enough to span several formatting blocks; compared line by line,
    # which keeps a failure report short
    long = {c: cells * 97 for c, cells in table.items()}
    assert table_to_json(long).splitlines() == json_dumps_of_table(long).splitlines()
    # a column holding one object is formatted once; equal objects that are
    # not the same one keep their own text
    zero = 0.0
    same = {"z": [zero, zero, -zero], "n": [nan] * 3, "b": [True] * 3}
    assert table_to_json(same) == json_dumps_of_table(same)
    for empty in ({c: [] for c in table}, {}):
        assert table_to_json(empty) == json_dumps_of_table(empty)


def test_repeated_runs_are_identical():
    r1 = run_concentration_suite(dataclasses.replace(PARTITE_CFG, trials=15))
    r2 = run_concentration_suite(dataclasses.replace(PARTITE_CFG, trials=15))
    assert r1.rows == r2.rows
    assert records_of(r1) == records_of(r2)


def test_write_outputs_byte_deterministic(tmp_path):
    cfg = dataclasses.replace(PARTITE_CFG, m_values=(20,), trials=10)
    result = run_concentration_suite(cfg)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    paths1 = write_outputs(result, str(d1), fmt="csv")
    paths2 = write_outputs(run_concentration_suite(cfg), str(d2), fmt="csv")
    assert [p.rsplit("/", 1)[1] for p in paths1] == [
        "manifest.json", "trials.jsonl", "summary.csv",
    ]
    for p1, p2 in zip(paths1, paths2):
        assert open(p1, "rb").read() == open(p2, "rb").read()

    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["command"] == "concentration"
    assert manifest["config_hash"] == config_hash(cfg)
    assert manifest["seed"] == cfg.seed
    assert manifest["passed"] is True
    assert "out" not in manifest["config"]

    lines = (d1 / "trials.jsonl").read_text().splitlines()
    assert len(lines) == len(result.records)
    assert json.loads(lines[0])["trial"] == 0

    header = (d1 / "summary.csv").read_text().splitlines()[0]
    assert header == ",".join(CONCENTRATION_COLUMNS)


def test_write_outputs_json_format(tmp_path):
    cfg = dataclasses.replace(PARTITE_CFG, m_values=(20,), trials=5)
    result = run_bound_table(cfg, scan_limit=8000)
    paths = write_outputs(result, str(tmp_path), fmt="json")
    assert paths[-1].endswith("summary.json")
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["columns"] == BOUND_TABLE_COLUMNS
    with pytest.raises(ValueError):
        write_outputs(result, str(tmp_path), fmt="yaml")


def test_records_hold_columns_and_build_a_record_when_read():
    recs = [
        TrialRecord("fixed", 50, t, 0.25 * t, 0.5, 0.5 - 0.25 * t, t == 0, 1, "constant(0)", True)
        for t in range(3)
    ]
    held = Records.of(TrialRecord, recs)
    assert list(held.columns) == [f.name for f in dataclasses.fields(TrialRecord)]
    assert held.columns["trial"] == [0, 1, 2]
    assert len(held) == 3 and held
    assert list(held) == recs
    assert held[1] == recs[1] and held[-1] == recs[-1]
    with pytest.raises(TypeError):
        held[0:2]
    held.extend(Records.of(TrialRecord, recs[:1]).columns)
    assert len(held) == 4 and held[3] == recs[0]
    assert not Records(TrialRecord)


def test_records_to_jsonl_is_json_dumps_per_record(tmp_path):
    from kcompress.schemes import CompressionReport
    from kcompress.experiments import TrialRecord

    nan, inf = float("nan"), float("inf")
    floats = [0.1, nan, inf, -inf, -0.0, 0.0, 5e-324, 1e22, 1 / 3, -2.5e-300]
    texts = ["rectangle(empty)", 'quote " and \\\\ slash', "tab\tnew\nline", "ünï ☃ \U0001f600", "%s %d %%", ""]
    trials = [
        TrialRecord(
            variant=texts[i % len(texts)], m=[50, 2**70, -3, 0][i % 4], trial=i,
            empirical_loss=floats[i % len(floats)], total_loss=floats[(i + 3) % len(floats)],
            gap=floats[(i + 7) % len(floats)], exceeded=i % 3 == 0, header=1 + i % 2,
            hypothesis=texts[(i + 1) % len(texts)], realizable=i % 5 != 0,
        )
        for i in range(40)
    ]
    reports = [
        CompressionReport(
            trial=i, m=10 + i, selection_size=2, header=1,
            selected=[((1, 2), (3, 4)), ((),), (), ((5,),)][i % 4],
            hypothesis=texts[i % len(texts)], empirical_loss=floats[i % len(floats)],
            threshold=floats[(i + 1) % len(floats)], passed=i % 2 == 0,
        )
        for i in range(12)
    ]
    mixed_column = [
        dataclasses.replace(trials[0], m=v, empirical_loss=w)
        for v, w in [(1, 0.5), (True, 2), (2.5, nan), ("x", True), (None, -0.0)]
    ]
    # the same object in a whole column is formatted once
    shared = [dataclasses.replace(trials[1], gap=nan, total_loss=-0.0)] * 3
    for records in (trials, reports, mixed_column, shared, trials * 13, []):
        want = "".join(
            json.dumps(csv_text_for_non_finite(vars(r)), sort_keys=True) + "\n" for r in records
        )
        kind = type(records[0]) if records else TrialRecord
        held = Records.of(kind, records)
        assert len(held) == len(records)
        assert records_to_jsonl(held) == want
    assert records_to_jsonl(Records(TrialRecord)) == ""
    result = experiments.ExperimentResult(
        kind="concentration", config=PARTITE_CFG, columns=[],
        records=Records.of(CompressionReport, reports),
    )
    write_outputs(result, str(tmp_path))
    lines = (tmp_path / "trials.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines[0] == json.dumps(csv_text_for_non_finite(vars(reports[0])), sort_keys=True)
    assert json.loads(lines[0])["selected"] == [[1, 2], [3, 4]]
    assert len(lines) == len(reports)
