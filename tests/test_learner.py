"""Tests for the Azuma failure bounds and guaranteed sample sizes.

High-precision oracle values come from an independent mpmath
reimplementation of the closed-form bound; the guaranteed-size scan is
cross-checked against a pure-python scalar rewrite using math.lgamma
instead of the package's port of cephes lgam.  scipy.special.gammaln,
whose algorithm that port is, serves as its oracle, bit for bit.
"""

import dataclasses
import hashlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import kcompress
import mpmath
import numpy as np
import pytest

from kcompress import learner
from kcompress.experiments import (
    BOUND_TABLE_COLUMNS,
    ExperimentConfig,
    render_summary,
    run_bound_table,
    table_to_csv,
)
from kcompress.indexing import NONPARTITE, PARTITE
from kcompress.learner import (
    BoundBreakdown,
    GuaranteeInputs,
    MPacNotFound,
    _bound_terms,
    asymptotic_guarantee_reference,
    azuma_bound,
    bound_breakdowns,
    guarantee_conditions,
    learn,
    m_pac,
)
from kcompress.losses import empirical_loss_partite, zero_one_nonpartite, zero_one_partite
from kcompress.samples import Hypothesis, HypothesisClass, draw_sample, label_sample, spawn_rng
from kcompress.schemes import rectangle_scheme, sum_threshold_scheme, trivial_scheme
from kcompress.samples import ProductMeasure

mpmath.mp.dps = 60


def inputs_const(mode, k, s, h, epsilon, delta, sup_norm=1.0):
    return GuaranteeInputs(
        mode=mode,
        k=k,
        sup_norm=sup_norm,
        selection_size=lambda m: np.minimum(s, m),
        header_size=lambda m: h,
        epsilon=epsilon,
        delta=delta,
    )


RECT_INPUTS = GuaranteeInputs.from_scheme(
    rectangle_scheme(2), zero_one_partite(), epsilon=0.2, delta=0.1
)


def mp_breakdown(mode, k, s, h, m, epsilon, sup_norm):
    """The bound recomputed in 60-digit arithmetic; returns (slack, single, total)."""
    mm, ss = mpmath.mpf(m), mpmath.mpf(s)
    eps, sup = mpmath.mpf(epsilon), mpmath.mpf(sup_norm)
    if mode == PARTITE:
        frac = 1 - ((mm - ss) / mm) ** k
        denom = 2 * k * sup**2
        log_mult = k * mpmath.log(mpmath.ff(m, s)) + mpmath.log(h)
    else:
        ratio = mpmath.mpf(1)
        for j in range(k):
            ratio *= (mm - ss - j) / (mm - j)
        frac = 1 - ratio
        denom = 2 * k * k * sup**2
        log_mult = mpmath.log(mpmath.ff(m, s)) + mpmath.log(h)
    slack = frac * sup
    eff = eps - slack
    assert eff > 0, "oracle called on a condition-violated point"
    single = mpmath.exp(-(eff**2) * (mm - ss) / denom)
    total = mpmath.exp(log_mult) * single
    return slack, single, min(total, mpmath.mpf(1))


ORACLE_POINTS = [
    # (mode, k, s, h, m, epsilon, sup_norm)
    (PARTITE, 2, 2, 2, 1000, 0.1, 1.0),
    (PARTITE, 1, 0, 1, 50, 0.3, 1.0),
    (PARTITE, 3, 2, 2, 500, 0.15, 0.8),
    (PARTITE, 2, 2, 2, 3700, 0.2, 1.0),
    (NONPARTITE, 2, 2, 2, 1000, 0.1, 1.0),
    (NONPARTITE, 2, 2, 2, 4000, 0.2, 1.0),
    (NONPARTITE, 3, 3, 2, 2000, 0.05, 0.5),
]


@pytest.mark.parametrize("mode,k,s,h,m,epsilon,sup", ORACLE_POINTS)
def test_azuma_matches_high_precision_oracle(mode, k, s, h, m, epsilon, sup):
    gi = inputs_const(mode, k, s, h, epsilon, delta=0.1, sup_norm=sup)
    bd = azuma_bound(gi, m)
    assert bd.condition_ok
    slack, single, total = mp_breakdown(mode, k, s, h, m, epsilon, sup)
    assert abs(bd.slack - float(slack)) <= 1e-9 * float(slack) + 1e-15
    assert abs(bd.single_event_bound - float(single)) <= 1e-9 * float(single)
    assert abs(bd.total_bound - float(total)) <= 1e-9 * float(total)


def test_azuma_frozen_anchor():
    gi = inputs_const(PARTITE, 2, 2, 2, epsilon=0.1, delta=0.1)
    bd = azuma_bound(gi, 1000)
    assert bd.single_event_bound == 0.10030059819321516
    assert bd.selection_size == 2 and bd.header_count == 2
    # the union multiplier swamps the single event at this m
    assert bd.total_bound == 1.0 and bd.log_total > 0


def test_azuma_breakdown_fields_consistent():
    bd = azuma_bound(RECT_INPUTS, 5000)
    assert bd.condition_ok
    assert bd.effective_epsilon == pytest.approx(0.2 - bd.slack)
    assert bd.single_event_bound == pytest.approx(math.exp(bd.log_single_event))
    assert bd.multiplier == pytest.approx(math.exp(bd.log_multiplier))
    assert bd.log_total == pytest.approx(bd.log_multiplier + bd.log_single_event)
    assert bd.total_bound == pytest.approx(math.exp(bd.log_total))
    keys = set(vars(bd))
    assert keys == {
        "m", "selection_size", "header_count", "slack", "effective_epsilon",
        "single_event_bound", "log_single_event", "multiplier", "log_multiplier",
        "total_bound", "log_total", "condition_ok",
    }


def test_azuma_condition_violated_when_slack_eats_epsilon():
    # keeping the whole sample removes every tuple: slack equals the sup norm
    gi = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=lambda m: m, header_size=lambda m: 1,
        epsilon=0.1, delta=0.1,
    )
    bd = azuma_bound(gi, 100)
    assert not bd.condition_ok
    assert bd.slack == 1.0 and bd.effective_epsilon == pytest.approx(-0.9)
    assert bd.single_event_bound == 1.0 and bd.total_bound == 1.0


def test_azuma_nonpartite_needs_m_at_least_k():
    # even with zero slack a nonpartite sample smaller than the arity
    # cannot carry a single labeled tuple
    gi = inputs_const(NONPARTITE, 3, 0, 1, epsilon=0.1, delta=0.5, sup_norm=0.05)
    bd = azuma_bound(gi, 2)
    assert not bd.condition_ok and bd.total_bound == 1.0
    assert azuma_bound(gi, 3).condition_ok


def test_azuma_argument_checks():
    with pytest.raises(ValueError):
        azuma_bound(RECT_INPUTS, 0)
    bad_s = inputs_const(PARTITE, 2, 5, 1, 0.1, 0.1)
    bad_s = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=lambda m: m + 1, header_size=lambda m: 1,
        epsilon=0.1, delta=0.1,
    )
    with pytest.raises(ValueError):
        azuma_bound(bad_s, 10)
    bad_h = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=lambda m: 2, header_size=lambda m: 0,
        epsilon=0.1, delta=0.1,
    )
    with pytest.raises(ValueError):
        azuma_bound(bad_h, 10)


def test_slack_term_values():
    gi = inputs_const(PARTITE, 2, 2, 2, 0.1, 0.1)
    assert azuma_bound(gi, 1000).slack == pytest.approx(1.0 - (998 / 1000) ** 2)
    gin = inputs_const(NONPARTITE, 2, 2, 2, 0.1, 0.1)
    assert azuma_bound(gin, 1000).slack == pytest.approx(1.0 - (998 * 997) / (1000 * 999))
    half = inputs_const(PARTITE, 2, 2, 2, 0.1, 0.1, sup_norm=0.5)
    assert azuma_bound(half, 1000).slack == pytest.approx(0.5 * (1.0 - (998 / 1000) ** 2))
    assert azuma_bound(gin, 1).slack == 1.0  # m < k


def test_bound_monotone_in_m_once_decaying():
    # the union multiplier wins early on; past its peak the log bound
    # must fall without ever ticking back up
    prev = None
    for m in range(500, 8001, 250):
        bd = azuma_bound(RECT_INPUTS, m)
        assert bd.condition_ok
        if prev is not None:
            assert bd.log_total <= prev + 1e-12
        prev = bd.log_total


def test_bound_monotone_in_epsilon_and_sup_norm():
    tight = inputs_const(PARTITE, 2, 2, 2, 0.1, 0.1)
    loose = inputs_const(PARTITE, 2, 2, 2, 0.2, 0.1)
    assert azuma_bound(loose, 2000).log_total < azuma_bound(tight, 2000).log_total
    small = inputs_const(PARTITE, 2, 2, 2, 0.1, 0.1, sup_norm=0.5)
    big = inputs_const(PARTITE, 2, 2, 2, 0.1, 0.1, sup_norm=1.0)
    assert azuma_bound(small, 2000).log_total < azuma_bound(big, 2000).log_total


def test_arity_one_modes_agree():
    # with one side and one point per tuple the two modes are the same model
    gp = inputs_const(PARTITE, 1, 1, 2, 0.1, 0.1)
    gn = inputs_const(NONPARTITE, 1, 1, 2, 0.1, 0.1)
    for m in (10, 100, 1000):
        bp, bn = azuma_bound(gp, m), azuma_bound(gn, m)
        assert bp.log_total == bn.log_total
        assert bp.slack == bn.slack
    # and with nothing selected the bound is the classical exponential
    gi = inputs_const(PARTITE, 1, 0, 1, 0.3, 0.1)
    bd = azuma_bound(gi, 50)
    assert bd.total_bound == pytest.approx(math.exp(-0.09 * 50 / 2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# byte identity of the vectorized breakdowns

# the (epsilon, delta) grid of scripts/sweep_guaranteed_sizes.py
SWEEP_GRID = [(eps, delta) for eps in (0.1, 0.05, 0.02) for delta in (0.1, 0.01)]
# sha256 of the grid's breakdowns as the scalar azuma_bound wrote them
# before the bound was vectorized (144800 rows)
PINNED_GRID_SHA256 = "b6f450f2ac009f44831197bee44f4525463c6cbbedf81b2880a30f56ba173d28"


def pinned_grid():
    """(inputs, sample sizes, config) over both modes, k in {1, 2, 3, 5},
    the built-in and trivial schemes and the sweep grid: m = 1..300 plus
    1000 seeded random m up to 2e6 each, and for the bundled bound tables'
    inputs (k = 2, epsilon = delta = 0.1) also m = 10, 20, .., 100000,
    which holds their rows and those of the benchmark's tables.  The
    config has the inputs' mode, k, scheme, class, epsilon and delta."""
    random_m = np.random.default_rng(1590).integers(1, 2_000_001, size=1000)
    base = np.concatenate([np.arange(1, 301), random_m])
    tables = np.concatenate([base, np.arange(10, 100_001, 10)])
    families = (
        (rectangle_scheme, HypothesisClass.rectangles, zero_one_partite()),
        (sum_threshold_scheme, HypothesisClass.sum_thresholds, zero_one_nonpartite()),
    )
    for builtin, klass, loss in families:
        for k in (1, 2, 3, 5):
            for scheme in (builtin(k), trivial_scheme(klass(k), loss)):
                for eps, delta in SWEEP_GRID:
                    gi = GuaranteeInputs.from_scheme(scheme, loss, eps, delta)
                    bundled = (
                        k == 2 and scheme.scheme_id != "trivial" and (eps, delta) == (0.1, 0.1)
                    )
                    cfg = ExperimentConfig(
                        mode=scheme.mode, k=k, scheme_id=scheme.scheme_id,
                        class_id=builtin(k).scheme_id, epsilon=eps, delta=delta,
                    )
                    yield gi, tables if bundled else base, cfg


def test_breakdowns_keep_the_scalar_bytes():
    digest = hashlib.sha256()
    rows = 0
    for gi, ms, _ in pinned_grid():
        for bd in bound_breakdowns(gi, ms):
            digest.update(repr(vars(bd)).encode() + b"\n")
            rows += 1
    assert rows == 144800
    assert digest.hexdigest() == PINNED_GRID_SHA256


def test_azuma_bound_is_the_matching_breakdown_row():
    rng = np.random.default_rng(7)
    for gi, ms, _ in pinned_grid():
        pick = rng.choice(len(ms), size=3, replace=False)
        rows = bound_breakdowns(gi, ms)
        for i in pick.tolist():
            assert azuma_bound(gi, int(ms[i])) == rows[i]
    # 1590 at k = 2 is one of the m where NumPy's power and Python's differ
    assert azuma_bound(RECT_INPUTS, 1590) == bound_breakdowns(RECT_INPUTS, [1590])[0]


def test_bound_table_columns_equal_breakdown_rows():
    # run_bound_table takes its columns whole from bound_columns; a table
    # built from one BoundBreakdown per row must have the same bytes
    seen = dict.fromkeys(
        ("trivial scheme, no m_pac", "m_pac found", "slack condition fails",
         "nonpartite m = k", "multiplier overflows"), False,
    )
    for gi, ms, cfg in pinned_grid():
        ms = ms[ms >= (gi.k if gi.mode == NONPARTITE else 1)].tolist()
        result = run_bound_table(dataclasses.replace(cfg, m_values=tuple(ms)), scan_limit=20000)
        try:
            m0 = m_pac(gi, 20000)
        except MPacNotFound:
            m0 = ""
        ref = asymptotic_guarantee_reference(gi)
        rows = []
        for m, bd in zip(ms, bound_breakdowns(gi, ms)):
            rows.append({
                "mode": cfg.mode, "k": cfg.k, "m": m, "epsilon": cfg.epsilon,
                "delta": cfg.delta, "slack": bd.slack, "effective_epsilon": bd.effective_epsilon,
                "single_event_bound": bd.single_event_bound, "multiplier": bd.multiplier,
                "total_bound": bd.total_bound, "m_pac": m0, "asymptotic_reference": ref,
            })
            seen["slack condition fails"] |= not bd.condition_ok
            seen["multiplier overflows"] |= bd.multiplier == math.inf
        table = {c: [row[c] for row in rows] for c in BOUND_TABLE_COLUMNS}
        assert render_summary(result) == table_to_csv(table)
        seen["trivial scheme, no m_pac"] |= cfg.scheme_id == "trivial" and m0 == ""
        seen["m_pac found"] |= m0 != ""
        seen["nonpartite m = k"] |= cfg.mode == NONPARTITE and ms[0] == cfg.k
    assert all(seen.values()), seen


def test_reported_terms_take_pythons_power_and_log():
    # NumPy's power and log miss Python's in the last bit on some of these m
    m = np.arange(1, 200_001, dtype=np.float64)
    ms = range(1, 200_001)
    grow_h = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=lambda m: 0, header_size=lambda m: m,
        epsilon=0.5, delta=0.1,
    )
    log_mult = _bound_terms(grow_h, m, reported=True)[5]
    assert log_mult.tolist() == [math.log(x) for x in ms]
    for k in (2, 3):
        gi = inputs_const(PARTITE, k, 2, 1, 0.5, 0.1)
        slack = _bound_terms(gi, m, reported=True)[2]
        assert slack.tolist() == [(1.0 - ((x - min(2, x)) / x) ** k) * 1.0 for x in ms]


def test_breakdowns_refuse_sizes_outside_their_range():
    with pytest.raises(ValueError, match="must be >= 1"):
        bound_breakdowns(RECT_INPUTS, [5, 0])
    bad_s = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=lambda m: np.where(m > 20, m + 1, 2), header_size=lambda m: 1,
        epsilon=0.1, delta=0.1,
    )
    with pytest.raises(ValueError, match="at m=30: selection size s_m=31"):
        bound_breakdowns(bad_s, [10, 20, 30])
    assert bound_breakdowns(RECT_INPUTS, []) == []


# ---------------------------------------------------------------------------
# guaranteed sample size


def scalar_m_pac(mode, k, sup, eps, delta, s_of, h_of, limit):
    """Plain-python rescan of both guarantee conditions."""
    ok = []
    for m in range(1, limit + 1):
        s, h = s_of(m), h_of(m)
        if mode == PARTITE:
            frac = ((m - s) / m) ** k
            applicable = True
        else:
            frac = 1.0
            applicable = m >= k
            for j in range(k if applicable else 0):
                frac *= max(0, m - s - j) / (m - j)
        eff = eps - (1.0 - frac) * sup
        c = applicable and eff > 0
        if c:
            denom = 2 * k * sup**2 if mode == PARTITE else 2 * k * k * sup**2
            sides = k if mode == PARTITE else 1
            log_mult = sides * (math.lgamma(m + 1) - math.lgamma(m - s + 1)) + math.log(h)
            c = log_mult - eff * eff * (m - s) / denom <= math.log(delta)
        ok.append(c)
    if not ok[-1]:
        return None
    m0 = limit
    for i in range(limit - 1, -1, -1):
        if not ok[i]:
            break
        m0 = i + 1
    return m0


def lgam(x, reported):
    """learner._lgam on a copy of x, with its scratch."""
    x = np.array(x, dtype=np.float64)
    return learner._lgam(x, reported, np.empty((3, *x.shape)))


def _hex(a):
    return list(map(float.hex, a.tolist()))


def test_log_falling_factorial_has_gammalns_bits():
    # log (m)_s as _bound_terms takes it on the reported path, against
    # gammaln(m + 1) - gammaln(m - s + 1), at every m up to 200000
    from scipy.special import gammaln

    m = np.arange(1, 200001, dtype=np.float64)
    for s in (0, 1, 2, 8, "m"):
        ms = m if s == "m" else m[m >= s]
        rest = ms - (ms if s == "m" else s)
        got = lgam(ms + 1, True) - lgam(rest + 1, True)
        assert _hex(got) == _hex(gammaln(ms + 1) - gammaln(rest + 1)), s


def _lgam_points():
    rng = np.random.default_rng(20261019)
    edges = [1.0, 2.0, 12.0, 13.0, 999.0, 1000.0, 1e8, 1e8 + 1, 2.0**53]
    uniform = rng.integers(1, 2**53, size=100000, endpoint=True).astype(np.float64)
    # log-uniform, so every branch and magnitude below 2**53 is drawn
    spread = np.floor(np.exp2(rng.random(100000) * 53))
    return np.concatenate((edges, uniform, spread))


def test_lgam_has_gammalns_bits_at_branch_edges_and_random_points():
    from scipy.special import gammaln

    x = _lgam_points()
    assert _hex(lgam(x, True)) == _hex(gammaln(x))


def test_scan_lgam_within_two_ulp_of_gammaln():
    from scipy.special import gammaln

    x = _lgam_points()
    want = gammaln(x)
    assert (np.abs(lgam(x, False) - want) <= 2 * np.spacing(want)).all()
    with np.errstate(divide="ignore", invalid="ignore"):
        below_one = lgam([0.0, -1.0, -7.0], False)
    assert below_one.tolist() == [math.inf] * 3


def test_package_import_loads_no_scipy():
    code = (
        "import sys, kcompress, kcompress.cli\n"
        "print(sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))"
    )
    src = str(Path(kcompress.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_m_pac_golden_rectangle():
    assert m_pac(RECT_INPUTS, scan_limit=8000) == 3619


def test_m_pac_matches_scalar_rescan():
    got = m_pac(RECT_INPUTS, scan_limit=8000)
    want = scalar_m_pac(
        PARTITE, 2, 1.0, 0.2, 0.1,
        s_of=lambda m: 2 if m >= 2 else m, h_of=lambda m: 2, limit=8000,
    )
    assert got == want == 3619

    thresh = GuaranteeInputs.from_scheme(
        sum_threshold_scheme(2), zero_one_nonpartite(), epsilon=0.2, delta=0.1
    )
    got = m_pac(thresh, scan_limit=20000)
    want = scalar_m_pac(
        NONPARTITE, 2, thresh.sup_norm, 0.2, 0.1,
        s_of=lambda m: 2 if m >= 2 else m, h_of=lambda m: 2, limit=20000,
    )
    assert got == want

    # sizes that change across the whole window: keeping the whole sample
    # below m = 1000 fails the slack condition, floor(log2 m) from there
    # on passes, so m_pac sits exactly where the array call switches maps
    gi = GuaranteeInputs(
        mode=PARTITE, k=1, sup_norm=1.0,
        selection_size=lambda m: np.where(m < 1000, m, np.floor(np.log2(m))),
        header_size=lambda m: m,
        epsilon=0.5, delta=0.1,
    )
    got = m_pac(gi, scan_limit=8000)
    want = scalar_m_pac(
        PARTITE, 1, 1.0, 0.5, 0.1,
        s_of=lambda m: m if m < 1000 else math.floor(math.log2(m)),
        h_of=lambda m: m, limit=8000,
    )
    assert got == want == 1000


def test_m_pac_calls_each_size_map_once():
    calls = {"s": 0, "h": 0}

    def counted(key, size):
        def size_map(m):
            calls[key] += 1
            return size(m)
        return size_map

    scheme = rectangle_scheme(2)
    gi = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=counted("s", scheme.selection_size),
        header_size=counted("h", scheme.header_size),
        epsilon=0.2, delta=0.1,
    )
    assert m_pac(gi, scan_limit=8000) == 3619
    assert calls == {"s": 1, "h": 1}


def test_m_pac_stable_under_larger_window():
    assert m_pac(RECT_INPUTS, scan_limit=40000) == 3619


def test_m_pac_is_minimal():
    m0 = m_pac(RECT_INPUTS, scan_limit=8000)
    assert guarantee_conditions(RECT_INPUTS, m0) == (True, True)
    assert not all(guarantee_conditions(RECT_INPUTS, m0 - 1))


def test_m_pac_one_when_loss_is_tiny_partite():
    # sup norm below epsilon keeps the slack condition true even at m = 1
    gi = inputs_const(PARTITE, 2, 0, 1, epsilon=0.1, delta=0.5, sup_norm=0.05)
    assert m_pac(gi, scan_limit=100) == 1


def test_m_pac_arity_floor_nonpartite():
    gi = inputs_const(NONPARTITE, 2, 0, 1, epsilon=0.1, delta=0.5, sup_norm=0.05)
    assert m_pac(gi, scan_limit=100) == 2


def test_m_pac_not_found_for_whole_sample_scheme():
    gi = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=lambda m: m, header_size=lambda m: 1,
        epsilon=0.1, delta=0.1,
    )
    with pytest.raises(MPacNotFound) as exc:
        m_pac(gi, scan_limit=100)
    diag = exc.value.diagnostics
    assert diag["scan_limit"] == 100
    assert diag["cond1_holds"] == 0
    assert not diag["holds_at_limit"]


def test_m_pac_rejects_unstable_tail():
    # a header count that oscillates keeps the total bound non-monotone,
    # which the scan must refuse to certify
    gi = GuaranteeInputs(
        mode=PARTITE, k=1, sup_norm=1.0,
        selection_size=lambda m: 0,
        header_size=lambda m: np.where(m % 2 == 0, 1, np.ceil(np.exp(0.1 * m))),
        epsilon=0.9, delta=0.1,
    )
    with pytest.raises(MPacNotFound) as exc:
        m_pac(gi, scan_limit=200)
    assert exc.value.diagnostics["tail_monotone"] is False


def test_m_pac_scan_limit_guard():
    with pytest.raises(ValueError):
        m_pac(RECT_INPUTS, scan_limit=9)


def test_m_pac_refuses_windows_above_the_cap():
    # refused before any evaluation: a failed scan's whole-window pass
    # holds about 82 bytes per scanned size
    with pytest.raises(ValueError, match=r"\[10, 4194304\]"):
        m_pac(RECT_INPUTS, scan_limit=learner.MAX_SCAN_LIMIT + 1)
    assert max(w for windows in GRID_WINDOWS.values() for w in windows.values()) <= (
        learner.MAX_SCAN_LIMIT
    )


def test_sweep_script_defaults_give_the_benchmark_m_pacs(monkeypatch, capsys):
    # the README command: the script's defaults, a 2,000,000 window
    script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_guaranteed_sizes.py"
    spec = importlib.util.spec_from_file_location("sweep_guaranteed_sizes", script)
    sweep = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends its src/
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", ["sweep_guaranteed_sizes.py"])
    assert sweep.main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["scheme", "eps", "delta", "m_pac", "reference", "ratio"]
    cells = [row.split() for row in rows]
    got = {(c[0], float(c[1]), float(c[2])): int(c[3]) for c in cells}
    assert len(rows) == len(got) == 12
    grid = [(eps, delta) for eps in (0.1, 0.05, 0.02) for delta in (0.1, 0.01)]
    want = {}
    for name, sizes in (
        ("rectangle", [16852, 17867, 76962, 80971, 559771, 584528]),
        ("sum-threshold", [18171, 20181, 82175, 90135, 591965, 641213]),
    ):
        want.update({(name, *cell): m for cell, m in zip(grid, sizes)})
    assert got == want


def whole_window_scan(inputs, scan_limit):
    """The m_pac scan over the whole window in one array: m0, or the
    message and diagnostics of the MPacNotFound it must raise."""
    m = np.arange(1, scan_limit + 1, dtype=np.float64)
    s, h, _, _, cond1, _, _, log_total = _bound_terms(inputs, m)
    cond2 = cond1 & (log_total <= math.log(inputs.delta))
    suffix_ok = np.logical_and.accumulate(cond2[::-1])[::-1]
    diagnostics = {
        "scan_limit": scan_limit,
        "cond1_holds": int(cond1.sum()),
        "cond2_holds": int(cond2.sum()),
        "holds_at_limit": bool(cond2[-1]),
    }
    if not suffix_ok[-1]:
        return "conditions fail at the end of the scanned window", diagnostics
    m0 = int(np.argmax(suffix_ok)) + 1
    tail = log_total[max(int(scan_limit * 0.9), m0 - 1) :]
    diagnostics["tail_monotone"] = bool((np.diff(tail) <= 1e-12).all())
    diagnostics["constant_sizes"] = bool(
        (s[m0 - 1 :] == s[m0 - 1]).all() and (h[m0 - 1 :] == h[m0 - 1]).all()
    )
    if not diagnostics["tail_monotone"]:
        return "total bound is not decreasing over the top decile of the window", diagnostics
    return m0


def scan_outcome(inputs, scan_limit):
    try:
        return m_pac(inputs, scan_limit)
    except MPacNotFound as exc:
        return str(exc), exc.diagnostics


def switch_inputs(at):
    """Sizes whose m_pac is at: the whole sample below at fails the slack
    condition, floor(log2 m) from at on passes both conditions."""
    return GuaranteeInputs(
        mode=PARTITE, k=1, sup_norm=1.0,
        selection_size=lambda m: np.where(m < at, m, np.floor(np.log2(m))),
        header_size=lambda m: m,
        epsilon=0.5, delta=0.1,
    )


@pytest.mark.parametrize("chunk", [1, 7, 1000, 16384])
def test_m_pac_does_not_depend_on_chunk_length(monkeypatch, chunk):
    monkeypatch.setattr(learner, "SCAN_CHUNK", chunk)
    cases = [
        (GuaranteeInputs.from_scheme(scheme(k), loss(), epsilon=0.3, delta=0.1), window)
        for k, window in ((1, 500), (2, 2000), (3, 8000))
        for scheme, loss in (
            (rectangle_scheme, zero_one_partite), (sum_threshold_scheme, zero_one_nonpartite)
        )
    ]
    # every m passes, so the scan walks down to m = 1
    cases.append((inputs_const(PARTITE, 2, 0, 1, epsilon=0.1, delta=0.5, sup_norm=0.05), 100))
    cases.append((inputs_const(NONPARTITE, 2, 0, 1, epsilon=0.1, delta=0.5, sup_norm=0.05), 100))
    # m_pac at, next to and above the top of the second chunk from the top
    window = 40000
    edge = min(int(0.9 * window), window - chunk) - chunk
    for at in (edge, edge + 1, edge + 2):
        assert whole_window_scan(switch_inputs(at), window) == at
        cases.append((switch_inputs(at), window))
    # both failure kinds: conditions failing at the limit, a non-monotone tail
    whole_sample = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=lambda m: m, header_size=lambda m: 1,
        epsilon=0.1, delta=0.1,
    )
    oscillating = GuaranteeInputs(
        mode=PARTITE, k=1, sup_norm=1.0,
        selection_size=lambda m: 0,
        header_size=lambda m: np.where(m % 2 == 0, 1, np.ceil(np.exp(0.1 * m))),
        epsilon=0.9, delta=0.1,
    )
    assert whole_window_scan(whole_sample, 100)[1]["holds_at_limit"] is False
    assert whole_window_scan(oscillating, 200)[1]["tail_monotone"] is False
    cases += [(whole_sample, 100), (oscillating, 200)]
    for inputs, window in cases:
        assert scan_outcome(inputs, window) == whole_window_scan(inputs, window)


def test_m_pac_stops_below_the_last_failing_m():
    evaluated = []
    scheme = rectangle_scheme(2)

    def counted(m):
        evaluated.append(m.size)
        return scheme.selection_size(m)

    gi = GuaranteeInputs(
        mode=PARTITE, k=2, sup_norm=1.0,
        selection_size=counted, header_size=scheme.header_size,
        epsilon=0.02, delta=0.1,
    )
    assert m_pac(gi, scan_limit=800000) == 559771
    assert sum(evaluated) <= 800000 - 559771 + 1 + learner.SCAN_CHUNK


# windows holding m_pac of both families on the benchmark's epsilon grid
GRID_WINDOWS = {
    1: {0.1: 5_000, 0.05: 25_000, 0.02: 200_000},
    2: {0.1: 50_000, 0.05: 200_000, 0.02: 800_000},
    3: {0.1: 100_000, 0.05: 400_000, 0.02: 2_500_000},
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "scheme, loss",
    [(rectangle_scheme, zero_one_partite), (sum_threshold_scheme, zero_one_nonpartite)],
)
def test_m_pac_agrees_with_guarantee_conditions(scheme, loss, k):
    # the scan takes the partite ratio with NumPy's power, the reported
    # rows with Python's; both must put m_pac at the same place
    for epsilon, window in GRID_WINDOWS[k].items():
        for delta in (0.1, 0.01):
            gi = GuaranteeInputs.from_scheme(scheme(k), loss(), epsilon, delta)
            m0 = m_pac(gi, window)
            assert guarantee_conditions(gi, m0) == (True, True)
            assert not all(guarantee_conditions(gi, m0 - 1))


def test_guarantee_conditions_on_violated_point():
    gi = inputs_const(NONPARTITE, 3, 0, 1, 0.1, 0.5, sup_norm=0.05)
    assert guarantee_conditions(gi, 2) == (False, False)


# ---------------------------------------------------------------------------
# asymptotic reference


def test_asymptotic_reference_values():
    gi = inputs_const(PARTITE, 2, 2, 2, epsilon=0.1, delta=math.exp(-1))
    assert asymptotic_guarantee_reference(gi) == pytest.approx(400.0, rel=1e-12)
    gi2 = inputs_const(PARTITE, 2, 2, 2, epsilon=0.1, delta=math.exp(-2))
    assert asymptotic_guarantee_reference(gi2) == pytest.approx(800.0, rel=1e-12)
    # small ln(1/delta) is floored at 1
    gi3 = inputs_const(PARTITE, 2, 2, 2, epsilon=0.1, delta=0.9)
    assert asymptotic_guarantee_reference(gi3) == pytest.approx(400.0, rel=1e-12)


def test_asymptotic_reference_frozen_values():
    gp = inputs_const(PARTITE, 2, 2, 2, epsilon=0.1, delta=0.1)
    gn = inputs_const(NONPARTITE, 2, 2, 2, epsilon=0.1, delta=0.1)
    assert asymptotic_guarantee_reference(gp) == pytest.approx(921.0340371976182, rel=1e-13)
    assert asymptotic_guarantee_reference(gn) == pytest.approx(1842.0680743952364, rel=1e-13)
    assert asymptotic_guarantee_reference(gn) == pytest.approx(
        2 * asymptotic_guarantee_reference(gp), rel=1e-13
    )


def test_asymptotic_reference_when_epsilon_squared_underflows():
    # eps**2 is 0 below about 1.5e-162; the reference is still a number
    assert 1e-163**2 == 0
    gi = inputs_const(PARTITE, 2, 2, 2, epsilon=1e-300, delta=0.1)
    assert asymptotic_guarantee_reference(gi) == math.inf
    # a tiny loss norm keeps the true value, 4e-20 / 1e-326 * ln 10, finite
    tiny = inputs_const(PARTITE, 2, 2, 2, epsilon=1e-163, delta=0.1, sup_norm=1e-10)
    assert asymptotic_guarantee_reference(tiny) == pytest.approx(
        4e306 * math.log(10), rel=1e-12
    )


# ---------------------------------------------------------------------------
# plumbing


def test_guarantee_inputs_validation():
    with pytest.raises(ValueError):
        inputs_const("weird", 2, 2, 2, 0.1, 0.1)
    with pytest.raises(ValueError):
        inputs_const(PARTITE, 0, 2, 2, 0.1, 0.1)
    with pytest.raises(ValueError):
        inputs_const(PARTITE, 2, 2, 2, 0.1, 0.1, sup_norm=0.0)
    with pytest.raises(ValueError):
        inputs_const(PARTITE, 2, 2, 2, 1.0, 0.1)
    with pytest.raises(ValueError):
        inputs_const(PARTITE, 2, 2, 2, 0.1, 0.0)


def test_from_scheme_copies_sizes():
    scheme = sum_threshold_scheme(2)
    gi = GuaranteeInputs.from_scheme(scheme, zero_one_partite(), 0.1, 0.1)
    assert gi.mode == NONPARTITE and gi.k == 2 and gi.sup_norm == 1.0
    assert gi.selection_size(10) == 2 and gi.header_size(10) == 2


def test_learn_round_trip():
    scheme = rectangle_scheme(2)
    F = HypothesisClass.rectangles(2).sample_hypothesis(spawn_rng(5))
    x = draw_sample(ProductMeasure.uniform(PARTITE, 2), 12, seed=5)
    z = label_sample(F, x)
    H = learn(scheme, z)
    assert empirical_loss_partite(z, H, zero_one_partite()) == 0.0
