"""Monte Carlo harness: concentration audits, PAC audits, and bound tables.

Runs are reproducible byte for byte: every random draw is keyed by the
config seed plus a structural path (variant, m index, trial index), rows
and records are emitted in a fixed order, and the writers serialize with
sorted keys and fixed column sets.

Each built-in family (boxes, partite; sum thresholds, nonpartite) is one
Family record: its class, scheme and zero-one loss constructors, its
dense reference empirical loss, its exact total loss, and its fast
concentration and PAC kernels with the arities they cover.  The runners
read the record of the configured class instead of comparing mode and
id strings.

Two execution engines produce identical records.  The generic engine
materializes label tensors and goes through the compression pipeline; the
fast engine runs a family's kernels on the drawn points, under any
measure, with factorized counting so sample sizes in the tens of
thousands stay cheap.
The fast nonpartite path works on the sorted points through exact prefix
boundaries: rounded addition is monotone, so for each point the partners
whose float sum with it falls below a threshold are a prefix of the sorted
points.  Pair counts and the extreme pair sums around a threshold are read
off those boundaries, so they match the grid semantics of the generic path
in exact float arithmetic, ties and sums landing on the threshold included.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

from .indexing import (
    MAX_ARITY,
    MODES,
    NONPARTITE,
    PARTITE,
    InjectionVector,
    canonical_order_choice,
    side_count,
    subsample,
)
from .learner import (
    GuaranteeInputs,
    MPacNotFound,
    asymptotic_guarantee_reference,
    azuma_bound,
    bound_breakdowns,
    m_pac,
)
from .losses import (
    CI99_MULTIPLIER,
    LossSpec,
    empirical_loss_nonpartite,
    empirical_loss_partite,
    exact_total_loss_gap,
    total_loss_exact_rectangles,
    total_loss_exact_sum_threshold,
    total_loss_monte_carlo,
    zero_one_nonpartite,
    zero_one_partite,
)
from .samples import (
    FiniteDiscrete,
    Hypothesis,
    HypothesisClass,
    KeyedGenerator,
    ProductMeasure,
    coordinate_sum,
    derive_seed,
    draw_sample,
    erm_realizability_check,
    label_sample,
    spawn_rng,
    stream_keys,
    threshold_of,
)
from .schemes import (
    SelectionScheme,
    check_compression_validity,
    compress,
    rectangle_scheme,
    reconstruct,
    sum_threshold_scheme,
    trivial_scheme,
)


class ConfigError(ValueError):
    """A config file or config value that cannot be used."""


# ---------------------------------------------------------------------------
# Configuration


# a cell whose first pass fails is re-measured with RERUN_FACTOR times
# as many fresh trials, numbered on from the first pass's
RERUN_FACTOR = 4
# trial indices go into the batched seed derivation as one 32-bit word
MAX_TRIALS = 2**32 // (1 + RERUN_FACTOR)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully determined by these values plus nothing else."""

    mode: str = PARTITE
    k: int = 2
    scheme_id: str = "rectangle"
    class_id: str = "rectangle"
    measure: str = "uniform"
    loss_id: str = "zero-one"
    epsilon: float = 0.1
    delta: float = 0.1
    m_values: tuple = (50, 200)
    trials: int = 200
    estimator: str = "exact"
    n_draws: int = 20000
    seed: int = 0
    out: str = ""

    def validate(self) -> "ExperimentConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.k <= MAX_ARITY:
            raise ConfigError(f"k must lie in [1, {MAX_ARITY}], got {self.k}")
        if self.scheme_id != "trivial" and self.scheme_id not in FAMILIES:
            raise ConfigError(f"unknown scheme_id {self.scheme_id!r}")
        if self.class_id not in FAMILIES:
            raise ConfigError(f"unknown class_id {self.class_id!r}")
        if self.loss_id != "zero-one":
            raise ConfigError(f"unknown loss_id {self.loss_id!r}")
        if not 0 < self.epsilon < 1:
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.m_values:
            raise ConfigError("m_values must be nonempty")
        floor = self.k if self.mode == NONPARTITE else 1
        for m in self.m_values:
            if m < floor:
                raise ConfigError(
                    f"m={m} is below the minimum {floor} for {self.mode} mode"
                )
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ConfigError(
                f"trials must be <= {MAX_TRIALS}, got {self.trials}: a re-measured cell "
                f"numbers its trials up to {1 + RERUN_FACTOR} * trials - 1, and a trial "
                "index must fit 32 bits"
            )
        if self.estimator not in ("exact", "monte-carlo"):
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.n_draws < 1:
            raise ConfigError(f"n_draws must be >= 1, got {self.n_draws}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


_INT_FIELDS = ("k", "trials", "n_draws", "seed")
_FLOAT_FIELDS = ("epsilon", "delta")


def _parse_value(key: str, text: str):
    try:
        if key in _INT_FIELDS:
            return int(text)
        if key in _FLOAT_FIELDS:
            return float(text)
        if key == "m_values":
            return tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from exc
    return text


def parse_config(text: str) -> ExperimentConfig:
    """Flat key=value lines; # starts a comment; unknown keys are rejected."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, val)
    return ExperimentConfig(**values).validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    # the output destination is CLI plumbing, not experiment identity,
    # so it stays out of the echoed config and the hash
    doc = {}
    for f in fields(ExperimentConfig):
        if f.name == "out":
            continue
        v = getattr(cfg, f.name)
        doc[f.name] = list(v) if isinstance(v, tuple) else v
    return doc


def canonical_config_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        if f.name == "out":
            continue
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ", ".join(str(p) for p in v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Builders


def build_measure(cfg: ExperimentConfig) -> ProductMeasure:
    """measure is either "uniform" or "discrete:v@w,v@w,..."."""
    if cfg.measure == "uniform":
        return ProductMeasure.uniform(cfg.mode, cfg.k)
    if cfg.measure.startswith("discrete:"):
        pairs = []
        for part in cfg.measure[len("discrete:"):].split(","):
            if "@" not in part:
                raise ConfigError(f"bad discrete atom {part!r}, expected value@weight")
            v, _, w = part.partition("@")
            try:
                pairs.append((float(v), float(w)))
            except ValueError as exc:
                raise ConfigError(f"bad discrete atom {part!r}") from exc
        try:
            dist = FiniteDiscrete(
                tuple(v for v, _ in pairs), tuple(w for _, w in pairs)
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return ProductMeasure(cfg.mode, cfg.k, (dist,) * side_count(cfg.mode, cfg.k))
    raise ConfigError(f"unknown measure {cfg.measure!r}")


def build_all(cfg: ExperimentConfig):
    """(measure, class, loss, scheme) of a config: the class, its loss and
    its scheme come from the class's family, or the scheme is trivial."""
    for key, name in (("class_id", cfg.class_id), ("scheme_id", cfg.scheme_id)):
        if name in FAMILIES and FAMILIES[name].mode != cfg.mode:
            raise ConfigError(f"{key} {name} requires {FAMILIES[name].mode} mode")
    family = FAMILIES[cfg.class_id]
    klass = family.hypothesis_class(cfg.k)
    loss = family.loss()
    scheme = trivial_scheme(klass, loss) if cfg.scheme_id == "trivial" else family.scheme(cfg.k)
    return build_measure(cfg), klass, loss, scheme


# ---------------------------------------------------------------------------
# Records and results


@dataclass(frozen=True)
class TrialRecord:
    """One audited trial: the losses and the event indicator."""

    variant: str
    m: int
    trial: int
    empirical_loss: float
    total_loss: float
    gap: float
    exceeded: bool
    header: int
    hypothesis: str
    realizable: bool

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class ExperimentResult:
    """Everything one run produced, ready for the writers."""

    kind: str
    config: ExperimentConfig
    columns: list
    rows: list
    records: list
    passed: bool
    notes: list = field(default_factory=list)


def merge_results(results: Sequence[ExperimentResult]) -> ExperimentResult:
    first = results[0]
    merged = ExperimentResult(
        kind=first.kind,
        config=first.config,
        columns=list(first.columns),
        rows=[],
        records=[],
        passed=all(r.passed for r in results),
    )
    for r in results:
        if r.kind != first.kind or r.config != first.config:
            raise ValueError("cannot merge results from different runs")
        merged.rows.extend(r.rows)
        merged.records.extend(r.records)
        merged.notes.extend(r.notes)
    return merged


def _ci_half_width(p_hat: float, n: int) -> float:
    return CI99_MULTIPLIER * math.sqrt(p_hat * (1.0 - p_hat) / n)


# ---------------------------------------------------------------------------
# Fast counting kernels for the built-in families

def _rect_masks(H: Hypothesis, sides: Sequence[np.ndarray]):
    """Per-side membership masks of a box hypothesis; all-false when empty."""
    if H.intervals is None:
        return [np.zeros(len(s), dtype=bool) for s in sides]
    return [(s >= lo) & (s <= hi) for (lo, hi), s in zip(H.intervals, sides)]


def _rect_xor_count(fmasks, hmasks) -> int:
    """Number of grid tuples where the two boxes disagree, via factorized counts."""
    cf = ch = cfh = 1
    for fm, hm in zip(fmasks, hmasks):
        cf *= int(fm.sum())
        ch *= int(hm.sum())
        cfh *= int((fm & hm).sum())
    return cf + ch - 2 * cfh


def _rect_minimal_box(sides, fmasks) -> Hypothesis:
    """Minimal box around the all-positive tuples of the given coordinates."""
    if not all(bool(fm.any()) for fm in fmasks):
        return Hypothesis.empty_rectangle(len(sides))
    intervals = []
    for s, fm in zip(sides, fmasks):
        vals = s[fm]
        intervals.append((float(vals.min()), float(vals.max())))
    return Hypothesis.rectangle(intervals)


def _row_boundaries(xs: np.ndarray, t: float, start: np.ndarray | None = None) -> np.ndarray:
    """p[i] = #{j : float(xs[i] + xs[j]) < t} for sorted xs (j == i included).

    Rounded addition is monotone, so row i's qualifying partners are the
    prefix xs[:p[i]].  The guess (searchsorted on t - xs, or start) is
    off only where t - xs[i] rounds.  Rows whose last partner is not
    below t move down, then rows whose first non-partner is below t move
    up, each step past the whole run of values equal to the offending
    partner, until xs[i] + xs[p - 1] < t <= xs[i] + xs[p] on every row.
    """
    p = np.searchsorted(xs, t - xs) if start is None else start.copy()
    # ends[j + 1] = xs[j]; the NaN ends compare false, so p = 0 never
    # moves down and p = m never moves up
    ends = np.concatenate(([math.nan], xs, [math.nan]))
    rows = np.flatnonzero(xs + ends[p] >= t)
    while len(rows):
        p[rows] = np.searchsorted(xs, ends[p[rows]], side="left")
        rows = rows[xs[rows] + ends[p[rows]] >= t]
    rows = np.flatnonzero(xs + ends[p + 1] < t)
    while len(rows):
        p[rows] = np.searchsorted(xs, ends[p[rows] + 1], side="right")
        rows = rows[xs[rows] + ends[p[rows] + 1] < t]
    return p


def _below_count(xs: np.ndarray, t: float, p: np.ndarray) -> int:
    """#{(i, j): i != j, float(xs[i] + xs[j]) < t} from the row boundaries p at t."""
    return int(p.sum()) - int(np.count_nonzero(xs + xs < t))


def _boundary_extremes(xs: np.ndarray, p: np.ndarray):
    """(min pair sum >= t, max pair sum < t) over i != j from the row boundaries
    p at t, each None when no such pair.  Row i's candidates are its first
    partner at or above the boundary and its last below it, skipping j == i."""
    idx = np.arange(len(xs))
    # ends[j + 1] = xs[j]; the -inf/+inf ends stand for "no partner"
    ends = np.concatenate(([-math.inf], xs, [math.inf]))
    up = p + (p == idx)
    down = p - 1
    down -= down == idx
    min_pos = float((xs + ends[up + 1]).min(initial=math.inf))
    max_neg = float((xs + ends[down + 1]).max(initial=-math.inf))
    return (
        None if min_pos == math.inf else min_pos,
        None if max_neg == -math.inf else max_neg,
    )


def _ordered_pairs_below(xs: np.ndarray, t: float) -> int:
    """#{(i, j): i != j, float(xs[i] + xs[j]) < t} for sorted xs, exactly as a
    dense evaluation of xs[i] + xs[j] < t counts it."""
    return _below_count(xs, t, _row_boundaries(xs, t))


def _pairs_in_range(xs: np.ndarray, lo: float, hi: float) -> int:
    """Unordered pairs with lo <= float sum < hi, for sorted xs."""
    if hi <= lo:
        return 0
    return (_ordered_pairs_below(xs, hi) - _ordered_pairs_below(xs, lo)) // 2


def _box_concentration(k, F, sigma, eta, m, x):
    fmasks = _rect_masks(F, x.sides)
    if eta == 2:
        H = Hypothesis.empty_rectangle(k)
    else:
        sel = [side[list(mp)] for side, mp in zip(x.sides, sigma.maps)]
        H = _rect_minimal_box(sel, _rect_masks(F, sel))
    return H, _rect_xor_count(fmasks, _rect_masks(H, x.sides)) / m**k


def _box_pac(k, F, m, x):
    fmasks = _rect_masks(F, x.sides)
    positive = all(bool(fm.any()) for fm in fmasks)
    header = 1 if positive else 2
    H = _rect_minimal_box(x.sides, fmasks) if positive else Hypothesis.empty_rectangle(k)
    count = _rect_xor_count(fmasks, _rect_masks(H, x.sides))
    # H is the minimal box around the positive tuples, so the sample is
    # realizable iff H holds no negative tuple: iff H and F agree everywhere
    return H, header, count / m**k, count == 0


def _threshold_concentration(k, F, sigma, eta, m, x):
    pts = x.sides[0]
    if eta == 2:
        H = Hypothesis.constant(k, 0)
    else:
        H = Hypothesis.sum_threshold(k, float(coordinate_sum(pts[list(sigma.maps[0])])))
    t_f, t_h = threshold_of(F), threshold_of(H)
    count = _pairs_in_range(np.sort(pts), min(t_f, t_h), max(t_f, t_h))
    return H, count / math.comb(m, k)


def _threshold_pac(k, F, m, x):
    xs = np.sort(x.sides[0])
    t_f = threshold_of(F)
    p_f = _row_boundaries(xs, t_f)
    min_pos, max_neg = _boundary_extremes(xs, p_f)
    if min_pos is None:
        header = 2
        H = Hypothesis.constant(k, 0)
    else:
        header = 1
        H = Hypothesis.sum_threshold(k, min_pos)
    # no pair of distinct points sums into [t_f, t_h), so the boundaries at
    # t_h are those at t_f moved past at most one self-sum per row
    t_h = threshold_of(H)
    p_h = _row_boundaries(xs, t_h, start=p_f)
    count = (_below_count(xs, t_h, p_h) - _below_count(xs, t_f, p_f)) // 2
    emp = count / math.comb(m, k)
    realizable = min_pos is None or max_neg is None or max_neg < min_pos
    return H, header, emp, realizable


# ---------------------------------------------------------------------------
# The built-in families


@dataclass(frozen=True, eq=False)
class Family:
    """One built-in family: class, scheme, loss, and what the engines run on it.

    name is both its class_id and its scheme_id.  empirical_loss is the
    dense reference.  The fast engine runs concentration_kernel(k, F,
    sigma, eta, m, x) -> (H, empirical loss) and pac_kernel(k, F, m, x) ->
    (H, header, empirical loss, realizable) for k in fast_arities, under
    any measure: the kernels read only the drawn points.  Fields calling
    another module's function name it inside a lambda, so a wrapper
    installed at the module attribute (perfbench's tracer) is what they
    call.
    """

    name: str
    mode: str
    hypothesis_class: Callable[[int], HypothesisClass]
    scheme: Callable[[int], SelectionScheme]
    loss: Callable[[], LossSpec]
    empirical_loss: Callable[..., float]
    total_loss_exact: Callable[[ProductMeasure, Hypothesis, Hypothesis], float]
    concentration_kernel: Callable[..., tuple]
    pac_kernel: Callable[..., tuple]
    fast_arities: range


BOXES = Family(
    name="rectangle", mode=PARTITE,
    hypothesis_class=HypothesisClass.rectangles,
    scheme=rectangle_scheme,
    loss=zero_one_partite,
    empirical_loss=lambda labeled, H, loss: empirical_loss_partite(labeled, H, loss),
    total_loss_exact=lambda mu, F, H: total_loss_exact_rectangles(mu, F, H),
    concentration_kernel=_box_concentration,
    pac_kernel=_box_pac,
    fast_arities=range(1, MAX_ARITY + 1),
)

SUM_THRESHOLDS = Family(
    name="sum-threshold", mode=NONPARTITE,
    hypothesis_class=HypothesisClass.sum_thresholds,
    scheme=sum_threshold_scheme,
    loss=zero_one_nonpartite,
    empirical_loss=lambda labeled, H, loss: empirical_loss_nonpartite(
        labeled, H, loss, canonical_order_choice(labeled.m, labeled.k)
    ),
    total_loss_exact=lambda mu, F, H: total_loss_exact_sum_threshold(mu, F, H),
    concentration_kernel=_threshold_concentration,
    pac_kernel=_threshold_pac,
    # the kernels count pairs of points
    fast_arities=range(2, 3),
)

FAMILIES = {family.name: family for family in (BOXES, SUM_THRESHOLDS)}


# ---------------------------------------------------------------------------
# Engines

_VARIANT_SALT = {"fixed": 0, "random": 1}


def _fast_supported(cfg: ExperimentConfig, scheme: SelectionScheme) -> bool:
    family = FAMILIES[cfg.class_id]
    return scheme.scheme_id == family.name and cfg.k in family.fast_arities


def _resolve_engine(cfg, scheme, engine: str) -> str:
    if engine == "auto":
        return "fast" if _fast_supported(cfg, scheme) else "generic"
    if engine not in ("fast", "generic"):
        raise ConfigError(f"unknown engine {engine!r}")
    if engine == "fast" and not _fast_supported(cfg, scheme):
        raise ConfigError("fast engine does not support this configuration")
    return engine


def _check_total_loss(cfg: ExperimentConfig, mu: ProductMeasure) -> None:
    """Refuse, before any trial runs, an exact estimator that cannot cover mu."""
    gap = exact_total_loss_gap(mu) if cfg.estimator == "exact" else None
    if gap:
        raise ConfigError(f"{gap}; use estimator = monte-carlo")


def _total_loss(cfg, mu, loss, F, H, mc_seed: int | None) -> float:
    if cfg.estimator == "exact":
        return FAMILIES[cfg.class_id].total_loss_exact(mu, F, H)
    est, _ = total_loss_monte_carlo(mu, F, H, loss, cfg.n_draws, mc_seed)
    return est


def _side_keys(mu: ProductMeasure, seeds: np.ndarray) -> list:
    """Per trial, the Philox keys of its sample's side streams (seed, side)."""
    return stream_keys(seeds[:, None], np.arange(len(mu.distributions))).tolist()


def _mc_seeds(cfg: ExperimentConfig, prefix: tuple, ts: np.ndarray) -> list:
    """Per trial t, the seed (*prefix, t, 7) of its Monte Carlo total loss;
    the exact estimator reads none, so none is derived for it."""
    if cfg.estimator != "monte-carlo":
        return [None] * len(ts)
    return derive_seed(cfg.seed, *prefix, ts, 7).tolist()


def _measure_cell(result, batch, trials: int, bound: float | None, m: int, what: str):
    """Run a cell's trials through batch(first trial, count) -> (records,
    event count); it passes when the event frequency less its CI99
    half-width is at most bound (always when bound is None).  A failed
    first pass is re-measured once, with RERUN_FACTOR times as many fresh
    trials, which decide.  Returns (trials, event count, frequency,
    half-width, passed, rerun)."""

    def measure(start, n):
        recs, count = batch(start, n)
        result.records.extend(recs)
        freq = count / n
        ci = _ci_half_width(freq, n)
        return n, count, freq, ci, bound is None or freq - ci <= bound

    cell = measure(0, trials)
    if cell[-1]:
        return (*cell, False)
    cell = measure(trials, RERUN_FACTOR * trials)
    result.notes.append(f"m={m}: first pass exceeded {what}, re-measured with {cell[0]} trials")
    return (*cell, True)


def _scan_m_pac(cfg: ExperimentConfig, inputs, scan_limit: int | None, notes: list):
    """m_pac within scan_limit (default max(4 max m, 20000)), or None with
    a note when the window holds no guaranteed sample size."""
    window = scan_limit if scan_limit is not None else max(4 * max(cfg.m_values), 20000)
    try:
        return m_pac(inputs, window)
    except MPacNotFound as exc:
        notes.append(f"no guaranteed sample size within {window}: {exc}")
        return None


def _concentration_trial(
    cfg, mu, loss, scheme, F, sigma, eta, variant, m, t, x, mc_seed, engine
) -> TrialRecord:
    family = FAMILIES[cfg.class_id]
    if engine == "fast":
        H, emp = family.concentration_kernel(cfg.k, F, sigma, eta, m, x)
    else:
        labeled = label_sample(F, x)
        H = reconstruct(scheme, subsample(labeled, sigma), eta)
        emp = family.empirical_loss(labeled, H, loss)
    total = _total_loss(cfg, mu, loss, F, H, mc_seed)
    gap = total - emp
    return TrialRecord(
        variant=variant, m=m, trial=t, empirical_loss=emp, total_loss=total,
        gap=gap, exceeded=gap >= cfg.epsilon, header=eta,
        hypothesis=H.describe(), realizable=True,
    )


CONCENTRATION_COLUMNS = [
    "variant", "m", "epsilon", "trials", "exceed_count", "p_hat",
    "ci_half_width", "single_event_bound", "margin", "condition_ok",
    "rerun", "passed", "note",
]


def run_concentration_experiment(
    cfg: ExperimentConfig,
    sigma: InjectionVector | Callable[[int], InjectionVector],
    eta: int,
    F: Hypothesis,
    variant: str = "fixed",
    engine: str = "auto",
) -> ExperimentResult:
    """Audit the single-selection deviation bound for one fixed (sigma, eta, F).

    sigma is a fixed InjectionVector (its indices must be in range for
    every configured m) or a callable m -> InjectionVector.  For each m,
    the exceedance frequency of {total - empirical >= epsilon} over
    fresh samples is compared against the single-event bound; the
    verdict requires p_hat - CI99 <= bound.  A failed comparison is
    re-measured once with four times the trials.  Sample sizes where the
    slack condition fails are skipped with a note.
    """
    cfg.validate()
    if variant not in _VARIANT_SALT:
        raise ValueError(f"variant must be one of {sorted(_VARIANT_SALT)}")
    mu, klass, loss, scheme = build_all(cfg)
    _check_total_loss(cfg, mu)
    eng = _resolve_engine(cfg, scheme, engine)
    inputs = GuaranteeInputs.from_scheme(scheme, loss, cfg.epsilon, cfg.delta)
    result = ExperimentResult(
        kind="concentration", config=cfg, columns=list(CONCENTRATION_COLUMNS),
        rows=[], records=[], passed=True,
    )

    vsalt = _VARIANT_SALT[variant]
    rng = KeyedGenerator()

    def batch(m, mi, sigma_m, t0, count):
        ts = np.arange(t0, t0 + count)
        keys = _side_keys(mu, derive_seed(cfg.seed, vsalt, mi, ts))
        mc_seeds = _mc_seeds(cfg, (vsalt, mi), ts)
        recs = [
            _concentration_trial(
                cfg, mu, loss, scheme, F, sigma_m, eta, variant, m, t0 + j,
                draw_sample(mu, m, keys=side_keys, rng=rng), mc_seeds[j], eng,
            )
            for j, side_keys in enumerate(keys)
        ]
        exceed = sum(r.exceeded for r in recs)
        return recs, exceed

    for mi, m in enumerate(cfg.m_values):
        bd = azuma_bound(inputs, m)
        if not bd.condition_ok:
            note = f"m={m}: slack condition fails, bound is trivial; skipped"
            result.notes.append(note)
            result.rows.append({
                "variant": variant, "m": m, "epsilon": cfg.epsilon, "trials": 0,
                "exceed_count": 0, "p_hat": 0.0, "ci_half_width": 0.0,
                "single_event_bound": 1.0, "margin": 1.0, "condition_ok": False,
                "rerun": False, "passed": True, "note": "condition-violated",
            })
            continue
        if callable(sigma):
            sigma_m = sigma(m)
        elif sigma.m == m:
            sigma_m = sigma
        else:
            # a fixed selection is reusable at any sample size that still
            # contains its indices; rebinding validates the range
            sigma_m = InjectionVector(sigma.mode, m, sigma.maps)
        trials, exceed, p_hat, ci, ok, rerun = _measure_cell(
            result, partial(batch, m, mi, sigma_m), cfg.trials, bd.single_event_bound,
            m, "the bound",
        )
        result.rows.append({
            "variant": variant, "m": m, "epsilon": cfg.epsilon, "trials": trials,
            "exceed_count": exceed, "p_hat": p_hat, "ci_half_width": ci,
            "single_event_bound": bd.single_event_bound,
            "margin": bd.single_event_bound - (p_hat - ci), "condition_ok": True,
            "rerun": rerun, "passed": ok, "note": "",
        })
        result.passed = result.passed and ok
    return result


def run_concentration_suite(cfg: ExperimentConfig, engine: str = "auto") -> ExperimentResult:
    """Both audit variants: a fixed top-index selection with header 1, and a
    seeded random selection with a seeded random header."""
    cfg.validate()
    mu, klass, loss, scheme = build_all(cfg)
    F = klass.sample_hypothesis(spawn_rng(cfg.seed, 11))
    h_min = min(int(scheme.header_size(m)) for m in cfg.m_values)

    def sigma_fixed(m):
        return InjectionVector.top(cfg.mode, cfg.k, m, int(scheme.selection_size(m)))

    def sigma_random(m):
        return InjectionVector.random(
            cfg.mode, cfg.k, m, int(scheme.selection_size(m)), spawn_rng(cfg.seed, 13, m)
        )

    eta_random = 1 + int(spawn_rng(cfg.seed, 14).integers(2)) if h_min > 1 else 1
    fixed = run_concentration_experiment(cfg, sigma_fixed, 1, F, "fixed", engine)
    rand = run_concentration_experiment(cfg, sigma_random, eta_random, F, "random", engine)
    return merge_results([fixed, rand])


def _pac_trial(cfg, mu, klass, loss, scheme, m, t, F, x, mc_seed, engine) -> TrialRecord:
    family = FAMILIES[cfg.class_id]
    if engine == "fast":
        H, header, emp, realizable = family.pac_kernel(cfg.k, F, m, x)
    else:
        labeled = label_sample(F, x)
        sub, header = compress(scheme, labeled)
        H = reconstruct(scheme, sub, header)
        emp = family.empirical_loss(labeled, H, loss)
        realizable, _ = erm_realizability_check(klass, labeled, loss)
    if not realizable:
        # samples are labeled by a class member, so a failed
        # certificate means the harness itself is broken
        raise RuntimeError(f"realizability certification failed at m={m}, trial={t}")
    total = _total_loss(cfg, mu, loss, F, H, mc_seed)
    return TrialRecord(
        variant="pac", m=m, trial=t, empirical_loss=emp, total_loss=total,
        gap=total - emp, exceeded=total > cfg.epsilon, header=header,
        hypothesis=H.describe(), realizable=realizable,
    )


PAC_COLUMNS = [
    "m", "epsilon", "delta", "trials", "fail_count", "q_hat", "ci_half_width",
    "m_pac", "applies", "rerun", "passed", "note",
]


def run_pac_experiment(
    cfg: ExperimentConfig,
    engine: str = "auto",
    scan_limit: int | None = None,
) -> ExperimentResult:
    """Audit the end-to-end guarantee of the compression-based learner.

    Each trial samples a target from the class, labels a fresh sample,
    certifies realizability, learns by compress-then-reconstruct, and
    measures the learned hypothesis's total loss.  For every m at or
    beyond the guaranteed sample size, the failure frequency of
    {total loss > epsilon} must satisfy q_hat - CI99 <= delta.
    """
    cfg.validate()
    mu, klass, loss, scheme = build_all(cfg)
    _check_total_loss(cfg, mu)
    eng = _resolve_engine(cfg, scheme, engine)
    inputs = GuaranteeInputs.from_scheme(scheme, loss, cfg.epsilon, cfg.delta)
    result = ExperimentResult(
        kind="pac", config=cfg, columns=list(PAC_COLUMNS),
        rows=[], records=[], passed=True,
    )
    m0 = _scan_m_pac(cfg, inputs, scan_limit, result.notes)

    rng = KeyedGenerator()

    def batch(m, mi, t0, count):
        ts = np.arange(t0, t0 + count)
        target_keys = stream_keys(cfg.seed, mi, ts, 0).tolist()
        keys = _side_keys(mu, derive_seed(cfg.seed, mi, ts, 1))
        mc_seeds = _mc_seeds(cfg, (mi,), ts)
        recs = []
        for j, side_keys in enumerate(keys):
            # the target's stream is drawn in full before the sample re-keys rng
            F = klass.sample_hypothesis(rng.at(target_keys[j]))
            x = draw_sample(mu, m, keys=side_keys, rng=rng)
            recs.append(
                _pac_trial(cfg, mu, klass, loss, scheme, m, t0 + j, F, x, mc_seeds[j], eng)
            )
        return recs, sum(r.exceeded for r in recs)

    for mi, m in enumerate(cfg.m_values):
        applies = m0 is not None and m >= m0
        trials, fails, q_hat, ci, ok, rerun = _measure_cell(
            result, partial(batch, m, mi), cfg.trials, cfg.delta if applies else None,
            m, "delta",
        )
        result.rows.append({
            "m": m, "epsilon": cfg.epsilon, "delta": cfg.delta, "trials": trials,
            "fail_count": fails, "q_hat": q_hat, "ci_half_width": ci,
            "m_pac": m0 if m0 is not None else "", "applies": applies,
            "rerun": rerun, "passed": ok, "note": "",
        })
        result.passed = result.passed and ok
    return result


BOUND_TABLE_COLUMNS = [
    "mode", "k", "m", "epsilon", "delta", "slack", "effective_epsilon",
    "single_event_bound", "multiplier", "total_bound", "m_pac",
    "asymptotic_reference",
]


def run_bound_table(cfg: ExperimentConfig, scan_limit: int | None = None) -> ExperimentResult:
    """One row of bound diagnostics per m, plus the guaranteed sample size."""
    cfg.validate()
    mu, klass, loss, scheme = build_all(cfg)
    inputs = GuaranteeInputs.from_scheme(scheme, loss, cfg.epsilon, cfg.delta)
    result = ExperimentResult(
        kind="bound-table", config=cfg, columns=list(BOUND_TABLE_COLUMNS),
        rows=[], records=[], passed=True,
    )
    m0 = _scan_m_pac(cfg, inputs, scan_limit, result.notes)
    ref = asymptotic_guarantee_reference(inputs)
    for m, bd in zip(cfg.m_values, bound_breakdowns(inputs, cfg.m_values)):
        result.rows.append({
            "mode": cfg.mode, "k": cfg.k, "m": m, "epsilon": cfg.epsilon,
            "delta": cfg.delta, "slack": bd.slack,
            "effective_epsilon": bd.effective_epsilon,
            "single_event_bound": bd.single_event_bound,
            "multiplier": bd.multiplier, "total_bound": bd.total_bound,
            "m_pac": m0 if m0 is not None else "", "asymptotic_reference": ref,
        })
    return result


VALIDITY_COLUMNS = ["m", "trials", "violations", "max_empirical_loss", "passed"]


def run_validity_experiment(
    cfg: ExperimentConfig, fail_fast: bool = False
) -> ExperimentResult:
    """Exact-zero validity audit of the configured scheme on realizable data."""
    cfg.validate()
    mu, klass, loss, scheme = build_all(cfg)
    report = check_compression_validity(
        scheme, klass, loss, cfg.trials, cfg.m_values, cfg.seed,
        measure=mu, fail_fast=fail_fast,
    )
    result = ExperimentResult(
        kind="validate-scheme", config=cfg, columns=list(VALIDITY_COLUMNS),
        rows=[], records=list(report.records), passed=report.passed,
    )
    for m in cfg.m_values:
        recs = [r for r in report.records if r.m == m]
        if not recs:
            continue
        bad = [r for r in recs if not r.passed]
        result.rows.append({
            "m": m, "trials": len(recs), "violations": len(bad),
            "max_empirical_loss": max(r.empirical_loss for r in recs),
            "passed": not bad,
        })
    if not report.passed:
        result.notes.append(f"{len(report.violations)} validity violations")
    return result


# ---------------------------------------------------------------------------
# Writers

MANIFEST_FILE = "manifest.json"
TRIALS_FILE = "trials.jsonl"
SUMMARY_BASE = "summary"


def _cell_text(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# _cell_text of a value of exactly one of these types is one method call;
# subclasses (bool, np.float64) still go through _cell_text
_CELL_METHOD = {float: float.__repr__, int: int.__repr__, str: str.__str__}
# rows are formatted a block at a time, column by column, so the cell
# strings of one block only are alive at once
_CSV_BLOCK = 256


def _column_text(values: list) -> list:
    first = values[0]
    # a column holding one object (a config field, m_pac) is formatted
    # once; identity, not equality, so 0.0 and -0.0 keep their own text
    if all(map(operator.is_, values, repeat(first))):
        return [_cell_text(first)] * len(values)
    kinds = set(map(type, values))
    method = _CELL_METHOD.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(method or _cell_text, values))


def rows_to_csv(columns: Sequence[str], rows: Sequence[dict]) -> str:
    lines = [",".join(columns)]
    for start in range(0, len(rows), _CSV_BLOCK):
        block = rows[start:start + _CSV_BLOCK]
        cells = [_column_text([row[c] for row in block]) for c in columns]
        lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def rows_to_json(columns: Sequence[str], rows: Sequence[dict]) -> str:
    doc = {"columns": list(columns), "rows": [dict(r) for r in rows]}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_summary(result: ExperimentResult, fmt: str = "csv") -> str:
    """The summary table as CSV or JSON text: the bytes of summary.(csv|json)."""
    if fmt == "csv":
        return rows_to_csv(result.columns, result.rows)
    if fmt == "json":
        return rows_to_json(result.columns, result.rows)
    raise ValueError(f"unknown output format {fmt!r}")


def write_outputs(
    result: ExperimentResult, out_dir: str, fmt: str = "csv", summary: str | None = None
) -> list:
    """manifest.json + trials.jsonl + summary.(csv|json), byte-deterministic.

    summary, when given, must be render_summary(result, fmt), already
    rendered by the caller; it is written as is instead of rendered again.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    if summary is None:
        summary = render_summary(result, fmt)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": result.kind,
        "config": config_to_dict(result.config),
        "config_hash": config_hash(result.config),
        "seed": result.config.seed,
        "passed": result.passed,
        "notes": list(result.notes),
    }
    paths = []

    def emit(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        paths.append(path)

    emit(MANIFEST_FILE, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    emit(
        TRIALS_FILE,
        "".join(
            json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in result.records
        ),
    )
    emit(f"{SUMMARY_BASE}.{fmt}", summary)
    return paths
