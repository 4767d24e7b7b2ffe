"""Monte Carlo harness: concentration audits, PAC audits, and bound tables.

Runs are reproducible byte for byte: every random draw is keyed by the
config seed plus a structural path (variant, m index, trial index), rows
and records are emitted in a fixed order, and the writers serialize with
sorted keys and fixed column sets.

Each built-in family (boxes, partite; sum thresholds, nonpartite) is one
Family record: its class, scheme and zero-one loss constructors, its
dense reference empirical loss, how its hypotheses are held as parameter
rows, its exact total loss over such rows, and its fast concentration
and PAC kernels with the arities they cover.  The runners read the
record of the configured class instead of comparing mode and id strings.

An engine is a pair of kernels, one for concentration and one for PAC,
and the two engines produce identical records.  The fast engine is a
family's kernels (the kernels module), which read only the drawn points,
under any measure, with factorized counting so sample sizes in the tens
of thousands stay cheap.  The generic engine's kernels materialize label
tensors and go through the compression pipeline: label, subsample along
sigma (or compress) and reconstruct.  Only _kernels tells the engines
apart; the runners run whichever pair it returns.  Concentration trials
are many and small, so they run in blocks: each trial still draws its
own sample, the samples of up to _BLOCK_POINTS drawn points are stacked
into one array, and one kernel call per block gives every trial's
hypothesis, as a parameter row, and empirical loss.  PAC trials are few
and large, and their kernel runs per trial, giving its trial's parameter
row.  Either way a cell's pass of trials then takes one exact total-loss
call over all its rows (or a Monte Carlo estimate per row), and its
gaps, exceedances and describe() texts are each one pass (_cell_columns,
for both audits).  No TrialRecord is built per trial, and the fast
concentration kernels build no Hypothesis per trial either.

Summary tables and trial records are held by columns (a Records
sequence builds a record only when one is read), and written from them;
bound-table takes its columns whole from learner.bound_columns.
trials.jsonl and summary.json are formatted a block of rows at a time,
column by column, to the bytes json.dumps(record, sort_keys=True) gives
each record and json.dumps(summary, sort_keys=True, indent=2) the
summary, except that a non-finite float is the string of its CSV text.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
from collections.abc import Sequence
from dataclasses import InitVar, dataclass, field, fields
from functools import partial
from itertools import islice, repeat, starmap
from typing import Callable, get_type_hints

import numpy as np

from .indexing import (
    DEFAULT_CELL_BUDGET,
    MAX_ARITY,
    MODES,
    NONPARTITE,
    PARTITE,
    InjectionVector,
    Sample,
    canonical_order_choice,
    side_count,
    subsample,
)
from .kernels import box_concentration, box_pac, threshold_concentration, threshold_pac
from .learner import (
    MAX_SCAN_LIMIT,
    GuaranteeInputs,
    MPacNotFound,
    asymptotic_guarantee_reference,
    azuma_bound,
    bound_columns,
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
    box_ends,
    box_of_ends,
    coordinate_sum,
    derive_seed,
    describe_boxes,
    describe_thresholds,
    draw_sample,
    erm_realizability_check,
    label_sample,
    side_keys,
    spawn_rng,
    stream_keys,
    threshold_of,
)
from .schemes import (
    CompressionReport,
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
            if m > 2**53:
                raise ConfigError(f"m={m} is above 2**53: bounds are taken at float64 m")
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


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _parse_value(kind: type, key: str, text: str):
    try:
        if kind is tuple:
            return tuple(int(p.strip()) for p in text.split(",") if p.strip())
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Flat key=value lines; # starts a comment; unknown keys are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(_FIELD_TYPES[key], key, val)
    return ExperimentConfig(**values).validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    # a dataclass's __dict__ holds its fields in order
    return {**vars(cfg), "m_values": list(cfg.m_values)}


def canonical_config_text(cfg: ExperimentConfig) -> str:
    return "".join(
        f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
        for key, v in config_to_dict(cfg).items()
    )


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
        # rounded addition is monotone, so k copies of the atom of largest
        # magnitude bound the coordinate sum of every k-multiset of atoms
        big = max(dist.values, key=abs)
        with np.errstate(over="ignore"):
            if cfg.mode == NONPARTITE and not math.isfinite(coordinate_sum([big] * cfg.k)):
                raise ConfigError(f"atom {big!r} overflows in a sum of k = {cfg.k} atoms")
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


class Records(Sequence):
    """Records of one dataclass, kind, held by columns: columns maps each
    field name, in field order, to the list of its values.  len() reads
    one list; reading a record builds it."""

    def __init__(self, kind: type):
        self.kind = kind
        self.columns = {f.name: [] for f in fields(kind)}

    @classmethod
    def of(cls, kind: type, records) -> "Records":
        out = cls(kind)
        out.extend({name: list(map(operator.attrgetter(name), records)) for name in out.columns})
        return out

    def extend(self, columns: dict) -> None:
        """Append columns[name] to every column name."""
        for name, values in self.columns.items():
            values.extend(columns[name])

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    def __getitem__(self, i: int):
        i = operator.index(i)
        return self.kind(*(values[i] for values in self.columns.values()))

    def __iter__(self):
        return starmap(self.kind, zip(*self.columns.values()))


@dataclass
class ExperimentResult:
    """Everything one run produced, ready for the writers.  The summary
    table is held by columns: table maps each name of columns, in order,
    to the list of its cells; rows and passed are derived from it.  The
    trial records are held by columns too."""

    kind: str
    config: ExperimentConfig
    columns: InitVar[list]
    records: Records = field(default_factory=lambda: Records(TrialRecord))
    notes: list = field(default_factory=list)
    table: dict = field(init=False, repr=False)

    def __post_init__(self, columns):
        self.table = {c: [] for c in columns}

    def add_row(self, **cells) -> None:
        self.extend({c: [v] for c, v in cells.items()})

    def extend(self, table: dict) -> None:
        """Append table[c] to every column c."""
        for c, cells_of_c in self.table.items():
            cells_of_c.extend(table[c])

    @property
    def rows(self) -> list:
        """The summary table as new dicts, one per row."""
        return [dict(zip(self.table, row)) for row in zip(*self.table.values())]

    @property
    def passed(self) -> bool:
        """Every summary row passed; a table with no passed column passes."""
        return all(self.table.get("passed", ()))


def _ci_half_width(p_hat: float, n: int) -> float:
    return CI99_MULTIPLIER * math.sqrt(p_hat * (1.0 - p_hat) / n)


# ---------------------------------------------------------------------------
# The built-in families


@dataclass(frozen=True, eq=False)
class Family:
    """One built-in family: class, scheme, loss, and its fast kernels.

    name is both its class_id and its scheme_id.  empirical_loss is the
    dense reference.  The runners hold hypotheses as parameter rows, a
    block of them in one array (count, ...): params(H) is the row of a
    member H, from_params(k, row) the member with that row, and
    describe_params(rows) each row's describe() text.
    total_loss_exact(mu, F row, rows) -> array is the closed-form total
    loss of each row against F, one call for a block.

    The kernel contracts, which the generic engine's kernels keep too:
    concentration_kernel(k, F, sigma, eta, m, pts) -> (rows, empirical
    losses) runs on a block of trials: pts is their drawn points stacked
    as a (count, sides, m) array of at most _BLOCK_POINTS points, count
    >= 1; rows has shape (count, *params(F).shape), one row per
    trial, and the list one loss.  The runner keeps no other reference to
    pts.  pac_kernel(k, F, m, x) -> (row, header, empirical loss,
    realizable) runs per trial, on one sample x, and returns the learned
    hypothesis as its parameter row.  The fast kernels cover the family's
    own scheme for k in fast_arities, under any measure: they read only
    the drawn points.  Fields calling another module's function name it
    inside a lambda, so a wrapper installed at the module attribute
    (perfbench's tracer) is what they call.
    """

    name: str
    mode: str
    hypothesis_class: Callable[[int], HypothesisClass]
    scheme: Callable[[int], SelectionScheme]
    loss: Callable[[], LossSpec]
    empirical_loss: Callable[..., float]
    params: Callable[[Hypothesis], object]
    from_params: Callable[[int, object], Hypothesis]
    describe_params: Callable[[np.ndarray], list]
    total_loss_exact: Callable[[ProductMeasure, object, np.ndarray], np.ndarray]
    concentration_kernel: Callable[..., tuple]
    pac_kernel: Callable[..., tuple]
    fast_arities: range


BOXES = Family(
    name="rectangle", mode=PARTITE,
    hypothesis_class=HypothesisClass.rectangles,
    scheme=rectangle_scheme,
    loss=zero_one_partite,
    empirical_loss=lambda labeled, H, loss: empirical_loss_partite(labeled, H, loss),
    params=box_ends,
    from_params=box_of_ends,
    describe_params=describe_boxes,
    total_loss_exact=lambda mu, F, H: total_loss_exact_rectangles(mu, F, H),
    concentration_kernel=box_concentration,
    pac_kernel=box_pac,
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
    params=threshold_of,
    from_params=Hypothesis.sum_threshold,
    describe_params=describe_thresholds,
    total_loss_exact=lambda mu, F, H: total_loss_exact_sum_threshold(mu, F, H),
    concentration_kernel=threshold_concentration,
    pac_kernel=threshold_pac,
    # the kernels count pairs of points
    fast_arities=range(2, 3),
)

FAMILIES = {family.name: family for family in (BOXES, SUM_THRESHOLDS)}


# ---------------------------------------------------------------------------
# Engines

_VARIANT_SALT = {"fixed": 0, "random": 1}


def _generic_concentration(family, scheme, loss, k, F, sigma, eta, m, pts):
    """The concentration kernel of the generic engine, on the dense
    reference path: each sample of the block is labeled by F, subsampled
    along sigma and reconstructed with header eta."""
    rows, emps = [], []
    for sides in pts:
        labeled = label_sample(F, Sample(family.mode, k, tuple(sides)))
        H = reconstruct(scheme, subsample(labeled, sigma), eta)
        rows.append(family.params(H))
        emps.append(family.empirical_loss(labeled, H, loss))
    return np.array(rows), emps


def _generic_pac(family, klass, scheme, loss, k, F, m, x):
    """The PAC kernel of the generic engine, on the dense reference path:
    x is labeled by F, compressed and reconstructed, and certified
    realizable by ERM over the class."""
    labeled = label_sample(F, x)
    sub, header = compress(scheme, labeled)
    H = reconstruct(scheme, sub, header)
    realizable, _ = erm_realizability_check(klass, labeled, loss)
    return family.params(H), header, family.empirical_loss(labeled, H, loss), realizable


def _kernels(cfg: ExperimentConfig, klass, loss, scheme, engine: str) -> tuple:
    """(concentration kernel, PAC kernel) of an engine, with the contracts
    Family documents: fast, the family's kernels, which cover its own
    scheme at fast_arities; generic, the dense reference path, which
    covers every config; auto, fast where it covers the config."""
    family = FAMILIES[cfg.class_id]
    if engine not in ("auto", "fast", "generic"):
        raise ConfigError(f"unknown engine {engine!r}")
    fast = scheme.scheme_id == family.name and cfg.k in family.fast_arities
    if engine == "fast" and not fast:
        raise ConfigError("fast engine does not support this configuration")
    if fast and engine != "generic":
        return family.concentration_kernel, family.pac_kernel
    return (
        partial(_generic_concentration, family, scheme, loss),
        partial(_generic_pac, family, klass, scheme, loss),
    )


def _check_draw_sizes(cfg: ExperimentConfig, monte_carlo: bool = False) -> None:
    """Refuse a trial that draws more than DEFAULT_CELL_BUDGET points, and
    with monte_carlo a Monte Carlo total loss that holds more values: k *
    n_draws points, nonpartite k! * n_draws orientation labels."""
    sizes = {"a trial draws {} points": side_count(cfg.mode, cfg.k) * max(cfg.m_values)}
    if monte_carlo:
        per_draw = math.factorial(cfg.k) if cfg.mode == NONPARTITE else cfg.k
        sizes["a Monte Carlo total loss holds {} values"] = per_draw * cfg.n_draws
    for text, n in sizes.items():
        if n > DEFAULT_CELL_BUDGET:
            raise ConfigError(text.format(n) + f", above the ceiling {DEFAULT_CELL_BUDGET}")


def _audit_setup(cfg: ExperimentConfig, engine: str) -> tuple:
    """(measure, class, loss, scheme, guarantee inputs, kernels) of a
    concentration or PAC run.  A sample or Monte Carlo estimate too large
    to draw, an exact estimator that cannot cover the measure, or an engine
    that cannot run the config, is refused here, before any trial runs."""
    cfg.validate()
    _check_draw_sizes(cfg, cfg.estimator == "monte-carlo")
    mu, klass, loss, scheme = build_all(cfg)
    gap = exact_total_loss_gap(mu) if cfg.estimator == "exact" else None
    if gap:
        raise ConfigError(f"{gap}; use estimator = monte-carlo")
    kernels = _kernels(cfg, klass, loss, scheme, engine)
    inputs = GuaranteeInputs.from_scheme(scheme, loss, cfg.epsilon, cfg.delta)
    return mu, klass, loss, scheme, inputs, kernels


def _total_losses(cfg, mu, loss, F, rows: np.ndarray, mc_seeds) -> np.ndarray:
    """Total loss of each hypothesis of a block of parameter rows against
    its target, where F holds the targets' parameters: one row that
    broadcasts against all of rows, or one row per row.  One exact call
    for the whole block, or per row a Monte Carlo estimate, from the row's
    seed, between the Hypotheses built from the two rows."""
    family = FAMILIES[cfg.class_id]
    if cfg.estimator == "exact":
        return family.total_loss_exact(mu, F, rows)
    return np.array([
        total_loss_monte_carlo(
            mu, family.from_params(cfg.k, f), family.from_params(cfg.k, row), loss,
            cfg.n_draws, seed,
        )[0]
        for f, row, seed in zip(np.broadcast_to(F, rows.shape), rows, mc_seeds)
    ])


def _mc_seeds(cfg: ExperimentConfig, prefix: tuple, ts: np.ndarray) -> list:
    """Per trial t, the seed (*prefix, t, 7) of its Monte Carlo total loss;
    the exact estimator reads none, so none is derived for it."""
    if cfg.estimator != "monte-carlo":
        return [None] * len(ts)
    return derive_seed(cfg.seed, *prefix, ts, 7).tolist()


def _cell_columns(cfg, mu, loss, variant, m, ts, F, rows, emps, headers, mc_seeds) -> dict:
    """TrialRecord columns of the trials ts (an int array), in order, from
    their hypotheses' parameter rows, empirical losses and headers: one
    total-loss pass against F (as _total_losses reads it), one gap pass,
    one exceedance pass and one describe() text pass.  A PAC trial exceeds
    when its total loss is above epsilon, a concentration trial when its
    gap is at least epsilon."""
    totals = _total_losses(cfg, mu, loss, F, rows, mc_seeds)
    gaps = totals - emps
    exceeded = totals > cfg.epsilon if variant == "pac" else gaps >= cfg.epsilon
    n = len(ts)
    return dict(
        variant=[variant] * n, m=[m] * n, trial=ts.tolist(), empirical_loss=emps,
        total_loss=totals.tolist(), gap=gaps.tolist(), exceeded=exceeded.tolist(),
        header=headers, hypothesis=FAMILIES[cfg.class_id].describe_params(rows),
        realizable=[True] * n,
    )


def _measure_cell(result, batch, trials: int, bound: float | None, m: int, what: str):
    """Run a cell's trials through batch(first trial, count) -> (record
    columns, event count); it passes when the event frequency less its CI99
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
    """m_pac within scan_limit (default max(4 max m, 20000), at most
    MAX_SCAN_LIMIT), or None with a note when none is in the window."""
    window = scan_limit if scan_limit is not None else max(4 * max(cfg.m_values), 20000)
    if window > MAX_SCAN_LIMIT:
        raise ConfigError(
            f"m_pac scan window {window} is above {MAX_SCAN_LIMIT}; pass a smaller --scan-limit"
        )
    try:
        return m_pac(inputs, window)
    except MPacNotFound as exc:
        notes.append(f"no guaranteed sample size within {window}: {exc}")
        return None


def _concentration_fits(cfg, kernel, F, sigma, eta, m, samples, count: int):
    """(parameter rows, empirical losses) of the count samples, one row and
    one loss each, in order: one concentration kernel call per block of at
    most _BLOCK_POINTS drawn points, ceil(count / per_block) calls."""
    samples = iter(samples)
    sides = side_count(cfg.mode, cfg.k)
    per_block = max(1, _BLOCK_POINTS // (sides * m))
    points = np.dtype((float, (sides, m)))
    rows, emps = [], []
    for _ in range(0, count, per_block):
        # each sample's points are copied into the block as it is drawn, and
        # the block goes to the kernel with no other reference, so a kernel
        # done with the points may free them
        block_rows, block_emps = kernel(
            cfg.k, F, sigma, eta, m,
            np.fromiter((x.sides for x in islice(samples, per_block)), points),
        )
        rows.append(block_rows)
        emps.extend(block_emps)
    return np.concatenate(rows), emps


CONCENTRATION_COLUMNS = [
    "variant", "m", "epsilon", "trials", "exceed_count", "p_hat",
    "ci_half_width", "single_event_bound", "margin", "condition_ok",
    "rerun", "passed", "note",
]


def _run_concentration(cfg: ExperimentConfig, engine: str, variants) -> ExperimentResult:
    """One concentration result holding, in order, the rows and records of
    each audit variant (sigma, eta, F, variant) of variants(class, scheme)."""
    mu, klass, loss, scheme, inputs, (kernel, _) = _audit_setup(cfg, engine)
    result = ExperimentResult("concentration", cfg, CONCENTRATION_COLUMNS)
    bounds = [azuma_bound(inputs, m) for m in cfg.m_values]
    rng = KeyedGenerator()

    def batch(variant, F, sigma, eta, m, mi, t0, count):
        ts = np.arange(t0, t0 + count)
        vsalt = _VARIANT_SALT[variant]
        keys = side_keys(mu, derive_seed(cfg.seed, vsalt, mi, ts))
        samples = (draw_sample(mu, m, keys=trial_keys, rng=rng) for trial_keys in keys)
        rows, emps = _concentration_fits(cfg, kernel, F, sigma, eta, m, samples, count)
        columns = _cell_columns(
            cfg, mu, loss, variant, m, ts, FAMILIES[cfg.class_id].params(F), rows, emps,
            [eta] * count, _mc_seeds(cfg, (vsalt, mi), ts),
        )
        return columns, sum(columns["exceeded"])

    for sigma, eta, F, variant in variants(klass, scheme):
        for mi, (m, bd) in enumerate(zip(cfg.m_values, bounds)):
            if not bd.condition_ok:
                note = f"m={m}: slack condition fails, bound is trivial; skipped"
                result.notes.append(note)
                result.add_row(
                    variant=variant, m=m, epsilon=cfg.epsilon, trials=0,
                    exceed_count=0, p_hat=0.0, ci_half_width=0.0,
                    single_event_bound=1.0, margin=1.0, condition_ok=False,
                    rerun=False, passed=True, note="condition-violated",
                )
                continue
            cell = partial(batch, variant, F, sigma(m), eta, m, mi)
            trials, exceed, p_hat, ci, ok, rerun = _measure_cell(
                result, cell, cfg.trials, bd.single_event_bound, m, "the bound",
            )
            result.add_row(
                variant=variant, m=m, epsilon=cfg.epsilon, trials=trials,
                exceed_count=exceed, p_hat=p_hat, ci_half_width=ci,
                single_event_bound=bd.single_event_bound,
                margin=bd.single_event_bound - (p_hat - ci), condition_ok=True,
                rerun=rerun, passed=ok, note="",
            )
    return result


def run_concentration_experiment(
    cfg: ExperimentConfig,
    sigma: Callable[[int], InjectionVector],
    eta: int,
    F: Hypothesis,
    variant: str = "fixed",
    engine: str = "auto",
) -> ExperimentResult:
    """Audit the single-selection deviation bound for one fixed (sigma, eta, F).

    sigma(m) is the selection at sample size m.  For each m, the
    exceedance frequency of {total - empirical >= epsilon} over fresh
    samples is compared against the single-event bound; the verdict
    requires p_hat - CI99 <= bound.  A failed comparison is re-measured
    once with four times the trials.  Sample sizes where the slack
    condition fails are skipped with a note.
    """
    if variant not in _VARIANT_SALT:
        raise ValueError(f"variant must be one of {sorted(_VARIANT_SALT)}")
    return _run_concentration(cfg, engine, lambda klass, scheme: [(sigma, eta, F, variant)])


def run_concentration_suite(cfg: ExperimentConfig, engine: str = "auto") -> ExperimentResult:
    """Both audit variants: a fixed top-index selection with header 1, and a
    seeded random selection with a seeded random header."""

    def variants(klass, scheme):
        F = klass.sample_hypothesis(spawn_rng(cfg.seed, 11))
        h_min = min(int(scheme.header_size(m)) for m in cfg.m_values)

        def sigma_fixed(m):
            return InjectionVector.top(cfg.mode, cfg.k, m, int(scheme.selection_size(m)))

        def sigma_random(m):
            return InjectionVector.random(
                cfg.mode, cfg.k, m, int(scheme.selection_size(m)), spawn_rng(cfg.seed, 13, m)
            )

        eta_random = 1 + int(spawn_rng(cfg.seed, 14).integers(2)) if h_min > 1 else 1
        return [(sigma_fixed, 1, F, "fixed"), (sigma_random, eta_random, F, "random")]

    return _run_concentration(cfg, engine, variants)


def _pac_columns(cfg, mu, loss, kernel, m, ts, targets, samples, mc_seeds) -> dict:
    """TrialRecord columns of the PAC trials ts (an int array), each on its
    target and sample, in order: one PAC kernel call per trial learns its
    hypothesis as a parameter row and certifies the trial realizable."""
    family = FAMILIES[cfg.class_id]
    rows, headers, emps = [], [], []
    for t, F, x in zip(ts.tolist(), targets, samples):
        row, header, emp, realizable = kernel(cfg.k, F, m, x)
        if not realizable:
            # samples are labeled by a class member, so a failed
            # certificate means the harness itself is broken
            raise RuntimeError(f"realizability certification failed at m={m}, trial={t}")
        rows.append(row)
        headers.append(header)
        emps.append(emp)
    return _cell_columns(
        cfg, mu, loss, "pac", m, ts, np.array([family.params(F) for F in targets]),
        np.array(rows), emps, headers, mc_seeds,
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
    mu, klass, loss, scheme, inputs, (_, kernel) = _audit_setup(cfg, engine)
    result = ExperimentResult("pac", cfg, PAC_COLUMNS)
    m0 = _scan_m_pac(cfg, inputs, scan_limit, result.notes)

    rng = KeyedGenerator()

    def batch(m, mi, t0, count):
        ts = np.arange(t0, t0 + count)
        # each target's stream is drawn in full before rng is re-keyed, and
        # each sample is drawn only as its trial runs
        targets = [
            klass.sample_hypothesis(rng.at(key))
            for key in stream_keys(cfg.seed, mi, ts, 0).tolist()
        ]
        keys = side_keys(mu, derive_seed(cfg.seed, mi, ts, 1))
        samples = (draw_sample(mu, m, keys=trial_keys, rng=rng) for trial_keys in keys)
        columns = _pac_columns(
            cfg, mu, loss, kernel, m, ts, targets, samples, _mc_seeds(cfg, (mi,), ts)
        )
        return columns, sum(columns["exceeded"])

    for mi, m in enumerate(cfg.m_values):
        applies = m0 is not None and m >= m0
        trials, fails, q_hat, ci, ok, rerun = _measure_cell(
            result, partial(batch, m, mi), cfg.trials, cfg.delta if applies else None,
            m, "delta",
        )
        result.add_row(
            m=m, epsilon=cfg.epsilon, delta=cfg.delta, trials=trials,
            fail_count=fails, q_hat=q_hat, ci_half_width=ci,
            m_pac=m0 if m0 is not None else "", applies=applies,
            rerun=rerun, passed=ok, note="",
        )
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
    result = ExperimentResult("bound-table", cfg, BOUND_TABLE_COLUMNS)
    m0 = _scan_m_pac(cfg, inputs, scan_limit, result.notes)
    ref = asymptotic_guarantee_reference(inputs)
    # a constant column repeats one object, which the writers format once
    constant = dict(
        mode=cfg.mode, k=cfg.k, epsilon=cfg.epsilon, delta=cfg.delta,
        m_pac=m0 if m0 is not None else "", asymptotic_reference=ref,
    )
    result.extend(
        bound_columns(inputs, cfg.m_values) | {"m": list(cfg.m_values)}
        | {c: [v] * len(cfg.m_values) for c, v in constant.items()}
    )
    return result


VALIDITY_COLUMNS = ["m", "trials", "violations", "max_empirical_loss", "passed"]


def run_validity_experiment(
    cfg: ExperimentConfig, fail_fast: bool = False
) -> ExperimentResult:
    """Exact-zero validity audit of the configured scheme on realizable data."""
    cfg.validate()
    _check_draw_sizes(cfg)
    mu, klass, loss, scheme = build_all(cfg)
    report = check_compression_validity(
        scheme, klass, loss, cfg.trials, cfg.m_values, cfg.seed,
        measure=mu, fail_fast=fail_fast,
    )
    result = ExperimentResult(
        "validate-scheme", cfg, VALIDITY_COLUMNS,
        Records.of(CompressionReport, report.records),
    )
    # one row per m_values entry: its trials records in a row, or fewer
    # where fail_fast stopped
    for start in range(0, len(report.records), cfg.trials):
        recs = report.records[start:start + cfg.trials]
        bad = [r for r in recs if not r.passed]
        result.add_row(
            m=recs[0].m, trials=len(recs), violations=len(bad),
            max_empirical_loss=max(r.empirical_loss for r in recs), passed=not bad,
        )
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
# the fast concentration engine runs a cell's trials in blocks of at most
# this many drawn points (128 KiB of float64), so a block's arrays stay in
# cache
_BLOCK_POINTS = 2**14


def _column_text(values: list, cell=_cell_text, methods=_CELL_METHOD) -> list:
    """Texts of a column's values: cell(v), or a method of their one exact type."""
    first = values[0]
    # a column holding one object (a config field, m_pac) is formatted
    # once; identity, not equality, so 0.0 and -0.0 keep their own text
    if all(map(operator.is_, values, repeat(first))):
        return [cell(first)] * len(values)
    kinds = set(map(type, values))
    method = methods.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(method or cell, values))


def table_to_csv(table: dict) -> str:
    """CSV of a table held by columns (name -> list of cells), formatted a
    block of rows at a time, column by column."""
    cells = list(table.values())
    lines = [",".join(table)]
    for start in range(0, len(cells[0]) if cells else 0, _CSV_BLOCK):
        block = [_column_text(c[start:start + _CSV_BLOCK]) for c in cells]
        lines.extend(map(",".join, zip(*block)))
    return "\n".join(lines) + "\n"


def _finite_json(v):
    """v with each non-finite float in it, at any depth, as the CSV's text."""
    if isinstance(v, dict):
        return {key: _finite_json(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return list(map(_finite_json, v))
    return repr(float(v)) if isinstance(v, float) and not math.isfinite(v) else v


def _json_cell(v, indent=None) -> str:
    """json.dumps(v, sort_keys=True, indent=indent), but strict JSON: a
    non-finite float is the JSON string of its CSV text, "inf", "-inf" or
    "nan", instead of the bare token Infinity, -Infinity or NaN."""
    try:
        return json.dumps(v, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:
        return json.dumps(_finite_json(v), sort_keys=True, indent=indent)


def _summary_json_cell(v) -> str:
    # a cell's value sits three levels deep in summary.json
    return _json_cell(v, 2).replace("\n", "\n      ")


# json's text of a value of exactly one of these types; float.__repr__
# spells the non-finite floats as _JSON_NONFINITE's keys, fixed up after
_JSON_METHOD = {
    bool: {True: "true", False: "false"}.__getitem__,
    float: float.__repr__,
    int: int.__repr__,
    str: json.encoder.encode_basestring_ascii,
}
_JSON_NONFINITE = {"nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _json_objects(table: dict, start: str, sep: str, end: str, cell=_json_cell) -> list:
    """One JSON object's text per row of a table held by columns:
    start + sep.join(key: value, by sorted key) + end, with each value's
    text cell(value) as json gives it, formatted a block of rows at a
    time, column by column."""
    keys = sorted(table)
    line = start + sep.join(_json_cell(key).replace("%", "%%") + ": %s" for key in keys) + end
    lines = []
    for first in range(0, len(table[keys[0]]) if keys else 0, _CSV_BLOCK):
        cells = []
        for key in keys:
            texts = _column_text(table[key][first:first + _CSV_BLOCK], cell, _JSON_METHOD)
            if not _JSON_NONFINITE.keys().isdisjoint(texts):
                texts = [_JSON_NONFINITE.get(t, t) for t in texts]
            cells.append(texts)
        lines.extend(map(line.__mod__, zip(*cells)))
    return lines


def records_to_jsonl(records: Records) -> str:
    """json.dumps(vars(r), sort_keys=True) + "\n" per record r, as _json_cell
    spells it, formatted straight from the columns as table_to_csv formats rows."""
    return "".join(_json_objects(records.columns, "{", ", ", "}\n"))


def _json_list(items: list) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def table_to_json(table: dict) -> str:
    """json.dumps({"columns": names, "rows": one dict per row}, sort_keys=True,
    indent=2) + "\n" of a table held by columns, as _json_cell spells it,
    formatted as table_to_csv formats rows, with no dict per row."""
    names = ["    " + _json_cell(name) for name in table]
    rows = _json_objects(table, "    {\n      ", ",\n      ", "\n    }", _summary_json_cell)
    return '{\n  "columns": ' + _json_list(names) + ',\n  "rows": ' + _json_list(rows) + "\n}\n"


def render_summary(result: ExperimentResult, fmt: str = "csv") -> str:
    """The summary table as CSV or JSON text: the bytes of summary.(csv|json)."""
    if fmt == "csv":
        return table_to_csv(result.table)
    if fmt == "json":
        return table_to_json(result.table)
    raise ValueError(f"unknown output format {fmt!r}")


def write_outputs(
    result: ExperimentResult, out_dir: str, fmt: str = "csv", summary: str | None = None
) -> list:
    """manifest.json + trials.jsonl + summary.(csv|json), byte-deterministic.

    summary, when given, must be render_summary(result, fmt), already
    rendered by the caller; it is written as is instead of rendered again.
    """
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
    emit(TRIALS_FILE, records_to_jsonl(result.records))
    emit(f"{SUMMARY_BASE}.{fmt}", summary)
    return paths
