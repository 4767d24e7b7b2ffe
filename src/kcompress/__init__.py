"""High-arity sample compression schemes and their PAC guarantees.

Labeled samples live on k-fold index tensors (one side per coordinate in
partite mode, a single ground set in nonpartite mode).  A selection
scheme compresses a labeled sample to a small subsample plus a header
and reconstructs a hypothesis from that alone; validity means the
reconstruction never disagrees with the sample it was compressed from.
The learner module turns scheme sizes into deviation bounds and
guaranteed sample sizes, and the experiments module audits both against
Monte Carlo frequencies.
"""

from .indexing import (
    DEFAULT_CELL_BUDGET,
    MAX_ARITY,
    MODES,
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
    enumerate_permutations,
    subsample,
)
from .samples import (
    BINARY_ALPHABET,
    FiniteDiscrete,
    Hypothesis,
    HypothesisClass,
    ProductMeasure,
    Uniform01,
    derive_seed,
    draw_sample,
    erm_realizability_check,
    label_sample,
    minimal_enclosing_box,
    spawn_rng,
)
from .losses import (
    CI99_MULTIPLIER,
    LossSpec,
    empirical_loss_nonpartite,
    empirical_loss_partite,
    empirical_losses_nonpartite,
    total_loss_exact_rectangles,
    total_loss_exact_sum_threshold,
    total_loss_monte_carlo,
    zero_one_nonpartite,
    zero_one_partite,
)
from .schemes import (
    CompressionReport,
    SelectionScheme,
    ValidityReport,
    check_approximate_validity,
    check_compression_validity,
    compress,
    compression_size_and_bitlength,
    reconstruct,
    rectangle_scheme,
    sum_threshold_scheme,
    trivial_scheme,
)
from .learner import (
    BoundBreakdown,
    GuaranteeInputs,
    MPacNotFound,
    asymptotic_guarantee_reference,
    azuma_bound,
    guarantee_conditions,
    learn,
    m_pac,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    TrialRecord,
    build_all,
    canonical_config_text,
    config_hash,
    load_config,
    parse_config,
    run_bound_table,
    run_concentration_experiment,
    run_concentration_suite,
    run_pac_experiment,
    run_validity_experiment,
    write_outputs,
)

__version__ = "0.1.0"
