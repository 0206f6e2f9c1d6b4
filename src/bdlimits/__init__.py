"""bdlimits: feasibility bounds and simulators for training-data backdoor detection.

The package answers, on finite alphabets, when a poisoned training set can
be told apart from a clean one: closed-form sample-size bounds evaluated in
log space, the optimal likelihood-ratio detector and a type-distance
detector with Monte-Carlo risk estimation, plus two executable adversaries
that defeat fixed detectors.
"""

from .bounds import (
    BoundReport,
    DatasetSpec,
    achievability_alpha_bound,
    alphabet_log10,
    exact_type3_risk,
    impossibility_min_n,
    load_catalog,
    min_n_exponent,
    near_indistinguishable_pair,
    sbd_infinite_alphabet_feasible,
    sbd_min_n,
    table_report,
    type3_risk_floor,
)
from .detectors import (
    KsResult,
    Verdict,
    adapt_type2_from_type1,
    adapt_type3_from_type2,
    ks_pvalue,
    ks_statistic,
    np_type3,
    ood_risk_exact,
    type1_tv,
    type2_tv,
)
from .distributions import (
    Categorical,
    DistributionPair,
    SymbolDataset,
    mix,
    product_tv_exact,
    sample,
    tv_distance,
    tv_to_type,
    type_exceedance_frequency,
)
from .errors import (
    AlphabetMismatchError,
    BdLimitsError,
    ConfigurationError,
    DegenerateDirectionError,
    DegenerateFitError,
    ImpossibleSampleError,
    ParameterError,
    ResourceCapError,
)
from .harness import (
    DETECTORS,
    Flavor,
    JointPrior,
    RiskEstimate,
    TrainerStub,
    bayes_probe_detector,
    benchmark_instances,
    estimate_conditional_errors,
    estimate_generalized_risk,
    estimate_risk,
    np_trial_detector,
    per_row,
    type0_demo_risk,
    type0_tv_detector,
    type1_trial_detector,
    type2_trial_detector,
    wilson_interval,
)
from .adversary import (
    ImpossibilityConfig,
    LinearClassifier,
    ToyAttackReport,
    ToyConfig,
    imposs_conditional_sampler,
    imposs_probe,
    imposs_risk,
    imposs_risk_floor,
    imposs_sampler,
    projections,
    toy_attack_report,
    toy_backdoor,
    toy_delta,
    toy_ks_defense,
    toy_poison,
    toy_sample_clean,
    toy_train_classifier,
)

__version__ = "0.1.0"
