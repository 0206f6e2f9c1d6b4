"""bdlimits: feasibility bounds and simulators for training-data backdoor detection.

The package answers, on finite alphabets, when a poisoned training set can
be told apart from a clean one: closed-form sample-size bounds evaluated in
log space, the optimal likelihood-ratio detector and a type-distance
detector with Monte-Carlo risk estimation, plus two executable adversaries
that defeat fixed detectors.

Each exported name is imported from its module on first access (PEP 562),
so ``import bdlimits`` runs no module, and numpy loads only when a name that
needs it is first used.
"""

import importlib

#: the module of each exported name
_EXPORTS = {
    "bounds": (
        "BoundReport",
        "DatasetSpec",
        "achievability_alpha_bound",
        "alphabet_log10",
        "exact_type3_risk",
        "impossibility_min_n",
        "load_catalog",
        "min_n_exponent",
        "near_indistinguishable_pair",
        "sbd_infinite_alphabet_feasible",
        "sbd_min_n",
        "table_report",
        "type3_risk_floor",
    ),
    "detectors": (
        "KsResult",
        "ks_pvalue",
        "ks_statistic",
        "np_type3",
        "ood_risk_exact",
        "type1_tv",
        "type2_tv",
    ),
    "distributions": (
        "Categorical",
        "DistributionPair",
        "SymbolDataset",
        "mix",
        "product_tv_exact",
        "tv_distance",
        "tv_to_type",
    ),
    "errors": (
        "AlphabetMismatchError",
        "BdLimitsError",
        "ConfigurationError",
        "DegenerateDirectionError",
        "DegenerateFitError",
        "ImpossibleSampleError",
        "ParameterError",
        "ResourceCapError",
    ),
    "harness": (
        "DETECTORS",
        "Flavor",
        "JointPrior",
        "RiskEstimate",
        "TrainerStub",
        "bayes_probe_detector",
        "benchmark_instances",
        "estimate_conditional_errors",
        "estimate_generalized_risk",
        "estimate_risk",
        "np_trial_detector",
        "per_row",
        "type0_demo_risk",
        "type0_tv_detector",
        "type1_trial_detector",
        "type2_trial_detector",
        "type_exceedance_frequency",
        "wilson_interval",
    ),
    "adversary": (
        "ImpossibilityConfig",
        "LinearClassifier",
        "ToyAttackReport",
        "ToyConfig",
        "imposs_probe",
        "imposs_risk",
        "imposs_risk_floor",
        "projections",
        "toy_attack_report",
        "toy_backdoor",
        "toy_delta",
        "toy_ks_defense",
        "toy_poison",
        "toy_sample_clean",
        "toy_train_classifier",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
