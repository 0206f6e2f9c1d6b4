"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the package modules: rng, distributions, detectors, bounds,
adversary, harness and cli. Every traced function reports ``.calls`` (per
cycle), ``.us`` (mean self microseconds per call) and ``.share`` (self time
over the traced wall time). A few carry exact counts on top.
"""

from __future__ import annotations

import sys

from tracer import Tracer, enumeration_hook, trials_hook

#: (label, defining module, attribute) of every traced function
FUNCTIONS = (
    ("rng.substream", "rng", "substream"),
    ("distributions.mix", "distributions", "mix"),
    ("distributions.draw_symbols", "distributions", "draw_symbols"),
    ("distributions.tv_to_type", "distributions", "tv_to_type"),
    ("distributions.product_tv_exact", "distributions", "product_tv_exact"),
    ("detectors.np_type3", "detectors", "np_type3"),
    ("detectors.type2_tv", "detectors", "type2_tv"),
    ("detectors.type1_tv", "detectors", "type1_tv"),
    ("detectors.ks_statistic", "detectors", "ks_statistic"),
    ("detectors.ks_pvalue", "detectors", "ks_pvalue"),
    ("bounds.exact_type3_risk", "bounds", "exact_type3_risk"),
    ("bounds.table_report", "bounds", "table_report"),
    ("adversary.imposs_probe", "adversary", "imposs_probe"),
    ("adversary.toy_attack_report", "adversary", "toy_attack_report"),
    ("harness.estimate_risk", "harness", "estimate_risk"),
    ("harness.estimate_conditional_errors", "harness", "estimate_conditional_errors"),
    ("harness.estimate_generalized_risk", "harness", "estimate_generalized_risk"),
    ("harness.type0_demo_risk", "harness", "type0_demo_risk"),
    ("harness.wilson_interval", "harness", "wilson_interval"),
    ("harness.append_result", "harness", "append_result"),
)

#: dataset validation runs in the dataclass's __post_init__
SYMBOL_DATASET = "distributions.SymbolDataset"

CLI_COMMANDS = ("bounds-table", "risk", "toy", "probe")

#: the per-trial loops, with trials run per unit of their ``trials`` argument
LOOPS = {
    "harness.estimate_risk": 1,
    "harness.estimate_conditional_errors": 2,
    "harness.estimate_generalized_risk": 1,
    "harness.type0_demo_risk": 1,
    "adversary.imposs_probe": 1,
}

LABELS = (
    tuple(label for label, _, _ in FUNCTIONS)
    + (SYMBOL_DATASET,)
    + tuple(f"cli.{command}" for command in CLI_COMMANDS)
)

#: extra per-layer metrics: name -> (unit, better)
EXTRA = {
    "rng.substream.calls_per_trial": ("count", "lower"),
    **{f"{loop}.self_us_per_trial": ("us", "lower") for loop in LOOPS},
    "distributions.product_tv_exact.outcomes": ("count", "lower"),
    "distributions.product_tv_exact.bytes_computed": ("B", "lower"),
    "harness.append_result.bytes_scanned": ("B", "lower"),
    "harness.append_result.dedup_hits": ("count", "higher"),
    "harness.append_result.us_per_mb_scanned": ("us/MB", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.unaccounted_share": ("ratio", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and direction."""
    metrics = {}
    for label in LABELS:
        metrics[f"{label}.calls"] = ("count", "lower")
        metrics[f"{label}.us"] = ("us", "lower")
        metrics[f"{label}.share"] = ("ratio", "lower")
    metrics.update(EXTRA)
    return metrics


def install(tracer: Tracer, extra_hooks: dict) -> None:
    """Wrap every traced function wherever the package has it bound."""
    package = {
        name.split(".", 1)[1]: module
        for name, module in sys.modules.items()
        if name.startswith("bdlimits.")
    }
    modules = list(package.values())
    for label, module, attr in FUNCTIONS:
        original = getattr(package[module], attr)
        if label in extra_hooks:
            hook = extra_hooks[label]
        elif label in LOOPS:
            hook = trials_hook(label, original, LOOPS[label])
        elif label == "distributions.product_tv_exact":
            hook = enumeration_hook(label)
        else:
            hook = None
        tracer.patch_function(label, original, modules, hook)
    tracer.patch_attribute(SYMBOL_DATASET, package["distributions"].SymbolDataset, "__post_init__")
    for command in CLI_COMMANDS:
        tracer.patch_attribute(f"cli.{command}", package["cli"].main.commands[command], "callback")


def derive(tracer: Tracer, cycles: int, wall_ns: int) -> dict[str, float]:
    """Per-layer values from a traced run of ``cycles`` whole cycles."""
    values: dict[str, float] = {}
    for label in LABELS:
        stat = tracer.stats[label]
        values[f"{label}.calls"] = stat.calls / cycles
        values[f"{label}.us"] = stat.self_ns / stat.calls / 1e3 if stat.calls else 0.0
        values[f"{label}.share"] = stat.self_ns / wall_ns
    counters = tracer.counters
    trials = sum(counters.get(f"{loop}.trials", 0) for loop in LOOPS)
    substreams = tracer.stats["rng.substream"].calls
    values["rng.substream.calls_per_trial"] = substreams / trials if trials else 0.0
    for loop in LOOPS:
        loop_trials = counters.get(f"{loop}.trials", 0)
        self_ns = tracer.stats[loop].self_ns
        values[f"{loop}.self_us_per_trial"] = self_ns / loop_trials / 1e3 if loop_trials else 0.0
    for name in (
        "distributions.product_tv_exact.outcomes",
        "distributions.product_tv_exact.bytes_computed",
        "harness.append_result.bytes_scanned",
        "harness.append_result.dedup_hits",
    ):
        values[name] = counters.get(name, 0) / cycles
    values["harness.append_result.us_per_mb_scanned"] = 0.0
    values["trace.unaccounted_share"] = 1.0 - tracer.self_ns_total() / wall_ns
    return values
