"""Contract tests for the block Monte-Carlo kernel.

Every built-in detector scores a whole block at once. Each must agree,
verdict by verdict, with the library's per-dataset function it vectorizes,
run row by row (through :func:`per_row` for the dataset detectors). On huge
alphabets memory must stay O(BLOCK * n) plus the probability vectors.
"""

import tracemalloc

import numpy as np
import pytest

from bdlimits import (
    Categorical,
    DistributionPair,
    ImpossibilityConfig,
    ImpossibleSampleError,
    SymbolDataset,
    TrainerStub,
    bayes_probe_detector,
    benchmark_instances,
    estimate_conditional_errors,
    estimate_risk,
    imposs_probe,
    imposs_risk,
    mix,
    np_trial_detector,
    np_type3,
    per_row,
    tv_to_type,
    type0_tv_detector,
    type1_trial_detector,
    type1_tv,
    type2_trial_detector,
    type2_tv,
    type_exceedance_frequency,
)
from bdlimits.detectors import np_log_ratio
from bdlimits.distributions import draw_symbols
from bdlimits.harness import _TYPE0_TIE
from bdlimits.rng import BLOCK, substream

ROWS = 500

#: p1 = pb puts no mass on symbol 0, p0 none on symbol 2, neither on symbol 3
ZERO_MASS_PAIR = DistributionPair(
    Categorical(np.array([0.5, 0.5, 0.0, 0.0])),
    Categorical(np.array([0.0, 0.5, 0.5, 0.0])),
    gamma=1.0,
    beta=0.2,
)

PAIRS = [(inst.label, inst.pair, inst.n, inst.m) for inst in benchmark_instances()]
PAIRS.append(("zero-mass", ZERO_MASS_PAIR, 6, 24))

MB = 2**20


def dataset_block(pair, n, seed):
    """Half the rows from p0, half from the mixture, as the risk kernel draws them."""
    rng = substream(seed, 0)
    return np.vstack(
        [draw_symbols(pair.p0, (ROWS // 2, n), rng), draw_symbols(mix(pair), (ROWS // 2, n), rng)]
    )


def dataset_verdicts(detector, reference, pair, symbols):
    """(block verdicts, per-row reference verdicts) on the same generator key."""
    verdicts = []
    for lifted in (detector, per_row(reference)):
        score = lifted(pair)
        verdicts.append(np.asarray(score(symbols, substream(1, 2)), dtype=np.int64))
    return verdicts[0], verdicts[1]


def np_reference(d, pair, rng):
    return np_type3(d, pair)


def type2_reference(d, pair, rng):
    return type2_tv(d, pair.p0, pair.gamma, pair.beta)


def type1_reference(d, pair, rng):
    d_clean = SymbolDataset(draw_symbols(pair.p0, 24, rng), pair.alphabet_size)
    return type1_tv(d, d_clean, pair.gamma, pair.beta)


@pytest.mark.parametrize("label,pair,n,m", PAIRS, ids=[p[0] for p in PAIRS])
@pytest.mark.parametrize(
    "factory,reference",
    [
        (np_trial_detector, np_reference),
        (type2_trial_detector, type2_reference),
        (lambda: type1_trial_detector(24), type1_reference),
    ],
    ids=["np", "type2", "type1"],
)
def test_dataset_detectors_batch_equals_fallback(factory, reference, label, pair, n, m):
    symbols = dataset_block(pair, n, seed=3)
    batch, fallback = dataset_verdicts(factory(), reference, pair, symbols)
    assert batch.tolist() == fallback.tolist()
    assert 0 < batch.sum() < ROWS


def test_np_zero_mass_rules_batch_equals_fallback():
    # rows over {0, 1, 2} hit every rule: a symbol impossible under the
    # mixture (0) clears the row, one impossible under p0 only (2) flags it
    # when no 0 is present, and rows of 1s alone have a log ratio of 0
    rng = substream(4, 0)
    symbols = rng.integers(0, 3, (ROWS, 3))
    symbols[:20] = 1
    batch, fallback = dataset_verdicts(np_trial_detector(), np_reference, ZERO_MASS_PAIR, symbols)
    assert batch.tolist() == fallback.tolist()
    has0 = (symbols == 0).any(axis=1)
    has2 = (symbols == 2).any(axis=1)
    assert np.all(batch[has0] == 0)
    assert np.all(batch[~has0 & has2] == 1)
    assert np.all(batch[:20] == 1)
    assert has0.any() and (~has0 & has2).any()


def test_np_impossible_symbol_raises_in_both_forms():
    symbols = np.array([[1, 1, 0], [1, 3, 2]])
    score = np_trial_detector()(ZERO_MASS_PAIR)
    with pytest.raises(ImpossibleSampleError, match="symbol 3"):
        score(symbols, substream(1, 2))
    with pytest.raises(ImpossibleSampleError, match="symbol 3"):
        np_type3(SymbolDataset(symbols[1], 4), ZERO_MASS_PAIR)


def np_verdicts_checked_per_block(symbols, ratio):
    """The NP block scorer as it was before the log ratio was checked once
    per estimate: every block runs the NaN and impossible-symbol checks."""
    with np.errstate(invalid="ignore"):
        llr = ratio[symbols].sum(axis=1)
    suspect = symbols[np.isnan(llr)]
    impossible = np.isnan(ratio[suspect])
    if impossible.any():
        raise ImpossibleSampleError(f"symbol {int(suspect[impossible][0])}")
    return (llr >= 0.0).astype(np.int64)


def dirichlet_pairs(count, k, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p0, pb = rng.dirichlet(np.ones(k), 2)
        yield DistributionPair(Categorical(p0), Categorical(pb), gamma=rng.random(), beta=0.5)


FINITE_PAIRS = [inst.pair for inst in benchmark_instances()] + list(dirichlet_pairs(12, 5, 34))


@pytest.mark.parametrize("pair", FINITE_PAIRS + [ZERO_MASS_PAIR])
def test_np_scorer_equals_per_block_checks(pair):
    ratio = np_log_ratio(pair.p0, pair.mixture)
    assert np.isfinite(ratio).all() == (pair is not ZERO_MASS_PAIR)
    score = np_trial_detector()(pair)
    for b in range(3):
        symbols = dataset_block(pair, 9, seed=40 + b)
        expected = np_verdicts_checked_per_block(symbols, ratio)
        assert score(symbols, substream(1, b)).tolist() == expected.tolist()


@pytest.mark.parametrize(
    "run",
    [
        lambda pair: estimate_risk(np_trial_detector(), pair, 2, 3 * BLOCK, seed=0),
        lambda pair: estimate_conditional_errors(np_trial_detector(), pair, 2, 3 * BLOCK, seed=0),
    ],
    ids=["risk", "conditional"],
)
def test_np_log_ratio_checked_once_per_estimate(monkeypatch, run):
    # every symbol has mass under both laws, so the ratio is finite and the
    # blocks need no NaN handling; the O(K) check must not run per block
    k = 10**6
    pair = DistributionPair(
        Categorical.uniform(k), Categorical.point_mass(0, k), gamma=0.5, beta=0.01
    )
    checked = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        if np.size(x) == k:
            checked.append(1)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    run(pair)
    assert len(checked) == 1


@pytest.mark.parametrize("label,pair,n,m", PAIRS, ids=[p[0] for p in PAIRS])
def test_trained_detectors_batch_equals_fallback(label, pair, n, m):
    k = pair.alphabet_size
    rng = substream(5, 0)
    train = dataset_block(pair, n, seed=6)
    d_prime = draw_symbols(pair.p0, (ROWS, m), rng)
    x = draw_symbols(pair.pb, ROWS, rng)
    trainer = TrainerStub()
    theta = trainer.batch(train, k)
    rows = [(trainer(SymbolDataset(t, k)), SymbolDataset(d, k)) for t, d in zip(train, d_prime)]

    score0 = type0_tv_detector(pair.gamma, pair.beta)(pair)
    batch0 = np.asarray(score0(theta, d_prime, x, substream(1, 2)), dtype=np.int64)
    threshold = pair.gamma * (1.0 - pair.beta) / 2.0 - _TYPE0_TIE
    expected0 = [int(tv_to_type(t, d) >= threshold) for t, d in rows]
    assert batch0.tolist() == expected0

    score_probe = bayes_probe_detector(pair)(pair)
    batch_probe = np.asarray(score_probe(theta, d_prime, x, substream(1, 2)), dtype=np.int64)
    expected_probe = [int(pair.pb.probs[xr] >= pair.p0.probs[xr]) for xr in x]
    assert batch_probe.tolist() == expected_probe


def test_trainer_batch_matches_per_row_parameters():
    k = 5
    train = substream(7, 0).integers(0, k, (50, 8))
    trainer = TrainerStub(smoothing=0.5)
    theta = trainer.batch(train, k)
    for r, row in enumerate(train):
        expected = trainer(SymbolDataset(row, k)).probs
        got = theta(np.full(k, r), np.arange(k))
        assert got == pytest.approx(expected, abs=1e-15)


def peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def test_huge_alphabet_risk_memory():
    # a dense counts[BLOCK, K] array would be 32 GB here
    k = 10**6
    pair = DistributionPair(
        Categorical.uniform(k), Categorical.point_mass(0, k), gamma=1.0, beta=0.01
    )
    result = {}
    peak = peak_mb(
        lambda: result.setdefault(
            "est", estimate_risk(type2_trial_detector(), pair, 20, 5000, seed=0)
        )
    )
    assert peak < 100, peak
    # every type of 20 draws sits far from p0, so the detector always flags
    assert result["est"].ci_low <= 0.5 <= result["est"].ci_high


def test_huge_alphabet_probe_memory():
    # a dense anchors[BLOCK, m] table would be 328 MB here (m = 1e4)
    config = ImpossibilityConfig(k=10**6, beta=0.01, gamma=1.0, n=20)
    detector = lambda d, p0: int(type2_tv(d, p0, 1.0, 0.01))  # noqa: E731
    peak = peak_mb(lambda: imposs_probe(detector, config, trials=5000, seed=0))
    assert peak < 100, peak


def test_huge_alphabet_probe_risk_memory():
    # the block scorer holds the sparse types of one block, never a
    # BLOCK x K histogram (32 GB here)
    config = ImpossibilityConfig(k=10**6, beta=0.01, gamma=1.0, n=20)
    result = {}
    peak = peak_mb(
        lambda: result.setdefault(
            "est", imposs_risk(type2_trial_detector(), config, trials=5000, seed=0)
        )
    )
    assert peak < 100, peak
    # every type of 20 draws sits far from uniform, so the detector always flags
    assert result["est"].ci_low <= 0.5 <= result["est"].ci_high


def test_huge_alphabet_probe_law_memory():
    # the uniform law is one value broadcast over K; dense it would be 800 MB
    config = ImpossibilityConfig(k=10**8, beta=0.01, gamma=1.0, n=20)
    peak = peak_mb(lambda: imposs_risk(type2_trial_detector(), config, trials=5000, seed=0))
    assert peak < 16, peak


def test_type_exceedance_memory():
    # a dense trials x K count matrix would be 8 GB here
    p = Categorical.uniform(10**5)
    peak = peak_mb(lambda: type_exceedance_frequency(p, 20, 0.5, 10**4, seed=0))
    assert peak < 100, peak
