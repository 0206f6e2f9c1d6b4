"""The exact conditional errors against an independent rational reference.

``rational_conditional_errors`` reads a pair's float laws as exact
rationals, enumerates every count vector of n draws on its K symbols by
stars and bars, and weighs each by its exact multinomial mass. Each
verdict comes from a per-dataset detector on one dataset of that type:
``type2_tv`` walks the dataset in Python and shares no code with the block
kernel that :func:`bdlimits.exact_conditional_errors` scores with. So
a tie on the threshold gets the float verdict of the package, while the
weights stay exact.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bdlimits import (
    Categorical,
    ConfigurationError,
    DistributionPair,
    ImpossibleSampleError,
    ResourceCapError,
    SymbolDataset,
    benchmark_instances,
    exact_conditional_errors,
    exact_type3_risk,
    np_trial_detector,
    np_type3,
    tv_to_type,
    type1_trial_detector,
    type2_trial_detector,
    type2_tv,
)
from bdlimits import harness
from bdlimits.harness import uniform_vs_point_mass

#: the (pair, n) points of the benchmark's exact-grid workload
EXACT_GRID = {"k2": range(10, 24), "k3": range(8, 15), "k4": range(6, 12)}

INSTANCES = {inst.label: inst for inst in benchmark_instances()}


def pair_of(p0, pb, gamma, beta=0.5):
    return DistributionPair(Categorical(np.array(p0)), Categorical(np.array(pb)), gamma, beta)


def rational_conditional_errors(verdict, pair: DistributionPair, n: int) -> tuple[Fraction, Fraction]:
    """(P0(flag), P_mixture(clear)) in exact rationals over the K-symbol types.

    ``verdict(d)`` is a per-dataset detector's 0 or 1 on the dataset ``d``;
    a type that neither law reaches is never scored.
    """
    k = pair.alphabet_size
    laws = [[Fraction(mass) for mass in law.probs.tolist()] for law in (pair.p0, pair.mixture)]
    false = missed = Fraction(0)
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        counts = [b - a - 1 for a, b in zip((-1, *bars), (*bars, n + k - 1))]
        ways = Fraction(math.factorial(n), math.prod(map(math.factorial, counts)))
        m0, m1 = (ways * math.prod(p**c for p, c in zip(law, counts)) for law in laws)
        if m0 or m1:
            symbols = np.repeat(np.arange(k), counts)
            if verdict(SymbolDataset(symbols, k)):
                false += m0
            else:
                missed += m1
    return false, missed


def type2_verdict(pair):
    return lambda d: type2_tv(d, pair.p0, pair.gamma, pair.beta)


def risk(errors) -> float:
    return 0.5 * sum(errors)


class TestRationalReference:
    @pytest.mark.parametrize(
        "k, n, gamma, beta, golden",
        [
            (4, 8, 0.5, 0.5, 0.4826514720916748),
            (3, 6, 0.5, 0.5, 0.45370370370370355),
            (2, 4, 1.0, 0.5, 0.3125),
        ],
    )
    def test_type2_goldens(self, k, n, gamma, beta, golden):
        pair = uniform_vs_point_mass(k, gamma, beta)
        reference = sum(rational_conditional_errors(type2_verdict(pair), pair, n)) / 2
        assert float(reference) == golden
        assert abs(risk(exact_conditional_errors(type2_trial_detector(), pair, n)) - golden) <= 1e-14

    def test_exact_tie_flags(self):
        # counts (3, 1) lie at TV 0.25 = gamma (1 - beta) / 2 from uniform(2), which flags
        pair = uniform_vs_point_mass(2, 1.0, 0.5)
        tie = SymbolDataset(np.array([0, 0, 0, 1]), 2)
        assert tv_to_type(pair.p0, tie) == 0.25
        assert type2_tv(tie, pair.p0, pair.gamma, pair.beta) == 1
        # the flagged mass of p0 is every type but (2, 2); the mixture is the
        # point mass, which only (4, 0) reaches
        false, missed = rational_conditional_errors(type2_verdict(pair), pair, 4)
        assert (false, missed) == (Fraction(10, 16), 0)
        assert sum((false, missed)) / 2 == Fraction(5, 16)

    @pytest.mark.parametrize("label", sorted(INSTANCES))
    def test_instances_match(self, label):
        inst = INSTANCES[label]
        cases = (
            (type2_trial_detector(), type2_verdict(inst.pair)),
            (np_trial_detector(), lambda d: np_type3(d, inst.pair)),
        )
        for detector, verdict in cases:
            exact = exact_conditional_errors(detector, inst.pair, inst.n)
            reference = rational_conditional_errors(verdict, inst.pair, inst.n)
            for value, rational in zip(exact, reference):
                assert abs(value - rational) <= 1e-14, label


class TestPairProperties:
    PAIR = pair_of([0.6, 0.4], [0.1, 0.9], gamma=0.7, beta=0.3)

    @pytest.mark.parametrize("dead", [0, 1, 2])
    def test_unreached_symbol_changes_nothing(self, dead):
        p0, pb = (np.insert(law.probs, dead, 0.0) for law in (self.PAIR.p0, self.PAIR.pb))
        wider = pair_of(p0, pb, self.PAIR.gamma, self.PAIR.beta)
        for detector in (type2_trial_detector(), np_trial_detector()):
            assert exact_conditional_errors(detector, wider, 7) == exact_conditional_errors(
                detector, self.PAIR, 7
            )

    def test_np_scorer_never_sees_an_unreached_symbol(self):
        pair = pair_of([0.6, 0.4, 0.0], [0.1, 0.9, 0.0], gamma=0.7, beta=0.3)
        # the scorer would raise on a row that holds the dead symbol
        with pytest.raises(ImpossibleSampleError):
            np_trial_detector()(pair)(np.array([[0, 2]]), None)
        exact = exact_conditional_errors(np_trial_detector(), pair, 5)
        assert abs(risk(exact) - exact_type3_risk(pair, 5)) <= 1e-13


class TestExactChecks:
    def test_np_matches_class_oracle_on_exact_grid(self):
        for label, ns in EXACT_GRID.items():
            pair = INSTANCES[label].pair
            for n in ns:
                exact = risk(exact_conditional_errors(np_trial_detector(), pair, n))
                assert abs(exact - exact_type3_risk(pair, n)) <= 1e-13, (label, n)

    def test_chunks_hold_at_most_their_symbols(self, monkeypatch):
        pair, n = uniform_vs_point_mass(4, 0.5, 0.5), 8
        whole = exact_conditional_errors(type2_trial_detector(), pair, n)
        shapes = []

        def recording(pair):
            score = type2_trial_detector()(pair)

            def record(symbols, rng):
                shapes.append(symbols.shape)
                return score(symbols, rng)

            return record

        monkeypatch.setattr(harness, "_EXACT_CHUNK", 3 * n)
        chunked = exact_conditional_errors(recording, pair, n)
        # 165 types in 55 chunks of 3 rows, each scored twice
        assert shapes == [(3, n)] * 110
        for a, b in zip(chunked, whole):
            assert abs(a - b) <= 1e-15


class TestRefusals:
    PAIR = uniform_vs_point_mass(3, 0.5, 0.5)

    def test_row_order_refused(self):
        def first_symbol_is_zero(pair):
            return lambda symbols, rng: symbols[:, 0] == 0

        with pytest.raises(ConfigurationError, match="not a function of the type"):
            exact_conditional_errors(first_symbol_is_zero, self.PAIR, 4)

    @pytest.mark.parametrize("label", ["k3", "k4"])
    def test_generator_refused(self, label):
        inst = INSTANCES[label]
        with pytest.raises(ConfigurationError, match="not a function of the type"):
            exact_conditional_errors(type1_trial_detector(inst.m), inst.pair, inst.n)

    def test_np_tie_passes(self):
        # ratios 3/2, 5/3 and 2/5 multiply to 1, so counts (4, 4, 4) have
        # P0 = P1, and their summed log ratio rounds to either sign by order
        pair = pair_of([0.2, 0.3, 0.5], [0.3, 0.5, 0.2], gamma=1.0)
        verdicts = []

        def recording(pair):
            score = np_trial_detector()(pair)

            def record(symbols, rng):
                verdicts.append(score(symbols, rng))
                return verdicts[-1]

            return record

        exact = exact_conditional_errors(recording, pair, 12)
        first, again = verdicts
        (flipped,) = np.flatnonzero(first != again)
        row = list(itertools.combinations_with_replacement(range(3), 12))[flipped]
        assert np.bincount(row).tolist() == [4, 4, 4]
        assert abs(risk(exact) - exact_type3_risk(pair, 12)) <= 1e-13

    def test_cap_counts_symbols(self, monkeypatch):
        pair, n = uniform_vs_point_mass(4, 0.5, 0.5), 8
        symbols = math.comb(n + 3, n) * n
        monkeypatch.setattr(harness, "EXACT_SCORE_CAP", symbols)
        exact_conditional_errors(type2_trial_detector(), pair, n)
        monkeypatch.setattr(harness, "EXACT_SCORE_CAP", symbols - 1)
        message = (
            f"^165 types of 8 draws on the 4 symbols that p0 or the mixture reaches "
            f"are 1320 symbols to score, above the cap {symbols - 1}$"
        )
        with pytest.raises(ResourceCapError, match=message):
            exact_conditional_errors(type2_trial_detector(), pair, n)
