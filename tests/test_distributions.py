"""Tests for categorical distributions, sampling, and TV distance."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bdlimits import (
    AlphabetMismatchError,
    Categorical,
    DistributionPair,
    ParameterError,
    ResourceCapError,
    SymbolDataset,
    exact_type3_risk,
    mix,
    np_type3,
    ood_risk_exact,
    product_tv_exact,
    sample,
    tv_distance,
    tv_to_type,
    type1_tv,
    type_exceedance_frequency,
)
from bdlimits import distributions
from bdlimits.distributions import draw_symbols, log_factorials, sparse_types
from bdlimits.harness import uniform_vs_point_mass
from bdlimits.rng import substream


def probs(*values):
    return Categorical(np.array(values, dtype=float))


def outcome_tv(p0, p1, n):
    """TV between the n-fold products by building all K**n outcome masses."""
    joint0, joint1 = p0.probs, p1.probs
    for _ in range(n - 1):
        joint0 = np.kron(joint0, p0.probs)
        joint1 = np.kron(joint1, p1.probs)
    return 0.5 * float(np.abs(joint0 - joint1).sum())


def rational_tv(p0, p1, n):
    """TV between the n-fold products in exact rationals, summed over types."""
    a = [Fraction(float(x)) for x in p0.probs]
    b = [Fraction(float(x)) for x in p1.probs]
    total = Fraction(0)
    for draws in itertools.combinations_with_replacement(range(len(a)), n):
        counts = [draws.count(x) for x in range(len(a))]
        weight = math.factorial(n)
        for c in counts:
            weight //= math.factorial(c)
        mass0 = math.prod(x**c for x, c in zip(a, counts))
        mass1 = math.prod(x**c for x, c in zip(b, counts))
        total += weight * abs(mass0 - mass1)
    return total / 2


@st.composite
def categoricals(draw, k_min=2, k_max=5):
    k = draw(st.integers(k_min, k_max))
    raw = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=k, max_size=k)
    )
    arr = np.array(raw)
    return Categorical(arr / arr.sum())


@st.composite
def categorical_pairs(draw, k_min=2, k_max=5):
    k = draw(st.integers(k_min, k_max))
    return (
        draw(categoricals(k_min=k, k_max=k)),
        draw(categoricals(k_min=k, k_max=k)),
    )


class TestCategorical:
    def test_rejects_negative_mass(self):
        with pytest.raises(ParameterError):
            Categorical(np.array([1.2, -0.2]))

    def test_rejects_bad_total(self):
        with pytest.raises(ParameterError):
            Categorical(np.array([0.5, 0.4]))

    def test_renormalizes_tiny_deviation(self):
        c = Categorical(np.array([0.5, 0.5 + 1e-14]))
        assert c.probs.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([np.nan, 1.0], "probabilities must be finite and nonnegative"),
            ([np.nan, np.nan], "probabilities must be finite and nonnegative"),
            ([np.inf, 0.0], "probabilities must be finite and nonnegative"),
            ([-np.inf, 1.0], "probabilities must be finite and nonnegative"),
            ([1.2, -0.2], "probabilities must be finite and nonnegative"),
            ([-0.5, -0.5], "probabilities must be finite and nonnegative"),
            ([], "probability vector must be 1-D with K >= 1"),
            ([[0.5, 0.5]], "probability vector must be 1-D with K >= 1"),
        ],
        ids=["nan", "all-nan", "inf", "minus-inf", "negative", "constant-negative", "empty", "2-d"],
    )
    def test_rejection_message(self, values, message):
        with pytest.raises(ParameterError) as info:
            Categorical(np.array(values, dtype=float))
        assert str(info.value) == message

    def test_overflowing_sum_is_reported(self):
        # every entry is finite; only their sum is not
        with np.errstate(over="ignore"):
            with pytest.raises(ParameterError, match="probabilities sum to inf,"):
                Categorical(np.array([1e308, 1e308]))

    @pytest.mark.parametrize("values", [[0.25] * 4, [0.1, 0.2, 0.3, 0.4]], ids=["constant", "varied"])
    def test_caller_array_stays_apart(self, values):
        arr = np.array(values)
        law = Categorical(arr)
        assert arr.flags.writeable
        arr[:] = [1.0, 0.0, 0.0, 0.0]
        assert law.probs.tolist() == values

    def test_immutable(self):
        for c in (Categorical.uniform(3), probs(0.2, 0.3, 0.5)):
            assert not c.probs.flags.writeable
            with pytest.raises(ValueError):
                c.probs[0] = 0.9

    def test_uniform_matches_dense_construction(self):
        # the dense spelling np.full(k, 1/k), normalized, bit for bit, and its
        # inner CDF levels
        ks = [*range(1, 2000), *(3**e for e in range(7, 13)), 10**5, 10**6, 999_983, 2**20]
        for k in ks:
            dense = np.full(k, 1.0 / k)
            dense = dense / dense.sum() + 0.0
            law = Categorical.uniform(k)
            assert law.probs.tobytes() == dense.tobytes(), k
            assert law._levels.tobytes() == np.cumsum(dense[:-1]).tobytes(), k

    def test_constant_law_is_uniform(self):
        law = Categorical.from_jsonable([0.25] * 4)
        assert law == Categorical.uniform(4) and hash(law) == hash(Categorical.uniform(4))

    def test_uniform_holds_no_dense_vector(self):
        # a dense 1e8-vector would be 800 MB
        tracemalloc.start()
        try:
            Categorical.uniform(10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_block_draw_holds_two_arrays(self):
        # the uniforms and the symbols; clipping the symbols must not copy them
        p, shape = Categorical.uniform(4), (4096, 20)
        rng = np.random.default_rng(0)
        draw_symbols(p, shape, rng)
        tracemalloc.start()
        try:
            symbols = draw_symbols(p, shape, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert symbols.dtype == np.int64
        assert peak <= 2 * 8 * 4096 * 20 + 16 * 1024, peak

    def test_json_round_trip(self):
        c = probs(0.25, 0.5, 0.25)
        assert Categorical.from_jsonable(c.to_jsonable()) == c

    def test_signed_zero_is_one_law(self):
        # -0.0 == 0.0, so the two spellings must hash and serialize alike
        a, b = Categorical(np.array([1.0, -0.0])), Categorical(np.array([1.0, 0.0]))
        assert a == b and hash(a) == hash(b)
        pairs = {
            DistributionPair(a, a, gamma=-0.0, beta=-0.0),
            DistributionPair(b, b, gamma=0.0, beta=0.0),
        }
        assert len(pairs) == 1
        assert pairs.pop().to_jsonable() == {"p0": [1.0, 0.0], "pb": [1.0, 0.0], "gamma": 0.0, "beta": 0.0}


class TestBroadcastLaw:
    """A constant law is one value broadcast over its alphabet: checks,
    equality, hashing and JSON take O(1) memory."""

    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, -0.25], ids=["nan", "inf", "minus-inf", "negative"]
    )
    def test_rejection_message(self, value):
        values = np.broadcast_to(value, (4,))
        assert values.strides == (0,)
        with pytest.raises(ParameterError) as info:
            Categorical(values)
        assert str(info.value) == "probabilities must be finite and nonnegative"

    def test_bad_total_reported(self):
        with pytest.raises(ParameterError, match="probabilities sum to 2.0,"):
            Categorical(np.broadcast_to(0.5, (4,)))

    def test_equality_and_hash_hold_no_dense_vector(self):
        # a dense 1e8-vector would be 800 MB
        a, b = Categorical.uniform(10**8), Categorical.uniform(10**8)
        tracemalloc.start()
        try:
            assert a == b and hash(a) == hash(b)
            assert a != Categorical.uniform(10**8 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_dense_and_broadcast_laws_compare_entrywise(self):
        uniform = Categorical.uniform(4)
        assert uniform == Categorical(np.array([0.25] * 4))
        assert uniform != probs(0.1, 0.2, 0.3, 0.4)
        assert probs(0.1, 0.2, 0.3, 0.4) != uniform
        assert uniform != probs(0.25, 0.5, 0.25)

    @pytest.mark.parametrize(
        "law",
        [Categorical.uniform(7), probs(0.1, 0.2, 0.3, 0.4), Categorical(np.array([1.0, -0.0]))],
        ids=["broadcast", "dense", "signed-zero"],
    )
    def test_to_jsonable_is_python_floats(self, law):
        expected = [float(p) for p in law.probs]
        assert law.to_jsonable() == expected
        assert all(type(p) is float for p in law.to_jsonable())
        assert json.dumps(law.to_jsonable()) == json.dumps(expected)


class TestTvDistance:
    def test_identity_is_zero(self):
        c = probs(0.3, 0.7)
        assert tv_distance(c, c) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(Categorical.point_mass(0, 2), Categorical.point_mass(1, 2)) == 1.0

    def test_uniform_vs_point_mass(self):
        # half-L1 by hand: (|0.5 - 1| + |0.5 - 0|) / 2
        assert tv_distance(Categorical.uniform(2), Categorical.point_mass(0, 2)) == 0.5

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            tv_distance(Categorical.uniform(2), Categorical.uniform(3))

    @settings(max_examples=60, deadline=None)
    @given(categorical_pairs())
    def test_axioms(self, pq):
        p, q = pq
        d = tv_distance(p, q)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(tv_distance(q, p), abs=1e-15)
        if d == 0.0:
            assert np.allclose(p.probs, q.probs)

    @settings(max_examples=40, deadline=None)
    @given(categoricals(k_min=3, k_max=3), categoricals(k_min=3, k_max=3), categoricals(k_min=3, k_max=3))
    def test_triangle_inequality(self, p, q, r):
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


class TestSameAlphabet:
    """Every entry point taking two alphabets rejects a mismatch with one error."""

    U2, U3 = Categorical.uniform(2), Categorical.uniform(3)
    D2, D3 = SymbolDataset(np.array([0, 1]), 2), SymbolDataset(np.array([0, 2]), 3)

    @pytest.mark.parametrize(
        "call",
        [
            (DistributionPair, U2, U3, 0.5, 0.5),
            (tv_distance, U2, U3),
            (tv_to_type, U2, D3),
            (product_tv_exact, U2, U3, 2),
            (np_type3, D2, DistributionPair(U3, U3, 0.5, 0.5)),
            (type1_tv, D2, D3, 0.5, 0.5),
            (ood_risk_exact, [0, 1], U2, U3),
        ],
        ids=lambda call: call[0].__name__,
    )
    def test_mismatch_raises_one_message(self, call):
        entry, *args = call
        with pytest.raises(AlphabetMismatchError, match=r"^alphabet sizes differ: 2 vs 3$"):
            entry(*args)


class TestMix:
    def test_gamma_zero_returns_clean(self):
        pair = DistributionPair(probs(0.7, 0.3), probs(0.1, 0.9), gamma=0.0, beta=0.5)
        assert mix(pair) is pair.p0

    def test_gamma_one_returns_backdoor(self):
        pair = DistributionPair(probs(0.7, 0.3), probs(0.1, 0.9), gamma=1.0, beta=0.5)
        assert mix(pair) is pair.pb

    @staticmethod
    def dirichlet_pairs(gamma):
        # mixed by arithmetic, about one in eight of these pairs misses the
        # law at gamma 0 or 1 in its last bits
        rng = substream(42, 0)
        for _ in range(200):
            p0 = Categorical(rng.dirichlet(np.ones(4)))
            pb = Categorical(rng.dirichlet(np.ones(4)))
            yield DistributionPair(p0, pb, gamma, beta=0.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_endpoints_are_the_laws_themselves(self, gamma):
        for pair in self.dirichlet_pairs(gamma):
            assert mix(pair) is (pair.pb if gamma else pair.p0)

    def test_unpoisoned_risk_is_exactly_half(self):
        # at gamma = 0 both hypotheses are p0, so no detector beats a coin
        for pair in self.dirichlet_pairs(0.0):
            assert exact_type3_risk(pair, 5) == 0.5

    def test_half_mixture_by_hand(self):
        pair = DistributionPair(
            Categorical.uniform(2), Categorical.point_mass(0, 2), gamma=0.5, beta=0.5
        )
        assert np.allclose(mix(pair).probs, [0.75, 0.25])

    def test_gamma_outside_unit_interval_rejected(self):
        with pytest.raises(ParameterError):
            DistributionPair(probs(0.7, 0.3), probs(0.1, 0.9), gamma=1.5, beta=0.5)

    def test_beta_one_admits_every_pair(self):
        pair = DistributionPair(probs(0.7, 0.3), probs(0.7, 0.3), gamma=0.5, beta=1.0)
        assert pair.is_admissible()

    @pytest.mark.parametrize("beta", [-0.1, 1.0 + 1e-12, math.nan])
    def test_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(ParameterError, match=r"beta must be in \[0, 1\]"):
            DistributionPair(probs(0.7, 0.3), probs(0.1, 0.9), gamma=0.5, beta=beta)

    def test_mixture_scaling_identity(self):
        rng = substream(42, 0)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            p0 = Categorical(rng.dirichlet(np.ones(k)))
            pb = Categorical(rng.dirichlet(np.ones(k)))
            gamma = float(rng.uniform(0.0, 1.0))
            pair = DistributionPair(p0, pb, gamma, beta=0.0)
            lhs = tv_distance(p0, mix(pair))
            assert lhs == pytest.approx(gamma * tv_distance(p0, pb), abs=1e-12)

    def test_built_once_per_pair(self):
        rng = substream(43, 0)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            p0 = Categorical(rng.dirichlet(np.ones(k)))
            pb = Categorical(rng.dirichlet(np.ones(k)))
            gamma = float(rng.uniform(0.0, 1.0))
            pair = DistributionPair(p0, pb, gamma, beta=0.0)
            first = mix(pair)
            assert mix(pair) is first and pair.mixture is first
            # the same expression the mixture was built from, bit for bit
            expected = Categorical(gamma * pb.probs + (1.0 - gamma) * p0.probs)
            assert np.array_equal(first.probs, expected.probs)

    @pytest.mark.parametrize(
        "law", [probs(0.1, 0.2, 0.3, 0.4), Categorical.uniform(4)], ids=["dense", "broadcast"]
    )
    def test_law_mixed_with_itself_is_that_law(self, law):
        for gamma in (0.0, 0.3, 1.0):
            assert DistributionPair(law, law, gamma, beta=0.5).mixture is law

    def test_clean_view_mixture_holds_no_k_vector(self):
        # a computed mixture would pass through a dense 1e7-vector, 80 MB
        pair = DistributionPair(Categorical.uniform(10**7), Categorical.uniform(10**7), 0.7, 0.2)
        tracemalloc.start()
        try:
            mixture = pair.mixture
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mixture.probs.strides == (0,)
        assert peak < 64 * 1024, peak


class TestSymbolClasses:
    # (p0, pb, gamma, classes): repeated masses, a zero mass under one law,
    # symbols both laws give zero mass, and gamma 0 and 1
    PAIRS = [
        ([0.2, 0.2, 0.2, 0.0, 0.4, 0.0], [0.1, 0.1, 0.1, 0.5, 0.2, 0.0], 0.5, 3),
        ([0.5, 0.0, 0.25, 0.25, 0.0], [0.0, 0.5, 0.25, 0.25, 0.0], 1.0, 3),
        ([0.3, 0.3, 0.4, 0.0], [0.6, 0.1, 0.3, 0.0], 0.0, 2),
        ([0.2] * 5, [1.0, 0.0, 0.0, 0.0, 0.0], 0.5, 2),
    ]

    @pytest.mark.parametrize("p0, pb, gamma, classes", PAIRS)
    def test_classes_merge_repeats_and_drop_massless(self, p0, pb, gamma, classes):
        pair = DistributionPair(probs(*p0), probs(*pb), gamma, beta=0.5)
        c0, c1 = pair.classes
        assert c0.alphabet_size == c1.alphabet_size == classes
        assert pair.classes is pair.classes
        # each class mass is its size times the shared mass, in any order
        rows = np.column_stack([pair.p0.probs, pair.mixture.probs])
        shared, size = np.unique(rows[rows.any(axis=1)], axis=0, return_counts=True)
        expected = (Categorical(shared[:, law] * size).probs for law in (0, 1))
        assert sorted(zip(c0.probs, c1.probs)) == sorted(zip(*expected))

    @pytest.mark.parametrize("p0, pb, gamma, classes", PAIRS)
    def test_class_risk_equals_full_alphabet_risk(self, p0, pb, gamma, classes):
        pair = DistributionPair(probs(*p0), probs(*pb), gamma, beta=0.5)
        for n in (1, 2, 5, 8):
            risk = exact_type3_risk(pair, n)
            full = 0.5 - 0.5 * product_tv_exact(pair.p0, mix(pair), n)
            rational = 0.5 - float(rational_tv(pair.p0, mix(pair), n)) / 2
            assert abs(risk - full) <= 1e-12, n
            assert abs(risk - rational) <= 1e-12, n

    def test_distinct_masses_left_unreduced(self):
        pair = DistributionPair(probs(0.5, 0.3, 0.2), probs(0.1, 0.2, 0.7), 0.5, beta=0.5)
        assert pair.classes[0] is pair.p0 and pair.classes[1] is pair.mixture


class TestSample:
    def test_point_mass_is_constant(self):
        d = sample(Categorical.point_mass(0, 3), 5, seed=123)
        assert list(d.symbols) == [0, 0, 0, 0, 0]

    def test_same_seed_same_dataset(self):
        p = probs(0.2, 0.3, 0.5)
        a = sample(p, 100, seed=9)
        b = sample(p, 100, seed=9)
        assert np.array_equal(a.symbols, b.symbols)

    def test_different_seed_differs(self):
        p = probs(0.2, 0.3, 0.5)
        assert not np.array_equal(sample(p, 100, 1).symbols, sample(p, 100, 2).symbols)

    def test_uniform_frequencies_concentrate(self):
        # Hoeffding: deviation beyond 0.01 at 1e5 draws has probability < 1e-8
        d = sample(Categorical.uniform(2), 10**5, seed=7)
        counts = np.bincount(d.symbols, minlength=2)
        assert abs(counts[0] / len(d) - 0.5) < 0.01

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            sample(Categorical.uniform(2), 0, seed=0)


class TestEmpiricalType:
    """The type of a dataset, kept sparse as (row, symbol, count) triples."""

    def test_balanced_counts(self):
        row, sym, counts = sparse_types(np.array([[0, 0, 1, 1]]))
        assert row.tolist() == [0, 0]
        assert sym.tolist() == [0, 1]
        assert counts.tolist() == [2, 2]

    def test_single_symbol(self):
        row, sym, counts = sparse_types(np.array([[0, 0, 0]]))
        assert (row.tolist(), sym.tolist(), counts.tolist()) == ([0], [0], [3])

    def test_matches_counting_oracle(self):
        rng = substream(5, 1)
        symbols = rng.integers(0, 4, (3, 57))
        row, sym, counts = sparse_types(symbols)
        dense = np.zeros((3, 4), dtype=np.int64)
        dense[row, sym] = counts
        for r in range(3):
            for x in range(4):
                assert dense[r, x] == sum(1 for s in symbols[r] if s == x)
        assert np.all(counts > 0)

    def test_tv_to_type_equals_dense_path(self):
        rng = substream(6, 2)
        for _ in range(50):
            k = int(rng.integers(2, 8))
            p = Categorical(rng.dirichlet(np.ones(k)))
            d = SymbolDataset(rng.integers(0, k, int(rng.integers(1, 40))), k)
            histogram = np.bincount(d.symbols, minlength=k) / len(d)
            dense = 0.5 * float(np.abs(p.probs - histogram).sum())
            assert tv_to_type(p, d) == pytest.approx(dense, abs=1e-12)


class TestProductTv:
    def test_n_equals_one_matches_tv(self):
        p, q = probs(0.6, 0.4), probs(0.25, 0.75)
        assert product_tv_exact(p, q, 1) == pytest.approx(tv_distance(p, q), abs=1e-15)

    def test_identical_distributions(self):
        p = probs(0.6, 0.4)
        for n in range(1, 5):
            assert product_tv_exact(p, p, n) == 0.0

    def test_two_fold_by_enumeration(self):
        # outcomes: 00, 01, 10, 11 under (0.75,0.25) vs (0.5,0.5)
        expected = 0.5 * (
            abs(0.75 * 0.75 - 0.25)
            + 2 * abs(0.75 * 0.25 - 0.25)
            + abs(0.25 * 0.25 - 0.25)
        )
        got = product_tv_exact(probs(0.75, 0.25), probs(0.5, 0.5), 2)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.3125, abs=1e-15)

    def test_cap_enforced(self):
        # C(104, 99) = 9.2e7 types of 5 draws on 100 symbols
        with pytest.raises(ResourceCapError):
            product_tv_exact(Categorical.uniform(100), Categorical.uniform(100), 5)

    def test_formerly_capped_instance(self):
        # 10**9 outcomes but only C(18, 9) = 48,620 types
        p1 = Categorical(np.r_[0.55, np.full(9, 0.05)])
        assert 0.0 <= product_tv_exact(Categorical.uniform(10), p1, 9) <= 1.0

    @pytest.mark.filterwarnings("error")
    def test_matches_outcome_enumeration(self):
        rng = substream(12, 3)
        for k in range(2, 6):
            for trial in range(12):
                laws = rng.dirichlet(np.ones(k), size=2)
                if trial % 2:  # zero masses, on different symbols when the draws differ
                    laws[0, rng.integers(k)] = 0.0
                    laws[1, rng.integers(k)] = 0.0
                p0, p1 = (Categorical(law / law.sum()) for law in laws)
                for n in range(1, 9):
                    if k**n > 10**5:
                        break
                    assert abs(product_tv_exact(p0, p1, n) - outcome_tv(p0, p1, n)) <= 1e-12

    @pytest.mark.parametrize("k, n", [(2, 60), (3, 25)])
    def test_matches_exact_rationals(self, k, n):
        rng = substream(13, k, n)
        p0, p1 = (Categorical(rng.dirichlet(np.ones(k))) for _ in range(2))
        assert abs(product_tv_exact(p0, p1, n) - float(rational_tv(p0, p1, n))) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_fans_split_across_chunk_edges(self, monkeypatch):
        # chunks this small cut close and open fans, and one partial type's fan,
        # mid-way; the zero masses, as (law, symbol), sit on the last two symbols
        # and on different symbols under the two laws
        zeros = [
            (),
            ((0, -2),),
            ((1, -1),),
            ((0, -2), (1, -2)),
            ((0, 0), (1, -1)),
            ((0, -1), (1, -2)),
        ]
        rng = substream(14, 5)
        for k in range(1, 6):
            for where in zeros if k > 1 else [()]:
                laws = rng.dirichlet(np.ones(k), size=2)
                for law, symbol in where:
                    laws[law, symbol] = 0.0
                p0, p1 = (Categorical(law / law.sum()) for law in laws)
                for n in range(1, 6):
                    expected = float(rational_tv(p0, p1, n))
                    for chunk in (1, 2, 3, 7):
                        monkeypatch.setattr(distributions, "_TYPE_CHUNK", chunk)
                        assert abs(product_tv_exact(p0, p1, n) - expected) <= 1e-12

    def test_many_chunks_match_outer_product(self):
        # C(1001, 2) = 500,500 types of two draws on 1000 symbols, in 31 chunks
        rng = substream(15, 1000)
        p0, p1 = (Categorical(rng.dirichlet(np.ones(1000))) for _ in range(2))
        joint0, joint1 = np.outer(p0.probs, p0.probs), np.outer(p1.probs, p1.probs)
        expected = 0.5 * float(np.abs(joint0 - joint1).sum())
        assert abs(product_tv_exact(p0, p1, 2) - expected) <= 1e-12

    @pytest.mark.parametrize(
        "k, gamma, beta, n, risk",
        [
            (2, 0.5, 0.5, 2, 0.34375),
            (3, 0.5, 0.5, 40, 0.015496230356438045),
            (100000, 0.5, 0.5, 20, 1.002126735416553e-05),
            (2, 0.8, 0.2, 5000, 0.0),
        ],
    )
    def test_two_class_risks_pinned(self, k, gamma, beta, n, risk):
        # a two-class pair sums its n + 1 types in one close fan, in a fixed order
        # (c = 1..n, then 0, draws on the first class), so these stay bit for bit
        assert exact_type3_risk(uniform_vs_point_mass(k, gamma, beta), n) == risk

    @pytest.mark.parametrize(
        "k, gamma, beta, n", [(2, 0.8, 0.2, 5000), (3, 0.9, 0.3, 1000), (2, 0.5, 0.5, 300000)]
    )
    def test_at_most_one_at_large_n(self, k, gamma, beta, n):
        # unclamped, the summed terms exceed 1 by 5e-13 to 3e-10 here and the risk
        # goes negative
        pair = uniform_vs_point_mass(k, gamma, beta)
        assert product_tv_exact(pair.p0, mix(pair), n) <= 1.0
        assert exact_type3_risk(pair, n) >= 0.0

    def test_log_factorials_match_gammaln(self):
        table = log_factorials(20000)
        assert table.shape == (20001,)
        np.testing.assert_allclose(table, gammaln(np.arange(20001) + 1.0), rtol=1e-15, atol=0.0)

    def test_memory_bounded(self):
        # 1.6e6 types; a (types x K) count matrix alone would take 380 MB
        p1 = Categorical(np.r_[0.5 + 0.5 / 30, np.full(29, 0.5 / 30)])
        tracemalloc.start()
        try:
            tv = product_tv_exact(Categorical.uniform(30), p1, 6)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert 0.0 < tv < 1.0
        assert peak < 64, peak

    def test_product_sandwich(self):
        rng = substream(11, 3)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            p0 = Categorical(rng.dirichlet(np.ones(k)))
            p1 = Categorical(rng.dirichlet(np.ones(k)))
            base = tv_distance(p0, p1)
            for n in range(1, 7):
                if k**n > 10**5:
                    break
                prod = product_tv_exact(p0, p1, n)
                assert base - 1e-12 <= prod <= n * base + 1e-12


class TestTypeConcentration:
    def test_exceedance_below_bound(self):
        trials = 10**4
        for k, n, t in [(2, 50, 0.15), (4, 100, 0.2), (6, 200, 0.3)]:
            p = Categorical.uniform(k)
            freq = type_exceedance_frequency(p, n, t, trials, seed=k * 31 + n)
            bound = min(1.0, 2 * k * math.exp(-8 * n * t * t / (k * k)))
            sd = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            assert freq <= bound + 3 * sd

    def test_deterministic(self):
        p = Categorical.uniform(3)
        a = type_exceedance_frequency(p, 30, 0.2, 2000, seed=4)
        b = type_exceedance_frequency(p, 30, 0.2, 2000, seed=4)
        assert a == b

    def test_golden_value(self):
        # two blocks on substream(4, CONCENTRATION, b): 380 of 5000 trials exceed
        p = Categorical.uniform(3)
        assert type_exceedance_frequency(p, 30, 0.2, 5000, seed=4) == 0.076


class TestSymbolDataset:
    def test_rejects_out_of_alphabet(self):
        with pytest.raises(ParameterError):
            SymbolDataset(np.array([0, 3]), 3)

    @pytest.mark.parametrize(
        "symbols",
        [np.array([0.7, 1.9]), np.array([0.0, 1.0]), [True, False], np.array([0, None], dtype=object)],
        ids=["float", "integral-float", "bool", "object"],
    )
    def test_rejects_symbols_that_are_not_integers(self, symbols):
        with pytest.raises(ParameterError, match="dataset symbols must be integers"):
            SymbolDataset(symbols, 2)

    @pytest.mark.parametrize("symbols", [[], np.array([], dtype=float), np.array([], dtype=bool)])
    def test_empty_keeps_its_message(self, symbols):
        with pytest.raises(ParameterError, match="dataset must contain at least one symbol"):
            SymbolDataset(symbols, 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64])
    def test_accepts_any_integer_dtype(self, dtype):
        d = SymbolDataset(np.array([1, 0, 1], dtype=dtype), 2)
        assert d.symbols.dtype == np.int64 and d.symbols.tolist() == [1, 0, 1]

    def test_freezes_a_view_not_the_callers_array(self):
        a = np.array([0, 1, 1], dtype=np.int64)
        d = SymbolDataset(a, 2)
        assert a.flags.writeable
        assert not d.symbols.flags.writeable
        with pytest.raises(ValueError):
            d.symbols[0] = 1
