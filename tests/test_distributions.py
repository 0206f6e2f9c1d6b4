"""Tests for categorical distributions, sampling, and TV distance."""

import ast
import copy
import hashlib
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from bdlimits import (
    AlphabetMismatchError,
    BoundReport,
    Categorical,
    DatasetSpec,
    DistributionPair,
    ImpossibilityConfig,
    KsResult,
    LinearClassifier,
    ParameterError,
    ResourceCapError,
    RiskEstimate,
    SymbolDataset,
    ToyConfig,
    TrainerStub,
    achievability_alpha_bound,
    exact_type3_risk,
    impossibility_min_n,
    ks_pvalue,
    mix,
    near_indistinguishable_pair,
    np_type3,
    ood_risk_exact,
    product_tv_exact,
    sbd_infinite_alphabet_feasible,
    sbd_min_n,
    toy_delta,
    tv_distance,
    tv_to_type,
    type1_tv,
    type3_risk_floor,
    type_exceedance_frequency,
    wilson_interval,
)
from bdlimits import cli, distributions
from bdlimits.detectors import tv_threshold
from bdlimits.distributions import draw_symbols, log_factorials, sparse_types, within
from bdlimits.harness import benchmark_instances, uniform_vs_point_mass
from bdlimits.rng import substream


#: the exact-grid benchmark's points: class labels of benchmark_instances() and their n
EXACT_GRID = {"k2": range(10, 24), "k3": range(8, 15), "k4": range(6, 12)}


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


#: every range-checked scalar knob, as (knob name, its interval, function of the knob)
RANGE_KNOBS = {
    "pair-gamma": ("gamma", "[0, 1]", lambda x: uniform_vs_point_mass(2, x, 0.5)),
    "pair-beta": ("beta", "[0, 1]", lambda x: uniform_vs_point_mass(2, 0.5, x)),
    "toy-gamma": ("gamma", "[0, 1]", lambda x: ToyConfig.from_direction([1.0, 0.0], 0.5, x, 10)),
    "toy-sigma": ("sigma", "[0, inf)", lambda x: ToyConfig.from_direction([1.0, 0.0], x, 0.5, 10)),
    "imposs-beta": ("beta", "[0, 1]", lambda x: ImpossibilityConfig(k=100, beta=x, gamma=0.5, n=5)),
    "imposs-gamma": ("gamma", "[0, 1]", lambda x: ImpossibilityConfig(k=100, beta=0.5, gamma=x, n=5)),
    "achievability-gamma": ("gamma", "[0, 1]", lambda x: achievability_alpha_bound(10, x, 0.5, 2)),
    "achievability-beta": ("beta", "[0, 1]", lambda x: achievability_alpha_bound(10, 0.5, x, 2)),
    "sbd-beta": ("beta", "[0, 1]", lambda x: sbd_min_n(0.1, x, 0.25, 3.0)),
    "sbd-r": ("r", "(0, 0.5]", lambda x: sbd_min_n(0.1, 0.5, x, 3.0)),
    "sbd-alpha": ("alpha", "(0, inf]", lambda x: sbd_min_n(x, 0.5, 0.25, 3.0)),
    "min-n-beta": ("beta", "[0, 1]", lambda x: impossibility_min_n(0.1, x, 3.0)),
    "min-n-alpha": ("alpha", "(0, 0.5]", lambda x: impossibility_min_n(x, 0.5, 3.0)),
    "min-n-log10-alphabet": ("log10 alphabet size", "[0, inf)", lambda x: impossibility_min_n(0.1, 0.5, x)),
    "feasible-r": ("r", "(0, inf]", lambda x: sbd_infinite_alphabet_feasible(0.1, x)),
    "type3-gamma": ("gamma", "[0, 1]", lambda x: type3_risk_floor(x, 10, 0.5)),
    "type3-tv": ("tv", "[0, 1]", lambda x: type3_risk_floor(0.5, 10, x)),
    "near-epsilon": ("epsilon", "(0, inf]", lambda x: near_indistinguishable_pair(0.5, 10, x)),
    "near-gamma": ("gamma", "(0, 1]", lambda x: near_indistinguishable_pair(x, 10, 0.1)),
    "threshold-gamma": ("gamma", "(0, 1]", lambda x: tv_threshold(x, 0.5)),
    "threshold-beta": ("beta", "[0, 1)", lambda x: tv_threshold(0.5, x)),
    "smoothing": ("smoothing", "[0, inf)", lambda x: TrainerStub(x)),
    "log10-size": ("dataset 'a' log10_size", "[0, inf)", lambda x: DatasetSpec("a", log10_size=x)),
    "ks-statistic": ("KS statistic", "[0, 1]", lambda x: KsResult(x, 0.5, 10)),
    "ks-p-value": ("p-value", "[0, 1]", lambda x: KsResult(0.5, x, 10)),
}


def interval_ends(interval: str) -> tuple[float, float, bool, bool]:
    """(low, high, low end open, high end open) of an interval's text."""
    low, high = (float(end) for end in interval[1:-1].split(", "))
    return low, high, interval[0] == "(", interval[-1] == ")"


def outside(interval: str) -> list[float]:
    """NaN, -inf, half a unit and one ulp past each finite end, an open end
    itself, and +inf unless it is a closed end."""
    low, high, open_low, open_high = interval_ends(interval)
    values = [math.nan, -math.inf, low - 0.5, math.nextafter(low, -math.inf)] + [low] * open_low
    if high < math.inf:
        values += [high + 0.5, math.nextafter(high, math.inf)]
    if high < math.inf or open_high:
        values.append(math.inf)
    return values + [high] * (open_high and high < math.inf)


def knob_cases(values) -> list:
    """pytest params (name, interval, call, value) over ``values(interval)``
    of every knob, with ids knob-value-shown, the value and its message text."""
    return [
        pytest.param(name, interval, call, value, id=f"{key}-{value}-{value}")
        for key, (name, interval, call) in RANGE_KNOBS.items()
        for value in values(interval)
    ]


def closed_ends(interval: str) -> list[float]:
    """The closed ends of an interval's text."""
    low, high, open_low, open_high = interval_ends(interval)
    return [low] * (not open_low) + [high] * (not open_high)


class TestUnitInterval:
    """Every range-checked knob goes through ``within``: one message for all it rejects."""

    @pytest.mark.parametrize("name, interval, call, value", knob_cases(outside))
    def test_one_message(self, name, interval, call, value):
        message = f"{name} must be in {interval}, got {value}"
        with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
            call(value)

    @pytest.mark.parametrize("name, interval, call, value", knob_cases(closed_ends))
    def test_closed_end_accepted(self, name, interval, call, value):
        try:
            call(value)
        except ParameterError as exc:
            # a later rule may reject the end (epsilon = inf leaves one
            # symbol), but never the range check
            assert not str(exc).startswith(f"{name} must be in"), exc

    def test_negative_zero_read_as_zero(self):
        assert math.copysign(1.0, within("gamma", -0.0, 0, 1)) == 1.0
        assert within("gamma", 1, 0, 1) == 1.0
        configs = (
            ToyConfig.from_direction([1.0, 0.0], 0.5, -0.0, 10).gamma,
            ToyConfig.from_direction([1.0, 0.0], -0.0, 0.5, 10).sigma,
            ImpossibilityConfig(k=100, beta=0.5, gamma=-0.0, n=5).gamma,
            uniform_vs_point_mass(2, -0.0, -0.0).beta,
        )
        assert all(math.copysign(1.0, knob) == 1.0 for knob in configs)

    @pytest.mark.parametrize(
        "message, call",
        [
            ("alpha must be in (0, inf], got nan", lambda: sbd_min_n(math.nan, 0.001, 0.5, 10.0)),
            ("r must be in (0, 0.5], got nan", lambda: sbd_min_n(0.1, 0.001, math.nan, 10.0)),
            ("r must be in (0, inf], got nan", lambda: sbd_infinite_alphabet_feasible(0.1, math.nan)),
            ("epsilon must be in (0, inf], got nan", lambda: near_indistinguishable_pair(0.5, 10, math.nan)),
            ("gamma must be in [0, 1], got -5.0", lambda: type3_risk_floor(-5.0, 10, 0.5)),
            ("gamma must be in [0, 1], got 2.0", lambda: type3_risk_floor(2.0, 1, 0.1)),
            ("n must be >= 1", lambda: type3_risk_floor(0.5, -3, 0.5)),
            (
                "direction must be a unit vector",
                lambda: ToyConfig(sigma=0.5, gamma=0.5, n=10, v=np.array([math.nan, 1.0])),
            ),
            ("direction must be a unit vector", lambda: toy_delta(np.array([math.nan, 0.0]), 2)),
        ],
        ids=[
            "sbd-alpha-nan", "sbd-r-nan", "feasible-r-nan", "near-epsilon-nan", "type3-gamma-negative",
            "type3-gamma-above-one", "type3-n-negative", "toy-config-nan-direction", "toy-delta-nan-direction",
        ],
    )
    def test_unchecked_scalar_raises_naming_it(self, message, call):
        # unchecked, these returned NaN, False or a floor outside [0, 1/2], or failed in int()
        with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
            call()


@pytest.mark.parametrize(
    "value",
    [
        SymbolDataset(np.array([0, 1]), 2),
        ToyConfig.from_direction([1.0, 0.0], 0.5, 0.5, 10),
        LinearClassifier(np.array([1.0, 0.0]), 0.5),
    ],
    ids=lambda value: type(value).__name__,
)
def test_array_holders_compare_by_identity(value):
    # an array field has no truth-valued ==, so these compare as objects
    assert value == value
    assert value != copy.copy(value)
    assert hash(value) == hash(value)


#: a caller of the one count check in each module, as (message, call at a count below its floor)
COUNTS = {
    "adversary": ("alphabet size must be >= 1", lambda: ImpossibilityConfig(k=0, beta=0.5, gamma=0.5, n=5)),
    "adversary-dimension": ("dimension must be >= 2", lambda: ToyConfig.from_direction([1.0], 0.5, 0.5, 10)),
    "bounds": ("k must be >= 1", lambda: achievability_alpha_bound(10, 0.5, 0.5, 0)),
    "bounds-report": ("minimum-N exponent must be >= 0", lambda: BoundReport("a", 1.0, -1)),
    "cli": (
        "--seeds must be >= 1",
        lambda: cli.toy.callback(
            n=10, gamma=0.5, sigma=0.5, v_text="1,0", seeds=0, seed=0, svg_path=None, csv_path=None, out=None
        ),
    ),
    "detectors": ("sample count must be >= 1", lambda: ks_pvalue(0.1, 0)),
    "distributions": ("n must be >= 1", lambda: product_tv_exact(probs(0.5, 0.5), probs(0.5, 0.5), 0)),
    "harness": ("trials must be >= 1", lambda: wilson_interval(0, 0)),
}


class TestAtLeast:
    @pytest.mark.parametrize("message, call", COUNTS.values(), ids=COUNTS.keys())
    def test_low_count_rejected_with_one_message(self, message, call):
        with pytest.raises(ParameterError, match="^" + re.escape(message) + "$"):
            call()


def test_laws_module_takes_no_seed():
    # seeds become generators in the estimators; the laws only draw from them
    tree = ast.parse(Path(distributions.__file__).read_text(encoding="utf-8"))
    sources = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    sources += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert not [source for source in sources if source and source.split(".")[-1] == "rng"], sources


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


def seeded_dataset(p: Categorical, n: int, seed: int) -> SymbolDataset:
    """A dataset of n symbols from p, drawn on the substream of ``seed``."""
    return SymbolDataset(draw_symbols(p, n, substream(seed)), p.alphabet_size)


class TestSample:
    """A seeded sample: :func:`draw_symbols` on a substream, as a dataset."""

    def test_point_mass_is_constant(self):
        d = seeded_dataset(Categorical.point_mass(0, 3), 5, seed=123)
        assert list(d.symbols) == [0, 0, 0, 0, 0]

    def test_same_seed_same_dataset(self):
        p = probs(0.2, 0.3, 0.5)
        a = seeded_dataset(p, 100, seed=9)
        b = seeded_dataset(p, 100, seed=9)
        assert np.array_equal(a.symbols, b.symbols)

    def test_different_seed_differs(self):
        p = probs(0.2, 0.3, 0.5)
        assert not np.array_equal(seeded_dataset(p, 100, 1).symbols, seeded_dataset(p, 100, 2).symbols)

    def test_uniform_frequencies_concentrate(self):
        # Hoeffding: deviation beyond 0.01 at 1e5 draws has probability < 1e-8
        d = seeded_dataset(Categorical.uniform(2), 10**5, seed=7)
        counts = np.bincount(d.symbols, minlength=2)
        assert abs(counts[0] / len(d) - 0.5) < 0.01

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            seeded_dataset(Categorical.uniform(2), 0, seed=0)


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
            (2, 0.5, 0.5, 40000, 1.1145084855002096e-11),
        ],
    )
    def test_two_class_risks_pinned(self, k, gamma, beta, n, risk):
        # a two-class pair sums its n + 1 types in one close fan, in a fixed order
        # (c = 1..n, then 0, draws on the first class), so these stay bit for bit;
        # at n = 40000 the fan spans three _TYPE_CHUNK windows, one sum each
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

    def test_warm_laws_give_cold_values(self, monkeypatch):
        # the exact-grid points; each cold call starts with no cached log
        # masses and an empty log-factorial table, the warm pair has been
        # asked every larger n first
        warm = {inst.label: inst.pair for inst in benchmark_instances()}
        for label, ns in EXACT_GRID.items():
            for n in reversed(ns):
                cold = next(inst.pair for inst in benchmark_instances() if inst.label == label)
                monkeypatch.setattr(distributions, "_LOG_FACTORIAL", np.zeros(0))
                assert exact_type3_risk(warm[label], n) == exact_type3_risk(cold, n), (label, n)

    def test_values_pinned_bit_for_bit(self, monkeypatch):
        # one digest over the exact-grid risks and the product TVs of seeded laws,
        # half of them with zero masses, at three chunk sizes; recorded before the
        # root's fans were built from scalars, so a last-bit move fails at any
        # class count
        pairs = {inst.label: inst.pair for inst in benchmark_instances()}
        values = [exact_type3_risk(pairs[label], n) for label, ns in EXACT_GRID.items() for n in ns]
        # the laws come from the stream keyed by the words [16, 6], which
        # substream(16, 6) drew from when the digest was recorded
        words = np.array([16, 6], np.uint32)
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))
        chunks = (distributions._TYPE_CHUNK, 3, 7)
        for k in range(1, 7):
            for trial in range(8):
                laws = rng.dirichlet(np.ones(k), size=2)
                if trial % 2 and k > 1:
                    laws[0, rng.integers(k)] = 0.0
                    laws[1, rng.integers(k)] = 0.0
                p0, p1 = (Categorical(law / law.sum()) for law in laws)
                for chunk in chunks:
                    monkeypatch.setattr(distributions, "_TYPE_CHUNK", chunk)
                    values.extend(product_tv_exact(p0, p1, n) for n in range(1, 9))
        assert len(values) == 27 + 6 * 8 * 3 * 8
        digest = hashlib.sha256("\n".join(map(float.hex, values)).encode()).hexdigest()
        assert digest == "7189f8e63d989e2ea45a681a969a627e2b12df85f235f00b023131be77262169"

    def test_log_factorial_table_grows_on_demand(self, monkeypatch):
        monkeypatch.setattr(distributions, "_LOG_FACTORIAL", np.zeros(0))
        for n in (5, 3, 40, 20):
            table = log_factorials(n)
            assert table.tolist() == [math.lgamma(c + 1) for c in range(n + 1)]
            assert not table.flags.writeable
        assert distributions._LOG_FACTORIAL.size == 41

    def test_log_masses_cached_read_only(self):
        law = probs(0.5, 0.0, 0.5)
        logs = law._log_masses
        assert logs is law._log_masses and not logs.flags.writeable
        assert logs[1] == distributions._NO_MASS_LOG
        assert logs[0] == logs[2] == math.log(0.5)
        assert Categorical.uniform(10**9)._log_masses.strides == (0,)

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
            freq = type_exceedance_frequency(p, n, t, trials, seed=k * 31 + n).p_hat
            bound = min(1.0, 2 * k * math.exp(-8 * n * t * t / (k * k)))
            sd = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
            assert freq <= bound + 3 * sd

    def test_deterministic(self):
        p = Categorical.uniform(3)
        a = type_exceedance_frequency(p, 30, 0.2, 2000, seed=4)
        b = type_exceedance_frequency(p, 30, 0.2, 2000, seed=4)
        assert a == b

    def test_golden_value(self):
        # two blocks on substream(4, CONCENTRATION, b): 408 of 5000 trials exceed
        p = Categorical.uniform(3)
        estimate = type_exceedance_frequency(p, 30, 0.2, 5000, seed=4)
        assert isinstance(estimate, RiskEstimate) and estimate.trials == 5000
        assert estimate.p_hat == 0.0816
        assert estimate.ci_low < estimate.p_hat < estimate.ci_high

    def test_minimum_trials_enforced(self):
        with pytest.raises(ParameterError, match="^at least 100 trials are required$"):
            type_exceedance_frequency(Categorical.uniform(3), 30, 0.2, 99, seed=4)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ParameterError, match=r"^threshold must be in \[-inf, inf\], got nan$"):
            type_exceedance_frequency(Categorical.uniform(4), 10, math.nan, 200, seed=0)

    @pytest.mark.parametrize("threshold, p_hat", [(-0.5, 1.0), (1.5, 0.0), (-math.inf, 1.0), (math.inf, 0.0)])
    def test_threshold_outside_unit_interval_accepted(self, threshold, p_hat):
        # every type lies at TV in [0, 1] from p, so all rows or none exceed
        estimate = type_exceedance_frequency(Categorical.uniform(4), 10, threshold, 200, seed=0)
        assert estimate.p_hat == p_hat


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

    def test_rejects_uint64_symbols_that_int64_cannot_hold(self):
        # 2^63 is inside an alphabet of 2^64 but wraps to -2^63 as int64
        big = np.array([2**63], dtype=np.uint64)
        outside = "^dataset contains symbols outside the alphabet$"
        with pytest.raises(ParameterError, match=outside):
            SymbolDataset(big, 2**64)
        with pytest.raises(ParameterError, match=outside):
            SymbolDataset.rows(np.array([[0], [2**63]], dtype=np.uint64), 2**64)
        largest = np.array([2**63 - 1], dtype=np.uint64)
        assert SymbolDataset(largest, 2**64).symbols.tolist() == [2**63 - 1]

    def test_rows_share_the_checked_block(self):
        block = np.array([[0, 2], [1, 1], [2, 0]], dtype=np.int32)
        datasets = list(SymbolDataset.rows(block, 3))
        assert [d.symbols.tolist() for d in datasets] == block.tolist()
        for d in datasets:
            assert d.alphabet_size == 3 and d.symbols.dtype == np.int64
            assert not d.symbols.flags.writeable
            assert d.symbols.base is datasets[0].symbols.base  # one checked int64 copy

    @pytest.mark.parametrize(
        "block", [np.array([0, 1]), np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)]
    )
    def test_rows_need_a_two_dimensional_block_with_symbols(self, block):
        with pytest.raises(ParameterError, match="^dataset must contain at least one symbol$"):
            SymbolDataset.rows(block, 2)
