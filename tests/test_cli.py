"""End-to-end tests for the command-line interface."""

import csv
import json
import math
import warnings
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bdlimits import ToyConfig, adversary, exact_type3_risk, harness, projections, toy_poison, toy_sample_clean
from bdlimits.cli import main
from bdlimits.harness import uniform_vs_point_mass


def schema(name: str) -> dict:
    text = resources.files("bdlimits").joinpath(f"schemas/{name}.schema.json").read_text()
    return json.loads(text)


@pytest.fixture
def runner():
    return CliRunner()


def assert_clean_failure(result, code: int) -> None:
    """The command failed with ``code``, an error line and no traceback."""
    assert result.exit_code == code, result.output
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def assert_config_hash(runner, tmp_path, args: list[str], digest: str) -> None:
    """The ``--out`` record of ``args`` carries ``digest``, so results files
    written by earlier versions still deduplicate."""
    out = tmp_path / "results.jsonl"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(out.read_text())["config_hash"] == digest


def raise_memory_error(message: str):
    """A stand-in for a computation whose allocation fails."""

    def fail(*args, **kwargs):
        raise MemoryError(message)

    return fail


def payload_of(result) -> dict:
    envelope = json.loads(result.stdout.strip().splitlines()[0])
    assert set(envelope) == {"command", "config_hash", "payload"}
    return envelope["payload"]


class TestBoundsTable:
    def test_default_csv(self, runner):
        result = runner.invoke(main, ["bounds-table"])
        assert result.exit_code == 0
        assert "CIFAR10,7398.11,3697" in result.output
        assert "Lisa Traffic Sign,739811.32,369904" in result.output

    def test_alpha_half_all_zero(self, runner):
        result = runner.invoke(main, ["bounds-table", "--alpha", "0.5", "--format", "json"])
        rows = json.loads(result.stdout)
        assert all(row["min_n_exponent"] == 0 for row in rows)

    def test_json_matches_schema(self, runner):
        result = runner.invoke(main, ["bounds-table", "--format", "json"])
        rows = json.loads(result.stdout)
        jsonschema.validate(rows, schema("bounds_report"))
        assert len(rows) == 8

    def test_unreadable_catalog_exits_2(self, runner, tmp_path):
        missing = tmp_path / "nope.json"
        result = runner.invoke(main, ["bounds-table", "--catalog", str(missing)])
        assert result.exit_code == 2

    def test_invalid_alpha_exits_2(self, runner):
        result = runner.invoke(main, ["bounds-table", "--alpha", "0.9"])
        assert result.exit_code == 2

    def test_custom_catalog(self, runner, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text('[{"name": "tiny", "log10_size": 4.0}]')
        result = runner.invoke(main, ["bounds-table", "--catalog", str(path)])
        assert result.exit_code == 0
        assert result.stdout.count("\n") == 2  # header plus one row

    @pytest.mark.parametrize(
        "size", ['"abc"', "1e400", "-5", "NaN"], ids=["string", "overflow", "negative", "nan"]
    )
    def test_bad_catalog_size_exits_2(self, runner, tmp_path, size):
        path = tmp_path / "catalog.json"
        path.write_text(f'[{{"name": "bad", "log10_size": {size}}}]')
        result = runner.invoke(main, ["bounds-table", "--catalog", str(path)])
        assert_clean_failure(result, 2)

    @pytest.mark.parametrize(
        "entry",
        [
            '"width": 2.5, "height": 2, "channels": 1, "color_depth": 2',
            '"width": true, "height": 2, "channels": 1, "color_depth": 2',
            '"cardinalities": [2, 2.5]',
            '"cardinalities": [2, false]',
        ],
        ids=["fractional-width", "boolean-width", "fractional-card", "boolean-card"],
    )
    def test_impossible_catalog_shape_exits_2(self, runner, tmp_path, entry):
        path = tmp_path / "catalog.json"
        path.write_text(f'[{{"name": "bad", {entry}}}]')
        result = runner.invoke(main, ["bounds-table", "--catalog", str(path)])
        assert_clean_failure(result, 2)
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[{"log10_size": 4.0}]', "catalog entry has no 'name' field"),
            ("[4.0]", "catalog entry must be a JSON object, got float"),
            ('[{"name": 5, "log10_size": 4.0}]', "dataset name must be a string, got 5"),
            ('[{"name": "a", "cardinalities": 5}]', "dataset 'a' cardinalities must be a nonempty list"),
        ],
        ids=["missing-name", "number", "numeric-name", "numeric-cardinalities"],
    )
    def test_catalog_error_names_the_field(self, runner, tmp_path, text, message):
        path = tmp_path / "catalog.json"
        path.write_text(text)
        result = runner.invoke(main, ["bounds-table", "--catalog", str(path)])
        assert_clean_failure(result, 2)
        assert result.stderr == f"error: {message}\n"

    def test_edited_catalog_is_not_a_duplicate(self, runner, tmp_path):
        catalog = tmp_path / "catalog.json"
        out = tmp_path / "results.jsonl"
        args = ["bounds-table", "--catalog", str(catalog), "--out", str(out)]
        catalog.write_text('[{"name": "tiny", "log10_size": 4.0}]')
        first = runner.invoke(main, args)
        catalog.write_text('[{"name": "tiny", "log10_size": 5.0}]')
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.stdout != second.stdout
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "args, catalog, digest",
        [
            ([], None, "c94869f74e2f3191"),
            (
                ["--alpha", "0.05"],
                '[{"name": "tab", "cardinalities": [2, 3, 5]},'
                ' {"name": "img", "width": 4, "height": 4, "channels": 1, "color_depth": 2}]',
                "deba385d22520636",
            ),
        ],
        ids=["default", "custom"],
    )
    def test_config_hash_pinned(self, runner, tmp_path, args, catalog, digest):
        # results files written by earlier versions must still deduplicate
        out = tmp_path / "results.jsonl"
        if catalog is not None:
            (tmp_path / "catalog.json").write_text(catalog)
            args = [*args, "--catalog", str(tmp_path / "catalog.json")]
        result = runner.invoke(main, ["bounds-table", *args, "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["config_hash"] == digest


class TestRisk:
    def test_oracle_gap_within_ci(self, runner):
        result = runner.invoke(
            main, ["risk", "--detector", "np", "--oracle", "--trials", "5000", "--seed", "1"]
        )
        assert result.exit_code == 0
        payload = payload_of(result)
        jsonschema.validate(payload, schema("risk_record"))
        assert payload["oracle_exact"] == pytest.approx(0.34375)
        width = payload["risk"]["ci_high"] - payload["risk"]["ci_low"]
        assert payload["oracle_gap"] < width

    def test_default_stdout_pinned(self, runner):
        # the bytes, key order included, that results files and scripts read
        result = runner.invoke(main, ["risk", "--oracle"])
        assert result.exit_code == 0, result.output
        assert result.stdout == (
            '{"command": "risk", "config_hash": "e94346d57bd43e86", "payload": {"detector": "np", '
            '"k": 2, "n": 2, "gamma": 0.5, "beta": 0.5, "trials": 10000, "seed": 0, "risk": '
            '{"p_hat": 0.3461, "ci_low": 0.33395180359985177, "ci_high": 0.3584522831081072, '
            '"trials": 10000}, "oracle_exact": 0.34375, "oracle_gap": 0.0023500000000000187}}\n'
        )

    def test_minimum_trials_enforced(self, runner):
        result = runner.invoke(main, ["risk", "--trials", "99"])
        assert result.exit_code == 2

    def test_deterministic_output(self, runner):
        args = ["risk", "--trials", "300", "--seed", "7"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_pair_file(self, runner, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(
            json.dumps({"p0": [0.9, 0.1], "pb": [0.1, 0.9], "gamma": 1.0, "beta": 0.3})
        )
        result = runner.invoke(
            main, ["risk", "--pair", str(path), "--n", "6", "--trials", "300"]
        )
        assert result.exit_code == 0
        assert payload_of(result)["risk"]["p_hat"] < 0.2

    def test_oracle_cap_exits_3(self, runner, tmp_path):
        # 100 distinct masses are 100 classes: C(104, 99) = 9.2e7 types of 5 draws
        path = tmp_path / "pair.json"
        p0 = [i / 5050 for i in range(1, 101)]
        path.write_text(json.dumps({"p0": p0, "pb": [0.01] * 100, "gamma": 0.5, "beta": 0.5}))
        result = runner.invoke(
            main,
            ["risk", "--pair", str(path), "--n", "5", "--trials", "100", "--oracle"],
        )
        assert_clean_failure(result, 3)

    def test_oracle_cap_message_names_classes(self, runner, tmp_path):
        # 200 symbols, 50 masses twice and 100 once: 150 classes, C(153, 149) types
        masses = [1.0 + i for i in range(50)] * 2 + [100.0 + i for i in range(100)]
        p0 = [mass / sum(masses) for mass in masses]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"p0": p0, "pb": [1 / 200] * 200, "gamma": 0.5, "beta": 0.5}))
        result = runner.invoke(
            main,
            ["risk", "--pair", str(path), "--n", "4", "--trials", "100", "--oracle"],
        )
        assert_clean_failure(result, 3)
        assert result.stderr == (
            f"error: {math.comb(153, 149)} types of 4 draws on L = 150 symbol classes "
            "of the K = 200 symbols exceed the enumeration cap 10000000\n"
        )

    def test_oracle_sums_over_symbol_classes(self, runner):
        # the default pair has two classes at any --k: symbol 0 and the rest
        result = runner.invoke(
            main, ["risk", "--k", "100000", "--n", "20", "--trials", "100", "--oracle"]
        )
        assert result.exit_code == 0, result.output
        a, b = Fraction(1, 100000), Fraction(1, 2) + Fraction(1, 200000)
        tv = sum(
            math.comb(20, c) * abs(a**c * (1 - a) ** (20 - c) - b**c * (1 - b) ** (20 - c))
            for c in range(21)
        ) / 2
        expected = float(Fraction(1, 2) - tv / 2)
        assert expected == 1.0021267355147374e-05
        assert abs(payload_of(result)["oracle_exact"] - expected) <= 1e-13

    def test_oracle_beyond_outcome_enumeration(self, runner):
        # 3**40 outcomes, but only C(42, 2) = 861 types
        result = runner.invoke(
            main, ["risk", "--oracle", "--k", "3", "--n", "40", "--trials", "100"]
        )
        assert result.exit_code == 0, result.output
        expected = exact_type3_risk(uniform_vs_point_mass(3, 0.5, 0.5), 40)
        assert payload_of(result)["oracle_exact"] == expected

    def test_type2_oracle_is_the_detectors_exact_risk(self, runner):
        # the type-distance detector's own exact risk, not the NP optimum 0.1256
        args = ["risk", "--detector", "type2-tv", "--k", "4", "--n", "8", "--trials", "20000", "--oracle"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        envelope = json.loads(result.stdout)
        assert envelope["config_hash"] == "924a4b8ee466bd74"
        payload = envelope["payload"]
        jsonschema.validate(payload, schema("risk_record"))
        assert payload["risk"] == {
            "p_hat": 0.48715,
            "ci_low": 0.4780518464008683,
            "ci_high": 0.496256676613798,
            "trials": 20000,
        }
        assert abs(payload["oracle_exact"] - 0.4826514720916748) <= 1e-12
        assert payload["oracle_gap"] == abs(0.48715 - payload["oracle_exact"])

    @pytest.mark.parametrize("k, n", [(1000, 20), (100000, 2)])
    def test_type2_oracle_cap_exits_3(self, runner, k, n):
        result = runner.invoke(
            main,
            ["risk", "--detector", "type2-tv", "--k", str(k), "--n", str(n), "--trials", "100", "--oracle"],
        )
        assert_clean_failure(result, 3)
        types = math.comb(n + k - 1, n)
        assert result.stderr == (
            f"error: {types} types of {n} draws on the {k} symbols that p0 or the mixture "
            f"reaches are {types * n} symbols to score, above the cap 10000000\n"
        )

    def test_config_hash_pinned(self, runner, tmp_path):
        assert_config_hash(runner, tmp_path, ["risk"], "77bc81b1c37af499")

    def test_memory_error_exits_3(self, runner, monkeypatch):
        # a message-less MemoryError still gets a non-empty error line
        monkeypatch.setattr(harness, "estimate_risk", raise_memory_error(""))
        result = runner.invoke(main, ["risk", "--trials", "100"])
        assert_clean_failure(result, 3)
        assert result.stderr == "error: out of memory\n"

    def test_bad_pair_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"p0": [0.9, 0.1]}')
        result = runner.invoke(main, ["risk", "--pair", str(path), "--trials", "100"])
        assert result.exit_code == 2

    def test_non_numeric_gamma_exits_2(self, runner, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"p0": [0.9, 0.1], "pb": [0.1, 0.9], "gamma": "x", "beta": 0.3}')
        result = runner.invoke(main, ["risk", "--pair", str(path), "--trials", "100"])
        assert_clean_failure(result, 2)


    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"p0": [0.9, 0.1], "gamma": 1.0, "beta": 0.3}', "pair file has no 'pb' field"),
            ("[[0.9, 0.1], [0.1, 0.9], 1.0, 0.3]", "pair file must be a JSON object, got list"),
            (
                '{"p0": [0.9, 0.1], "pb": [0.1, 0.9], "gamma": null, "beta": 0.3}',
                "pair file field 'gamma': must be a number, got None",
            ),
            (
                '{"p0": [0.9, 0.2], "pb": [0.1, 0.9], "gamma": 1.0, "beta": 0.3}',
                "pair file field 'p0': probabilities sum to 1.1, outside tolerance 1e-12",
            ),
            (
                '{"p0": [true, false], "pb": [0, 1], "gamma": "0.5", "beta": true}',
                "pair file field 'p0': must be an array of numbers, got [True, False]",
            ),
            (
                '{"p0": [1, 0], "pb": ["0", "1"], "gamma": 0.5, "beta": 1}',
                "pair file field 'pb': must be an array of numbers, got ['0', '1']",
            ),
            (
                '{"p0": [1, 0], "pb": [0, 1], "gamma": "0.5", "beta": 1}',
                "pair file field 'gamma': must be a number, got '0.5'",
            ),
            (
                '{"p0": [1, 0], "pb": [0, 1], "gamma": 0.5, "beta": true}',
                "pair file field 'beta': must be a number, got True",
            ),
            (
                '{"p0": [0.5, 0.5], "pb": [0.2, 0.3, 0.5], "gamma": 0.5, "beta": 0.5}',
                "alphabet sizes differ: 2 vs 3",
            ),
        ],
        ids=[
            "missing-pb", "list", "null-gamma", "bad-p0", "bool-p0", "string-pb", "string-gamma", "bool-beta",
            "alphabet-mismatch",
        ],
    )
    def test_pair_file_error_names_the_field(self, runner, tmp_path, text, message):
        path = tmp_path / "pair.json"
        path.write_text(text)
        result = runner.invoke(main, ["risk", "--pair", str(path), "--trials", "100"])
        assert_clean_failure(result, 2)
        assert result.stderr == f"error: {message}\n"

    def test_beta_one_runs_a_detector_that_ignores_beta(self, runner):
        result = runner.invoke(main, ["risk", "--beta", "1", "--detector", "np", "--trials", "200"])
        assert result.exit_code == 0, result.output
        assert payload_of(result)["beta"] == 1.0

    def test_beta_one_rejected_by_the_type_distance_threshold(self, runner):
        result = runner.invoke(main, ["risk", "--beta", "1", "--detector", "type2-tv", "--trials", "200"])
        assert_clean_failure(result, 2)
        assert result.stderr == "error: beta must be in [0, 1), got 1.0\n"


class TestToy:
    def test_single_seed_record(self, runner):
        result = runner.invoke(main, ["toy", "--n", "80", "--seeds", "1"])
        assert result.exit_code == 0
        payload = payload_of(result)
        jsonschema.validate(payload, schema("toy_record"))
        assert len(payload["records"]) == 1
        assert "summary" not in payload

    def test_signed_zero_gamma_is_one_config(self, runner):
        # -0.0 is the configuration spelled 0, with the hash it has always had
        outputs = [runner.invoke(main, ["toy", "--gamma", gamma]).stdout for gamma in ("-0.0", "0")]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["config_hash"] == "d05f84d3956b7d8b"

    def test_ensemble_summary(self, runner):
        result = runner.invoke(main, ["toy", "--n", "80", "--seeds", "5"])
        payload = payload_of(result)
        jsonschema.validate(payload, schema("toy_record"))
        assert len(payload["records"]) == 5
        assert payload["summary"]["median_attack_success_rate"] > 0.5

    def test_normalization_warning(self, runner):
        result = runner.invoke(main, ["toy", "--n", "40", "--v", "2,0"])
        assert result.exit_code == 0
        assert "normalizing" in result.stderr
        assert payload_of(result)["mu"] == pytest.approx(1.0)

    def test_degenerate_direction_exits_2(self, runner):
        result = runner.invoke(main, ["toy", "--v", "0.70710678118,0.70710678118"])
        assert result.exit_code == 2

    def test_unparseable_direction_exits_2(self, runner):
        result = runner.invoke(main, ["toy", "--v", "a,b"])
        assert result.exit_code == 2

    @staticmethod
    def assert_direction_rejected(runner, v: str, shown: str) -> None:
        """``--v v`` exits 2 naming the direction, before any numpy warning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["toy", "--n", "40", "--v", v])
        assert_clean_failure(result, 2)
        assert result.stderr == f"error: direction v = {shown} must be finite\n"
        assert caught == []

    def test_nan_direction_exits_2(self, runner):
        # a NaN direction gives a NaN KS statistic, which must fail cleanly, not hang
        self.assert_direction_rejected(runner, "nan,1", "[nan, 1.0]")

    def test_infinite_direction_exits_2(self, runner):
        # inf / inf would warn and then fail as a NaN direction does
        self.assert_direction_rejected(runner, "inf,0", "[inf, 0.0]")

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exits_2(self, runner, sigma):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["toy", "--n", "40", "--sigma", sigma])
        assert_clean_failure(result, 2)
        assert result.stderr == f"error: sigma must be in [0, inf), got {sigma}\n"
        assert caught == []

    def test_overflowing_sigma_exits_2(self, runner):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["toy", "--n", "40", "--v", "1,0", "--sigma", "1e308"])
        assert_clean_failure(result, 2)
        assert result.stderr == "error: sigma = 1e+308 overflows the drawn features\n"
        assert caught == []

    @pytest.mark.parametrize("v", ["1e-200,1e-200", "1e308,1e308"])
    def test_tiny_and_huge_directions_normalize(self, runner, tmp_path, v):
        # the squares of these entries under- or overflow
        def run(direction: str):
            out = tmp_path / f"{direction}.jsonl"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = runner.invoke(main, ["toy", "--n", "40", "--v", direction, "--out", str(out)])
            assert result.exit_code == 0, result.output
            assert caught == []
            return result.stdout, json.loads(out.read_text())["config_hash"]

        assert run(v) == run("1,1")

    @pytest.mark.parametrize(
        "args, rates",
        [
            # sigma |w| is 5e-324, and (w . 1 + b) / (sigma |w|) overflows
            (["--sigma", "5e-324"], (1.0, 1.0)),
            # |w| = 0.447, so sigma |w| underflows to exactly 0
            (["--v", "0.3,-0.2,0.5,0.1,0.4", "--gamma", "0", "--sigma", "5e-324"], (1.0, 0.0)),
        ],
        ids=["overflow", "zero-scale"],
    )
    def test_closed_form_takes_infinite_limits(self, runner, args, rates):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["toy", *args])
        assert result.exit_code == 0, result.output
        record = payload_of(result)["records"][0]
        assert (record["clean_accuracy"], record["attack_success_rate"]) == rates

    def test_config_hash_pinned(self, runner, tmp_path):
        assert_config_hash(runner, tmp_path, ["toy"], "2a9ce80950d6d23a")

    def test_gamma_zero_success_near_clean_error(self, runner):
        result = runner.invoke(
            main, ["toy", "--n", "400", "--gamma", "0", "--v", "1,0", "--seeds", "1"]
        )
        record = payload_of(result)["records"][0]
        clean_error = 1.0 - record["clean_accuracy"]
        assert abs(record["attack_success_rate"] - clean_error) < 0.06

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_checked_before_the_direction_is_normalized(self, runner, seeds):
        # the default --v has |v| = 1.00039, which would warn if normalized first
        result = runner.invoke(main, ["toy", "--seeds", seeds])
        assert_clean_failure(result, 2)
        assert result.stderr == "error: --seeds must be >= 1\n"

    def test_deterministic_output(self, runner):
        args = ["toy", "--n", "60", "--seeds", "2", "--seed", "3"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_svg_and_csv_emission(self, runner, tmp_path):
        svg = tmp_path / "fig.svg"
        csv_path = tmp_path / "data.csv"
        result = runner.invoke(
            main,
            ["toy", "--n", "50", "--svg", str(svg), "--csv", str(csv_path)],
        )
        assert result.exit_code == 0
        content = svg.read_text()
        assert content.startswith("<svg") and content.rstrip().endswith("</svg>")
        assert "circle" in content and "rect" in content
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "seed,index,poisoned,label,projection,z0,z1"
        assert len(lines) == 51
        # the rows are the library's arrays for seed 0, as the command formats them
        config = ToyConfig.from_direction([0.981, 0.196], sigma=0.5, gamma=0.5, n=50)
        y, z = toy_sample_clean(config, 0)
        yp, zp = toy_poison(y, z, config, 0)
        f = projections(yp, zp, config)
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[:5] for row in rows] == [
            ["0", str(i), str(int(y[i] != yp[i])), str(yp[i]), f"{f[i]:.6f}"] for i in range(50)
        ]
        assert [row[5:] for row in rows] == [[f"{x:.6f}" for x in zp[i]] for i in range(50)]


class TestProbe:
    ARGS = ["probe", "--k", "2000", "--beta", "0.05", "--n", "10", "--trials", "300"]

    def test_probe_record(self, runner):
        result = runner.invoke(main, self.ARGS)
        assert result.exit_code == 0
        payload = payload_of(result)
        jsonschema.validate(payload, schema("probe_record"))
        assert payload["m"] == 100
        assert payload["floor"] == pytest.approx(0.5 * math.exp(-100 / 90), rel=1e-9)
        assert payload["floor_satisfied"] is True
        assert "PASS" in result.stderr

    def test_anchor_count_at_decimal_boundary(self, runner):
        args = ["probe", "--k", "100", "--beta", "0.29", "--n", "5", "--trials", "200"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert payload_of(result)["m"] == 29

    def test_huge_alphabet(self, runner):
        # the uniform law takes O(1) memory, so K = 1e8 runs in a small process
        result = runner.invoke(main, ["probe", "--k", "100000000", "--trials", "200"])
        assert result.exit_code == 0, result.output
        assert '"k": 100000000' in result.stdout

    def test_regime_error_exits_2(self, runner):
        result = runner.invoke(main, ["probe", "--k", "100", "--beta", "0.1", "--n", "25"])
        assert result.exit_code == 2
        assert "exceed" in result.stderr

    def test_deterministic_output(self, runner):
        assert runner.invoke(main, self.ARGS).stdout == runner.invoke(main, self.ARGS).stdout

    def test_config_hash_pinned(self, runner, tmp_path):
        assert_config_hash(runner, tmp_path, self.ARGS, "40764c65042c0bf9")

    def test_memory_error_exits_3(self, runner, monkeypatch):
        message = "Unable to allocate 7.28 TiB for an array with shape (4096, 100000000000)"
        monkeypatch.setattr(adversary, "imposs_risk", raise_memory_error(message))
        result = runner.invoke(main, self.ARGS)
        assert_clean_failure(result, 3)
        assert result.stderr == f"error: {message}\n"

    def test_default_golden(self, runner):
        # K = 1e5, n = 20, gamma = 1, beta = 0.01, seed 0: 5026 errors in 10^4 trials
        result = runner.invoke(main, ["probe", "--trials", "10000"])
        assert result.exit_code == 0, result.output
        payload = payload_of(result)
        assert payload["risk"]["p_hat"] == 0.5026
        assert payload["m"] == 1000 and payload["floor_satisfied"] is True
        assert result.stderr == "measured risk 0.5026 [0.4897, 0.5155], floor 0.3324: PASS\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--beta", "1"], "error: beta must be in [0, 1), got 1.0\n"),
            (["--gamma", "0"], "error: gamma must be in (0, 1], got 0.0\n"),
        ],
        ids=["beta-one", "gamma-zero"],
    )
    def test_threshold_knobs_out_of_range_exit_2(self, runner, args, message):
        result = runner.invoke(main, ["probe", "--trials", "200", *args])
        assert_clean_failure(result, 2)
        assert result.stderr == message


class TestSeedOption:
    @pytest.mark.parametrize(
        "args",
        [["risk", "--trials", "200"], ["toy", "--n", "40"], ["probe", "--trials", "200"]],
        ids=["risk", "toy", "probe"],
    )
    @pytest.mark.parametrize("seed", ["-1", "-18446744073709551616"])
    def test_negative_seed_exits_2(self, runner, tmp_path, args, seed):
        out = tmp_path / "results.jsonl"
        result = runner.invoke(main, [*args, "--seed", seed, "--out", str(out)])
        assert_clean_failure(result, 2)
        assert result.stderr == f"error: seed must be >= 0, got {seed}\n"
        assert not out.exists()

    def test_seeds_past_two_to_the_64_are_distinct_runs(self, runner):
        # seeds that agree mod 2**64 draw their own streams, not one stream
        # under three config hashes
        def p_hat(seed: int) -> float:
            args = ["risk", "--k", "3", "--n", "3", "--trials", "400", "--seed", str(seed)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            return payload_of(result)["risk"]["p_hat"]

        assert [p_hat(s) for s in (5, 2**64 + 5, 2**65 + 5)] == [0.215, 0.2425, 0.2775]


class TestCountOptions:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["risk", "--n", "0"], "n must be >= 1"),
            (["probe", "--k", "0"], "alphabet size must be >= 1"),
            (["toy", "--n", "0"], "n must be >= 1"),
        ],
        ids=["risk-n", "probe-k", "toy-n"],
    )
    def test_zero_count_exits_2(self, runner, args, message):
        result = runner.invoke(main, args)
        assert_clean_failure(result, 2)
        assert result.stderr == f"error: {message}\n"
        assert result.stdout == ""


class TestResultsFileOption:
    def test_out_appends_and_dedupes(self, runner, tmp_path):
        out = tmp_path / "results.jsonl"
        args = ["risk", "--trials", "200", "--seed", "5", "--out", str(out)]
        runner.invoke(main, args)
        runner.invoke(main, args)  # identical config: deduplicated
        runner.invoke(main, ["risk", "--trials", "200", "--seed", "6", "--out", str(out)])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 2
        assert all({"command", "config_hash", "timestamp", "payload"} <= set(r) for r in records)

    def test_signed_zero_is_one_record(self, runner, tmp_path):
        # a law or a knob spelled -0.0 is the configuration spelled 0
        out = tmp_path / "results.jsonl"
        pair = tmp_path / "pair.json"
        for pb, gamma in (("[1, -0.0]", "-0.0"), ("[1, 0]", "0")):
            pair.write_text(f'{{"p0": [0.5, 0.5], "pb": {pb}, "gamma": 0.5, "beta": 0.5}}')
            for args in (["--pair", str(pair)], ["--gamma", gamma]):
                result = runner.invoke(main, ["risk", *args, "--trials", "200", "--out", str(out)])
                assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_failed_append_prints_nothing(self, runner, tmp_path, where):
        # the record is appended before the payload is printed, so an exit 2
        # from --out leaves stdout empty, as every other exit 2 does
        out = tmp_path / "missing" / "r.jsonl" if where == "missing-dir" else tmp_path
        result = runner.invoke(main, ["risk", "--trials", "100", "--out", str(out)])
        assert_clean_failure(result, 2)
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1

    def test_signed_zero_keeps_the_zero_hash(self, runner, tmp_path):
        assert_config_hash(runner, tmp_path, ["risk", "--gamma", "-0.0"], "25f2771f1f121ce7")

    @pytest.mark.parametrize(
        "line",
        [b"[1, 2]", b'"abc"', b'\xff{"config_hash": "x"}', b"[" * 100_000 + b'"\\n"'],
        ids=["list", "string", "utf8", "deep"],
    )
    def test_corrupt_line_skipped(self, runner, tmp_path, line):
        out = tmp_path / "results.jsonl"
        out.write_bytes(line + b"\n")
        result = runner.invoke(main, ["probe", "--trials", "200", "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = out.read_bytes().splitlines()
        assert lines[0] == line and len(lines) == 2
        assert json.loads(lines[1])["command"] == "probe"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _shaped(keys: list[str]):
    """Objects with the given keys, holding arbitrary JSON values."""
    return st.fixed_dictionaries({}, optional={key: json_values for key in keys})


catalogs = json_values | st.lists(
    _shaped(["name", "width", "height", "channels", "color_depth", "cardinalities", "log10_size"]),
    max_size=3,
)
masses = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5]), min_size=1, max_size=4)
pairs = (
    json_values
    | _shaped(["p0", "pb", "gamma", "beta"])
    | st.fixed_dictionaries({"p0": masses, "pb": masses}, optional={"gamma": json_values, "beta": json_values})
)


class TestInputBoundary:
    """Arbitrary input files end in exit 0, 2 or 3, never in a traceback."""

    @staticmethod
    def assert_documented_exit(result) -> None:
        assert result.exit_code in (0, 2, 3), result.output
        if result.exit_code:
            assert_clean_failure(result, result.exit_code)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(catalogs)
    def test_catalog_file(self, runner, tmp_path, catalog):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(catalog))
        self.assert_documented_exit(runner.invoke(main, ["bounds-table", "--catalog", str(path)]))

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pairs)
    def test_pair_file(self, runner, tmp_path, pair):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        args = ["risk", "--pair", str(path), "--n", "2", "--trials", "100"]
        self.assert_documented_exit(runner.invoke(main, args))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.binary(max_size=64))
    def test_results_file(self, runner, tmp_path, content):
        out = tmp_path / "results.jsonl"
        out.write_bytes(content)
        args = ["bounds-table", "--format", "json", "--out", str(out)]
        self.assert_documented_exit(runner.invoke(main, args))
