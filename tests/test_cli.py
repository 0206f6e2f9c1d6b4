"""End-to-end tests for the command-line interface."""

import json
import math
import warnings
from importlib import resources

import jsonschema
import pytest
from click.testing import CliRunner

from bdlimits import exact_type3_risk
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

    def test_oracle_cap_exits_3(self, runner):
        result = runner.invoke(
            main,
            ["risk", "--k", "100", "--n", "5", "--trials", "100", "--oracle"],
        )
        assert result.exit_code == 3

    def test_oracle_beyond_outcome_enumeration(self, runner):
        # 3**40 outcomes, but only C(42, 2) = 861 types
        result = runner.invoke(
            main, ["risk", "--oracle", "--k", "3", "--n", "40", "--trials", "100"]
        )
        assert result.exit_code == 0, result.output
        expected = exact_type3_risk(uniform_vs_point_mass(3, 0.5, 0.5), 40)
        assert payload_of(result)["oracle_exact"] == expected

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


class TestToy:
    def test_single_seed_record(self, runner):
        result = runner.invoke(main, ["toy", "--n", "80", "--seeds", "1"])
        assert result.exit_code == 0
        payload = payload_of(result)
        jsonschema.validate(payload, schema("toy_record"))
        assert len(payload["records"]) == 1
        assert "summary" not in payload

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

    def test_gamma_zero_success_near_clean_error(self, runner):
        result = runner.invoke(
            main, ["toy", "--n", "400", "--gamma", "0", "--v", "1,0", "--seeds", "1"]
        )
        record = payload_of(result)["records"][0]
        clean_error = 1.0 - record["clean_accuracy"]
        assert abs(record["attack_success_rate"] - clean_error) < 0.06

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

    def test_regime_error_exits_2(self, runner):
        result = runner.invoke(main, ["probe", "--k", "100", "--beta", "0.1", "--n", "25"])
        assert result.exit_code == 2
        assert "exceed" in result.stderr

    def test_deterministic_output(self, runner):
        assert runner.invoke(main, self.ARGS).stdout == runner.invoke(main, self.ARGS).stdout


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
