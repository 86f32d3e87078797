"""CLI contract: JSON shapes, exit codes, reproducibility."""

import json
import sys
import xml.etree.ElementTree as ET

import pytest

from bicircle.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_worked_case(self, capsys):
        code, out, _ = run(
            capsys, ["compute", "--a", "2", "--r1", "3", "--r2", "2", "--p", "2", "--q", "1"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["Pprime"] == {"finite": ["13", "-18"]}
        assert report["M"] == ["-2", "-3"]
        assert report["N"] == ["16/5", "8/5"]
        assert report["classification"] == ["Generic"]

    def test_rationals_stay_strings(self, capsys):
        _, out, _ = run(
            capsys,
            ["compute", "--a", "2", "--r1", "3", "--r2", "2", "--p", "1/3", "--q", "0.5"],
        )
        report = json.loads(out)

        def no_floats(node):
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return not isinstance(node, float)

        assert no_floats(report)

    def test_at_infinity_encoding(self, capsys):
        code, out, _ = run(
            capsys, ["compute", "--a", "2", "--r1", "3", "--r2", "2", "--p", "3", "--q", "0"]
        )
        assert code == 0
        assert json.loads(out)["Pprime"] == {"atInfinity": ["0", "1"]}

    def test_degenerate_probe_exits_1(self, capsys):
        code, out, err = run(
            capsys, ["compute", "--a", "2", "--r1", "3", "--r2", "2", "--p", "1", "--q", "0"]
        )
        assert code == 1
        assert out == ""
        assert "DegenerateProbe" in err

    def test_invalid_scenario_exits_1(self, capsys):
        code, _, err = run(
            capsys, ["compute", "--a", "1", "--r1", "5", "--r2", "1", "--p", "2", "--q", "1"]
        )
        assert code == 1
        assert "InvalidScenario" in err


class TestLocus:
    def test_fixed_point(self, capsys):
        code, out, _ = run(capsys, ["locus", "--a", "2", "--r1", "3", "--r2", "2", "--p", "5/8"])
        assert code == 0
        report = json.loads(out)
        assert report["pPrime"] == "5/8"
        assert report["fixedPoint"] is True

    def test_generic_point(self, capsys):
        _, out, _ = run(capsys, ["locus", "--a", "2", "--r1", "3", "--r2", "2", "--p", "2"])
        report = json.loads(out)
        assert report["pPrime"] == "13"
        assert report["fixedPoint"] is False

    def test_tangent_scenario(self, capsys):
        _, out, _ = run(capsys, ["locus", "--a", "2", "--r1", "2", "--r2", "2", "--p", "2"])
        report = json.loads(out)
        assert report["pPrime"] == "infinity"
        assert report["fixedPoint"] is False

    def test_decimal_input_accepted(self, capsys):
        _, out, _ = run(capsys, ["locus", "--a", "2", "--r1", "3", "--r2", "2", "--p", "0.625"])
        assert json.loads(out)["fixedPoint"] is True


class TestClassify:
    def test_single_flag(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--a", "2", "--r1", "3", "--r2", "2", "--p", "7", "--q", "0"]
        )
        assert code == 0
        assert json.loads(out)["classification"] == ["ProbeOnAxis"]

    def test_all_flags_canonical_order(self, capsys):
        _, out, _ = run(
            capsys, ["classify", "--a", "2", "--r1", "2", "--r2", "2", "--p", "0", "--q", "0"]
        )
        assert json.loads(out)["classification"] == [
            "ProbeOnAxis",
            "CollapsesToA",
            "CollapsesToD",
            "TouchingCircles",
            "OnRadicalAxis",
        ]


class TestVerify:
    def test_default_samples_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", "--a", "2", "--r1", "3", "--r2", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["p"] == "5/8"
        assert report["qSamples"] == ["1", "2", "-3", "1/7"]

    def test_custom_samples(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--a", "2", "--r1", "3", "--r2", "2", "--q-samples", "4,-1/9"],
        )
        assert code == 0
        assert json.loads(out)["qSamples"] == ["4", "-1/9"]

    def test_wrong_ordering_exits_1(self, capsys):
        code, _, err = run(capsys, ["verify", "--a", "5", "--r1", "2", "--r2", "2"])
        assert code == 1
        assert "WrongOrdering" in err


class TestFuzz:
    def test_clean_report(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--trials", "60", "--seed", "360"])
        assert code == 0
        report = json.loads(out)
        assert report["trials"] == 60
        assert report["seed"] == 360
        assert report["failures"] == 0
        assert report["failureDetails"] == []

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(capsys, ["fuzz", "--trials", "60", "--seed", "9"])
        _, second, _ = run(capsys, ["fuzz", "--trials", "60", "--seed", "9"])
        assert first.encode() == second.encode()

    def test_seed_changes_nothing_visible_but_stays_clean(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--trials", "40", "--seed", "1234"])
        assert code == 0
        assert json.loads(out)["failures"] == 0


class TestRender:
    def test_writes_well_formed_svg(self, capsys, tmp_path):
        out_path = tmp_path / "figure.svg"
        code, out, _ = run(
            capsys,
            [
                "render", "--a", "2", "--r1", "3", "--r2", "2",
                "--p", "2", "--q", "1", "--out", str(out_path),
            ],
        )
        assert code == 0
        report = json.loads(out)
        assert report["out"] == str(out_path)
        text = out_path.read_text(encoding="utf-8")
        assert report["bytes"] == len(text.encode("utf-8"))
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_degenerate_probe_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            [
                "render", "--a", "2", "--r1", "3", "--r2", "2",
                "--p", "0", "--q", "0", "--out", str(tmp_path / "x.svg"),
            ],
        )
        assert code == 1
        assert "DegenerateProbe" in err
        assert not (tmp_path / "x.svg").exists()


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--a", "2", "--r1", "3", "--r2", "2", "--p", "2"])
        assert excinfo.value.code == 2

    def test_garbled_rational(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", "--a", "2", "--r1", "3", "--r2", "2", "--p", "wat"])
        assert excinfo.value.code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_zero_denominator(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", "--a", "2", "--r1", "3", "--r2", "2", "--p", "1/0"])
        assert excinfo.value.code == 2
        assert "ZeroDenominator" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_negative_values_via_equals_form(self, capsys):
        code, out, _ = run(
            capsys,
            ["compute", "--a", "2", "--r1", "3", "--r2", "2", "--p=-1/2", "--q=-3/7"],
        )
        assert code == 0
        assert json.loads(out)["probe"] == {"p": "-1/2", "q": "-3/7"}


class TestScenarioForms:
    def test_whitespace_scenario(self, capsys):
        code, out, _ = run(
            capsys, ["locus", "--scenario", "2 3 2", "--p", "5/8"]
        )
        assert code == 0
        assert json.loads(out)["fixedPoint"] is True

    def test_json_scenario(self, capsys):
        code, out, _ = run(
            capsys,
            ["compute", "--scenario", '{"a": "2", "r1": "3", "r2": "2"}',
             "--p", "2", "--q", "1"],
        )
        assert code == 0
        assert json.loads(out)["Pprime"] == {"finite": ["13", "-18"]}

    def test_json_numbers_are_exact(self, capsys):
        code, out, _ = run(
            capsys,
            ["locus", "--scenario", '{"a": 2.00000000000000001, "r1": 3, "r2": 2}', "--p", "2"],
        )
        assert code == 0
        assert json.loads(out)["scenario"]["a"] == "200000000000000001/100000000000000000"

    def test_json_exponent_is_a_parse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", "--scenario", '{"a": 1e400, "r1": 3, "r2": 2}', "--p", "1"])
        assert excinfo.value.code == 2
        assert "ParseError" in capsys.readouterr().err

    def test_json_repeated_key_is_a_parse_error(self, capsys):
        argv = ["compute", "--scenario", '{"a": 2, "r1": 3, "r2": 2, "a": 5}', "--p", "2", "--q", "1"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ParseError" in captured.err and "'a'" in captured.err

    def test_scenario_and_flags_conflict(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", "--scenario", "2 3 2", "--a", "2", "--p", "1"])
        assert excinfo.value.code == 2

    def test_missing_scenario(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", "--a", "2", "--r1", "3", "--p", "1"])
        assert excinfo.value.code == 2

    def test_bad_scenario_text(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", "--scenario", "2 3", "--p", "1"])
        assert excinfo.value.code == 2
        assert "ParseError" in capsys.readouterr().err


class TestInputLimits:
    HUGE = "1" * (sys.get_int_max_str_digits() + 1)

    def usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("a, p", [(HUGE, "1"), ("2", f"1/{HUGE}")])
    def test_huge_literal_in_flag(self, capsys, a, p):
        err = self.usage_error(capsys, ["locus", "--a", a, "--r1", "3", "--r2", "2", "--p", p])
        assert "ParseError" in err

    @pytest.mark.parametrize(
        "form",
        ["{} 3 2", '{{"a": "{}", "r1": "3", "r2": "2"}}', '{{"a": {}, "r1": 3, "r2": 2}}'],
    )
    def test_huge_literal_in_scenario(self, capsys, form):
        err = self.usage_error(capsys, ["locus", "--scenario", form.format(self.HUGE), "--p", "1"])
        assert "ParseError" in err

    def test_deeply_nested_scenario_json(self, capsys):
        deep = "[" * 30_000 + "]" * 30_000
        form = f'{{"a": {deep}, "r1": "3", "r2": "2"}}'
        err = self.usage_error(capsys, ["locus", "--scenario", form, "--p", "1"])
        assert "ParseError" in err

    @pytest.mark.parametrize("samples", ["0", "1,0"])
    def test_zero_q_sample(self, capsys, samples):
        err = self.usage_error(
            capsys, ["verify", "--a", "2", "--r1", "3", "--r2", "2", "--q-samples", samples]
        )
        assert "nonzero" in err

    @pytest.mark.parametrize("samples", ["", ","])
    def test_empty_q_samples(self, capsys, samples):
        err = self.usage_error(
            capsys, ["verify", "--a", "2", "--r1", "3", "--r2", "2", "--q-samples", samples]
        )
        assert "at least one q sample" in err

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_render_size_below_64(self, capsys, tmp_path, flag):
        out_path = tmp_path / "x.svg"
        err = self.usage_error(
            capsys,
            ["render", "--a", "2", "--r1", "3", "--r2", "2", "--p", "2", "--q", "1",
             "--out", str(out_path), flag, "10"],
        )
        assert "at least 64" in err
        assert not out_path.exists()

    def test_negative_trials(self, capsys):
        err = self.usage_error(capsys, ["fuzz", "--trials", "-5"])
        assert "at least 0" in err

    def test_zero_trials_allowed(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--trials", "0"])
        assert code == 0
        assert json.loads(out)["trials"] == 0


class TestOutputErrors:
    def test_unwritable_out_path_exits_1(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            ["render", "--a", "2", "--r1", "3", "--r2", "2", "--p", "2", "--q", "1",
             "--out", str(tmp_path / "missing" / "x.svg")],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("FileNotFoundError: ")


class TestReportLimits:
    """Inputs under the literal cap whose report values exceed the int-string cap."""

    TALL = "7" * 3000

    @pytest.mark.parametrize(
        "argv",
        [
            ["locus", "--a", TALL, "--r1", TALL, "--r2", "3", "--p", f"{TALL}/7"],
            ["compute", "--a", TALL, "--r1", TALL, "--r2", "3", "--p", f"1/{TALL}", "--q", "2"],
        ],
        ids=["locus", "compute"],
    )
    def test_report_too_long_exits_1(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("ValueError: ")
        assert "limit" in err

    def test_render_report_too_long_writes_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "x.svg"
        code, out, err = run(
            capsys,
            ["render", "--a", self.TALL, "--r1", self.TALL, "--r2", "3",
             "--p", f"1/{self.TALL}", "--q", "2", "--out", str(out_path)],
        )
        assert code == 1
        assert out == ""
        assert err.startswith("ValueError: ")
        assert not out_path.exists()
