"""CLI contract: JSON shapes, exit codes, reproducibility."""

import argparse
import collections
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import pytest

from bicircle import Point2, ScenarioConfig, cli, construction, derive
from bicircle.cli import main
from reference import child_env, finite

GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_failed_check_exits_1_with_full_report(self, capsys, monkeypatch):
        construct = construction.construct_image

        def moved(scene, probe):  # P' one unit right of the radical axis
            point = construct(scene, probe).p_prime.point
            return SimpleNamespace(p_prime=finite(Point2(point.x + 1, point.y)))

        monkeypatch.setattr(construction, "construct_image", moved)
        code, out, err = run(capsys, ["verify", "--a", "2", "--r1", "3", "--r2", "2"])
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "command": "verify",
            "scenario": {"a": "2", "r1": "3", "r2": "2"},
            "p": "5/8",
            "qSamples": ["1", "2", "-3", "1/7"],
            "passed": False,
        }


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

    def test_figure_bytes_do_not_depend_on_newline_mode(self, capsys, tmp_path, monkeypatch):
        # Where text mode writes "\r\n", as on Windows, a text-mode write would
        # change the byte-deterministic figure and its reported size.
        def crlf_open(file, mode="r", *args, **kwargs):
            if "b" not in mode:
                kwargs["newline"] = "\r\n"
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", crlf_open, raising=False)
        out_path = tmp_path / "figure.svg"
        code, out, _ = run(
            capsys,
            [
                "render", "--a", "2", "--r1", "3", "--r2", "2",
                "--p", "2", "--q", "1", "--out", str(out_path),
            ],
        )
        assert code == 0
        data = out_path.read_bytes()
        assert data == (GOLDEN / "render-worked.svg").read_bytes()
        assert json.loads(out)["bytes"] == len(data)

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


class TestCommandDeclaration:
    def test_command_without_scenario_or_probe(self, capsys, monkeypatch):
        # A command declares its runner and its inputs beside its subparser;
        # main resolves no scenario and no probe for one that declares neither.
        build = cli.build_parser

        def build_parser():
            parser = build()
            (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
            sub.add_parser("ping").set_defaults(run=lambda args: cli._report(args, {"pong": True}))
            return parser

        monkeypatch.setattr(cli, "build_parser", build_parser)
        code, out, err = run(capsys, ["ping"])
        assert (code, err) == (0, "")
        assert out == '{\n  "command": "ping",\n  "pong": true\n}\n'


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

    @pytest.mark.parametrize("scenario", [
        ["--scenario", "2 3"],  # a bad --scenario
        ["--a", "2", "--r1", "3"],  # --r2 missing
    ], ids=["bad-scenario", "missing-flag"])
    def test_scenario_errors_show_the_subcommand_usage(self, capsys, scenario):
        # The same usage line argparse prints for a bad --p.
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", *scenario, "--p", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bicircle locus ")
        assert "bicircle locus: error: " in err


    @pytest.mark.parametrize("scenario", [
        ["--a", "٢", "--r1", "3", "--r2", "2"],
        ["--a", "2", "--r1", "３", "--r2", "2"],
        ["--scenario", '{"a": "2", "r1": "3", "r2": "٢"}'],
    ], ids=["arabic-indic-flag", "fullwidth-flag", "json-scenario"])
    def test_non_ascii_digits_are_a_usage_error(self, capsys, scenario):
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", *scenario, "--p", "1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: bicircle locus ")
        assert "ParseError" in captured.err

    @pytest.mark.parametrize("argv", [
        ["--a", "\u00a02", "--r1", "3", "--r2", "2"],
        ["--scenario", "2\u00a03 2"],
    ], ids=["flag", "scenario"])
    def test_non_ascii_whitespace_is_a_usage_error(self, capsys, argv):
        # A no-break space, which str.strip() and str.split() take for whitespace.
        with pytest.raises(SystemExit) as excinfo:
            main(["locus", *argv, "--p", "1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: bicircle locus ")
        assert "ParseError" in captured.err

    def test_validated_scenario_encodes_its_three_fields(self):
        cfg = ScenarioConfig(2, 3, 2)
        derive(cfg)  # keeps the frame on cfg
        assert set(cli._encode(cfg)) == {"a", "r1", "r2"}


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

    def test_no_break_space_q_sample(self, capsys):
        # str.strip() would empty the second part, and the list would read [1].
        err = self.usage_error(
            capsys, ["verify", "--a", "2", "--r1", "3", "--r2", "2", "--q-samples", "1,\u00a0"]
        )
        assert "ParseError" in err

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

    def test_negative_seed(self, capsys):
        err = self.usage_error(capsys, ["fuzz", "--seed=-5"])
        assert "at least 0" in err

    @pytest.mark.parametrize("argv", [
        ["fuzz", "--trials", "２"], ["fuzz", "--seed", "٣"], ["fuzz", "--trials", "1_0"],
        ["fuzz", "--seed", "\u00a02"], ["fuzz", "--trials", "2\u2003"],
        ["render", "--a", "2", "--r1", "3", "--r2", "2", "--p", "2", "--q", "1", "--out", "x.svg",
         "--width", "８００"],
    ], ids=["fullwidth", "arabic-indic", "underscore", "no-break-space", "em-space", "render-width"])
    def test_integer_options_are_ascii(self, capsys, tmp_path, monkeypatch, argv):
        # int() reads each of these; the option takes only [+-]?[0-9]+ within ASCII whitespace.
        monkeypatch.chdir(tmp_path)
        err = self.usage_error(capsys, argv)
        assert err.startswith(f"usage: bicircle {argv[0]}") and "invalid integer value" in err
        assert not (tmp_path / "x.svg").exists()

    def test_integer_options_allow_ascii_space_and_sign(self, capsys):
        code, out, _ = run(capsys, ["fuzz", "--trials", " +2\t", "--seed", "\n3 "])
        assert code == 0
        assert (json.loads(out)["trials"], json.loads(out)["seed"]) == (2, 3)

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


WORKED_ARGV = ["compute", "--a", "2", "--r1", "3", "--r2", "2", "--p", "2", "--q", "1"]


def child_report(stdout, unbuffered, argv=WORKED_ARGV):
    """Run argv, the worked compute by default, in a child interpreter with the stdout given."""
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "bicircle", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestUnwritableReport:
    """A report that cannot be written exits 1 with one line on stderr, never a traceback.

    Python flushes stdout again at exit; a failure there would print
    "Exception ignored" and exit 120.
    """

    def test_closed_pipe(self, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            child = child_report(write, unbuffered)
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (1, "BrokenPipeError: [Errno 32] Broken pipe\n")

    def test_render_into_closed_pipe(self, unbuffered, tmp_path):
        out_path = tmp_path / "figure.svg"
        read, write = os.pipe()
        os.close(read)
        try:
            child = child_report(write, unbuffered, ["render", *WORKED_ARGV[1:], "--out", str(out_path)])
        finally:
            os.close(write)
        assert (child.returncode, child.stderr) == (1, "BrokenPipeError: [Errno 32] Broken pipe\n")
        # Only the report was lost: the figure was written, whole, before it.
        assert out_path.read_bytes() == (GOLDEN / "render-worked.svg").read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self, unbuffered):
        with open("/dev/full", "wb") as full:
            child = child_report(full, unbuffered)
        assert child.returncode == 1
        assert child.stderr == "OSError: [Errno 28] No space left on device\n"


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


class TestExitContract:
    """Seeded argv vectors over all six commands: exit 0, 1 or 2, never a traceback.

    A vector that passes a BAD literal as a value exits 2.
    """

    VECTORS = 600
    COMMANDS = ("compute", "locus", "classify", "verify", "fuzz", "render")
    VALID = ["2", "3", "5/8", "-1/2", "0.5", "+7/3", "13", "0", "1/7", ".25"]
    # A zero denominator, an exponent, one over the digit cap, non-ASCII digits,
    # no-break spaces around a literal, empty.
    BAD = ["1/0", "1e3", "1" * (sys.get_int_max_str_digits() + 1), "٣/٤", "３", "\u00a02\u00a0", ""]
    SIZES = ["800", "64", "63", "-5", "x", "1e3", ""]
    COUNTS = ["0", "1", "2", "-1", "x", "1.5", ""]
    SEEDS = ["360", "-7", "2408", "x", "1e3", ""]
    # Integers that int() reads but the ASCII grammar of integer options does not.
    BAD_INTEGERS = ["３", "1_0", "\u00a02"]
    SAMPLES = ["1,2,-3,1/7", "1", "0", "1,0", "", ",", "1/0", "x"]

    def literal(self, rng, joined=False):
        value = rng.choice(self.VALID if rng.random() < 0.9 else self.BAD)
        # Joined into 'a r1 r2', an empty literal is no value, only a wider gap.
        self.bad |= value in self.BAD and not (joined and value == "")
        return value

    def integer(self, rng, values):
        value = rng.choice(values)
        # A BAD_INTEGERS value replaces one in four, drawn from a stream of
        # its own, so every other draw of the vectors stays as it was.
        if self.integers.random() < 0.25:
            value = self.integers.choice(self.BAD_INTEGERS)
            self.bad = True
        return value

    def option(self, rng, flag, value):
        # The "--p=-1/2" form is the only way to pass a negative literal.
        return [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]

    def scenario(self, rng):
        form = rng.choice([0, 0, 0, 0, 1, 1, 2, 2, 3])
        if form == 0:
            argv = []
            for flag in rng.sample(["--a", "--r1", "--r2"], rng.choice([3] * 9 + [2])):
                argv += self.option(rng, flag, self.literal(rng))
            return argv
        if form == 1:
            text = " ".join(self.literal(rng, joined=True) for _ in range(rng.choice([3] * 8 + [2, 4])))
            return [f"--scenario={text}"]
        keys = ["a", "r1", "r2"] + rng.choice([[]] * 6 + [["a"], ["r9"]])  # repeated or unknown
        values = [
            f'"{self.literal(rng)}"' if rng.random() < 0.6
            else rng.choice(["3", "2.5", "-1", "NaN", "1e400", "[1]", "true"])
            for _ in keys
        ]
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in zip(keys, values)) + "}"
        if form == 3:
            text = text[: rng.randrange(len(text) + 1)]  # often malformed
        argv = [f"--scenario={text}"]
        if rng.random() < 0.1:
            argv += ["--a", "2"]  # both forms at once
        return argv

    def argv(self, rng, command, tmp_path):
        self.bad = False
        argv = [command]
        if command == "fuzz":
            if rng.random() < 0.8:
                argv += self.option(rng, "--trials", self.integer(rng, self.COUNTS))
            if rng.random() < 0.8:
                argv += self.option(rng, "--seed", self.integer(rng, self.SEEDS))
            return argv
        argv += self.scenario(rng)
        # Random literals seldom give a valid scenario, and verify needs
        # intersecting circles too: a stream of its own swaps one verify or
        # render scenario in two for the worked one, so every draw from rng
        # stays as it was.
        if command in ("verify", "render") and self.scenes.random() < 0.5:
            argv[1:] = ["--a", "2", "--r1", "3", "--r2", "2"]
            self.bad = False
        for flag in ("--p", "--q") if command != "locus" else ("--p",):
            if command != "verify" and rng.random() < 0.95:
                argv += self.option(rng, flag, self.literal(rng))
        if command == "verify" and rng.random() < 0.7:
            argv += self.option(rng, "--q-samples", rng.choice(self.SAMPLES))
        if command == "render":
            out = rng.choice([tmp_path / "f.svg", tmp_path / "missing" / "f.svg", tmp_path])
            argv += self.option(rng, "--out", str(out))
            for flag in ("--width", "--height"):
                if rng.random() < 0.4:
                    argv += self.option(rng, flag, self.integer(rng, self.SIZES))
            argv += [f for f in ("--clip", "--no-labels", "--no-radical-axis") if rng.random() < 0.3]
        return argv

    def test_generated_argv(self, capsys, tmp_path):
        rng, self.integers, self.scenes = random.Random(1995), random.Random(2408), random.Random(360)
        seen = collections.Counter()
        for i in range(self.VECTORS):
            command = self.COMMANDS[i % len(self.COMMANDS)]
            argv = self.argv(rng, command, tmp_path)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            assert code == 2 or not self.bad, argv
            seen["bad"] += self.bad
            if code == 0:
                report = json.loads(out)
                assert isinstance(report, dict) and report["command"] == command, argv
            elif code == 2:
                assert err.startswith("usage: bicircle"), argv
            seen[command, code] += 1
        # Each command is reached with a clean run and with a usage error.
        assert all(seen[command, 0] and seen[command, 2] for command in self.COMMANDS), seen
        assert seen["bad"] >= 100, seen
