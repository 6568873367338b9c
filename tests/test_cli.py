"""Command-line behavior: exit codes, human output, deterministic reports.

Everything runs in-process through main(argv); no subprocesses, so coverage
and tracebacks stay usable.
"""

import json
from pathlib import Path

import pytest

from cinfstruct import linalg
from cinfstruct.cli import main

import helpers

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EX31 = str(SCENARIOS / "example31.json")
AIRY = str(SCENARIOS / "airy.json")
DEPENDENT = str(Path(__file__).resolve().parent / "data" / "dependent_frame.json")
# The same frame with a one-step reduction script.
DEPENDENT_SCRIPT = str(Path(__file__).resolve().parent / "data" / "dependent_frame_script.json")


def write_scenario(tmp_path, doc, name="scn.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def load_example_doc():
    return json.loads((SCENARIOS / "example31.json").read_text())


def test_check_involutive_ok(capsys):
    assert main(["check", EX31, "involutive"]) == 0
    out = capsys.readouterr().out
    assert "[Z1, Z2] = " in out
    assert "certified" in out


def test_check_cinf_structure_ok(capsys):
    assert main(["check", EX31, "cinf-structure"]) == 0
    out = capsys.readouterr().out
    assert "level 1 (X1): lambda = [-1, -x3]" in out
    assert "level 2 (X2):" in out
    assert "certified" in out


def test_check_independence_ok(capsys):
    assert main(["check", EX31, "independence"]) == 0
    out = capsys.readouterr().out
    assert "frame of 4 fields on a 4-dimensional chart" in out


@pytest.mark.parametrize("what", ["independence", "cinf-structure"])
def test_a_dependent_frame_is_refuted_by_a_named_item(what, capsys):
    # Z1 = d/dx, X1 = d/dy, X2 = x d/dy: rank 2 of 3.
    assert main(["check", DEPENDENT, what]) == 1
    captured = capsys.readouterr()
    assert "FAILED\n  failing: rows left without a pivot are nonzero (rank 2 of 3)\n" in captured.out
    assert "linear system" not in captured.out + captured.err


def test_a_dependent_frame_does_not_reduce(capsys):
    assert main(["reduce", DEPENDENT_SCRIPT]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "step failed: the ordered family is not a certified structure\n"
        "FAILED\n"
        "  failing: rows left without a pivot are nonzero (rank 2 of 3)\n"
    )
    assert captured.err == ""


def test_a_dependent_frame_refutes_a_symmetrizing_verify(capsys):
    argv = ["verify", "factor", DEPENDENT_SCRIPT, "--level", "1", "--kind", "symmetrizing", "--expr", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "refuted: the scenario's ordered fields are not a certified structure\n"
        "FAILED\n"
        "  failing: rows left without a pivot are nonzero (rank 2 of 3)\n"
    )


def test_check_involutive_refuted(tmp_path, capsys):
    doc = {
        "chart": {"name": "N", "coords": ["x", "y", "z"]},
        "fields": {"Za": ["1", "0", "0"], "Zb": ["0", "1", "x"], "X": ["0", "0", "1"]},
        "structure": {"generators": ["Za", "Zb"], "fields": ["X"]},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["check", path, "involutive"]) == 1
    out = capsys.readouterr().out
    assert "(outside the span)" in out
    assert "FAILED" in out


def test_reduce_end_to_end(capsys):
    assert main(["reduce", EX31]) == 0
    out = capsys.readouterr().out
    assert "level 2: I = " in out
    assert "level 1: I = " in out
    assert "integral manifolds (parameters: x1, x2):" in out
    assert "x3 = " in out and "x4 = " in out


def test_reduce_airy_end_to_end(capsys):
    assert main(["reduce", AIRY]) == 0
    out = capsys.readouterr().out
    assert "integral manifolds (parameters: x):" in out
    assert "u = " in out


def test_reduce_jet_dimension_9_end_to_end(tmp_path, capsys, monkeypatch):
    # u^(8) = 0, sheared: 8 levels, each with its cofactors from one
    # elimination and no Laplace determinant.
    path = write_scenario(tmp_path, helpers.jet_scenario(9))
    dets = []
    monkeypatch.setattr(linalg, "det", lambda *args: dets.append(args))
    assert main(["reduce", path]) == 0
    out = capsys.readouterr().out
    assert sum(line.endswith("->  ok") for line in out.splitlines()) == 8
    assert "integral manifolds (parameters: x):" in out
    assert out.endswith("certified (9 checks)\n")
    assert dets == []


def test_reduce_truncated_script_fails(tmp_path, capsys):
    doc = load_example_doc()
    doc["reduction"] = doc["reduction"][:1]
    path = write_scenario(tmp_path, doc)
    assert main(["reduce", path]) == 1
    out = capsys.readouterr().out
    assert "incomplete: 1 level(s) remain" in out


def test_reduce_reports_the_steps_before_a_failed_step(tmp_path, capsys):
    doc = load_example_doc()
    # Z2 = d/dx1 + ... moves x1, so adding x1 spoils the level-1 integral.
    doc["reduction"][1]["integral"] = "(1 + x3*(C2 - x1))/(x2*x3) + x1"
    path = write_scenario(tmp_path, doc)
    report = tmp_path / "reduce.json"
    assert main(["reduce", path, "--report", str(report)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("level 2: I = x1 + x4/(x2 - x3*x4), constant C2")
    assert lines[0].endswith("->  ok")
    assert lines[1] == "step failed: not a certified first integral at level 1"
    assert not any(line.startswith("level 1:") for line in lines)
    data = json.loads(report.read_text())
    assert data["ok"] is False and data["complete"] is False
    assert len(data["steps"]) == 1
    assert data["failure"]["kind"] == "first-integral"
    assert data["failure"]["ok"] is False


def test_reduce_without_a_script_is_an_input_error(tmp_path, capsys):
    doc = load_example_doc()
    del doc["reduction"]
    path = write_scenario(tmp_path, doc)
    assert main(["reduce", path]) == 2
    assert "no reduction script" in capsys.readouterr().err


def test_factors_with_solvable_structure(capsys, tmp_path):
    report = tmp_path / "factors.json"
    assert main(["factors", EX31, "--emit-solvable", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "level 2:" in out and "level 1:" in out
    assert "solvable structure:" in out
    assert "Y1 = " in out and "Y2 = " in out
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert [e["level"] for e in doc["factors"]] == [2, 1]
    ch = helpers.dim4_chart()
    got_f2 = ch.parse(doc["factors"][0]["f"])
    assert got_f2 == ch.parse(helpers.DIM4_F2)


def test_verify_factor_certified(capsys):
    code = main(
        [
            "verify",
            "factor",
            EX31,
            "--level",
            "2",
            "--kind",
            "symmetrizing",
            "--expr",
            helpers.DIM4_F2,
        ]
    )
    assert code == 0
    assert "certified" in capsys.readouterr().out


def test_verify_factor_refuted_with_witness(capsys):
    code = main(
        [
            "verify",
            "factor",
            EX31,
            "--level",
            "1",
            "--kind",
            "relative-integrating",
            "--expr",
            "x4",
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "witness:" in out


def test_convert_factor_round_trip(capsys, tmp_path):
    report = tmp_path / "convert.json"
    code = main(
        [
            "convert",
            "factor",
            EX31,
            "--direction",
            "f2mu",
            "--level",
            "2",
            "--expr",
            helpers.DIM4_F2,
            "--report",
            str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "round trip returns the input: yes" in out
    doc = json.loads(report.read_text())
    ch = helpers.dim4_chart()
    assert ch.parse(doc["value"]) == ch.parse(helpers.DIM4_MU2)
    assert doc["round_trip_ok"] is True


def test_convert_factor_other_direction(capsys):
    code = main(
        [
            "convert",
            "factor",
            EX31,
            "--direction",
            "mu2f",
            "--level",
            "1",
            "--expr",
            helpers.DIM4_MU1,
        ]
    )
    assert code == 0
    assert "round trip returns the input: yes" in capsys.readouterr().out


def test_reports_are_byte_identical(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["reduce", EX31, "--report", str(r1)]) == 0
    assert main(["reduce", EX31, "--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()


def test_policy_flags_are_accepted(capsys):
    code = main(
        ["check", EX31, "involutive", "--seed", "7", "--samples", "25", "--tol", "1e-8"]
    )
    assert code == 0
    capsys.readouterr()


def test_missing_file_is_an_input_error(capsys, tmp_path):
    assert main(["check", str(tmp_path / "nope.json"), "involutive"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert main(["reduce", str(p)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_scenario_key_is_an_input_error(tmp_path, capsys):
    doc = load_example_doc()
    doc["extras"] = []
    path = write_scenario(tmp_path, doc)
    assert main(["check", path, "involutive"]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_bad_expression_is_an_input_error(capsys):
    code = main(
        [
            "verify",
            "factor",
            EX31,
            "--level",
            "2",
            "--kind",
            "symmetrizing",
            "--expr",
            "x2 +",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


# Z2 moves w by exp(2x) - exp(x)^2 + x/1000, so [Z1, Z2] leaves the span.
SAMPLED_FALSE = str(Path(__file__).resolve().parent / "data" / "sampled_shear_false.json")


def test_a_false_sampled_claim_is_refuted_under_the_default_policy(capsys):
    assert main(["check", SAMPLED_FALSE, "involutive"]) == 1
    assert "witness: x = 17/16" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [["--samples", "0"], ["--samples", "-2"], ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"]],
)
def test_a_policy_flag_with_no_evidence_is_an_input_error(capsys, flags):
    assert main(["check", SAMPLED_FALSE, "involutive"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: policy ")


@pytest.mark.parametrize("policy", [{"tol": float("nan")}, {"samples": True}])
def test_a_scenario_policy_with_no_evidence_is_an_input_error(tmp_path, capsys, policy):
    doc = json.loads(Path(SAMPLED_FALSE).read_text())
    doc["policy"] = policy
    assert main(["check", write_scenario(tmp_path, doc), "involutive"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: policy ")


@pytest.mark.parametrize("level", ["0", "3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "factor", EX31, "--kind", "symmetrizing", "--expr", "x2"],
        ["convert", "factor", EX31, "--direction", "f2mu", "--expr", "x2"],
    ],
)
def test_a_level_out_of_range_is_an_input_error(capsys, argv, level):
    assert main(argv + ["--level", level]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level %s out of range 1..2\n" % level


@pytest.mark.parametrize(
    "argv, level",
    [
        (["verify", "factor", SAMPLED_FALSE, "--kind", "symmetrizing", "--expr", "y"], "9"),
        (["convert", "factor", SAMPLED_FALSE, "--direction", "f2mu", "--expr", "y"], "0"),
    ],
)
def test_a_bad_level_is_an_input_error_before_the_structure_is_certified(capsys, argv, level):
    # The scenario's structure fails, but the level is checked first.
    assert main(argv + ["--level", level]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level %s out of range 1..2\n" % level


@pytest.mark.parametrize(
    "argv",
    [
        ["check", SAMPLED_FALSE, "cinf-structure"],
        ["reduce", SAMPLED_FALSE],
        ["factors", SAMPLED_FALSE, "--emit-solvable"],
        ["verify", "factor", SAMPLED_FALSE, "--level", "1", "--kind", "symmetrizing", "--expr", "y"],
        ["convert", "factor", SAMPLED_FALSE, "--direction", "f2mu", "--level", "1", "--expr", "y"],
    ],
)
def test_a_structure_refuted_by_its_involutivity_names_the_failing_check(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    failed = lines.index("FAILED")
    assert lines[failed + 1 : failed + 3] == [
        "  failing: [Z1, Z2] in span",
        "    witness: x = 17/16",
    ]


@pytest.mark.parametrize("expr", ["x1*\u00b2", "2\u00b2", "\u0661\u0662"])
def test_a_non_ascii_digit_is_an_input_error(capsys, expr):
    argv = ["verify", "factor", EX31, "--level", "1", "--kind", "symmetrizing", "--expr", expr]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unexpected character ")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "factor", EX31])  # missing required flags
    assert exc.value.code == 2
    capsys.readouterr()
