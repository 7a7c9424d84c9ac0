import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rdsymm
from rdsymm import cli
from rdsymm.cli import main


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def sysfile(tmp_path):
    return _write(tmp_path, "system.json", {
        "m": 1,
        "family": {"kind": "triangular", "a": "a"},
        "f1": "u^2", "f2": "u*v",
        "params": {"a": "free"},
    })


def test_verify_holds(tmp_path, sysfile, capsys):
    gen = _write(tmp_path, "gen.json",
                 {"eta": "1", "xi": ["0"], "pi": ["0", "0"]})
    code = main(["verify", sysfile, gen])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["verdict"] == "holds"


def test_verify_fails(tmp_path, sysfile, capsys):
    gen = _write(tmp_path, "gen.json",
                 {"eta": "0", "xi": ["0"], "pi": ["-1", "0"]})
    code = main(["verify", sysfile, gen])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verdict"] == "fails"


def test_verify_undecided_exits_1(tmp_path, capsys):
    system = _write(tmp_path, "system.json", {
        "m": 1, "family": {"kind": "triangular", "a": "1"},
        "f1": "ln(-1 - u^2)", "f2": "0",
    })
    gen = _write(tmp_path, "gen.json", {"pi": ["-u", "-v"]})
    code = main(["verify", system, gen])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verdict"] == "undecided"
    assert out["decision_path"] == "numeric+normalize"


def test_verify_a_residual_zero_only_by_sampling_is_undecided(tmp_path,
                                                              capsys):
    # f1 is 0, but no exact layer knows sin(2u) = 2 sin(u) cos(u)
    system = _write(tmp_path, "system.json", {
        "m": 1, "family": {"kind": "triangular", "a": "1"},
        "f1": "sin(2*u) - 2*sin(u)*cos(u)", "f2": "0",
    })
    gen = _write(tmp_path, "gen.json", {"pi": ["1", "0"]})
    code = main(["verify", system, gen])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verdict"] == "undecided"
    assert out["decision_path"] == "numeric+normalize"


def test_canon(tmp_path, capsys):
    """The whole output, witness text included, for a g3 and a g4 orbit."""
    cases = [
        ([["0", "0", "0"], ["1", "0", "0"], ["2", "0", "0"]],
         {"label": "g3", "scale": "1",
          "canonical": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]],
          "witness": [["1", "0", "0"], ["0", "1", "0"], ["0", "-2", "1"]]}),
        ([["0", "0", "0"], ["1", "2", "0"], ["3", "4", "2"]],
         {"label": "g4", "scale": "1/2", "invariant": "2",
          "canonical": [["0", "0", "0"], ["0", "1", "0"], ["0", "2", "1"]],
          "witness": [["1", "0", "0"], ["1/2", "1", "0"], ["1/2", "0", "1"]]}),
    ]
    for matrix, expect in cases:
        code = main(["canon", _write(tmp_path, "m.json", matrix)])
        assert code == 0 and json.loads(capsys.readouterr().out) == expect


@pytest.mark.parametrize("matrix", [
    [["0", "0", "0"], ["1", "1"], ["1", "0", "1"]],
    [["0", "0", "0"], 5, ["1", "0", "1"]],
    [["0", "0", "0"], ["a", "0", "0"], ["0", "0", "0"]],
    [["0", "0", "0"], ["1", "0", "0"], [None, "0", "0"]],
], ids=["short_row", "row_not_an_array", "needs_a_case_split", "entry_null"])
def test_canon_input_faults_exit_2_with_one_line(tmp_path, capsys, matrix):
    assert main(["canon", _write(tmp_path, "m.json", matrix)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_canon_of_an_undecided_entry_exits_1_with_one_line(tmp_path, capsys):
    matrix = [["0", "0", "0"], ["1", "0", "sin(2*t) - 2*sin(t)*cos(t)"],
              ["0", "0", "0"]]
    assert main(["canon", _write(tmp_path, "m.json", matrix)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("undecided: could not decide")
    assert captured.out.count("\n") == 1


def test_commutator(tmp_path, capsys, monkeypatch):
    x = _write(tmp_path, "x.json", {"eta": "t", "xi": ["x1/2"],
                                    "pi": ["0", "0"]})
    y = _write(tmp_path, "y.json", {"eta": "1", "xi": ["0"],
                                    "pi": ["0", "0"]})
    reads = []
    load_json = cli._load_json

    def counting(path, *args):
        reads.append(path)
        return load_json(path, *args)

    monkeypatch.setattr(cli, "_load_json", counting)
    code = main(["commutator", x, y])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["eta"] == "-1"
    # each generator file is read once
    assert reads == [x, y]


def test_verify_fails_on_sign_ambiguous_trig_argument(tmp_path, capsys):
    # sin's argument v*(nu - 4) and its negation both lead with a negative
    # coefficient; expanding the residual must still terminate
    system = _write(tmp_path, "system.json", {
        "m": 1, "family": {"kind": "triangular", "a": "1"},
        "f1": "cos(x1)*sin(v*(nu-4))", "f2": "u*v",
        "params": {"nu": "free"},
    })
    gen = _write(tmp_path, "gen.json", {"xi": ["1"]})
    code = main(["verify", system, gen])
    captured = capsys.readouterr()
    assert code == 1 and json.loads(captured.out)["verdict"] == "fails"
    assert captured.err == ""


@pytest.mark.parametrize("gen", [{"eta": "1"}, {"eta": "1", "pi": ["u", "v"]}],
                         ids=["time_shift", "time_shift_and_scaling"])
def test_verify_gets_a_verdict_beyond_float_range(tmp_path, capsys, gen):
    # (t+1)^4999 leaves the float range at the sampled points
    system = _write(tmp_path, "system.json", {
        "m": 1, "family": {"kind": "triangular", "a": "1"},
        "f1": "u", "f2": "(t+1)^5000*v",
    })
    code = main(["verify", system, _write(tmp_path, "gen.json", gen)])
    captured = capsys.readouterr()
    assert code == 1 and json.loads(captured.out)["verdict"] == "fails"
    assert captured.err == ""


def test_verify_gets_a_verdict_for_a_huge_integral_power(tmp_path):
    # u^(10^30) has no exact value of any practical size: the numeric layer
    # takes the mpmath power; in a subprocess, so a hang fails the test
    system = _write(tmp_path, "system.json", {
        "m": 1, "family": {"kind": "triangular", "a": "1"},
        "f1": "u^(10^30)", "f2": "v",
    })
    gen = _write(tmp_path, "gen.json",
                 {"eta": "0", "xi": ["x1"], "pi": ["u", "v"]})
    src = Path(rdsymm.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-m", "rdsymm.cli", "verify", system, gen],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=60)
    assert out.returncode == 1 and out.stderr == ""
    assert json.loads(out.stdout)["verdict"] == "fails"


def test_verify_fails_on_squares_of_negative_sines(tmp_path, capsys):
    # sin(t+k) is negative at many sampled t; its square must still be
    # evaluated, not resampled until the decision gives up
    system = _write(tmp_path, "system.json", {
        "m": 1, "family": {"kind": "triangular", "a": "1"},
        "f1": "x1*sin(t)^2*sin(t+1)^2*sin(t+2)^2*sin(t+3)^2", "f2": "u*v",
    })
    gen = _write(tmp_path, "gen.json", {"eta": "1"})
    code = main(["verify", system, gen])
    out = json.loads(capsys.readouterr().out)
    assert code == 1 and out["verdict"] == "fails"
    assert out["counterexample"]


@pytest.mark.parametrize("f1, pi1", [("3^10000*u^2", "u"),
                                     ("u^2", "1" + "0" * 4999)],
                         ids=["long_power", "long_literal"])
def test_numbers_too_long_to_print_exit_2(tmp_path, capsys, f1, pi1):
    system = _write(tmp_path, "system.json", {
        "m": 1, "family": {"kind": "triangular", "a": "1"},
        "f1": f1, "f2": "v",
    })
    gen = _write(tmp_path, "gen.json",
                 {"eta": "0", "xi": ["0"], "pi": [pi1, "v"]})
    code = main(["verify", system, gen])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_2(tmp_path):
    bad = _write(tmp_path, "bad.json", {"m": 1})
    assert main(["verify", bad, bad]) == 2


def test_parse_error_exit_2(tmp_path, sysfile):
    gen = _write(tmp_path, "gen.json",
                 {"eta": "1 +", "xi": ["0"], "pi": ["0", "0"]})
    assert main(["verify", sysfile, gen]) == 2


def test_corpus_run_filtered(tmp_path, capsys):
    out_json = str(tmp_path / "report.json")
    Path(out_json).write_text("an older, longer report\n" * 1000)
    code = main(["corpus", "run", "--table", "3", "--seed", "1",
                 "--json", out_json])
    assert code == 0
    with open(out_json) as fh:
        report = json.load(fh)
    assert report["counts"]["pass"] >= 3
    text = capsys.readouterr().out
    assert "T3.3*: pass" in text


def test_equiv_apply(tmp_path, sysfile, capsys):
    tr = _write(tmp_path, "tr.json",
                {"kind": "linear", "params": {"K1": "2"}})
    code = main(["equiv", "apply", sysfile, tr])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["family"]["kind"] == "triangular"


@pytest.mark.parametrize("m", [1, 2])
def test_equiv_apply_aet_takes_m_from_the_system(tmp_path, capsys, m):
    # u -> u + om*t + k*x^2 adds om - 2*m*a*k to f1
    system = _write(tmp_path, "system.json", {
        "m": m, "family": {"kind": "triangular", "a": "a"},
        "f1": "lam*v^(nu+1)", "f2": "mu*v^(nu+1)"})
    tr = _write(tmp_path, "tr.json", {"kind": "aet", "index": 2,
                                      "params": {"omega": "om", "mu": "k"}})
    assert main(["equiv", "apply", system, tr]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["f1"] == f"om - {2 * m}*a*k + lam*v^(1 + nu)"


def test_equiv_apply_inapplicable(tmp_path, sysfile, capsys):
    tr = _write(tmp_path, "tr.json", {"kind": "vshift", "phi": "u^2"})
    code = main(["equiv", "apply", sysfile, tr])
    assert code == 1
    assert "error" in json.loads(capsys.readouterr().out)


def test_equiv_apply_both_vshift_kinds_build_one_shift(tmp_path, capsys):
    a0 = {"m": 1, "family": {"kind": "triangular", "a": "0"}}
    system = _write(tmp_path, "system.json", {**a0, "f1": "v", "f2": "u*v"})
    outputs = []
    for payload in ({"kind": "vshift", "phi": "u^2"},
                    {"kind": "vshift_full", "phihat": "u^2"}):
        tr = _write(tmp_path, "tr.json", payload)
        assert main(["equiv", "apply", system, tr]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert (outputs[0]["f1"], outputs[0]["f2"]) == ("v - u^2",
                                                    "-3*u^3 + 3*u*v")

    # a shift in t is applied only when it solves the admissibility system
    system = _write(tmp_path, "system.json",
                    {**a0, "f1": "F1(u)", "f2": "F2(u)"})
    tr = _write(tmp_path, "tr.json", {"kind": "vshift_full", "phihat": "t"})
    assert main(["equiv", "apply", system, tr]) == 0
    assert json.loads(capsys.readouterr().out)["f2"] == "1 + F2(u)"
    tr = _write(tmp_path, "tr.json", {"kind": "vshift_full", "phihat": "t^2"})
    assert main(["equiv", "apply", system, tr]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error.startswith("shift violates the admissibility system")


def test_equiv_apply_an_undecided_admissibility_exits_1_with_one_line(
        tmp_path, capsys):
    # a residual zero only by sin(2*x1) = 2*sin(x1)*cos(x1) is no refusal
    a0 = {"m": 1, "family": {"kind": "triangular", "a": "0"}}
    system = _write(tmp_path, "system.json",
                    {**a0, "f1": "F1(u)", "f2": "v + F2(u)"})
    tr = _write(tmp_path, "tr.json", {
        "kind": "vshift_full", "phihat": "sin(2*x1) - 2*sin(x1)*cos(x1)"})
    assert main(["equiv", "apply", system, tr]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("undecided: could not decide the "
                                   "admissibility system")
    assert captured.out.count("\n") == 1 and captured.err == ""


def test_equiv_apply_scales_the_drift_magnitude(tmp_path, capsys):
    system = _write(tmp_path, "system.json", {
        "m": 1, "family": {"kind": "drift", "p": "1"}, "f1": "0", "f2": "0"})
    tr = _write(tmp_path, "tr.json", {"kind": "linear",
                                      "params": {"lam": "3"}})
    assert main(["equiv", "apply", system, tr]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["family"] == {"kind": "drift", "p": "3"}


def test_equiv_apply_degenerate_linear_exits_1(tmp_path, sysfile, capsys):
    tr = _write(tmp_path, "tr.json", {"kind": "linear",
                                      "params": {"K1": "0"}})
    assert main(["equiv", "apply", sysfile, tr]) == 1
    assert "error" in json.loads(capsys.readouterr().out)


_TRIANGULAR = {"m": 1, "family": {"kind": "triangular", "a": "1"},
               "f1": "u^2", "f2": "u*v"}
_GEN = {"eta": "1", "xi": ["0"], "pi": ["0", "0"]}


@pytest.mark.parametrize("command, system, other", [
    ("verify", {**_TRIANGULAR, "m": 0}, {**_GEN, "xi": []}),
    ("verify", {**_TRIANGULAR, "f1": "x1/0"}, _GEN),
    ("equiv", _TRIANGULAR, {"kind": "aet", "params": {}}),
    ("equiv", _TRIANGULAR, {"kind": "aet", "index": 42, "params": {}}),
    ("equiv", _TRIANGULAR, {"kind": "aet", "index": 1.9,
                            "params": {"omega": "om"}}),
    ("equiv", _TRIANGULAR, {"kind": "aet", "index": True,
                            "params": {"omega": "om"}}),
    ("verify", [1, 2], _GEN),
    ("commutator", [1, 2], [1, 2]),
    ("verify", {**_TRIANGULAR, "constraints": ["a"]}, _GEN),
    ("verify", {**_TRIANGULAR, "f1": "(" * 3000 + "u" + ")" * 3000}, _GEN),
    ("verify", {**_TRIANGULAR, "m": 2}, {**_GEN, "xi": "x1"}),
    ("verify", _TRIANGULAR, {**_GEN, "pi": "uv"}),
    ("verify", _TRIANGULAR, {**_GEN, "pi": ["0", "0", "u"]}),
    ("commutator", {**_GEN, "xi": "x"}, {**_GEN, "xi": "x"}),
    ("verify", {**_TRIANGULAR, "m": 2.7}, {**_GEN, "xi": ["0", "0"]}),
    ("verify", {**_TRIANGULAR, "m": True}, _GEN),
    ("verify", {**_TRIANGULAR, "m": 2, "f1": "u_x3", "f2": "v"},
     {**_GEN, "xi": ["0", "0"]}),
    ("verify", {**_TRIANGULAR, "m": 2},
     {**_GEN, "eta": "u_x3", "xi": ["0", "0"]}),
    ("verify", {**_TRIANGULAR, "m": 2, "f1": "u_x3", "f2": "v"},
     {"eta": "0", "xi": ["0", "0"], "pi": ["0", "0"]}),
    ("verify", {**_TRIANGULAR, "f1": "u_x1x1x1x1x1"}, _GEN),
    ("verify", {**_TRIANGULAR, "f1": "u_t"}, {**_GEN, "pi": ["u", "v"]}),
    ("verify", {**_TRIANGULAR, "f1": "u_t"}, {**_GEN, "eta": "u_x1"}),
    ("verify", {**_TRIANGULAR, "family": {"kind": "drift", "p": "1"},
                "f2": "u*v_tx1"}, _GEN),
    ("equiv", _TRIANGULAR, {"kind": "linear",
                            "params": {"k1": "2", "lam": "3"}}),
    ("equiv", _TRIANGULAR, {"kind": "aet", "index": 2,
                            "params": {"omega": "om", "mu": "k", "m": "1"}}),
    ("verify", {**_TRIANGULAR, "f1": None}, _GEN),
    ("verify", {**_TRIANGULAR, "f2": True}, _GEN),
    ("verify", {**_TRIANGULAR, "family": {"kind": "triangular", "a": None}},
     {**_GEN, "pi": [None, "u"]}),
    ("verify", {**_TRIANGULAR, "family": {"kind": "drift", "p": False}},
     _GEN),
    ("verify", {**_TRIANGULAR, "family": {"kind": "drift", "p": "0"}}, _GEN),
    ("equiv", {**_TRIANGULAR, "family": {"kind": "drift", "p": "0"}},
     {"kind": "linear", "params": {"lam": "2"}}),
    ("verify", {**_TRIANGULAR, "f1": "k*u", "params": {"k": None}}, _GEN),
    ("verify", _TRIANGULAR, {**_GEN, "eta": None}),
    ("verify", _TRIANGULAR, {**_GEN, "xi": [True]}),
    ("verify", _TRIANGULAR, {**_GEN, "pi": ["0", None]}),
    ("commutator", {**_GEN, "xi": [None]}, _GEN),
    ("equiv", _TRIANGULAR, {"kind": "linear", "params": {"lam": None}}),
    ("equiv", _TRIANGULAR, {"kind": "vshift", "phi": True}),
    ("equiv", _TRIANGULAR, {"kind": "vshift_full", "phihat": None}),
    ("verify", _TRIANGULAR, {**_GEN, "pi": ["u_xxxxx", "0"]}),
    ("verify", {**_TRIANGULAR, "f2": "v_y"}, _GEN),
    ("verify", {**_TRIANGULAR, "f1": "x2*u"}, _GEN),
    ("verify", _TRIANGULAR, {**_GEN, "eta": "x2"}),
], ids=["m0", "division_by_zero", "aet_without_index", "aet_index_42",
        "aet_index_fractional", "aet_index_boolean",
        "array_system", "array_generator", "constraints", "nested_3000",
        "xi_string", "pi_string", "pi_three", "commutator_xi_string",
        "m_fractional", "m_boolean",
        "jet_index_beyond_m_in_system", "jet_index_beyond_m_in_generator",
        "jet_index_beyond_m_with_the_zero_generator",
        "jet_beyond_order_cap_with_a_translation",
        "t_jet_in_f1_with_a_vertical_generator",
        "t_jet_in_f1_with_a_jet_coefficient", "t_jet_in_f2_of_a_drift",
        "linear_unknown_param", "aet_gives_m",
        "f1_null", "f2_boolean", "a_and_pi1_null", "p_boolean",
        "drift_p_zero", "equiv_drift_p_zero",
        "param_value_null", "eta_null", "xi_boolean", "pi2_null",
        "commutator_xi_null", "linear_param_null", "vshift_phi_boolean",
        "vshift_full_phihat_null", "malformed_jet_in_pi1",
        "malformed_jet_in_f2", "coordinate_beyond_m_in_f1",
        "coordinate_beyond_m_in_eta"])
def test_input_faults_exit_2_with_one_line(tmp_path, capsys, command, system,
                                           other):
    first = _write(tmp_path, "first.json", system)
    second = _write(tmp_path, "second.json", other)
    argv = ([command, first, second] if command != "equiv"
            else ["equiv", "apply", first, second])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_zero_to_a_positive_power_is_zero(tmp_path, capsys):
    # 0^u is 0 on the domain (u > 0): it gets the verdict f1 = 0 gets
    gen = _write(tmp_path, "gen.json", {"eta": "0", "xi": ["0"],
                                        "pi": ["u", "0"]})
    outs = []
    for f1 in ("0^u", "0"):
        system = _write(tmp_path, "system.json",
                        {**_TRIANGULAR, "f1": f1, "f2": "v"})
        outs.append((main(["verify", system, gen]), capsys.readouterr()))
    assert outs[0] == outs[1]
    code, captured = outs[0]
    assert code == 1 and json.loads(captured.out)["verdict"] == "fails"
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["--table", "2", "--m", "7"],
                                  ["--item", "nosuch"], ["--table", "11"]],
                         ids=["no_row_at_m", "no_such_item", "no_such_table"])
def test_corpus_run_selecting_no_row_exits_2(capsys, argv):
    assert main(["corpus", "run", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err.splitlines()[-1]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
def test_corpus_run_to_an_unwritable_report_exits_2_before_running(
        tmp_path, capsys, monkeypatch, where):
    path = tmp_path / "no" / "out.json" if where == "missing_dir" else tmp_path

    def never(*args, **kw):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(rdsymm.cli, "run_suite", never)
    assert main(["corpus", "run", "--table", "3", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert captured.err.count("\n") == 1


def test_corpus_run_selecting_no_row_keeps_the_last_report(tmp_path):
    report = tmp_path / "report.json"
    report.write_text('{"counts": {}}\n')
    assert main(["corpus", "run", "--item", "nosuch",
                 "--json", str(report)]) == 2
    assert report.read_text() == '{"counts": {}}\n'
