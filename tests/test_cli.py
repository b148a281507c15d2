"""Command-line behavior: exit codes, artifacts, determinism, schemas."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import jsonschema
import pytest

import funcobs
from funcobs.cli import (
    CliInputError,
    RunConfig,
    _build_parser,
    data_path,
    main,
    parse_floats,
    parse_init,
    parse_poles,
)
from funcobs.system import builtin_batch_reactor, builtin_cstr, save_system

PSI_BATCH = str(data_path("psi_batch.json"))


def _read(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# flag parsing

def test_parse_poles_forms():
    assert parse_poles("-2") == (complex(-2),)
    assert parse_poles("-1,-2.5") == (complex(-1), complex(-2.5))
    assert parse_poles("-1+2i,-1-2i") == (complex(-1, 2), complex(-1, -2))
    with pytest.raises(CliInputError):
        parse_poles("nope")
    with pytest.raises(CliInputError):
        parse_poles("")


def test_parse_init_forms():
    assert parse_init("exact") == ("exact", None)
    assert parse_init("offset=0.25") == ("offset", 0.25)
    assert parse_init("explicit=0,1.5") == ("explicit", (0.0, 1.5))
    with pytest.raises(CliInputError):
        parse_init("offset=x")
    with pytest.raises(CliInputError):
        parse_init("midpoint")


def test_parse_floats():
    assert parse_floats("1,0.2,0") == (1.0, 0.2, 0.0)
    with pytest.raises(CliInputError):
        parse_floats("1,zz")


# the option strings each subcommand takes, besides -h/--help
COMMAND_OPTIONS = {
    "analyze": "--builtin --m-max --out --psi --samples --seed --v-max",
    "synthesize": "--allow-unstable --builtin --linear --out --poles --psi --samples --seed --v-max",
    "simulate": "--builtin --dt --init --linear --observer --out --samples --seed --t-final --x0",
    "demo": "--dt --out --samples --seed --t-final --v-max",
}


def _subparsers() -> dict:
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_each_command_takes_its_options():
    commands = _subparsers()
    assert sorted(commands) == sorted(COMMAND_OPTIONS)
    for name, parser in commands.items():
        found = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert found == set(COMMAND_OPTIONS[name].split()), name


def test_parser_defaults_live_in_run_config():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    for name, parser in _subparsers().items():
        for action in parser._actions:
            if action.dest == "help":
                continue
            assert action.dest in fields, (name, action.dest)
            # synthesize searches for an observer order past RunConfig's v_max
            want = 5 if (name, action.dest) == ("synthesize", "v_max") else None
            assert action.default == want, (name, action.dest)


# ---------------------------------------------------------------------------
# analyze

def test_analyze_builtin(tmp_path, capsys, load_schema):
    rc = main(["analyze", "--builtin", "batch-reactor", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "defaults: dt=0.001, samples=100, seed=42, t_final=10.0" in out
    assert "rank saturates at 2 < 3" in out
    assert "functional index candidate: v=1" in out
    payload = _read(tmp_path / "analysis.json")
    jsonschema.validate(payload, load_schema("analysis.schema.json"))
    assert payload["observability_index"] is None
    assert payload["functional_index_candidate"] == 1


def test_analyze_reports_no_observer_order(tmp_path, capsys, load_schema):
    # cC is not functionally observable from cB at any order up to v_max
    sys_path = tmp_path / "sys.json"
    save_system(dataclasses.replace(builtin_batch_reactor(), q="cC"), sys_path)
    rc = main(["analyze", str(sys_path), "--out", str(tmp_path)])
    assert rc == 0
    assert "functional index candidate: none found up to v_max=3" in capsys.readouterr().out
    payload = _read(tmp_path / "analysis.json")
    jsonschema.validate(payload, load_schema("analysis.schema.json"))
    assert payload["functional_index_candidate"] is None
    check = payload["functional_rank_check"]
    assert not check["holds"]
    assert (check["n_agree"], check["n_checked"]) == (0, 100)


def test_analyze_cstr_high_order(tmp_path):
    rc = main(["analyze", "--builtin", "cstr", "--m-max", "12", "--out", str(tmp_path)])
    assert rc == 0
    payload = _read(tmp_path / "analysis.json")
    assert [row["max_rank"] for row in payload["rank_table"]] == [2] + [3] * 11
    assert payload["observability_index"] == 2


def test_analyze_orders_past_int64_factorials(tmp_path, capsys):
    # 21! overflows int64; 171! overflows a double and is refused
    rc = main(["analyze", "--builtin", "batch-reactor", "--m-max", "22", "--out", str(tmp_path)])
    assert rc == 0
    assert len(_read(tmp_path / "analysis.json")["rank_table"]) == 22
    capsys.readouterr()
    for orders in (["--m-max", "172"], ["--m-max", "172", "--v-max", "200"]):
        rc = main(["analyze", "--builtin", "batch-reactor", *orders, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "derivative order 172 exceeds 171: 171! is not a finite double" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["analyze", "--builtin", "cstr"], ["demo", "batch", "--t-final", "1"], ["demo", "cstr", "--t-final", "1"]],
    ids=["analyze", "demo-batch", "demo-cstr"],
)
def test_one_jets_pass_per_run(tmp_path, monkeypatch, args):
    # the three rank tests read one table, built at order max(m_max, v_max + 1)
    orders = []
    jets = funcobs.observability.flow_derivatives

    def counted(sys_, exprs, order, pts):
        orders.append(order)
        return jets(sys_, exprs, order, pts)

    monkeypatch.setattr(funcobs.observability, "flow_derivatives", counted)
    assert main([*args, "--out", str(tmp_path)]) == 0
    assert orders == [6]


def test_analyze_system_file_deterministic(tmp_path):
    sys_path = tmp_path / "sys.json"
    save_system(builtin_batch_reactor(), sys_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(
            [
                "analyze",
                str(sys_path),
                "--m-max",
                "4",
                "--samples",
                "200",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
    assert (a / "analysis.json").read_bytes() == (b / "analysis.json").read_bytes()


@pytest.mark.parametrize(
    "builtin, name, psi",
    [(builtin_batch_reactor, "batch-reactor", "psi_batch.json"), (builtin_cstr, "cstr", "psi_cstr.json")],
    ids=["batch-reactor", "cstr"],
)
def test_saved_builtin_analyzes_as_the_builtin(tmp_path, builtin, name, psi):
    # a builtin's parameters are varied by saving it, editing the file and analyzing that
    sys_path = tmp_path / "sys.json"
    save_system(builtin(), sys_path)
    psi = str(data_path(psi))
    assert main(["analyze", str(sys_path), "--psi", psi, "--out", str(tmp_path / "file")]) == 0
    assert main(["analyze", "--builtin", name, "--psi", psi, "--out", str(tmp_path / "builtin")]) == 0
    from_file, from_builtin = (_read(tmp_path / d / "analysis.json") for d in ("file", "builtin"))
    assert from_file["system"].pop("source") == str(sys_path)
    assert from_builtin["system"].pop("source") == name
    assert from_file == from_builtin


def test_analyze_with_psi(tmp_path, capsys, load_schema):
    rc = main(
        ["analyze", "--builtin", "batch-reactor", "--psi", PSI_BATCH, "--out", str(tmp_path)]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    payload = _read(tmp_path / "analysis.json")
    jsonschema.validate(payload, load_schema("analysis.schema.json"))
    assert payload["psi_check"]["passed"]


def test_analyze_missing_file_exit_2(capsys):
    assert main(["analyze", "no_such_file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_file_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["analyze", str(path)]) == 2
    assert f"error: {path}: invalid JSON ('utf-8' codec can't decode" in capsys.readouterr().err


def test_psi_nested_too_deeply_exit_2(tmp_path, capsys):
    path = tmp_path / "psi.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["analyze", "--builtin", "batch-reactor", "--psi", str(path)]) == 2
    assert f"error: {path}: invalid JSON (maximum recursion depth" in capsys.readouterr().err


def test_analyze_requires_some_system(capsys):
    assert main(["analyze"]) == 2


def test_unknown_builtin_exit_2(capsys):
    assert main(["analyze", "--builtin", "pendulum"]) == 2


def test_psi_constant_past_double_range_exit_2(tmp_path, capsys):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"v": 1, "psi": ["10^400*0.5*w0_1", "w1_1"]}))
    assert main(["analyze", "--builtin", "batch-reactor", "--psi", str(psi)]) == 2
    assert "error: a constant in" in capsys.readouterr().err


def test_non_string_expression_in_a_file_exit_2(tmp_path, capsys):
    raw = builtin_batch_reactor().to_dict()
    raw["q"] = 1
    sys_path, psi_path = tmp_path / "sys.json", tmp_path / "psi.json"
    sys_path.write_text(json.dumps(raw))
    psi_path.write_text(json.dumps({"v": 1, "psi": ["x", 3]}))
    for args, message in (
        ([str(sys_path)], "error: system definition: 'q' must be a string, got 1"),
        (["--builtin", "batch-reactor", "--psi", str(psi_path)], "'psi[1]' must be a string, got 3"),
    ):
        assert main(["analyze", *args]) == 2
        assert message in capsys.readouterr().err


def test_negative_seed_exit_2(capsys):
    with pytest.raises(CliInputError, match="--seed must be >= 0"):
        RunConfig(command="analyze", seed=-1)
    assert main(["analyze", "--builtin", "batch-reactor", "--seed", "-1"]) == 2
    assert "error: --seed must be >= 0" in capsys.readouterr().err


def test_box_wider_than_the_double_range_exit_2(tmp_path, capsys):
    raw = builtin_batch_reactor().to_dict()
    raw["box"]["cA"] = [-1e308, 1e308]
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(raw))
    assert main(["analyze", str(path)]) == 2
    assert "error: box interval for 'cA' is wider than the double range" in capsys.readouterr().err


def test_states_given_as_a_string_exit_2(tmp_path, capsys):
    raw = {"states": "xy", "f": ["-x", "-y"], "h": ["x"], "q": "y", "box": {"x": [0, 1], "y": [0, 1]}}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(raw))
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: system definition: 'states' must be a list, got 'xy'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "analysis.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: json.loads(json.dumps(raw).replace("cC", "w0_9")),
         "state name 'w0_9' collides with the measurement-derivative convention"),
        (lambda raw: json.loads(json.dumps(raw).replace("cC", "exp")),
         "state name 'exp' shadows a function name"),
        (lambda raw: {**raw, "box": {k: b for k, b in raw["box"].items() if k != "cC"}},
         "box does not cover state 'cC'"),
        (lambda raw: {**raw, "params": {**raw["params"], "k1": float("nan")}},
         "parameter 'k1' is not finite"),
    ],
    ids=["w-name", "function-name", "box-gap", "nan-param"],
)
def test_system_file_check_exit_2(tmp_path, capsys, edit, message):
    path = tmp_path / "sys.json"
    save_system(builtin_batch_reactor(), path)
    path.write_text(json.dumps(edit(_read(path))))
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_psi_check_with_every_sum_overflowing_exit_2(tmp_path, capsys):
    # x + y overflows past the double range at every sample of the box
    sys_path, psi_path = tmp_path / "sys.json", tmp_path / "psi.json"
    box = [1e308, 1.5e308]
    sys_path.write_text(json.dumps({"states": ["x", "y"], "f": ["0", "0"], "h": ["x", "y"],
                                    "q": "x + y", "box": {"x": box, "y": box}}))
    psi_path.write_text(json.dumps({"v": 1, "psi": ["w0_1 + w0_2", "w1_1 + w1_2"]}))
    assert main(["analyze", str(sys_path), "--psi", str(psi_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 100/100 sample points failed to evaluate: ")
    assert "overflow in sum in 'x + y'" in err


def test_all_samples_failing_exit_2(tmp_path, capsys):
    raw = builtin_batch_reactor().to_dict()
    path = tmp_path / "sys.json"
    # 10^400 is inf as a double: inf/inf is nan wherever it enters
    for edit, what in (
        ({"f": ["-10^400*k1*cA/10^400", *raw["f"][1:]]}, "order-2 derivative of output h[0]"),
        ({"q": "10^400*cA/10^400"}, "order-0 derivative of the target q"),  # h never fails
    ):
        path.write_text(json.dumps({**raw, **edit}))
        assert main(["analyze", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: all 100 sample points failed to evaluate; at the first (cA=" in err
        assert f"the gradient of the {what} is not finite" in err


# ---------------------------------------------------------------------------
# synthesize

def test_synthesize_batch(tmp_path, capsys, load_schema):
    rc = main(
        [
            "synthesize",
            "--builtin",
            "batch-reactor",
            "--psi",
            PSI_BATCH,
            "--poles=-2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "invariance check: PASS" in out
    obs = _read(tmp_path / "observer.json")
    jsonschema.validate(obs, load_schema("observer.schema.json"))
    assert obs["v"] == 1
    assert obs["alphas"] == [2.0]
    rep = _read(tmp_path / "synthesis.json")
    jsonschema.validate(rep, load_schema("synthesis.schema.json"))
    assert rep["invariance"]["passed"]


def test_synthesize_unstable_exit_3(tmp_path, capsys):
    rc = main(
        [
            "synthesize",
            "--builtin",
            "batch-reactor",
            "--psi",
            PSI_BATCH,
            "--poles",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 3
    assert "left half plane" in capsys.readouterr().err


def test_synthesize_wrong_psi_exit_2(tmp_path, capsys):
    # cstr representation against the batch reactor: symbols don't resolve
    rc = main(
        [
            "synthesize",
            "--builtin",
            "batch-reactor",
            "--psi",
            str(data_path("psi_cstr.json")),
            "--poles=-2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 2


def test_synthesize_linear(tmp_path, capsys, load_schema):
    import shutil

    lin = tmp_path / "lin.json"
    shutil.copy(data_path("lin_double_integrator.json"), lin)
    rc = main(["synthesize", "--linear", str(lin), "--poles=-3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "A = [[-3.0]]" in out
    assert "B = [[-9.0]]" in out
    obs = _read(tmp_path / "observer.json")
    jsonschema.validate(obs, load_schema("observer.schema.json"))
    assert obs["A"] == [[-3.0]]
    assert obs["D"] == [[3.0]]


# ---------------------------------------------------------------------------
# simulate

def _synth(tmp_path, poles="-2", extra=()):
    rc = main(
        [
            "synthesize",
            "--builtin",
            "batch-reactor",
            "--psi",
            PSI_BATCH,
            f"--poles={poles}",
            "--out",
            str(tmp_path),
            *extra,
        ]
    )
    assert rc in (0, 3)
    return tmp_path / "observer.json"


def test_simulate_exact_init(tmp_path, capsys, load_schema):
    obs = _synth(tmp_path)
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "--builtin",
            "batch-reactor",
            "--observer",
            str(obs),
            "--x0",
            "1,0.2,0.1",
            "--init",
            "exact",
            "--t-final",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    summary = _read(out / "summary.json")
    jsonschema.validate(summary, load_schema("simulation.schema.json"))
    assert summary["event"] is None
    assert summary["max_abs_error"] <= 1e-7
    assert summary["max_invariance_drift"] <= 1e-9
    assert (out / "trace.csv").exists()


def test_simulate_offset_reports_decay(tmp_path, load_schema):
    obs = _synth(tmp_path)
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "--builtin",
            "batch-reactor",
            "--observer",
            str(obs),
            "--x0",
            "1,0.2,0.1",
            "--init",
            "offset=0.1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    summary = _read(out / "summary.json")
    jsonschema.validate(summary, load_schema("simulation.schema.json"))
    assert summary["decay_fit"]["rate"] == pytest.approx(-2.0, rel=0.01)
    assert summary["max_exact_mismatch"] <= 1e-6


def test_simulate_divergence_exit_4(tmp_path, capsys):
    obs = _synth(tmp_path, poles="3", extra=("--allow-unstable",))
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "--builtin",
            "batch-reactor",
            "--observer",
            str(obs),
            "--x0",
            "1,0.2,0.1",
            "--init",
            "offset=0.1",
            "--t-final",
            "15",
            "--out",
            str(out),
        ]
    )
    assert rc == 4
    # truncated trace still written
    assert (out / "trace.csv").exists()
    summary = _read(out / "summary.json")
    assert summary["event"] == "divergence"


def test_simulate_byte_identical(tmp_path):
    obs = _synth(tmp_path)
    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(
            [
                "simulate",
                "--builtin",
                "batch-reactor",
                "--observer",
                str(obs),
                "--x0",
                "1,0.2,0.1",
                "--init",
                "offset=0.05",
                "--t-final",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        runs.append((out / "trace.csv").read_bytes())
    assert runs[0] == runs[1]


def test_simulate_realized_linear(tmp_path, load_schema):
    import shutil

    lin = tmp_path / "lin.json"
    shutil.copy(data_path("lin_double_integrator.json"), lin)
    assert main(["synthesize", "--linear", str(lin), "--poles=-3", "--out", str(tmp_path)]) == 0
    out = tmp_path / "run"
    rc = main(
        [
            "simulate",
            "--linear",
            str(lin),
            "--observer",
            str(tmp_path / "observer.json"),
            "--x0",
            "0,1",
            "--init",
            "offset=-1",
            "--t-final",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    summary = _read(out / "summary.json")
    jsonschema.validate(summary, load_schema("simulation.schema.json"))
    assert summary["mode"] == "realized-linear"
    assert summary["max_exact_mismatch"] <= 1e-6
    assert summary["decay_fit"]["rate"] == pytest.approx(-3.0, rel=0.01)


def test_simulate_explicit_init_wrong_length_exit_2(tmp_path):
    obs = _synth(tmp_path)
    rc = main(
        [
            "simulate",
            "--builtin",
            "batch-reactor",
            "--observer",
            str(obs),
            "--x0",
            "1,0.2,0.1",
            "--init",
            "explicit=0,0",
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 2


def test_simulate_requires_observer(tmp_path):
    assert main(["simulate", "--builtin", "batch-reactor", "--x0", "1,0.2,0.1"]) == 2


def test_simulate_empty_init_exit_2(tmp_path, capsys):
    obs = _synth(tmp_path)
    capsys.readouterr()
    out = tmp_path / "run"
    rc = main(
        ["simulate", "--builtin", "batch-reactor", "--observer", str(obs), "--x0=1,0.2,0.1",
         "--init=", "--out", str(out)]
    )
    assert rc == 2
    assert "error: --init must be" in capsys.readouterr().err
    assert not out.exists()


BATCH_X0 = ["--builtin", "batch-reactor", "--x0=1,0.2,0.1"]
LIN_X0 = ["--linear", str(data_path("lin_double_integrator.json")), "--x0=0,1"]


def _linear_observer_file(tmp_path):
    """observer.json of the double integrator (one measurement), poles at -3."""
    lin = str(data_path("lin_double_integrator.json"))
    assert main(["synthesize", "--linear", lin, "--poles=-3", "--out", str(tmp_path)]) == 0
    return tmp_path / "observer.json"


def test_simulate_realized_observer_off_its_realization_exit_2(tmp_path, capsys):
    path = _linear_observer_file(tmp_path)
    path.write_text(json.dumps({**_read(path), "A": [[5.0]], "C": [[7.0]]}))
    capsys.readouterr()
    out = tmp_path / "run"
    rc = main(["simulate", *LIN_X0, "--observer", str(path), "--t-final", "1", "--out", str(out)])
    assert rc == 2
    assert f"{path}: 'A' is [[5.0]], but the realization" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_realized_observer_for_another_output_count_exit_2(tmp_path, capsys):
    path = _linear_observer_file(tmp_path)
    two_outputs = tmp_path / "lin2.json"
    two_outputs.write_text(json.dumps({"F": [[0, 1], [0, 0]], "H": [[1, 0], [0, 1]], "q": [[0, 1]]}))
    capsys.readouterr()
    rc = main(["simulate", "--linear", str(two_outputs), "--observer", str(path), "--x0=0,1",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "the observer takes 1 measurement(s) but the system has 2 output(s)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "observer,plant,missing",
    [
        ({"T": "w0_1"}, BATCH_X0, "'v', 'alphas'"),
        ({"alphas": [2.0], "T": "w1_1 + 2*w0_1"}, BATCH_X0, "'v'"),
        ({"v": 1, "alphas": [2.0], "A": [[-2.0]]}, LIN_X0, "'betas'"),
    ],
    ids=["T-only", "T-form-no-v", "realized-no-betas"],
)
def test_simulate_incomplete_observer_file_exit_2(tmp_path, capsys, observer, plant, missing):
    path = tmp_path / "observer.json"
    path.write_text(json.dumps(observer))
    rc = main(["simulate", *plant, "--observer", str(path), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert f"lacks {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "observer,plant",
    [
        ({"v": 1, "alphas": [3, 2], "T": "w1_1 + 3*w0_1"}, BATCH_X0),
        ({"v": 2, "alphas": [3], "T": "w2_1 + 3*w1_1"}, BATCH_X0),
        (
            {"v": 2, "alphas": [3], "betas": [[9.0], [3.0]], "A": [[-3.0]],
             "B": [[-9.0]], "C": [[1.0]], "D": [[3.0]]},
            LIN_X0,
        ),
    ],
    ids=["T-form-v1-two-alphas", "T-form-v2-one-alpha", "realized-v2-one-alpha"],
)
def test_simulate_observer_order_mismatch_exit_2(tmp_path, capsys, observer, plant):
    path = tmp_path / "observer.json"
    path.write_text(json.dumps(observer))
    rc = main(
        ["simulate", *plant, "--observer", str(path), "--t-final", "1",
         "--out", str(tmp_path / "run")]
    )
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw,message",
    [
        ({"v": 1.7, "psi": ["w0_1", "w1_1"]}, "'v' must be an integer, got 1.7"),
        ({"v": True, "psi": ["w0_1", "w1_1"]}, "'v' must be an integer, got True"),
        ("v psi", "top level must be an object, got 'v psi'"),
        ({"v": 1, "psi": "ab"}, "'psi' must be a list, got 'ab'"),
    ],
    ids=["fractional-v", "boolean-v", "top-level-string", "psi-string"],
)
def test_malformed_psi_file_exit_2(tmp_path, capsys, raw, message):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(raw))
    assert main(["analyze", "--builtin", "batch-reactor", "--psi", str(path)]) == 2
    assert message in capsys.readouterr().err


# a hand-written order-1 observer for the batch reactor
OBSERVER_V1 = {"v": 1, "alphas": [2.0], "T": "w1_1 + 2*w0_1"}


def _simulate_batch(tmp_path, *args, observer=OBSERVER_V1):
    path = tmp_path / "observer.json"
    path.write_text(json.dumps(observer))
    return main(
        ["simulate", "--builtin", "batch-reactor", "--observer", str(path),
         "--out", str(tmp_path / "run"), *args]
    )


def test_simulate_fractional_observer_order_exit_2(tmp_path, capsys):
    rc = _simulate_batch(tmp_path, "--x0=1,0.2,0.1", observer={**OBSERVER_V1, "v": 1.5})
    assert rc == 2
    assert "observer.json: 'v' must be an integer, got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--dt=nan", "--dt=inf", "--t-final=nan", "--t-final=inf"])
def test_simulate_non_finite_step_size_exit_2(tmp_path, capsys, flag):
    assert _simulate_batch(tmp_path, "--x0=1,0.2,0.1", flag) == 2
    name = flag.split("=")[0]
    assert f"{name} must be positive and finite" in capsys.readouterr().err


def test_simulate_step_count_past_the_double_range_exit_2(tmp_path, capsys):
    # 10 / 1e-320 overflows to an infinite step count
    assert _simulate_batch(tmp_path, "--x0=1,0.2,0.1", "--dt", "1e-320") == 2
    assert "is not a finite count" in capsys.readouterr().err


def test_simulate_step_count_past_the_limit_exit_2(tmp_path, capsys):
    assert _simulate_batch(tmp_path, "--x0=1,0.2,0.1", "--dt", "1e-300") == 2
    assert "more than the limit of 10000000" in capsys.readouterr().err
    assert not (tmp_path / "run" / "trace.csv").exists()


@pytest.mark.parametrize(
    "args, message",
    [(["batch", "--dt", "1e-300"], "more than the limit of 10000000"),
     (["cstr", "--t-final", "0.0001"], "t_final shorter than one step")],
    ids=["batch-too-many-steps", "cstr-no-step"],
)
def test_demo_bad_step_count_exit_2_before_any_stage(tmp_path, capsys, args, message):
    out = tmp_path / "demo"
    assert main(["demo", *args, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "T = " not in captured.out
    assert not out.exists()


def test_simulate_non_finite_x0_exit_2(tmp_path, capsys):
    assert _simulate_batch(tmp_path, "--x0=0.8,0.3,nan") == 2
    assert "--x0 values must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run" / "trace.csv").exists()


@pytest.mark.parametrize("init", ["offset=nan", "explicit=inf"])
def test_simulate_non_finite_init_exit_2(tmp_path, capsys, init):
    with pytest.raises(CliInputError, match="--init values must be finite"):
        parse_init(init)
    assert _simulate_batch(tmp_path, "--x0=1,0.2,0.1", f"--init={init}") == 2
    assert f"--init values must be finite, got '{init}'" in capsys.readouterr().err
    assert not (tmp_path / "run" / "trace.csv").exists()


LIN_DOUBLE_INTEGRATOR = json.loads(data_path("lin_double_integrator.json").read_text())
REALIZED_V1 = {"v": 1, "alphas": [3.0], "betas": [[9.0], [3.0]], "A": [[-3.0]],
               "B": [[-9.0]], "C": [[1.0]], "D": [[3.0]]}


@pytest.mark.parametrize("route", [["--builtin", "batch-reactor", "--psi", PSI_BATCH],
                                   ["--linear", str(data_path("lin_double_integrator.json"))]],
                         ids=["psi", "linear"])
@pytest.mark.parametrize("pole", ["nan", "-1e400", "-1+1e400i"])
def test_synthesize_non_finite_pole_exit_2(tmp_path, capsys, route, pole):
    assert main(["synthesize", *route, f"--poles={pole}", "--out", str(tmp_path)]) == 2
    assert f"error: pole '{pole}' is not finite" in capsys.readouterr().err
    assert not (tmp_path / "observer.json").exists()


@pytest.mark.parametrize(
    "T,message",
    [
        ("w2_1 + 2*w0_1", "{path}: T uses w2_1 of derivative order 2 > v=1"),
        ("w1_2 + 2*w0_1", "{path}: T uses w1_2 but the system has only 1 output(s)"),
        ("foo*w1_1", "unknown symbol 'foo' in {path}: T"),
        ("cA + w1_1", "{path}: T references state 'cA' directly"),
    ],
    ids=["order-above-v", "output-above-p", "unknown-name", "state"],
)
def test_simulate_T_reading_what_the_chain_cannot_supply_exit_2(tmp_path, capsys, T, message):
    assert _simulate_batch(tmp_path, "--x0=1,0.2,0.1", observer={**OBSERVER_V1, "T": T}) == 2
    captured = capsys.readouterr()
    assert f"error: {message.format(path=tmp_path / 'observer.json')}" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "run").exists()


def _refusal_files(tmp_path) -> dict:
    """Paths of the input files the CLI refusal cases read, by name."""
    docs = {"bad_psi": {"v": 1, "psi": ["w0_1", "w1_1"]}, "observer": OBSERVER_V1}
    paths = {"psi": PSI_BATCH, "linear": str(data_path("lin_double_integrator.json")),
             "system": str(tmp_path / "sys.json"),
             "realized": str(_linear_observer_file(tmp_path / "linear"))}
    save_system(builtin_batch_reactor(), paths["system"])
    for name, doc in docs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    return paths


@pytest.mark.parametrize(
    "args,message",
    [
        ("analyze --builtin batch-reactor --samples 0", "--samples must be >= 1"),
        ("analyze --builtin batch-reactor --m-max 0", "--m-max must be >= 1"),
        ("analyze --builtin batch-reactor --v-max 0", "--v-max must be >= 1"),
        ("simulate --builtin batch-reactor --init offset=1,2", "cannot parse 'offset=1,2'"),
        ("analyze {system} --builtin batch-reactor",
         "give either a system file or --builtin, not both"),
        ("synthesize --builtin batch-reactor --poles=-1",
         "--psi is required for nonlinear synthesis"),
        ("synthesize --builtin batch-reactor --psi {psi}", "--poles is required"),
        ("synthesize --linear {linear}", "--poles is required"),
        ("synthesize --builtin batch-reactor --psi {bad_psi} --poles=-1",
         "psi representation failed verification against the system; residuals "),
        ("simulate --builtin batch-reactor --observer {observer}",
         "--x0 is required for simulation"),
        ("simulate --builtin batch-reactor --observer {observer} --x0=1,0.2",
         "--x0 needs 3 values for this system"),
        ("simulate --builtin batch-reactor --observer {realized} --x0=1,0.2,0.1",
         "a realized linear observer needs --linear with the plant matrices"),
        # inputs a route would otherwise ignore
        ("simulate --observer {realized} --linear {linear} --builtin cstr --x0=0,1",
         "simulating a realized linear observer does not use --builtin"),
        ("simulate {system} --observer {realized} --linear {linear} --x0=0,1",
         "simulating a realized linear observer does not use a system file"),
        ("simulate --builtin batch-reactor --observer {observer} --linear {linear} --x0=1,0.2,0.1",
         "simulating a T-form observer does not use --linear"),
        ("synthesize --linear {linear} --poles=-3 --psi {psi}",
         "linear synthesis does not use --psi"),
        ("synthesize --linear {linear} --poles=-3 --builtin batch-reactor",
         "linear synthesis does not use --builtin"),
        ("synthesize {system} --linear {linear} --poles=-3",
         "linear synthesis does not use a system file"),
    ],
    ids=["samples-0", "m-max-0", "v-max-0", "offset-two-values", "file-and-builtin",
         "nonlinear-no-psi", "nonlinear-no-poles", "linear-no-poles", "psi-fails-verification",
         "no-x0", "short-x0", "realized-no-linear", "realized-and-builtin",
         "realized-and-system-file", "T-form-and-linear", "linear-synthesis-and-psi",
         "linear-synthesis-and-builtin", "linear-synthesis-and-system-file"],
)
def test_cli_refusal_exit_2(tmp_path, capsys, args, message):
    out = tmp_path / "run"
    argv = args.format(**_refusal_files(tmp_path)).split()
    capsys.readouterr()  # the realized observer file is written by a synthesize run
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        "analyze --builtin cstr",
        "synthesize --builtin batch-reactor --psi {psi} --poles=-2",
        "synthesize --linear {linear} --poles=-3",
        "simulate --builtin batch-reactor --observer {observer} --x0=1,0.2,0.1 --t-final=0.1",
        "simulate --observer {realized} --linear {linear} --x0=0,1 --t-final=0.1",
        "demo batch",
    ],
    ids=["analyze", "synthesize-psi", "synthesize-linear", "simulate-T-form", "simulate-realized",
         "demo"],
)
@pytest.mark.parametrize(
    "out, message",
    [("file", "File exists"), ("file/run", "Not a directory"), ("file/a/b", "Not a directory")],
    ids=["out-is-a-file", "out-below-a-file", "out-two-below-a-file"],
)
def test_out_refused_after_the_stages_prints_no_report(tmp_path, capsys, monkeypatch, args, out,
                                                       message):
    # --out is created only once every stage has run, but an --out that a
    # file blocks is refused before any stage: each route's work fails here
    argv = args.format(**_refusal_files(tmp_path)).split()
    for name in ("analysis", "verify_psi", "design_linear_observer", "simulate_coupled",
                 "simulate_linear_observer"):
        monkeypatch.setattr(funcobs.cli, name, _unreachable)
    (tmp_path / "file").write_text("")
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    with pytest.raises(OSError) as refusal:  # the error os.makedirs gives, creating nothing
        os.makedirs(str(tmp_path / out), exist_ok=True)
    assert captured.err == f"error: {refusal.value}\n" and message in captured.err
    assert captured.out == ""
    assert (tmp_path / "file").read_text() == ""


def _unreachable(*args, **kwargs):
    raise AssertionError("a stage ran before its --out was refused")


def _with(doc: dict, key: str, value) -> dict:
    """A copy of a JSON document with one entry set; `key` may be 'outer.inner'."""
    doc = json.loads(json.dumps(doc))
    *outer, last = key.split(".")
    target = doc
    for k in outer:
        target = target[k]
    target[last] = value
    return doc


_SYSTEM_ARGS = ["analyze"]
_LINEAR_ARGS = ["synthesize", "--poles=-3", "--linear"]
_PSI_ARGS = ["analyze", "--builtin", "batch-reactor", "--psi"]
_OBSERVER_ARGS = ["simulate", *BATCH_X0, "--t-final=0.1", "--observer"]
_REALIZED_ARGS = ["simulate", *LIN_X0, "--t-final=0.1", "--observer"]
_BATCH = builtin_batch_reactor().to_dict()


@pytest.mark.parametrize(
    "args,doc,message",
    [
        (_SYSTEM_ARGS, _with(_BATCH, "parms", {"a": 1}),
         "system definition: top level has an unknown key 'parms'"),
        (_SYSTEM_ARGS, _with(_BATCH, "params.k1", "2"),
         "system definition: 'params.k1' must be a number, got '2'"),
        (_SYSTEM_ARGS, _with(_BATCH, "box.cA", [0, 1, 5]),
         "system definition: 'box.cA' allows at most 2 items, got [0, 1, 5]"),
        (_SYSTEM_ARGS, _with(_BATCH, "box.cA", "01"),
         "system definition: 'box.cA' must be a list, got '01'"),
        (_LINEAR_ARGS, _with(LIN_DOUBLE_INTEGRATOR, "G", [[1.0]]),
         "{path}: top level has an unknown key 'G'"),
        (_LINEAR_ARGS, _with(LIN_DOUBLE_INTEGRATOR, "F", [[0, "1"], [0, 0]]),
         "{path}: 'F[0][1]' must be a number, got '1'"),
        (_PSI_ARGS, {"v": 1, "psi": ["w0_1", "w1_1"], "note": "x"},
         "{path}: top level has an unknown key 'note'"),
        (_OBSERVER_ARGS, _with(OBSERVER_V1, "poles", [-2]),
         "{path}: top level has an unknown key 'poles'"),
        (_LINEAR_ARGS, _with(LIN_DOUBLE_INTEGRATOR, "F", [[0, 1], [0]]),
         "'F' is not a rectangular matrix of numbers: [[0, 1], [0]]"),
        (_REALIZED_ARGS, _with(REALIZED_V1, "betas", [[9.0], [3.0, 1.0]]),
         "'betas' is not a rectangular matrix of numbers: [[9.0], [3.0, 1.0]]"),
    ],
    ids=["system-unknown-key", "system-string-param", "system-three-bounds",
         "system-string-box", "linear-unknown-key", "linear-string-entry",
         "psi-unknown-key", "observer-unknown-key", "linear-ragged-F",
         "observer-ragged-betas"],
)
def test_input_file_of_the_wrong_shape_exit_2(tmp_path, capsys, args, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([*args, str(path), "--out", str(out)]) == 2
    assert f"error: {message.format(path=path)}\n" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_simulate_failure_at_t0_writes_empty_trace_exit_4(tmp_path, capsys, load_schema):
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(
        json.dumps(
            {
                "states": ["x1", "x2"],
                "f": ["x2", "-x1"],
                "h": ["ln(x1)", "x2"],
                "q": "x1",
                "box": {"x1": [0.1, 2.0], "x2": [-1.0, 1.0]},
            }
        )
    )
    obs = tmp_path / "observer.json"
    obs.write_text(json.dumps({"v": 1, "alphas": [2.0], "T": "w1_2 + 2*w0_2"}))
    out = tmp_path / "run"
    rc = main(
        ["simulate", str(sys_path), "--observer", str(obs), "--x0=-1,1", "--out", str(out)]
    )
    assert rc == 4
    printed = capsys.readouterr().out
    assert "evaluation failure" in printed
    assert "max |error - exact| = none" in printed
    assert "invariance drift along trajectory: none" in printed
    assert (out / "trace.csv").read_text() == "t,x1,x2,y1,y2,z,zhat,err\n"
    summary = _read(out / "summary.json")
    jsonschema.validate(summary, load_schema("simulation.schema.json"))
    assert summary["n_recorded"] == 0
    assert summary["event"] == "evaluation-failure"
    assert summary["max_abs_error"] is None
    assert summary["max_exact_mismatch"] is None
    assert summary["max_invariance_drift"] is None

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    json.loads((out / "summary.json").read_text(), parse_constant=reject)


# ---------------------------------------------------------------------------
# demo

@pytest.mark.parametrize("name", ["batch", "cstr", "linear"])
def test_demo_runs_and_validates(tmp_path, name, load_schema):
    out = tmp_path / name
    rc = main(["demo", name, "--out", str(out)])
    assert rc == 0
    report = _read(out / "report.json")
    jsonschema.validate(report, load_schema("demo.schema.json"))
    assert (out / "trace.csv").exists()
    assert (out / "observer.json").exists()
    sim = report["simulation"]
    assert sim["event"] is None
    assert sim["max_exact_mismatch"] <= 1e-6


def test_demo_batch_decay_rate(tmp_path):
    out = tmp_path / "batch"
    assert main(["demo", "batch", "--out", str(out)]) == 0
    report = _read(out / "report.json")
    assert report["simulation"]["decay_fit"]["rate"] == pytest.approx(-2.0, rel=0.01)
    assert report["analysis"]["functional_index_candidate"] == 1
    assert report["invariance_max_residual"] <= 1e-9


def test_demo_unknown_name_exit_2(capsys):
    assert main(["demo", "pendulum"]) == 2


LIN_DI = str(data_path("lin_double_integrator.json"))

# Each demo's preset, written as the staged commands it equals.
DEMO_STAGES = {
    "batch": {
        "analyze": ["--builtin", "batch-reactor"],
        "synthesize": ["--builtin", "batch-reactor", "--psi", PSI_BATCH, "--poles=-2"],
        "simulate": ["--builtin", "batch-reactor", "--x0=1.0,0.2,0.0", "--init", "explicit=0.0"],
    },
    "cstr": {
        "analyze": ["--builtin", "cstr"],
        "synthesize": ["--builtin", "cstr", "--psi", str(data_path("psi_cstr.json")), "--poles=-1"],
        "simulate": ["--builtin", "cstr", "--x0=1.0,1.0,0.9", "--init", "offset=0.1"],
    },
    "linear": {
        "synthesize": ["--linear", LIN_DI, "--poles=-3"],
        "simulate": ["--linear", LIN_DI, "--x0=0.0,1.0", "--init", "offset=0.1"],
    },
}


def _report_lines(out: str) -> list[str]:
    """A run's printed report without its two header lines and `wrote` lines."""
    return [ln for ln in out.splitlines()[2:] if not ln.startswith("wrote ")]


@pytest.mark.parametrize("name", sorted(DEMO_STAGES))
def test_demo_is_the_staged_pipeline(tmp_path, capsys, name):
    stages = DEMO_STAGES[name]
    demo, staged = tmp_path / "demo", tmp_path / "staged"
    capsys.readouterr()
    assert main(["demo", name, "--t-final", "2", "--out", str(demo)]) == 0
    demo_out = capsys.readouterr().out
    assert demo_out.startswith(f"== funcobs demo {name} ==\n")
    assert demo_out.endswith(f"\nwrote artifacts to {demo}\n")
    printed = []
    if name != "linear":
        assert main(["analyze", *stages["analyze"], "--out", str(staged)]) == 0
        printed += _report_lines(capsys.readouterr().out)
    assert main(["synthesize", *stages["synthesize"], "--out", str(staged)]) == 0
    printed += _report_lines(capsys.readouterr().out)
    rc = main(
        [
            "simulate",
            *stages["simulate"],
            "--observer",
            str(staged / "observer.json"),
            "--t-final",
            "2",
            "--out",
            str(staged),
        ]
    )
    assert rc == 0
    printed += _report_lines(capsys.readouterr().out)
    # the demo prints each stage's report, in order; its linear plant is
    # labelled by its builtin name, not by the file the staged runs read
    assert _report_lines(demo_out) == [ln.replace(LIN_DI, "double-integrator") for ln in printed]
    for fn in ("observer.json", "trace.csv"):
        assert (demo / fn).read_bytes() == (staged / fn).read_bytes(), fn
    report = _read(demo / "report.json")
    summary = _read(staged / "summary.json")
    if name == "linear":
        assert not (demo / "analysis.json").exists()
        assert report["simulation"]["system"].pop("source") == "double-integrator"
        assert summary["system"].pop("source") == LIN_DI
    else:
        assert (demo / "analysis.json").read_bytes() == (staged / "analysis.json").read_bytes()
        synthesis = _read(staged / "synthesis.json")
        assert report["psi_max_residual"] == synthesis["psi_max_residual"]
        assert report["invariance_max_residual"] == synthesis["invariance"]["max_residual"]
    assert report["simulation"] == summary


# ---------------------------------------------------------------------------
# import path


def _run_python(*args, env=None):
    src = os.path.dirname(os.path.dirname(os.path.abspath(funcobs.__file__)))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_leaves_scipy_out():
    proc = _run_python("-c", "import sys, funcobs.cli; print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_entry_point_runs_without_runtime_warning():
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "funcobs.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: funcobs" in proc.stdout


def test_package_reexports_cli_names():
    assert funcobs.main is main
    assert funcobs.data_path is data_path
    assert funcobs.builtin_double_integrator().n == 2
    with pytest.raises(AttributeError):
        funcobs.no_such_name


SAMPLING_RUNS_CODE = (
    "import sys; from funcobs.cli import main; out, psi = sys.argv[1:]; "
    "codes = [main(['analyze', '--builtin', 'cstr', '--out', out + '/a']), "
    "main(['synthesize', '--builtin', 'batch-reactor', '--psi', psi, '--poles=-1', '--out', out + '/s']), "
    "main(['demo', 'batch', '--t-final', '0.5', '--out', out + '/d'])]; "
    "print(codes, 'numpy.random' in sys.modules, '_hashlib' in sys.modules)"
)


def test_sampling_runs_leave_numpy_random_out(tmp_path):
    # the seeded samples come from funcobs.expr.seeded_uniform, which needs
    # neither numpy.random nor the OpenSSL hashes its seeding imports
    proc = _run_python("-c", SAMPLING_RUNS_CODE, str(tmp_path), PSI_BATCH)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False False"


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# the thread-variable value and, on Linux, this process's thread count
THREADS_CODE = (
    "import os, sys; {}; "
    "tasks = len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else -1; "
    "print(os.environ.get('OMP_NUM_THREADS'), tasks, 'numpy' in sys.modules)"
)


def _threads_after(imports, **preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = _run_python("-c", THREADS_CODE.format(imports), env={**env, **preset})
    assert proc.returncode == 0, proc.stderr
    omp, tasks, numpy_loaded = proc.stdout.split()
    return omp, int(tasks), numpy_loaded == "True"


def test_cli_import_runs_blas_on_one_thread():
    omp, tasks, _ = _threads_after("import funcobs.cli")
    assert omp == "1"
    if sys.platform == "linux":
        assert tasks == 1


@pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2, reason="needs /proc and two CPUs"
)
def test_cli_import_leaves_a_preset_thread_count():
    assert _threads_after("import funcobs.cli", OPENBLAS_NUM_THREADS="2")[1] == 2


def test_cli_import_after_numpy_sets_no_thread_variable():
    assert _threads_after("import numpy, funcobs.cli")[0] == "None"


def test_package_import_is_lazy():
    omp, _, numpy_loaded = _threads_after("import funcobs")
    assert omp == "None" and not numpy_loaded


def test_package_names_all_resolve():
    for name in funcobs.__all__:
        assert getattr(funcobs, name) is not None
    assert set(funcobs.__all__) <= set(dir(funcobs))
    # a submodule is an attribute of the package before anything imports it
    proc = _run_python("-c", "import funcobs; print(funcobs.sim.__name__, funcobs.jets.MAX_ORDER)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["funcobs.sim", "171"]
