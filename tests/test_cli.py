"""Command-line behavior: exit codes, artifacts, determinism, schemas."""

import json
import os
import subprocess
import sys

import jsonschema
import pytest

import funcobs
from funcobs.cli import (
    CliInputError,
    data_path,
    main,
    parse_floats,
    parse_init,
    parse_poles,
)
from funcobs.system import builtin_batch_reactor, save_system

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


def test_analyze_cstr_high_order(tmp_path):
    rc = main(["analyze", "--builtin", "cstr", "--m-max", "12", "--out", str(tmp_path)])
    assert rc == 0
    payload = _read(tmp_path / "analysis.json")
    assert [row["max_rank"] for row in payload["rank_table"]] == [2] + [3] * 11
    assert payload["observability_index"] == 2


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
    assert "error:" in capsys.readouterr().out


def test_analyze_requires_some_system(capsys):
    assert main(["analyze"]) == 2


def test_unknown_builtin_exit_2(capsys):
    assert main(["analyze", "--builtin", "pendulum"]) == 2


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
    assert "left half plane" in capsys.readouterr().out


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


# ---------------------------------------------------------------------------
# import path


def _run_python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(funcobs.__file__)))
    env = dict(os.environ)
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
