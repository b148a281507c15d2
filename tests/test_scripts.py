"""Smoke tests of the helper scripts under scripts/."""

import csv
import importlib.util
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script(name):
    path = os.path.join(REPO_ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_pole_sweep_fits_the_assigned_poles(tmp_path):
    out = tmp_path / "sweep.csv"
    pole_sweep = _load_script("pole_sweep")
    assert pole_sweep.main(["--poles=-1,-2", "--t-final", "4", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["assigned_pole"]) for r in rows] == [-1.0, -2.0]
    for r in rows:
        assert abs(float(r["relative_error"])) <= 1e-6


def test_run_demos_writes_each_demo(tmp_path):
    run_demos = _load_script("run_demos")
    assert run_demos.main(["--out", str(tmp_path)]) == 0
    for name in ("batch", "cstr", "linear"):
        for artifact in ("report.json", "observer.json", "trace.csv"):
            assert (tmp_path / name / artifact).is_file()


def test_artifact_hashes_repeat(capsys):
    artifact_hashes = _load_script("artifact_hashes")
    printed = []
    for _ in range(2):
        assert artifact_hashes.main(["--t-final", "0.5"]) == 0
        printed.append(capsys.readouterr().out.splitlines())
    assert printed[0] == printed[1]
    names = [line.split("  ")[1] for line in printed[0]]
    assert "sim-batch/trace.csv" in names and "sim-linear/summary.json" in names
    assert "demo-cstr/analysis.json" in names and len(names) == 29


def test_startup_split_prints_one_json_line(capsys):
    startup_split = _load_script("startup_split")
    assert startup_split.main(["--runs", "1"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    split = json.loads(line)
    assert split["runs"] == 1
    for name in ("pass", "import numpy", "import funcobs.cli", "import funcobs.cli, cached bytecode",
                 "analyze --builtin double-integrator"):
        assert split[name]["wall_s"] > 0 and split[name]["cpu_s"] >= 0
    tasks = split["tasks_after_cli_import"]
    assert tasks is None or tasks >= 1


def test_startup_split_reports_max_rss():
    # in its own process: a child's max RSS is floored at its parent's RSS
    script = os.path.join(REPO_ROOT, "scripts", "startup_split.py")
    proc = subprocess.run([sys.executable, script, "--runs", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    split = json.loads(proc.stdout)
    rss = {name: split[name]["max_rss_mb"] for name in ("pass", "import numpy", "import funcobs.cli")}
    # each code loads what the one before it loads, and more
    assert 0 < rss["pass"] < rss["import numpy"] < rss["import funcobs.cli"]
