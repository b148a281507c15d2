"""Smoke tests of the helper scripts under scripts/."""

import csv
import importlib.util
import os

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
