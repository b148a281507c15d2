#!/usr/bin/env python3
"""Print the sha256 of every artifact of a fixed set of CLI runs.

Runs `demo batch|cstr|linear --seed 42`, a batch-reactor `simulate` to
T=20 (observer from `synthesize --psi psi_batch.json --poles=-1.0 --seed 7`),
a realized-linear `simulate` (observer from `synthesize --linear
lin_double_integrator.json --poles=-2.0 --seed 7`), an order-2 `simulate`
of the triple integrator to T=20 (y = x1, z = x2; observer from
`synthesize --psi` of w1_1, w2_1, 0 with `--poles=-1,-2 --seed 7`) and
`analyze --builtin cstr|batch-reactor --samples 1000` at high derivative
orders (`--m-max 12 --v-max 8`, `--m-max 20`, `--m-max 30`), each in
process, inside a temporary directory with relative paths, so the
artifacts do not depend on where they are written.  Compare two checkouts
by running this script against each:

    PYTHONPATH=src python scripts/artifact_hashes.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

from funcobs.cli import main as cli_main
from funcobs.system import data_path

PSI, LIN = "psi_batch.json", "lin_double_integrator.json"
TRIPLE, PSI_TRIPLE = "triple_integrator.json", "psi_triple.json"
# the order-2 observer reaches the v >= 2 chain kernel, _expm's scaling and
# squaring, and the matrix loop of exact_error_grid
WRITTEN = {
    TRIPLE: {"states": ["x1", "x2", "x3"], "f": ["x2", "x3", "0"], "h": ["x1"], "q": "x2",
             "box": {f"x{i}": [-1.0, 1.0] for i in (1, 2, 3)}},
    PSI_TRIPLE: {"v": 2, "psi": ["w1_1", "w2_1", "0"]},
}


def runs(t_final: float | None) -> list[tuple[str, list[str]]]:
    """(output directory, CLI arguments) of each run, in order.  Without
    t_final the batch simulation runs to 20 and the rest to the CLI default."""
    horizon = [] if t_final is None else ["--t-final", repr(t_final)]
    synth = ["synthesize", "--seed", "7"]
    sim = ["simulate", "--init", "offset=0.25", "--seed", "7"]
    return [
        *((f"demo-{nm}", ["demo", nm, "--seed", "42", *horizon]) for nm in ("batch", "cstr", "linear")),
        ("obs-batch", [*synth, "--builtin", "batch-reactor", "--psi", PSI, "--poles=-1.0"]),
        ("sim-batch", [*sim, "--builtin", "batch-reactor", "--observer", "obs-batch/observer.json",
                       "--x0=0.8,0.3,0.2", *(horizon or ["--t-final", "20"])]),
        ("obs-linear", [*synth, "--linear", LIN, "--poles=-2.0"]),
        ("sim-linear", [*sim, "--linear", LIN, "--observer", "obs-linear/observer.json",
                        "--x0=0.3,-0.2", *horizon]),
        ("obs-triple", [*synth, TRIPLE, "--psi", PSI_TRIPLE, "--poles=-1,-2"]),
        ("sim-triple", [*sim, TRIPLE, "--observer", "obs-triple/observer.json",
                        "--x0=0.3,-0.2,0.1", *(horizon or ["--t-final", "20"])]),
        *((f"analyze-{nm}-m{m}", ["analyze", "--builtin", nm, "--samples", "1000", "--m-max", m, *v])
          for nm in ("cstr", "batch-reactor")
          for m, v in (("12", ["--v-max", "8"]), ("20", []), ("30", []))),
    ]


def artifact_hashes(t_final: float | None = None) -> list[tuple[str, str]]:
    """(relative artifact path, sha256) for every file the runs write."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in (PSI, LIN):
            shutil.copy(data_path(name), tmp)
        for name, raw in WRITTEN.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(raw, fh)
        os.chdir(tmp)
        try:
            for out, args in runs(t_final):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli_main([*args, "--out", out])
                if rc != 0:
                    raise SystemExit(f"{' '.join(args)} exited {rc}")
            found = []
            for out, _ in runs(t_final):
                for fn in sorted(os.listdir(out)):
                    with open(os.path.join(out, fn), "rb") as fh:
                        found.append((f"{out}/{fn}", hashlib.sha256(fh.read()).hexdigest()))
            return found
        finally:
            os.chdir(cwd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--t-final", type=float, help="one horizon for every run")
    args = ap.parse_args(argv)
    for path, digest in artifact_hashes(args.t_final):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
