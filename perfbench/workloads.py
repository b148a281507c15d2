"""The benchmark's workloads: seeded funcobs CLI operations, and the reference
verdicts that every operation's artifacts are checked against.

Each workload is built from the seed alone; funcobs sees only the generated
flags and the files named in them.  An operation ("op") is one CLI call;
the runner appends ``--out <dir>`` and checks the artifacts written there.

Why these workloads:

- cstr-analyze: the measured bottleneck.  The symbolic derivative table
  (12,951 nodes in its last row) and its tree-walk evaluation dominate;
  nothing is simulated.
- batch-simulate: RK4 plus CSV writing dominate; the symbolic tables are
  tiny, so a change to lie/expr should not move it.
- small-builtins: short real CLI runs where interpreter start and
  ``import funcobs`` are most of each op; the low-order tables, the linear
  synthesis pipeline and the matrix-stepping linear simulator are used
  instead of swell and RK4.  Fixed per-call or import cost shows here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Verdicts at the CLI defaults (m_max 6, v_max 3); they held for seeds 42,
# 7 and 1234.  A quick run with a smaller m_max compares a prefix of the
# rank table.
REFERENCE = {
    "cstr": {"max_ranks": [2, 3, 3, 3, 3, 3], "index": 2, "holds": True, "candidate": 1},
    "batch-reactor": {"max_ranks": [1, 2, 2, 2, 2, 2], "index": None, "holds": True, "candidate": 1},
    "double-integrator": {"max_ranks": [1, 2, 2, 2, 2, 2], "index": 2, "holds": True, "candidate": 1},
}
TOL = 1e-9  # exact-solution mismatch, invariance drift, psi/invariance residuals
RATE_RTOL = 1e-6  # fitted decay rate against the assigned pole, relative
DT = 1e-3  # the CLI's default step
T_DEFAULT = 10.0  # the CLI's default horizon
# Sampling box of the batch-reactor builtin (every state).
BATCH_BOX = (0.05, 2.0)


@dataclass
class Op:
    name: str
    args: list[str]
    # Reads the artifacts in the op's output directory; returns the
    # problems found (empty when the op's output is correct).
    check: Callable[[Path], list[str]]


@dataclass
class Plan:
    ops: list[Op]
    # CLI calls run once, untimed, before the ops (e.g. synthesizing the
    # observer that the simulations load).
    prepare: list[list[str]] = field(default_factory=list)


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fmt(values) -> str:
    return ",".join(f"{v:.6f}" for v in values)


def check_analysis(payload: dict, builtin: str, psi: bool = False) -> list[str]:
    ref = REFERENCE[builtin]
    problems = []
    ranks = [row["max_rank"] for row in payload["rank_table"]]
    if ranks != ref["max_ranks"][: len(ranks)] or not ranks:
        problems.append(f"{builtin}: max-rank table {ranks}, expected {ref['max_ranks']}")
    if payload["observability_index"] != ref["index"]:
        problems.append(
            f"{builtin}: observability index {payload['observability_index']}, "
            f"expected {ref['index']}"
        )
    if payload["functional_rank_check"]["holds"] is not ref["holds"]:
        problems.append(f"{builtin}: span check holds={payload['functional_rank_check']['holds']}")
    if payload["functional_index_candidate"] != ref["candidate"]:
        problems.append(
            f"{builtin}: candidate {payload['functional_index_candidate']}, "
            f"expected {ref['candidate']}"
        )
    if psi and payload["psi_check"]["passed"] is not True:
        problems.append(f"{builtin}: psi check did not pass")
    return problems


def check_simulation(summary: dict, pole: float, t_final: float) -> list[str]:
    problems = []
    if summary["event"] is not None:
        problems.append(f"simulation event {summary['event']!r}")
    want = round(t_final / DT) + 1
    if summary["n_recorded"] != want:
        problems.append(f"n_recorded {summary['n_recorded']}, expected {want}")
    if not summary["max_exact_mismatch"] <= TOL:
        problems.append(f"max_exact_mismatch {summary['max_exact_mismatch']}")
    drift = summary["max_invariance_drift"]
    if drift is not None and not drift <= TOL:
        problems.append(f"max_invariance_drift {drift}")
    rate = summary["decay_fit"]["rate"]
    if rate is None or not abs(rate - pole) <= RATE_RTOL * abs(pole):
        problems.append(f"fitted decay rate {rate}, assigned pole {pole}")
    return problems


def check_synthesis(out: Path, pole: float, mode: str) -> list[str]:
    payload = _load(out / "synthesis.json")
    obs = _load(out / "observer.json")
    problems = []
    if payload["mode"] != mode or payload["hurwitz"] is not True:
        problems.append(f"synthesis mode {payload['mode']}, hurwitz {payload['hurwitz']}")
    if obs["v"] != 1 or not abs(obs["alphas"][0] + pole) <= RATE_RTOL * abs(pole):
        problems.append(f"observer v={obs['v']} alphas={obs['alphas']} for pole {pole}")
    if mode == "nonlinear":
        if not payload["psi_max_residual"] <= TOL:
            problems.append(f"psi residual {payload['psi_max_residual']}")
        if payload["invariance"]["passed"] is not True:
            problems.append("invariance check did not pass")
    return problems


def _check_demo(out: Path, pole: float, t_final: float, builtin: str | None) -> list[str]:
    report = _load(out / "report.json")
    problems = check_simulation(report["simulation"], pole, t_final)
    if builtin is not None:
        problems += check_analysis(report["analysis"], builtin)
        for key in ("psi_max_residual", "invariance_max_residual"):
            if not report[key] <= TOL:
                problems.append(f"{key} {report[key]}")
    return problems


# ---------------------------------------------------------------------------
# the workloads


def cstr_analyze(seed: int, quick: bool, data: Path, prep: Path) -> Plan:
    args = ["analyze", "--builtin", "cstr", "--psi", str(data / "psi_cstr.json"), "--seed", str(seed)]
    if quick:
        args += ["--m-max", "3", "--v-max", "1", "--samples", "10"]
    check = lambda out: check_analysis(_load(out / "analysis.json"), "cstr", psi=True)
    return Plan(ops=[Op("analyze-cstr", args, check)])


def batch_simulate(seed: int, quick: bool, data: Path, prep: Path) -> Plan:
    # Pole -1 with T=20 keeps the decay-fit window [2, 8] above the 1e-14
    # noise floor for every offset drawn below.
    pole, t_final, n_ops = (-1.0, 4.0, 1) if quick else (-1.0, 20.0, 3)
    rng = random.Random(seed)
    prepare = [[
        "synthesize", "--builtin", "batch-reactor", "--psi", str(data / "psi_batch.json"),
        f"--poles={pole}", "--seed", str(seed), "--out", str(prep),
    ]]
    ops = []
    for k in range(n_ops):
        x0 = [rng.uniform(*BATCH_BOX) for _ in range(3)]
        r = rng.uniform(0.05, 0.5)
        args = [
            "simulate", "--builtin", "batch-reactor", "--observer", str(prep / "observer.json"),
            f"--x0={_fmt(x0)}", "--init", f"offset={r:.6f}", "--t-final", str(t_final),
            "--seed", str(seed),
        ]
        check = lambda out: check_simulation(_load(out / "summary.json"), pole, t_final)
        ops.append(Op(f"simulate-batch-{k}", args, check))
    return Plan(ops=ops, prepare=prepare)


def small_builtins(seed: int, quick: bool, data: Path, prep: Path) -> Plan:
    rng = random.Random(seed)
    p_batch = -round(rng.uniform(1.0, 3.0), 6)
    p_lin = -round(rng.uniform(1.0, 3.0), 6)
    x0 = [rng.uniform(-1.0, 1.0) for _ in range(2)]
    r = rng.uniform(0.05, 0.5)
    lin = str(data / "lin_double_integrator.json")
    seeded = ["--seed", str(seed)] + (["--samples", "10"] if quick else [])
    t_final = 2.0 if quick else T_DEFAULT
    horizon = ["--t-final", str(t_final)] if quick else []

    def analyze(builtin):
        return lambda out: check_analysis(_load(out / "analysis.json"), builtin)

    ops = [
        Op("analyze-batch", ["analyze", "--builtin", "batch-reactor", *seeded], analyze("batch-reactor")),
        Op("analyze-dint", ["analyze", "--builtin", "double-integrator", *seeded], analyze("double-integrator")),
        Op(
            "synthesize-batch",
            ["synthesize", "--builtin", "batch-reactor", "--psi", str(data / "psi_batch.json"),
             f"--poles={p_batch}", *seeded],
            lambda out: check_synthesis(out, p_batch, "nonlinear"),
        ),
        Op(
            "synthesize-linear",
            ["synthesize", "--linear", lin, f"--poles={p_lin}", *seeded],
            lambda out: check_synthesis(out, p_lin, "linear"),
        ),
        Op(
            "simulate-linear",
            ["simulate", "--observer", str(prep / "observer.json"), "--linear", lin,
             f"--x0={_fmt(x0)}", "--init", f"offset={r:.6f}", *seeded, *horizon],
            lambda out: check_simulation(_load(out / "summary.json"), p_lin, t_final),
        ),
        Op("demo-batch", ["demo", "batch", *seeded, *horizon],
           lambda out: _check_demo(out, -2.0, t_final, "batch-reactor")),
        Op("demo-linear", ["demo", "linear", *seeded, *horizon],
           lambda out: _check_demo(out, -3.0, t_final, None)),
    ]
    prepare = [["synthesize", "--linear", lin, f"--poles={p_lin}", "--seed", str(seed), "--out", str(prep)]]
    return Plan(ops=ops, prepare=prepare)


BUILDERS = {
    "cstr-analyze": cstr_analyze,
    "batch-simulate": batch_simulate,
    "small-builtins": small_builtins,
}
