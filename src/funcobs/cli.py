"""Command-line front end: analyze, synthesize, simulate, demo.

Every run is deterministic given its flags; the shared numeric defaults are
printed in each report header and embedded in the JSON artifacts.  Exit codes
are operational only: 0 success, 2 bad input, 3 refused unstable poles,
4 divergence during simulation.  Analysis verdicts are report content, never
exit codes.
"""

from __future__ import annotations

import argparse
import atexit
import cmath
import contextlib
import functools
import gc
import io
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

if "numpy" not in sys.modules:
    # No funcobs matrix is large enough to use a BLAS thread pool, and
    # starting one costs a CLI run about 70 ms of import and a spinning
    # worker.  OpenBLAS, MKL and BLIS read their own *_NUM_THREADS first,
    # so a count the user sets still wins.  Once numpy is loaded the pool
    # exists and the variable would only leak into child processes.
    os.environ.setdefault("OMP_NUM_THREADS", "1")

from .expr import EQUIV_RTOL, EvalError, ExprError, evaluate, to_text
from .lie import LieError
from .observability import ObservabilityError, analysis, load_psi, verify_psi
from .system import (
    BUILTINS,
    LinearSystemDef,
    SimError,
    SynthesisError,
    SystemDef,
    SystemDefError,
    UnstablePolesError,
    builtin_double_integrator,
    data_path,
    load_linear_system,
    load_system,
    write_json,
)

# funcobs.synthesis and funcobs.sim are imported by the stages that use
# them, so an analyze run neither compiles nor runs them
if TYPE_CHECKING:
    from .sim import SimTrace
    from .synthesis import LinearObserver, ObserverIO
# after the funcobs modules, so that a run without cached bytecode compiles
# expr.py before numpy is loaded: its peak RSS is 0.1-0.6 MB lower
import numpy as np

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSTABLE = 3
EXIT_DIVERGED = 4

DEFAULTS = {"dt": 1e-3, "samples": 100, "seed": 42, "t_final": 10.0}
# Each report prints the module defaults, not the run's effective values.
HEADER = "defaults: " + ", ".join(f"{k}={v}" for k, v in DEFAULTS.items())

_INPUT_ERRORS = (
    SystemDefError,
    ObservabilityError,
    SynthesisError,
    SimError,
    ExprError,
    LieError,
    OSError,
)


class CliInputError(ValueError):
    pass


@dataclass
class RunConfig:
    """The flags of one command, checked before any stage runs."""

    command: str
    system: str | None = None
    builtin: str | None = None
    psi: str | None = None
    linear: str | None = None
    observer: str | None = None
    poles: tuple[complex, ...] = ()
    samples: int = DEFAULTS["samples"]
    seed: int = DEFAULTS["seed"]
    m_max: int = 6
    v_max: int = 3
    dt: float = DEFAULTS["dt"]
    t_final: float = DEFAULTS["t_final"]
    x0: tuple[float, ...] | None = None
    init: tuple = ("exact", None)
    allow_unstable: bool = False
    out: str | None = None
    demo: str | None = None

    def __post_init__(self):
        for nm in ("dt", "t_final"):
            if not 0 < getattr(self, nm) < math.inf:
                raise CliInputError(f"--{nm.replace('_', '-')} must be positive and finite")
        if self.command in ("simulate", "demo"):  # the commands that take --dt and --t-final
            from .sim import _steps
            _steps(self.t_final, self.dt)  # refused before any stage runs
        for nm in ("samples", "m_max", "v_max"):
            if getattr(self, nm) < 1:
                raise CliInputError(f"--{nm.replace('_', '-')} must be >= 1")
        if self.seed < 0:
            raise CliInputError("--seed must be >= 0")
        # an --out that a file blocks is refused before any stage runs;
        # os.makedirs raises at its first mkdir, below that file, so it
        # creates nothing
        path = self.out
        while path and not os.path.exists(path):
            path = os.path.dirname(path)
        if path and not os.path.isdir(path):
            os.makedirs(self.out, exist_ok=True)


def parse_poles(text: str) -> tuple[complex, ...]:
    """Comma list; complex entries written as a+bi."""
    poles = []
    for tok in text.split(","):
        tok = tok.strip().replace(" ", "")
        if not tok:
            continue
        try:
            pole = complex(tok.replace("i", "j"))
        except ValueError:
            raise CliInputError(f"cannot parse pole '{tok}'") from None
        if not cmath.isfinite(pole):
            raise CliInputError(f"pole '{tok}' is not finite")
        poles.append(pole)
    if not poles:
        raise CliInputError("empty pole list")
    return tuple(poles)


def parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise CliInputError(f"cannot parse number list '{text}'") from None


def parse_init(text: str) -> tuple:
    if text == "exact":
        return ("exact", None)
    mode, eq, val = text.partition("=")
    if mode not in ("offset", "explicit") or not eq:
        raise CliInputError(
            f"--init must be exact, offset=<r>, or explicit=<list>; got '{text}'"
        )
    vals = parse_floats(val)
    if mode == "offset" and len(vals) != 1:
        raise CliInputError(f"cannot parse '{text}'")
    if not all(map(math.isfinite, vals)):
        raise CliInputError(f"--init values must be finite, got '{text}'")
    return (mode, vals[0] if mode == "offset" else vals)


def _resolve_system(cfg: RunConfig) -> tuple[SystemDef, str]:
    if cfg.builtin is not None and cfg.system is not None:
        raise CliInputError("give either a system file or --builtin, not both")
    if cfg.builtin is not None:
        if cfg.builtin not in BUILTINS:
            known = ", ".join(sorted(BUILTINS))
            raise CliInputError(f"unknown builtin '{cfg.builtin}' (known: {known})")
        return BUILTINS[cfg.builtin](), cfg.builtin
    if cfg.system is not None:
        return load_system(cfg.system), cfg.system
    raise CliInputError("a system file or --builtin is required")


def _refuse_unused(cfg: RunConfig, route: str, *fields: str):
    """Refuse an input that `route` would silently ignore."""
    for nm in fields:
        if getattr(cfg, nm) is not None:
            flag = "a system file" if nm == "system" else f"--{nm}"
            raise CliInputError(f"{route} does not use {flag}")


def _outdir(cfg: RunConfig, default: str | None = None) -> str | None:
    out = cfg.out if cfg.out is not None else default
    if out is not None:
        os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# analyze


def _skipped(n_checked: int, samples: int) -> str:
    """How many samples a span test read and skipped; '' when it read them all."""
    return "" if n_checked == samples else f"; {n_checked} of {samples} samples checked, {samples - n_checked} skipped"


def _analyze(cfg: RunConfig, sys_: SystemDef, label: str) -> dict:
    """The analysis stage: run the three rank tests, print their report and
    return the payload of analysis.json."""
    (index, reports), fcheck, scan = analysis(sys_, cfg.m_max, cfg.v_max, cfg.samples, cfg.seed)
    n_out = fcheck.n_checked - fcheck.n_in_span
    check_skips = _skipped(fcheck.n_checked, cfg.samples)
    scan_skips = _skipped(scan.checks[0].n_checked, cfg.samples)  # one mask for every v
    payload = {
        "report": "analysis",
        "defaults": dict(DEFAULTS),
        "system": {"source": label, "n": sys_.n, "p": sys_.p, "target": to_text(sys_.q)},
        "samples": cfg.samples,
        "seed": cfg.seed,
        "m_max": cfg.m_max,
        "v_max": cfg.v_max,
        "rank_table": [r.to_dict() for r in reports],
        "observability_index": index,
        "functional_rank_check": {
            "m": fcheck.m,
            "holds": fcheck.holds,
            "n_agree": fcheck.n_in_span,
            "n_checked": fcheck.n_checked,
            "verdict": (
                f"target gradient lies in the measured span at every {'checked ' if check_skips else ''}"
                f"sample (necessary condition holds){check_skips}"
                if fcheck.holds
                else f"target gradient left the measured span at {n_out} of {fcheck.n_checked} samples{check_skips}"
            ),
        },
        "functional_index_candidate": scan.candidate,
        "functional_index_note": "candidate order from sampled gradient-span tests; necessary, not sufficient"
        + scan_skips,
    }
    print(f"system: {label}  (n={sys_.n} states, p={sys_.p} outputs, target {to_text(sys_.q)})")
    print(f"rank table over {cfg.samples} samples (seed {cfg.seed}):")
    for row in payload["rank_table"]:
        print(
            f"  m={row['m']}: max rank {row['max_rank']}/{sys_.n} "
            f"(at {row['fraction_at_max']:.0%} of samples)"
        )
    if index is None:
        last = payload["rank_table"][-1]
        print(
            f"observability index: NOT FOUND up to m={cfg.m_max} "
            f"(rank saturates at {last['max_rank']} < {sys_.n})"
        )
    else:
        print(f"observability index: {index}")
    print(f"functional span check (m={cfg.m_max}): {payload['functional_rank_check']['verdict']}")
    if scan.candidate is None:
        print(f"functional index candidate: none found up to v_max={cfg.v_max}{scan_skips}")
    else:
        print(f"functional index candidate: v={scan.candidate}{scan_skips}")
    print(f"  note: {payload['functional_index_note']}")
    return payload


def cmd_analyze(cfg: RunConfig) -> int:
    sys_, label = _resolve_system(cfg)
    payload = _analyze(cfg, sys_, label)
    if cfg.psi is not None:
        rep = load_psi(cfg.psi)
        residuals = [r.max_residual for r in verify_psi(sys_, rep, n_samples=cfg.samples, seed=cfg.seed)]
        payload["psi_check"] = {
            "v": rep.v,
            "passed": rep.verified,
            "max_residual": max(residuals),
            "residuals": residuals,
            "rtol": EQUIV_RTOL,
        }
        word = "PASS" if rep.verified else "FAIL"
        print(f"psi check (v={rep.v}): {word}, max residual {max(residuals):.3e} (rtol {EQUIV_RTOL})")
    out = _outdir(cfg)
    if out is not None:
        path = os.path.join(out, "analysis.json")
        write_json(path, payload)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthesize


def _synthesize_nonlinear(cfg: RunConfig, sys_: SystemDef, label: str) -> tuple[dict, ObserverIO]:
    """The nonlinear design stage: verify psi against the system, place the
    poles, build the observer and check its defining identity."""
    if cfg.psi is None:
        raise CliInputError("--psi is required for nonlinear synthesis")
    if not cfg.poles:
        raise CliInputError("--poles is required")
    from .synthesis import poles_to_alphas, synthesize_nonlinear, verify_invariance
    rep = load_psi(cfg.psi)
    residuals = [r.max_residual for r in verify_psi(sys_, rep, n_samples=cfg.samples, seed=cfg.seed)]
    if not rep.verified:
        raise CliInputError(
            "psi representation failed verification against the system; residuals "
            + ", ".join(f"{r:.3e}" for r in residuals)
        )
    obs = synthesize_nonlinear(rep, poles_to_alphas(cfg.poles), allow_unstable=cfg.allow_unstable)
    inv = verify_invariance(sys_, obs, n_samples=cfg.samples, seed=cfg.seed)
    psi_residual = max(residuals)
    payload = {
        "report": "synthesis",
        "defaults": dict(DEFAULTS),
        "system": {"source": label, "n": sys_.n, "p": sys_.p},
        "mode": "nonlinear",
        "poles": [[p.real, p.imag] for p in cfg.poles],
        "observer": obs.to_dict(),
        "hurwitz": obs.alphas.hurwitz,
        "psi_max_residual": psi_residual,
        "invariance": {"max_residual": inv.max_residual, "passed": inv.equivalent, "rtol": EQUIV_RTOL},
    }
    print(f"system: {label}; psi order v={obs.v}; poles {cfg.poles}")
    print(f"psi verification: max residual {psi_residual:.3e}")
    print(f"alphas (monic coefficients, high to low): {list(obs.alphas.alphas)}")
    print(f"T = {to_text(obs.T)}")
    word = "PASS" if inv.equivalent else "FAIL"
    print(f"invariance check: {word}, max residual {inv.max_residual:.3e}")
    return payload, obs


def _synthesize_linear(cfg: RunConfig, lsys: LinearSystemDef, label: str) -> tuple[dict, LinearObserver]:
    if not cfg.poles:
        raise CliInputError("--poles is required")
    from .synthesis import design_linear_observer
    lobs = design_linear_observer(lsys, cfg.poles, allow_unstable=cfg.allow_unstable)
    payload = {
        "report": "synthesis",
        "defaults": dict(DEFAULTS),
        "system": {"source": label, "n": lsys.n, "p": lsys.p},
        "mode": "linear",
        "poles": [[p.real, p.imag] for p in cfg.poles],
        "observer": lobs.to_dict(),
        "hurwitz": lobs.alphas.hurwitz,
    }
    print(f"linear system: {label} (n={lsys.n}, p={lsys.p}); order v={lobs.v}")
    print(f"alphas: {list(lobs.alphas.alphas)}")
    for nm in ("A", "B", "C", "D"):
        print(f"{nm} = {getattr(lobs, nm).tolist()}")
    return payload, lobs


def cmd_synthesize(cfg: RunConfig) -> int:
    from .synthesis import save_observer
    if cfg.linear is not None:
        _refuse_unused(cfg, "linear synthesis", "psi", "builtin", "system")
        payload, obs = _synthesize_linear(cfg, load_linear_system(cfg.linear), cfg.linear)
    else:
        payload, obs = _synthesize_nonlinear(cfg, *_resolve_system(cfg))
    out = _outdir(cfg, default=".")
    obs_path = os.path.join(out, "observer.json")
    save_observer(obs, obs_path)
    print(f"wrote {obs_path}")
    rep_path = os.path.join(out, "synthesis.json")
    write_json(rep_path, payload)
    print(f"wrote {rep_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _x0(cfg: RunConfig, n: int) -> np.ndarray:
    if cfg.x0 is None:
        raise CliInputError("--x0 is required for simulation")
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (n,):
        raise CliInputError(f"--x0 needs {n} values for this system")
    if not np.isfinite(x0).all():
        raise CliInputError(f"--x0 values must be finite, got {cfg.x0}")
    return x0


def _init_chain(exact: np.ndarray, init: tuple) -> np.ndarray:
    """The estimate and its first v-1 derivatives at t = 0 under --init,
    given their values on the invariant manifold."""
    mode, val = init
    if mode == "exact":
        return exact
    if mode == "offset":
        chain = exact.copy()
        chain[0] += val
        return chain
    arr = np.asarray(val, dtype=float)  # explicit
    if arr.shape != exact.shape:
        raise CliInputError(f"explicit init needs v={exact.size} values, got {arr.size}")
    return arr


def _invariance_drift(sys_: SystemDef, obs: ObserverIO, trace: SimTrace) -> float | None:
    """Largest violation of the design identity along the simulated states;
    None when no row evaluates, as for a trace with no rows."""
    from .synthesis import invariance_identity
    lhs, rhs = invariance_identity(sys_, obs)
    stride = max(1, trace.x.shape[0] // 200)
    drifts = []
    for row in trace.x[::stride].tolist():
        b = sys_.bindings(row)
        try:
            lv, rv = evaluate(lhs, b), evaluate(rhs, b)
        except EvalError:
            continue
        drifts.append(abs(lv - rv))
    return max(drifts, default=None)


def _sim_summary(cfg: RunConfig, trace: SimTrace, alphas, e_init, extra: dict) -> dict:
    from .sim import error_decay_fit, exact_error_grid
    if trace.t.size:
        e_exact = exact_error_grid(alphas, e_init, trace.t)
        mismatch = float(np.max(np.abs(trace.err - e_exact)))
    else:  # the run failed at t = 0 and recorded nothing to compare
        mismatch = None
    t_end = float(trace.t[-1]) if trace.t.size else 0.0
    lo, hi = 0.1 * t_end, 0.4 * t_end
    try:
        rate, note = error_decay_fit(trace, lo, hi), None
    except SimError as exc:
        rate, note = None, str(exc)
    summary = {
        "report": "simulation",
        "defaults": dict(DEFAULTS),
        "dt": cfg.dt,
        "t_final": cfg.t_final,
        "event": trace.event,
        "n_recorded": int(trace.t.size),
        "max_abs_error": float(np.max(np.abs(trace.err))) if trace.err.size else None,
        "final_error": float(trace.err[-1]) if trace.err.size else None,
        "max_exact_mismatch": mismatch,
        "decay_fit": {"rate": rate, "window": [lo, hi], "note": note},
    }
    summary.update(extra)
    return summary


def _print_sim_summary(summary: dict):
    def fmt(val):
        return "none" if val is None else format(val, ".6e")

    print(f"recorded {summary['n_recorded']} rows; event: {summary['event'] or 'none'}")
    print(f"max |error| = {fmt(summary['max_abs_error'])}")
    print(f"max |error - exact| = {fmt(summary['max_exact_mismatch'])}")
    if summary["mode"] == "chain":
        print(f"invariance drift along trajectory: {fmt(summary['max_invariance_drift'])}")
    fit = summary["decay_fit"]
    if fit["rate"] is not None:
        print(f"fitted decay rate over [{fit['window'][0]:.3g}, {fit['window'][1]:.3g}]: {fit['rate']:.6g}")
    else:
        print(f"decay fit skipped: {fit['note']}")


def _simulate_chain(cfg: RunConfig, sys_: SystemDef, label: str, obs: ObserverIO):
    from .sim import chain_init_exact, simulate_coupled
    x0 = _x0(cfg, sys_.n)
    exact0 = chain_init_exact(sys_, x0, obs.v)
    chain0 = _init_chain(exact0, cfg.init)
    trace = simulate_coupled(sys_, obs, x0, chain0, cfg.t_final, dt=cfg.dt)
    return trace, _sim_summary(
        cfg,
        trace,
        obs.alphas,
        chain0 - exact0,
        {
            "mode": "chain",
            "system": {"source": label, "n": sys_.n, "p": sys_.p},
            "observer_order": obs.v,
            "init": {"mode": cfg.init[0], "chain0": chain0.tolist()},
            "max_invariance_drift": _invariance_drift(sys_, obs, trace),
        },
    )


def _simulate_realized(cfg: RunConfig, lsys: LinearSystemDef, label: str, lobs: LinearObserver):
    from .sim import _check_outputs, simulate_linear_observer
    from .synthesis import linear_error_init, xi_from_chain
    _check_outputs(lsys, lobs)
    x0 = _x0(cfg, lsys.n)
    powers = [np.linalg.matrix_power(lsys.F, k) for k in range(lobs.v)]
    zd = _init_chain(np.array([(lsys.q @ Fk @ x0).item() for Fk in powers]), cfg.init)
    yd = np.vstack([(lsys.H @ Fk @ x0) for Fk in powers])
    xi0 = xi_from_chain(lobs, zd, yd)
    trace = simulate_linear_observer(lsys, lobs, x0, xi0, cfg.t_final, dt=cfg.dt)
    return trace, _sim_summary(
        cfg,
        trace,
        lobs.alphas,
        linear_error_init(lsys, lobs, x0, xi0),
        {
            "mode": "realized-linear",
            "system": {"source": label, "n": lsys.n, "p": lsys.p},
            "observer_order": lobs.v,
            "init": {"mode": cfg.init[0], "zhat_derivs": zd.tolist(), "xi0": xi0.tolist()},
            "max_invariance_drift": None,
        },
    )


def cmd_simulate(cfg: RunConfig) -> int:
    from .sim import write_csv
    from .synthesis import LinearObserver, load_observer
    if cfg.observer is None:
        raise CliInputError("--observer is required")
    obs = load_observer(cfg.observer)
    if isinstance(obs, LinearObserver):
        if cfg.linear is None:
            raise CliInputError(
                "a realized linear observer needs --linear with the plant matrices"
            )
        _refuse_unused(cfg, "simulating a realized linear observer", "builtin", "system")
        trace, summary = _simulate_realized(cfg, load_linear_system(cfg.linear), cfg.linear, obs)
    else:
        _refuse_unused(cfg, "simulating a T-form observer", "linear")
        sys_, label = _resolve_system(cfg)
        sys_.check_reads(obs.T, f"{cfg.observer}: T", obs.v, ObservabilityError)
        trace, summary = _simulate_chain(cfg, sys_, label, obs)
    _print_sim_summary(summary)
    out = _outdir(cfg, default=".")
    trace_path = os.path.join(out, "trace.csv")
    write_csv(trace, trace_path)
    sum_path = os.path.join(out, "summary.json")
    write_json(sum_path, summary)
    print(f"wrote {trace_path}")
    print(f"wrote {sum_path}")
    event = trace.event
    if event == "divergence":
        print("simulation diverged; trace truncated")
    elif event == "evaluation-failure":
        print("simulation hit an evaluation failure; trace truncated")
    return EXIT_OK if event is None else EXIT_DIVERGED


# ---------------------------------------------------------------------------
# demo

# Each demo is a preset of RunConfig fields; `demo NAME` equals the staged
# `analyze`/`synthesize`/`simulate` runs with the same flags.
_DEMOS = {
    "batch": {
        "builtin": "batch-reactor",
        "psi": "psi_batch.json",
        "poles": (-2 + 0j,),
        "x0": (1.0, 0.2, 0.0),
        "init": ("explicit", (0.0,)),
    },
    "cstr": {
        "builtin": "cstr",
        "psi": "psi_cstr.json",
        "poles": (-1 + 0j,),
        "x0": (1.0, 1.0, 0.9),
        "init": ("offset", 0.1),
    },
    "linear": {
        "builtin": "double-integrator",
        "poles": (-3 + 0j,),
        "x0": (0.0, 1.0),
        "init": ("offset", 0.1),
    },
}


def cmd_demo(cfg: RunConfig) -> int:
    from .sim import write_csv
    from .synthesis import save_observer
    preset = dict(_DEMOS[cfg.demo])
    if "psi" in preset:
        preset["psi"] = str(data_path(preset["psi"]))
    cfg = replace(cfg, **preset)
    out = _outdir(cfg, default=f"funcobs-demo-{cfg.demo}")
    if cfg.demo == "linear":
        lsys = builtin_double_integrator()
        synthesis, obs = _synthesize_linear(cfg, lsys, cfg.builtin)
        trace, summary = _simulate_realized(cfg, lsys, cfg.builtin, obs)
        fields = {"observer": synthesis["observer"]}
    else:
        sys_, label = _resolve_system(cfg)
        analysis = _analyze(cfg, sys_, label)
        synthesis, obs = _synthesize_nonlinear(cfg, sys_, label)
        trace, summary = _simulate_chain(cfg, sys_, label, obs)
        write_json(os.path.join(out, "analysis.json"), analysis)
        fields = {
            "analysis": analysis,
            "observer": synthesis["observer"],
            "psi_max_residual": synthesis["psi_max_residual"],
            "invariance_max_residual": synthesis["invariance"]["max_residual"],
        }
    _print_sim_summary(summary)
    save_observer(obs, os.path.join(out, "observer.json"))
    write_csv(trace, os.path.join(out, "trace.csv"))
    report = {
        "report": "demo",
        "demo": cfg.demo,
        "defaults": dict(DEFAULTS),
        **fields,
        "simulation": summary,
    }
    write_json(os.path.join(out, "report.json"), report)
    print(f"wrote artifacts to {out}")
    return EXIT_DIVERGED if trace.event else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


_COMMANDS = {
    "analyze": cmd_analyze,
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "demo": cmd_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="funcobs",
        description="Local functional observability analysis and observer synthesis",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    pa = sub.add_parser("analyze", help="observability and functional-index report")
    ps = sub.add_parser("synthesize", help="design an observer")
    pm = sub.add_parser("simulate", help="coupled plant/observer rollout")
    pd = sub.add_parser("demo", help="bundled end-to-end runs")
    pd.add_argument("demo", metavar="name", choices=_DEMOS)
    for p in (pa, ps, pm):
        p.add_argument("system", nargs="?", help="system JSON file")
        p.add_argument("--builtin", help="builtin system name")
    for p in (pa, ps, pm, pd):
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
    for p in (pa, pd):
        p.add_argument("--v-max", type=int)
    for p in (pm, pd):
        p.add_argument("--dt", type=float)
        p.add_argument("--t-final", type=float)

    pa.add_argument("--m-max", type=int)
    pa.add_argument("--psi", help="psi JSON to verify against the system")

    ps.add_argument("--psi", help="psi JSON (nonlinear route)")
    ps.add_argument("--linear", help="linear system JSON (matrix route)")
    ps.add_argument("--poles", help="comma list; complex as a+bi")
    ps.add_argument("--allow-unstable", action="store_true", default=None)

    pm.add_argument("--observer", help="observer JSON from synthesize")
    pm.add_argument("--linear", help="linear system JSON (for realized observers)")
    pm.add_argument("--x0", help="comma list of initial plant states")
    pm.add_argument("--init", help="exact | offset=<r> | explicit=<list>")
    return ap


@functools.cache  # once per process
def _skip_exit_collection():
    """Freeze every object at interpreter exit, so that the exit skips its
    cyclic collection over all that the imports made, numpy's included.
    Nothing is lost: each artifact is written inside a `with` block, and the
    interpreter flushes stdout and stderr after the atexit callbacks.  A
    process that calls main and goes on collects as before."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _skip_exit_collection()
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # each dest is a RunConfig field; an option not given is None and keeps its default
    given = {k: v for k, v in vars(ns).items() if v is not None}
    title = f"demo {ns.demo}" if ns.command == "demo" else ns.command
    report = io.StringIO()  # shown once the command returns, so a refusal prints no report
    try:
        for nm, convert in (("poles", parse_poles), ("x0", parse_floats), ("init", parse_init)):
            if nm in given:
                given[nm] = convert(given[nm])
        with contextlib.redirect_stdout(report):
            print(f"== funcobs {title} ==")
            print(HEADER)
            code = _COMMANDS[ns.command](RunConfig(**given))
    except UnstablePolesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (CliInputError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write(report.getvalue())
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
