"""Command-line front end: analyze, synthesize, simulate, demo.

Every run is deterministic given its flags; the shared numeric defaults are
printed in each report header and embedded in the JSON artifacts.  Exit codes
are operational only: 0 success, 2 bad input, 3 refused unstable poles,
4 divergence during simulation.  Analysis verdicts are report content, never
exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .expr import EvalError, ExprError, to_text
from .lie import LieError, observability_set, q_derivatives
from .observability import (
    ObservabilityError,
    functional_index_candidate,
    functional_rank_check,
    load_psi,
    observability_index,
    verify_psi,
)
from .sim import (
    SimError,
    SimTrace,
    chain_init_exact,
    compile_checked,
    error_decay_fit,
    exact_error_grid,
    simulate_coupled,
    simulate_linear_observer,
    write_csv,
)
from .synthesis import (
    LinearObserver,
    ObserverIO,
    SynthesisError,
    UnstablePolesError,
    design_linear_observer,
    linear_error_init,
    load_observer,
    poles_to_alphas,
    save_observer,
    synthesize_nonlinear,
    verify_invariance,
    xi_from_chain,
)
from .system import (
    LinearSystemDef,
    SystemDef,
    SystemDefError,
    builtin_batch_reactor,
    builtin_cstr,
    linear_to_system,
    load_linear_system,
    load_system,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSTABLE = 3
EXIT_DIVERGED = 4

DEFAULTS = {"dt": 1e-3, "samples": 100, "seed": 42, "t_final": 10.0}

_INPUT_ERRORS = (
    SystemDefError,
    ObservabilityError,
    SynthesisError,
    SimError,
    ExprError,
    LieError,
    OSError,
    json.JSONDecodeError,
)


class CliInputError(ValueError):
    pass


def data_path(name: str):
    """Path to a bundled data file (psi representations, linear systems)."""
    return resources.files("funcobs").joinpath("data", name)


BUILTINS = {
    "batch-reactor": builtin_batch_reactor,
    "cstr": builtin_cstr,
}


def builtin_double_integrator() -> LinearSystemDef:
    with data_path("lin_double_integrator.json").open() as fh:
        raw = json.load(fh)
    return LinearSystemDef(
        F=np.asarray(raw["F"], dtype=float),
        H=np.asarray(raw["H"], dtype=float),
        q=np.asarray(raw["q"], dtype=float),
    )


@dataclass
class RunConfig:
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
            if getattr(self, nm) <= 0:
                raise CliInputError(f"--{nm.replace('_', '-')} must be positive")
        for nm in ("samples", "m_max", "v_max"):
            if getattr(self, nm) < 1:
                raise CliInputError(f"--{nm.replace('_', '-')} must be >= 1")

    def header(self) -> str:
        return (
            f"defaults: dt={DEFAULTS['dt']}, samples={DEFAULTS['samples']}, "
            f"seed={DEFAULTS['seed']}, t_final={DEFAULTS['t_final']}"
        )

    def json_defaults(self) -> dict:
        return dict(DEFAULTS)


def parse_poles(text: str) -> tuple[complex, ...]:
    """Comma list; complex entries written as a+bi."""
    poles = []
    for tok in text.split(","):
        tok = tok.strip().replace(" ", "")
        if not tok:
            continue
        try:
            poles.append(complex(tok.replace("i", "j")))
        except ValueError:
            raise CliInputError(f"cannot parse pole '{tok}'") from None
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
    if text.startswith("offset="):
        try:
            return ("offset", float(text[len("offset="):]))
        except ValueError:
            raise CliInputError(f"cannot parse '{text}'") from None
    if text.startswith("explicit="):
        return ("explicit", parse_floats(text[len("explicit="):]))
    raise CliInputError(
        f"--init must be exact, offset=<r>, or explicit=<list>; got '{text}'"
    )


def _resolve_system(cfg: RunConfig) -> tuple[SystemDef, str]:
    if cfg.builtin is not None and cfg.system is not None:
        raise CliInputError("give either a system file or --builtin, not both")
    if cfg.builtin is not None:
        if cfg.builtin == "double-integrator":
            return linear_to_system(builtin_double_integrator()), cfg.builtin
        if cfg.builtin not in BUILTINS:
            known = ", ".join(sorted(BUILTINS) + ["double-integrator"])
            raise CliInputError(f"unknown builtin '{cfg.builtin}' (known: {known})")
        return BUILTINS[cfg.builtin](), cfg.builtin
    if cfg.system is not None:
        return load_system(cfg.system), cfg.system
    raise CliInputError("a system file or --builtin is required")


def _outdir(cfg: RunConfig, default: str | None = None) -> str | None:
    out = cfg.out if cfg.out is not None else default
    if out is not None:
        os.makedirs(out, exist_ok=True)
    return out


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# analyze


def _analysis_payload(cfg: RunConfig, sys_: SystemDef, label: str) -> dict:
    index, reports = observability_index(
        sys_, cfg.m_max, n_samples=cfg.samples, seed=cfg.seed
    )
    fcheck = functional_rank_check(sys_, cfg.m_max, n_samples=cfg.samples, seed=cfg.seed)
    scan = functional_index_candidate(sys_, cfg.v_max, n_samples=cfg.samples, seed=cfg.seed)
    payload = {
        "report": "analysis",
        "defaults": cfg.json_defaults(),
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
            "n_agree": fcheck.n_agree,
            "n_checked": fcheck.n_checked,
            "verdict": fcheck.verdict,
        },
        "functional_index_candidate": scan.candidate,
        "functional_index_note": scan.note,
    }
    if cfg.psi is not None:
        rep = load_psi(cfg.psi)
        ver = verify_psi(sys_, rep, n_samples=cfg.samples, seed=cfg.seed)
        payload["psi_check"] = {
            "v": ver.v,
            "passed": ver.passed,
            "max_residual": max(ver.residuals),
            "residuals": ver.residuals,
            "rtol": ver.rtol,
        }
    return payload


def cmd_analyze(cfg: RunConfig) -> int:
    sys_, label = _resolve_system(cfg)
    payload = _analysis_payload(cfg, sys_, label)
    print("== funcobs analyze ==")
    print(cfg.header())
    print(f"system: {label}  (n={sys_.n} states, p={sys_.p} outputs, target {to_text(sys_.q)})")
    print(f"rank table over {cfg.samples} samples (seed {cfg.seed}):")
    for row in payload["rank_table"]:
        print(
            f"  m={row['m']}: max rank {row['max_rank']}/{sys_.n} "
            f"(at {row['fraction_at_max']:.0%} of samples)"
        )
    if payload["observability_index"] is None:
        last = payload["rank_table"][-1]
        print(
            f"observability index: NOT FOUND up to m={cfg.m_max} "
            f"(rank saturates at {last['max_rank']} < {sys_.n})"
        )
    else:
        print(f"observability index: {payload['observability_index']}")
    print(f"functional span check (m={cfg.m_max}): {payload['functional_rank_check']['verdict']}")
    cand = payload["functional_index_candidate"]
    if cand is None:
        print(f"functional index candidate: none found up to v_max={cfg.v_max}")
    else:
        print(f"functional index candidate: v={cand}")
    print(f"  note: {payload['functional_index_note']}")
    if "psi_check" in payload:
        pk = payload["psi_check"]
        word = "PASS" if pk["passed"] else "FAIL"
        print(
            f"psi check (v={pk['v']}): {word}, max residual {pk['max_residual']:.3e} "
            f"(rtol {pk['rtol']})"
        )
    out = _outdir(cfg)
    if out is not None:
        path = os.path.join(out, "analysis.json")
        _write_json(path, payload)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthesize


def _synthesize_nonlinear(cfg: RunConfig) -> tuple[dict, ObserverIO, int]:
    sys_, label = _resolve_system(cfg)
    if cfg.psi is None:
        raise CliInputError("--psi is required for nonlinear synthesis")
    if not cfg.poles:
        raise CliInputError("--poles is required")
    rep = load_psi(cfg.psi)
    ver = verify_psi(sys_, rep, n_samples=cfg.samples, seed=cfg.seed)
    if not ver.passed:
        raise CliInputError(
            "psi representation failed verification against the system; residuals "
            + ", ".join(f"{r:.3e}" for r in ver.residuals)
        )
    alphas = poles_to_alphas(cfg.poles)
    obs = synthesize_nonlinear(rep, alphas, allow_unstable=cfg.allow_unstable)
    inv = verify_invariance(sys_, obs, n_samples=cfg.samples, seed=cfg.seed)
    payload = {
        "report": "synthesis",
        "defaults": cfg.json_defaults(),
        "system": {"source": label, "n": sys_.n, "p": sys_.p},
        "mode": "nonlinear",
        "poles": [[p.real, p.imag] for p in cfg.poles],
        "observer": obs.to_dict(),
        "hurwitz": alphas.hurwitz,
        "psi_max_residual": max(ver.residuals),
        "invariance": {"max_residual": inv.max_residual, "passed": inv.passed, "rtol": inv.rtol},
    }
    print("== funcobs synthesize ==")
    print(cfg.header())
    print(f"system: {label}; psi order v={rep.v}; poles {cfg.poles}")
    print(f"psi verification: max residual {max(ver.residuals):.3e}")
    print(f"alphas (monic coefficients, high to low): {list(alphas.alphas)}")
    print(f"T = {to_text(obs.T)}")
    word = "PASS" if inv.passed else "FAIL"
    print(f"invariance check: {word}, max residual {inv.max_residual:.3e}")
    return payload, obs, EXIT_OK


def _synthesize_linear(cfg: RunConfig) -> tuple[dict, LinearObserver, int]:
    if not cfg.poles:
        raise CliInputError("--poles is required")
    lsys = load_linear_system(cfg.linear)
    lobs = design_linear_observer(
        lsys, cfg.poles, v_max=cfg.v_max, allow_unstable=cfg.allow_unstable
    )
    payload = {
        "report": "synthesis",
        "defaults": cfg.json_defaults(),
        "system": {"source": cfg.linear, "n": lsys.n, "p": lsys.p},
        "mode": "linear",
        "poles": [[p.real, p.imag] for p in cfg.poles],
        "observer": lobs.to_dict(),
        "hurwitz": lobs.alphas.hurwitz,
    }
    print("== funcobs synthesize ==")
    print(cfg.header())
    print(f"linear system: {cfg.linear} (n={lsys.n}, p={lsys.p}); order v={lobs.v}")
    print(f"alphas: {list(lobs.alphas.alphas)}")
    for nm in ("A", "B", "C", "D"):
        print(f"{nm} = {getattr(lobs, nm).tolist()}")
    return payload, lobs, EXIT_OK


def cmd_synthesize(cfg: RunConfig) -> int:
    if cfg.linear is not None:
        payload, obs, code = _synthesize_linear(cfg)
    else:
        payload, obs, code = _synthesize_nonlinear(cfg)
    out = _outdir(cfg, default=".")
    obs_path = os.path.join(out, "observer.json")
    save_observer(obs, obs_path)
    print(f"wrote {obs_path}")
    rep_path = os.path.join(out, "synthesis.json")
    _write_json(rep_path, payload)
    print(f"wrote {rep_path}")
    return code


# ---------------------------------------------------------------------------
# simulate


def _chain_from_init(sys_: SystemDef, x0, v: int, init: tuple) -> np.ndarray:
    mode, val = init
    exact = chain_init_exact(sys_, np.asarray(x0), v)
    if mode == "exact":
        return exact
    if mode == "offset":
        chain = exact.copy()
        chain[0] += val
        return chain
    if mode == "explicit":
        arr = np.asarray(val, dtype=float)
        if arr.shape != (v,):
            raise CliInputError(f"explicit init needs v={v} values, got {arr.size}")
        return arr
    raise CliInputError(f"unknown init mode '{mode}'")


def _invariance_drift(sys_: SystemDef, obs: ObserverIO, trace: SimTrace) -> float:
    """Largest violation of the defining identity along the simulated states."""
    from .expr import Const, Product, Sum, simplify, substitute

    v = obs.v
    qd = q_derivatives(sys_, v)
    terms = [qd.Q[v]]
    for k, a in enumerate(obs.alphas.alphas, start=1):
        terms.append(Product((Const(float(a)), qd.Q[v - k])))
    lhs = simplify(Sum(tuple(terms)))
    os_ = observability_set(sys_, v + 1)
    subs = {(i, j): os_.table[i][j - 1] for i in range(v + 1) for j in range(1, sys_.p + 1)}
    rhs = substitute(obs.T, subs)
    fn = compile_checked((lhs, rhs), sys_.state_names, sys_.params)
    stride = max(1, trace.x.shape[0] // 200)
    worst = 0.0
    for row in trace.x[::stride].tolist():
        try:
            lv, rv = fn(row)
        except EvalError:
            continue
        worst = max(worst, abs(lv - rv))
    return worst


def _fit_or_note(trace: SimTrace, t_lo: float, t_hi: float):
    try:
        return error_decay_fit(trace, t_lo, t_hi), None
    except SimError as exc:
        return None, str(exc)


def _sim_summary(cfg: RunConfig, trace: SimTrace, e_exact: np.ndarray, extra: dict) -> dict:
    mismatch = float(np.max(np.abs(trace.err - e_exact))) if trace.err.size else float("nan")
    t_end = float(trace.t[-1]) if trace.t.size else 0.0
    lo, hi = 0.1 * t_end, 0.4 * t_end
    rate, note = _fit_or_note(trace, lo, hi)
    summary = {
        "report": "simulation",
        "defaults": cfg.json_defaults(),
        "dt": cfg.dt,
        "t_final": cfg.t_final,
        "event": trace.meta.get("event"),
        "n_recorded": int(trace.t.size),
        "max_abs_error": float(np.max(np.abs(trace.err))) if trace.err.size else None,
        "final_error": float(trace.err[-1]) if trace.err.size else None,
        "max_exact_mismatch": mismatch,
        "decay_fit": {"rate": rate, "window": [lo, hi], "note": note},
    }
    summary.update(extra)
    return summary


def _print_sim_summary(summary: dict):
    print(f"recorded {summary['n_recorded']} rows; event: {summary['event'] or 'none'}")
    print(f"max |error| = {summary['max_abs_error']:.6e}")
    print(f"max |error - exact| = {summary['max_exact_mismatch']:.6e}")
    if summary.get("max_invariance_drift") is not None:
        print(f"invariance drift along trajectory: {summary['max_invariance_drift']:.6e}")
    fit = summary["decay_fit"]
    if fit["rate"] is not None:
        print(f"fitted decay rate over [{fit['window'][0]:.3g}, {fit['window'][1]:.3g}]: {fit['rate']:.6g}")
    else:
        print(f"decay fit skipped: {fit['note']}")


def _simulate_chain(cfg: RunConfig, sys_: SystemDef, label: str, obs: ObserverIO):
    if cfg.x0 is None:
        raise CliInputError("--x0 is required for simulation")
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (sys_.n,):
        raise CliInputError(f"--x0 needs {sys_.n} values for this system")
    chain0 = _chain_from_init(sys_, x0, obs.v, cfg.init)
    exact0 = chain_init_exact(sys_, x0, obs.v)
    trace = simulate_coupled(sys_, obs, x0, chain0, cfg.t_final, dt=cfg.dt)
    e_exact = exact_error_grid(obs.alphas, chain0 - exact0, trace.t)
    drift = _invariance_drift(sys_, obs, trace)
    summary = _sim_summary(
        cfg,
        trace,
        e_exact,
        {
            "mode": "chain",
            "system": {"source": label, "n": sys_.n, "p": sys_.p},
            "observer_order": obs.v,
            "init": {"mode": cfg.init[0], "chain0": chain0.tolist()},
            "max_invariance_drift": drift,
        },
    )
    return trace, summary


def _simulate_realized(cfg: RunConfig, lobs: LinearObserver):
    if cfg.linear is None:
        raise CliInputError(
            "a realized linear observer needs --linear with the plant matrices"
        )
    lsys = load_linear_system(cfg.linear)
    if cfg.x0 is None:
        raise CliInputError("--x0 is required for simulation")
    x0 = np.asarray(cfg.x0, dtype=float)
    if x0.shape != (lsys.n,):
        raise CliInputError(f"--x0 needs {lsys.n} values for this system")
    v = lobs.v
    zd = np.array([(lsys.q @ np.linalg.matrix_power(lsys.F, k) @ x0).item() for k in range(v)])
    mode, val = cfg.init
    if mode == "offset":
        zd[0] += val
    elif mode == "explicit":
        arr = np.asarray(val, dtype=float)
        if arr.shape != (v,):
            raise CliInputError(f"explicit init needs v={v} values, got {arr.size}")
        zd = arr
    yd = np.vstack([(lsys.H @ np.linalg.matrix_power(lsys.F, k) @ x0) for k in range(v)])
    xi0 = xi_from_chain(lobs, zd, yd)
    trace = simulate_linear_observer(lsys, lobs, x0, xi0, cfg.t_final, dt=cfg.dt)
    e_init = linear_error_init(lsys, lobs, x0, xi0)
    e_exact = exact_error_grid(lobs.alphas, e_init, trace.t)
    summary = _sim_summary(
        cfg,
        trace,
        e_exact,
        {
            "mode": "realized-linear",
            "system": {"source": cfg.linear, "n": lsys.n, "p": lsys.p},
            "observer_order": lobs.v,
            "init": {"mode": mode, "zhat_derivs": zd.tolist(), "xi0": xi0.tolist()},
            "max_invariance_drift": None,
        },
    )
    return trace, summary


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.observer is None:
        raise CliInputError("--observer is required")
    obs = load_observer(cfg.observer)
    print("== funcobs simulate ==")
    print(cfg.header())
    if isinstance(obs, LinearObserver):
        trace, summary = _simulate_realized(cfg, obs)
    else:
        sys_, label = _resolve_system(cfg)
        trace, summary = _simulate_chain(cfg, sys_, label, obs)
    _print_sim_summary(summary)
    out = _outdir(cfg, default=".")
    trace_path = os.path.join(out, "trace.csv")
    write_csv(trace, trace_path)
    sum_path = os.path.join(out, "summary.json")
    _write_json(sum_path, summary)
    print(f"wrote {trace_path}")
    print(f"wrote {sum_path}")
    if trace.meta.get("event") == "divergence":
        print("simulation diverged; trace truncated")
        return EXIT_DIVERGED
    if trace.meta.get("event") == "evaluation-failure":
        print("simulation hit an evaluation failure; trace truncated")
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# demo


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
}


def _demo_linear(cfg: RunConfig, out: str) -> int:
    lsys = builtin_double_integrator()
    lobs = design_linear_observer(lsys, (-3 + 0j,), v_max=cfg.v_max)
    print("== funcobs demo linear ==")
    print(cfg.header())
    print(f"double integrator: order v={lobs.v}, alphas {list(lobs.alphas.alphas)}")
    for nm in ("A", "B", "C", "D"):
        print(f"{nm} = {getattr(lobs, nm).tolist()}")
    x0 = np.array([0.0, 1.0])
    zd = np.array([(lsys.q @ x0).item() + 0.1])
    yd = np.atleast_2d(lsys.H @ x0)
    xi0 = xi_from_chain(lobs, zd, yd)
    trace = simulate_linear_observer(lsys, lobs, x0, xi0, cfg.t_final, dt=cfg.dt)
    e_init = linear_error_init(lsys, lobs, x0, xi0)
    e_exact = exact_error_grid(lobs.alphas, e_init, trace.t)
    summary = _sim_summary(
        cfg,
        trace,
        e_exact,
        {
            "mode": "realized-linear",
            "system": {"source": "double-integrator", "n": lsys.n, "p": lsys.p},
            "observer_order": lobs.v,
            "init": {"mode": "offset", "zhat_derivs": zd.tolist(), "xi0": xi0.tolist()},
            "max_invariance_drift": None,
        },
    )
    _print_sim_summary(summary)
    save_observer(lobs, os.path.join(out, "observer.json"))
    write_csv(trace, os.path.join(out, "trace.csv"))
    report = {
        "report": "demo",
        "demo": "linear",
        "defaults": cfg.json_defaults(),
        "observer": lobs.to_dict(),
        "simulation": summary,
    }
    _write_json(os.path.join(out, "report.json"), report)
    print(f"wrote artifacts to {out}")
    return EXIT_DIVERGED if trace.meta.get("event") else EXIT_OK


def cmd_demo(cfg: RunConfig) -> int:
    if cfg.demo == "linear":
        out = _outdir(cfg, default="funcobs-demo-linear")
        return _demo_linear(cfg, out)
    if cfg.demo not in _DEMOS:
        raise CliInputError(f"unknown demo '{cfg.demo}' (known: batch, cstr, linear)")
    preset = _DEMOS[cfg.demo]
    out = _outdir(cfg, default=f"funcobs-demo-{cfg.demo}")
    sys_ = BUILTINS[preset["builtin"]]()
    print(f"== funcobs demo {cfg.demo} ==")
    print(cfg.header())

    payload = _analysis_payload(cfg, sys_, preset["builtin"])
    idx = payload["observability_index"]
    print(
        f"analysis: observability index "
        f"{idx if idx is not None else 'NOT FOUND (state rank deficient)'}; "
        f"functional candidate v={payload['functional_index_candidate']}"
    )
    _write_json(os.path.join(out, "analysis.json"), payload)

    with data_path(preset["psi"]).open() as fh:
        raw = json.load(fh)
    from .expr import parse
    from .observability import PsiRepresentation

    rep = PsiRepresentation(v=int(raw["v"]), psi=tuple(parse(s) for s in raw["psi"]))
    ver = verify_psi(sys_, rep, n_samples=cfg.samples, seed=cfg.seed)
    alphas = poles_to_alphas(preset["poles"])
    obs = synthesize_nonlinear(rep, alphas)
    inv = verify_invariance(sys_, obs, n_samples=cfg.samples, seed=cfg.seed)
    print(
        f"synthesis: poles {preset['poles']}; psi residual {max(ver.residuals):.3e}; "
        f"invariance residual {inv.max_residual:.3e}"
    )
    print(f"T = {to_text(obs.T)}")
    save_observer(obs, os.path.join(out, "observer.json"))

    x0 = np.asarray(preset["x0"], dtype=float)
    chain0 = _chain_from_init(sys_, x0, obs.v, preset["init"])
    exact0 = chain_init_exact(sys_, x0, obs.v)
    trace = simulate_coupled(sys_, obs, x0, chain0, cfg.t_final, dt=cfg.dt)
    e_exact = exact_error_grid(obs.alphas, chain0 - exact0, trace.t)
    drift = _invariance_drift(sys_, obs, trace)
    summary = _sim_summary(
        cfg,
        trace,
        e_exact,
        {
            "mode": "chain",
            "system": {"source": preset["builtin"], "n": sys_.n, "p": sys_.p},
            "observer_order": obs.v,
            "init": {"mode": preset["init"][0], "chain0": chain0.tolist()},
            "max_invariance_drift": drift,
        },
    )
    _print_sim_summary(summary)
    write_csv(trace, os.path.join(out, "trace.csv"))
    report = {
        "report": "demo",
        "demo": cfg.demo,
        "defaults": cfg.json_defaults(),
        "analysis": payload,
        "observer": obs.to_dict(),
        "psi_max_residual": max(ver.residuals),
        "invariance_max_residual": inv.max_residual,
        "simulation": summary,
    }
    _write_json(os.path.join(out, "report.json"), report)
    print(f"wrote artifacts to {out}")
    return EXIT_DIVERGED if trace.meta.get("event") else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="funcobs",
        description="Local functional observability analysis and observer synthesis",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, system=True):
        if system:
            p.add_argument("system", nargs="?", help="system JSON file")
            p.add_argument("--builtin", help="builtin system name")
        p.add_argument("--samples", type=int, default=DEFAULTS["samples"])
        p.add_argument("--seed", type=int, default=DEFAULTS["seed"])
        p.add_argument("--out", help="output directory")

    pa = sub.add_parser("analyze", help="observability and functional-index report")
    common(pa)
    pa.add_argument("--m-max", type=int, default=6, dest="m_max")
    pa.add_argument("--v-max", type=int, default=3, dest="v_max")
    pa.add_argument("--psi", help="psi JSON to verify against the system")

    ps = sub.add_parser("synthesize", help="design an observer")
    common(ps)
    ps.add_argument("--psi", help="psi JSON (nonlinear route)")
    ps.add_argument("--linear", help="linear system JSON (matrix route)")
    ps.add_argument("--poles", help="comma list; complex as a+bi")
    ps.add_argument("--v-max", type=int, default=5, dest="v_max")
    ps.add_argument("--allow-unstable", action="store_true")

    pm = sub.add_parser("simulate", help="coupled plant/observer rollout")
    common(pm)
    pm.add_argument("--observer", help="observer JSON from synthesize")
    pm.add_argument("--linear", help="linear system JSON (for realized observers)")
    pm.add_argument("--x0", help="comma list of initial plant states")
    pm.add_argument("--init", default="exact", help="exact | offset=<r> | explicit=<list>")
    pm.add_argument("--dt", type=float, default=DEFAULTS["dt"])
    pm.add_argument("--t-final", type=float, default=DEFAULTS["t_final"], dest="t_final")

    pd = sub.add_parser("demo", help="bundled end-to-end runs")
    pd.add_argument("name", choices=["batch", "cstr", "linear"])
    pd.add_argument("--samples", type=int, default=DEFAULTS["samples"])
    pd.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    pd.add_argument("--dt", type=float, default=DEFAULTS["dt"])
    pd.add_argument("--t-final", type=float, default=DEFAULTS["t_final"], dest="t_final")
    pd.add_argument("--out", help="output directory")
    pd.add_argument("--v-max", type=int, default=3, dest="v_max")
    return ap


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    kw = {"command": ns.command}
    for nm in (
        "system",
        "builtin",
        "psi",
        "linear",
        "observer",
        "samples",
        "seed",
        "m_max",
        "v_max",
        "dt",
        "t_final",
        "allow_unstable",
        "out",
    ):
        if hasattr(ns, nm) and getattr(ns, nm) is not None:
            kw[nm] = getattr(ns, nm)
    if getattr(ns, "poles", None):
        kw["poles"] = parse_poles(ns.poles)
    if getattr(ns, "x0", None):
        kw["x0"] = parse_floats(ns.x0)
    if getattr(ns, "init", None):
        kw["init"] = parse_init(ns.init)
    if ns.command == "demo":
        kw["demo"] = ns.name
    return RunConfig(**kw)


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(ns)
        if cfg.command == "analyze":
            return cmd_analyze(cfg)
        if cfg.command == "synthesize":
            return cmd_synthesize(cfg)
        if cfg.command == "simulate":
            return cmd_simulate(cfg)
        if cfg.command == "demo":
            return cmd_demo(cfg)
        raise CliInputError(f"unknown command '{cfg.command}'")
    except UnstablePolesError as exc:
        print(f"error: {exc}")
        return EXIT_UNSTABLE
    except (CliInputError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}")
        return EXIT_INPUT


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
