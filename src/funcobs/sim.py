"""Coupled plant/observer simulation with a fixed-step classical RK4 rule.

The step size is constant and the loop is straight-line arithmetic, so a
given configuration reproduces bit-for-bit.  Estimates that pass 1e12 in
magnitude truncate the run with a divergence event; evaluation failures
(domain errors in the plant or observer expressions) truncate likewise.

The nonlinear rollouts run on plain Python floats: the state is a list and
the compiled expressions receive floats, so a division by zero or a log of
a negative raises instead of producing inf/nan.  scipy is imported only for
the exact error dynamics of order two and above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import EvalError, as_expr, compile_exprs
from .lie import observability_set, q_derivatives
from .synthesis import AlphaCoeffs, LinearObserver, ObserverIO
from .system import LinearSystemDef, SystemDef

DIVERGENCE_LIMIT = 1e12


class SimError(ValueError):
    pass


@dataclass
class SimTrace:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    zhat: np.ndarray
    err: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def event(self):
        return self.meta.get("event")


def _steps(t_final: float, dt: float) -> int:
    if dt <= 0 or t_final <= 0:
        raise SimError("dt and t_final must be positive")
    n = int(round(t_final / dt))
    if n < 1:
        raise SimError("t_final shorter than one step")
    return n


_DOMAIN_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def compile_checked(exprs, names, consts):
    """compile_exprs, with the domain errors of the compiled expressions
    (ZeroDivisionError, ValueError, OverflowError) re-raised as EvalError.
    Callers catch EvalError alone, so an error in their own code propagates
    instead of passing for a failure of the expressions."""
    exprs = tuple(exprs)
    fn = compile_exprs(exprs, names, consts)

    def call(vals):
        try:
            return fn(vals)
        except _DOMAIN_ERRORS as exc:
            raise EvalError(str(exc), ", ".join(map(str, exprs))) from exc

    return call


def _rk4_loop(rhs, s0, dt: float, n_steps: int, zhat_slot=None):
    s = [float(v) for v in s0]
    rows = [s]
    event = None
    h2, h6 = 0.5 * dt, dt / 6.0
    for _ in range(n_steps):
        try:
            k1 = rhs(s)
            k2 = rhs([a + h2 * b for a, b in zip(s, k1)])
            k3 = rhs([a + h2 * b for a, b in zip(s, k2)])
            k4 = rhs([a + dt * b for a, b in zip(s, k3)])
        except EvalError:
            event = "evaluation-failure"
            break
        s = [
            a + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)
        ]
        if not all(map(math.isfinite, s)):
            event = "divergence"
            break
        rows.append(s)
        if zhat_slot is not None and abs(s[zhat_slot]) > DIVERGENCE_LIMIT:
            event = "divergence"
            break
    return np.array(rows), event


def _meta(dt, t_final, event, n_recorded, extra=None) -> dict:
    meta = {
        "integrator": "rk4",
        "dt": dt,
        "t_final": t_final,
        "event": event,
        "n_recorded": n_recorded,
    }
    if extra:
        meta.update(extra)
    return meta


def _fill_outputs(states, n, p, h_fn, q_fn, zhat_fn=None):
    """Evaluate outputs row by row; a failing row truncates the trace."""
    y, z, zh = [], [], []
    cut = None
    for row in states.tolist():
        x = row[:n]
        try:
            yk = h_fn(x)
            zk = q_fn(x)[0]
            zhk = math.nan if zhat_fn is None else zhat_fn(row, yk)
        except EvalError:
            cut = len(z)
            break
        y.append(yk)
        z.append(zk)
        zh.append(zhk)
    return np.array(y, dtype=float).reshape(len(z), p), np.array(z), np.array(zh), cut


def integrate_plant(sys: SystemDef, x0, t_final: float, dt: float = 1e-3) -> SimTrace:
    """Plant-only rollout recording states, outputs and the target."""
    n_steps = _steps(t_final, dt)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.n,):
        raise SimError(f"x0 must have {sys.n} entries")
    f_fn = compile_checked(sys.f, sys.state_names, sys.params)
    h_fn = compile_checked(sys.h, sys.state_names, sys.params)
    q_fn = compile_checked((sys.q,), sys.state_names, sys.params)

    states, event = _rk4_loop(f_fn, x0, dt, n_steps)
    y, z, zh, cut = _fill_outputs(states, sys.n, sys.p, h_fn, q_fn)
    if cut is not None:
        states = states[:cut]
        event = event or "evaluation-failure"
    t = np.arange(states.shape[0]) * dt
    err = np.full(states.shape[0], np.nan)
    return SimTrace(
        t=t, x=states, y=y, z=z, zhat=zh, err=err,
        meta=_meta(dt, t_final, event, states.shape[0]),
    )


def chain_init_exact(sys: SystemDef, x0, v: int) -> np.ndarray:
    """Estimate-chain start on the invariant manifold: the target and its
    derivatives along the flow at x0, orders 0..v-1."""
    from .expr import evaluate

    qd = q_derivatives(sys, v - 1)
    b = sys.bindings(x0)
    return np.array([evaluate(e, b) for e in qd.Q])


def simulate_coupled(
    sys: SystemDef,
    obs: ObserverIO,
    x0,
    chain0,
    t_final: float,
    dt: float = 1e-3,
) -> SimTrace:
    """Joint rollout of the plant and the order-v estimate chain.

    The chain state holds the estimate and its first v-1 time derivatives;
    the top equation is driven by T evaluated on the plant's current output
    derivatives, with the assigned-polynomial feedback.
    """
    n_steps = _steps(t_final, dt)
    v = obs.v
    x0 = np.asarray(x0, dtype=float)
    chain0 = np.asarray(chain0, dtype=float)
    if x0.shape != (sys.n,):
        raise SimError(f"x0 must have {sys.n} entries")
    if chain0.shape != (v,):
        raise SimError(f"chain0 must have v={v} entries")

    wmap = observability_set(sys, v + 1).derivative_map()
    wnames = [f"w{i}_{j}" for i, j in wmap]
    wexprs = list(wmap.values())

    f_fn = compile_checked(sys.f, sys.state_names, sys.params)
    w_fn = compile_checked(wexprs, sys.state_names, sys.params)
    T_fn = compile_checked((obs.T,), wnames, sys.params)
    h_fn = compile_checked(sys.h, sys.state_names, sys.params)
    q_fn = compile_checked((sys.q,), sys.state_names, sys.params)

    n = sys.n
    a = obs.alphas.alphas

    def rhs(s):
        x = s[:n]
        c = s[n:]
        top = T_fn(w_fn(x))[0]
        for k in range(1, v + 1):
            top -= a[k - 1] * c[v - k]
        return [*f_fn(x), *c[1:], top]

    s0 = np.concatenate((x0, chain0))
    states, event = _rk4_loop(rhs, s0, dt, n_steps, zhat_slot=n)
    y, z, zh, cut = _fill_outputs(
        states, n, sys.p, h_fn, q_fn, zhat_fn=lambda s, yk: s[n]
    )
    if cut is not None:
        states = states[:cut]
        event = event or "evaluation-failure"
    t = np.arange(states.shape[0]) * dt
    return SimTrace(
        t=t, x=states[:, :n], y=y, z=z, zhat=zh, err=zh - z,
        meta=_meta(dt, t_final, event, states.shape[0], {"v": v, "chain0": chain0.tolist()}),
    )


def simulate_custom_observer(
    sys: SystemDef,
    xi_rhs,
    zhat_expr,
    x0,
    xi0,
    t_final: float,
    dt: float = 1e-3,
) -> SimTrace:
    """Rollout of the plant against a user-supplied observer realization.

    The observer state derivative expressions and the estimate read-out may
    reference the observer states as xi1..xim, the measurements as y1..yp,
    and the plant parameters.
    """
    n_steps = _steps(t_final, dt)
    x0 = np.asarray(x0, dtype=float)
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    if x0.shape != (sys.n,):
        raise SimError(f"x0 must have {sys.n} entries")
    m = xi0.size
    if len(xi_rhs) != m:
        raise SimError("xi0 length must match the number of observer state equations")

    xi_names = [f"xi{i+1}" for i in range(m)]
    y_names = [f"y{j+1}" for j in range(sys.p)]
    f_fn = compile_checked(sys.f, sys.state_names, sys.params)
    h_fn = compile_checked(sys.h, sys.state_names, sys.params)
    q_fn = compile_checked((sys.q,), sys.state_names, sys.params)
    rhs_fn = compile_checked(tuple(as_expr(e) for e in xi_rhs), xi_names + y_names, sys.params)
    zhat_fn = compile_checked((as_expr(zhat_expr),), xi_names + y_names, sys.params)

    n = sys.n

    def rhs(s):
        x = s[:n]
        return [*f_fn(x), *rhs_fn([*s[n:], *h_fn(x)])]

    s0 = np.concatenate((x0, xi0))
    states, event = _rk4_loop(rhs, s0, dt, n_steps)

    def zhat_of(srow, yrow):
        return zhat_fn([*srow[n:], *yrow])[0]

    y, z, zh, cut = _fill_outputs(states, n, sys.p, h_fn, q_fn, zhat_fn=zhat_of)
    if cut is not None:
        states = states[:cut]
        event = event or "evaluation-failure"
    if event is None and zh.size and np.max(np.abs(zh)) > DIVERGENCE_LIMIT:
        keep = int(np.argmax(np.abs(zh) > DIVERGENCE_LIMIT)) + 1
        states, y, z, zh = states[:keep], y[:keep], z[:keep], zh[:keep]
        event = "divergence"
    t = np.arange(states.shape[0]) * dt
    return SimTrace(
        t=t, x=states[:, :n], y=y, z=z, zhat=zh, err=zh - z,
        meta=_meta(dt, t_final, event, states.shape[0], {"observer_states": m}),
    )


def simulate_linear_observer(
    lsys: LinearSystemDef,
    lobs: LinearObserver,
    x0,
    xi0,
    t_final: float,
    dt: float = 1e-3,
) -> SimTrace:
    """Joint rollout of a linear plant and a realized linear observer.

    The coupled system is linear and autonomous, so one classical RK4 step
    is exactly the degree-4 Taylor polynomial of the transition map; it is
    precomputed once and applied per step.
    """
    n_steps = _steps(t_final, dt)
    n, v = lsys.n, lobs.v
    x0 = np.asarray(x0, dtype=float)
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    if x0.shape != (n,) or xi0.shape != (v,):
        raise SimError("bad x0 or xi0 shape")
    Acl = np.zeros((n + v, n + v))
    Acl[:n, :n] = lsys.F
    Acl[n:, :n] = lobs.B @ lsys.H
    Acl[n:, n:] = lobs.A
    hA = dt * Acl
    P = np.eye(n + v) + hA @ (
        np.eye(n + v) + hA @ (np.eye(n + v) / 2 + hA @ (np.eye(n + v) / 6 + hA / 24))
    )
    states = np.empty((n_steps + 1, n + v))
    states[0] = np.concatenate((x0, xi0))
    event = None
    last = n_steps
    zh_row = np.concatenate(((lobs.D @ lsys.H)[0], lobs.C[0]))
    for k in range(n_steps):
        states[k + 1] = P @ states[k]
        if not np.all(np.isfinite(states[k + 1])) or abs(
            zh_row @ states[k + 1]
        ) > DIVERGENCE_LIMIT:
            event = "divergence"
            last = k + 1 if np.all(np.isfinite(states[k + 1])) else k
            break
    states = states[: last + 1]
    t = np.arange(states.shape[0]) * dt
    y = states[:, :n] @ lsys.H.T
    z = states[:, :n] @ lsys.q[0]
    zh = states @ zh_row
    return SimTrace(
        t=t, x=states[:, :n], y=y, z=z, zhat=zh, err=zh - z,
        meta=_meta(dt, t_final, event, states.shape[0], {"v": v}),
    )


# ---------------------------------------------------------------------------
# exact error dynamics and decay-rate fitting


def _expm(C: np.ndarray) -> np.ndarray:
    """Matrix exponential.  A 1x1 input takes np.exp, the route
    scipy.linalg.expm itself takes for it, so scipy is loaded only for
    orders two and above."""
    if C.shape == (1, 1):
        return np.exp(C)
    import scipy.linalg

    return scipy.linalg.expm(C)


def _error_companion(alphas: AlphaCoeffs) -> np.ndarray:
    v = alphas.v
    C = np.zeros((v, v))
    for i in range(v - 1):
        C[i, i + 1] = 1.0
    C[v - 1] = [-alphas.alphas[v - 1 - j] for j in range(v)]
    return C


def exact_error_solution(alphas: AlphaCoeffs, e_init, t: float) -> float:
    """Error at time t under the assigned polynomial, from the initial error
    and its derivatives.  Order one short-circuits to a scalar exponential;
    higher orders go through the matrix exponential of the companion form."""
    e_init = np.atleast_1d(np.asarray(e_init, dtype=float))
    if e_init.shape != (alphas.v,):
        raise SimError(f"e_init must have v={alphas.v} entries")
    if alphas.v == 1:
        return float(e_init[0] * math.exp(-alphas.alphas[0] * t))
    C = _error_companion(alphas)
    return float((_expm(C * t) @ e_init)[0])


def exact_error_grid(alphas: AlphaCoeffs, e_init, t_grid) -> np.ndarray:
    """Exact error evaluated on a uniform time grid (single exponential of
    the step, then repeated application)."""
    t_grid = np.asarray(t_grid, dtype=float)
    e_init = np.atleast_1d(np.asarray(e_init, dtype=float))
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise SimError("need a one-dimensional time grid")
    if t_grid.size == 1:
        return np.array([exact_error_solution(alphas, e_init, float(t_grid[0]))])
    dts = np.diff(t_grid)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=1e-12):
        raise SimError("time grid must be uniform")
    C = _error_companion(alphas)
    u = _expm(C * t_grid[0]) @ e_init if t_grid[0] != 0 else e_init.copy()
    Phi = _expm(C * dts[0])
    out = np.empty(t_grid.size)
    out[0] = u[0]
    for k in range(1, t_grid.size):
        u = Phi @ u
        out[k] = u[0]
    return out


def error_decay_fit(trace: SimTrace, t_lo: float, t_hi: float) -> float:
    """Least-squares slope of log|error| over a window.

    Refuses windows where the error magnitude is at numerical noise level or
    where the error changes sign (oscillatory decay needs an envelope fit
    against the exact solution instead of a line fit)."""
    mask = (trace.t >= t_lo) & (trace.t <= t_hi)
    if int(mask.sum()) < 2:
        raise SimError("fit window contains fewer than two samples")
    e = trace.err[mask]
    if np.any(~np.isfinite(e)):
        raise SimError("fit window contains non-finite error values")
    if np.min(np.abs(e)) <= 1e-14:
        raise SimError("error magnitude at or below 1e-14 in the fit window")
    signs = np.sign(e)
    if np.any(signs[1:] != signs[0]):
        raise SimError(
            "error changes sign inside the fit window; fit the envelope against "
            "the exact solution instead"
        )
    slope = np.polyfit(trace.t[mask], np.log(np.abs(e)), 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# trace export


def write_csv(trace: SimTrace, path):
    """Write t, states, outputs, target, estimate and error at 17 significant
    digits, one row per step."""
    n = trace.x.shape[1]
    p = trace.y.shape[1] if trace.y.ndim == 2 else 1
    cols = (
        ["t"]
        + [f"x{i+1}" for i in range(n)]
        + [f"y{j+1}" for j in range(p)]
        + ["z", "zhat", "err"]
    )
    table = np.column_stack((trace.t, trace.x, trace.y, trace.z, trace.zhat, trace.err))
    row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(row_fmt % tuple(row) for row in table.tolist())
