"""Coupled plant/observer simulation with a fixed-step classical RK4 rule.

The step size is constant and the loop is straight-line arithmetic, so a
given configuration reproduces bit-for-bit.  Estimates that pass 1e12 in
magnitude truncate the run with a divergence event; evaluation failures
(domain errors in the plant or observer expressions) truncate likewise.

Each nonlinear rollout runs one generated Python function whose loop body
is the four RK4 stages unrolled over scalar float locals, with the plant
and observer expressions inlined, so a division by zero or a log of a
negative raises instead of producing inf/nan.  scipy is imported only for
the exact error dynamics of order two and above.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .expr import _PY_NS, EvalError, _py_src, as_expr, compile_exprs
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


def _rk4_kernel(aux, derivs, s0, dt: float, n_steps: int, zhat_slot=None):
    """Fixed-step RK4 through one generated function.

    The right-hand side is source over the stage state u0..u<m-1>: the `aux`
    statements run first, then `derivs` gives one expression per state
    entry.  The four stages are unrolled over scalar locals in the operation
    order of a list-based loop: stage states s + (dt/2)*k and s + dt*k, then
    s + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4).  A domain error of the
    right-hand side ends the run as "evaluation-failure"; a non-finite state
    ends it as "divergence" before it is recorded, as does a recorded
    |s[zhat_slot]| above DIVERGENCE_LIMIT.  Returns (rows, event), one row
    per recorded step.
    """
    m = len(derivs)
    s = [f"s{i}" for i in range(m)]
    stages = (
        s,
        [f"s{i} + h2*k1_{i}" for i in range(m)],
        [f"s{i} + h2*k2_{i}" for i in range(m)],
        [f"s{i} + dt*k3_{i}" for i in range(m)],
    )
    body = [f"{', '.join(s)}, = start", "append = rows.append", "for _ in range(n_steps):", "    try:"]
    for j, inputs in enumerate(stages, 1):
        body += [f"        u{i} = {e}" for i, e in enumerate(inputs)]
        body += [f"        {line}" for line in aux]
        body += [f"        k{j}_{i} = {e}" for i, e in enumerate(derivs)]
    body += ["    except _DOMAIN_ERRORS:", "        return 'evaluation-failure'"]
    body += [f"    s{i} = s{i} + h6*(((k1_{i} + 2.0*k2_{i}) + 2.0*k3_{i}) + k4_{i})" for i in range(m)]
    body += [f"    if not ({' and '.join(f'isfinite({x})' for x in s)}):", "        return 'divergence'"]
    body += [f"    append([{', '.join(s)}])"]
    if zhat_slot is not None:
        body += [f"    if abs(s{zhat_slot}) > {DIVERGENCE_LIMIT!r}:", "        return 'divergence'"]
    src = "def _run(start, rows, n_steps, h2, dt, h6, isfinite):\n" + "\n".join(f"    {ln}" for ln in body)
    ns = {**_PY_NS, "_DOMAIN_ERRORS": _DOMAIN_ERRORS}
    exec(compile(src, "<rk4-kernel>", "exec"), ns)
    start = [float(v) for v in s0]
    rows = [start]
    event = ns["_run"](start, rows, n_steps, 0.5 * dt, dt, dt / 6.0, math.isfinite)
    return rows, event


def _slots(names, prefix: str, offset: int = 0) -> dict:
    return {nm: f"{prefix}{offset + k}" for k, nm in enumerate(names)}


def _rollout(sys: SystemDef, aux, derivs, s0, dt, n_steps, zhat_slot=None, zhat_fn=None):
    """Kernel rollout of a state that starts with the plant's, with its
    outputs; a row whose outputs fail to evaluate truncates the trace."""
    h_fn = compile_checked(sys.h, sys.state_names, sys.params)
    q_fn = compile_checked((sys.q,), sys.state_names, sys.params)
    rows, event = _rk4_kernel(aux, derivs, s0, dt, n_steps, zhat_slot)
    y, z, zh, cut = _fill_outputs(rows, sys.n, sys.p, h_fn, q_fn, zhat_fn)
    states = np.array(rows)
    if cut is not None:
        states = states[:cut]
        event = event or "evaluation-failure"
    return states, y, z, zh, event


def _trace(dt, t_final, event, x, y, z, zhat, err, **extra) -> SimTrace:
    meta = {"integrator": "rk4", "dt": dt, "t_final": t_final, "event": event}
    meta.update(n_recorded=x.shape[0], **extra)
    return SimTrace(t=np.arange(x.shape[0]) * dt, x=x, y=y, z=z, zhat=zhat, err=err, meta=meta)


def _fill_outputs(rows, n, p, h_fn, q_fn, zhat_fn=None):
    """Evaluate outputs row by row; a failing row truncates the trace."""
    y, z, zh = [], [], []
    cut = None
    for row in rows:
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
    xs = _slots(sys.state_names, "u")
    f_src = [_py_src(e, xs, sys.params) for e in sys.f]
    states, y, z, zh, event = _rollout(sys, (), f_src, x0, dt, n_steps)
    return _trace(dt, t_final, event, states, y, z, zh, np.full(states.shape[0], np.nan))


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
    # the chain entry c<k> is the stage local u<n+k>; w<i>_<j> is w<m>
    n = sys.n
    xs = _slots(sys.state_names, "u")
    aux = [f"w{m} = {_py_src(e, xs, sys.params)}" for m, e in enumerate(wmap.values())]
    ws = _slots([f"w{i}_{j}" for i, j in wmap], "w")
    aux.append(f"top = {_py_src(obs.T, ws, sys.params)}")
    aux += [f"top -= ({a!r}) * u{n + v - k}" for k, a in enumerate(obs.alphas.alphas, 1)]
    derivs = [_py_src(e, xs, sys.params) for e in sys.f]
    derivs += [f"u{n + k}" for k in range(1, v)] + ["top"]
    s0 = np.concatenate((x0, chain0))
    states, y, z, zh, event = _rollout(
        sys, aux, derivs, s0, dt, n_steps, zhat_slot=n, zhat_fn=lambda s, yk: s[n]
    )
    return _trace(dt, t_final, event, states[:, :n], y, z, zh, zh - z, v=v, chain0=chain0.tolist())


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
    zhat_fn = compile_checked((as_expr(zhat_expr),), xi_names + y_names, sys.params)

    # xi<k+1> is the stage local u<n+k>; y<j+1> is y<j>
    n = sys.n
    xs = _slots(sys.state_names, "u")
    obs_slots = {**_slots(xi_names, "u", n), **_slots(y_names, "y")}
    aux = [f"y{j} = {_py_src(e, xs, sys.params)}" for j, e in enumerate(sys.h)]
    derivs = [_py_src(e, xs, sys.params) for e in sys.f]
    derivs += [_py_src(as_expr(e), obs_slots, sys.params) for e in xi_rhs]
    s0 = np.concatenate((x0, xi0))
    states, y, z, zh, event = _rollout(
        sys, aux, derivs, s0, dt, n_steps, zhat_fn=lambda s, yk: zhat_fn([*s[n:], *yk])[0]
    )
    if event is None and zh.size and np.max(np.abs(zh)) > DIVERGENCE_LIMIT:
        keep = int(np.argmax(np.abs(zh) > DIVERGENCE_LIMIT)) + 1
        states, y, z, zh = states[:keep], y[:keep], z[:keep], zh[:keep]
        event = "divergence"
    return _trace(dt, t_final, event, states[:, :n], y, z, zh, zh - z, observer_states=m)


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
    zh_row = np.concatenate(((lobs.D @ lsys.H)[0], lobs.C[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            np.matmul(P, states[k], out=states[k + 1])
        finite = np.isfinite(states).all(axis=1)
        # the batched products may round apart from the per-row test below by
        # at most `slack`, so every row that could pass the limit is rechecked
        slack = (np.abs(states) @ np.abs(zh_row)) * (4 * (n + v) * np.finfo(float).eps)
        near = np.abs(states @ zh_row) + slack > DIVERGENCE_LIMIT
    event, last = None, n_steps
    for r in np.flatnonzero(~finite[1:] | near[1:]) + 1:
        if not finite[r] or abs(zh_row @ states[r]) > DIVERGENCE_LIMIT:
            event, last = "divergence", (r if finite[r] else r - 1)
            break
    states = states[: last + 1]
    z, zh = states[:, :n] @ lsys.q[0], states @ zh_row
    return _trace(dt, t_final, event, states[:, :n], states[:, :n] @ lsys.H.T, z, zh, zh - z, v=v)


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
    if alphas.v == 1:  # the products of `Phi @ u` below, on floats
        steps = itertools.repeat(float(Phi[0, 0]), t_grid.size - 1)
        return np.fromiter(
            itertools.accumulate(steps, operator.mul, initial=float(u[0])), float, t_grid.size
        )
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
