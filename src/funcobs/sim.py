"""Coupled plant/observer simulation with a fixed-step classical RK4 rule.

The step size is constant and the loop is straight-line arithmetic, so a
given configuration reproduces bit-for-bit.  Estimates that pass 1e12 in
magnitude truncate the run with a divergence event; evaluation failures
(domain errors in the plant or observer expressions) truncate likewise.

Each nonlinear rollout is an observer realization handed to
`simulate_custom_observer`: the estimate chain is one, and the plant alone
is the empty one.  It runs one generated Python function whose loop body
is the four RK4 stages unrolled over scalar float locals, with the plant
and observer expressions inlined and each subexpression they share
computed once per stage, so a division by zero or a log of a negative
raises instead of producing inf/nan.  The same function evaluates the
outputs, target and estimate of every recorded row, so one rule, applied
row by row, ends a run.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .expr import _PY_NS, Const, Neg, Product, Sum, Sym, _py_block, as_expr, evaluate, free_symbols, w_index
from .lie import measured_derivatives, target_derivatives
from .synthesis import AlphaCoeffs, LinearObserver, ObserverIO
from .system import LinearSystemDef, SimError, SystemDef

DIVERGENCE_LIMIT = 1e12
MAX_STEPS = 10**7  # each step keeps one row of doubles in the trace


@dataclass
class SimTrace:
    """Recorded rows of a rollout: time, plant state, outputs, target, estimate, error."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    zhat: np.ndarray
    err: np.ndarray
    event: str | None = None


def _steps(t_final: float, dt: float) -> int:
    if dt <= 0 or t_final <= 0:
        raise SimError("dt and t_final must be positive")
    if not math.isfinite(t_final / dt):
        raise SimError(f"t_final / dt = {t_final / dt} steps is not a finite count")
    n = int(round(t_final / dt))
    if n < 1:
        raise SimError("t_final shorter than one step")
    if n > MAX_STEPS:
        raise SimError(f"t_final / dt asks for {n} steps, more than the limit of {MAX_STEPS}")
    return n


def _check_outputs(lsys: LinearSystemDef, lobs: LinearObserver):
    if lobs.p != lsys.p:
        raise SimError(
            f"the observer takes {lobs.p} measurement(s) but the system has {lsys.p} output(s)"
        )


_DOMAIN_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def _rk4_kernel(stage, record, s0, dt: float, n_steps: int, check=None):
    """Fixed-step RK4 through one generated function that also records
    each row's outputs.

    stage(u) gives the right-hand side at the stage state held in the
    locals u: (statements, one derivative source per state entry).
    record(s) gives (statements, output sources) at the state held in s.
    The four stages are unrolled over scalar locals in the operation order
    of a list-based loop: stage states s + (dt/2)*k and s + dt*k, then
    s + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4).  Each recorded row, row 0
    included, is the state followed by its outputs.  A domain error of the
    right-hand side or of a row's outputs ends the run as
    "evaluation-failure", that row unrecorded; a non-finite state ends it
    as "divergence" before it is recorded, as does a recorded output
    `check` above DIVERGENCE_LIMIT in magnitude after it.  Returns
    (table, event), one table row per recorded row; the rows are collected
    as raw doubles and the table is a view of them, not a copy.
    """
    m = len(s0)
    s = [f"s{i}" for i in range(m)]
    u = [f"u{i}" for i in range(m)]
    lines, outs = record(s)
    r = [e if e.isidentifier() else f"r{k}" for k, e in enumerate(outs)]
    lines += [f"{a} = {e}" for a, e in zip(r, outs) if a != e]
    rec = [f"if not ({' and '.join(f'isfinite({x})' for x in s)}):", "    return 'divergence'"]
    if lines:
        rec += ["try:", *(f"    {ln}" for ln in lines), "except _DOMAIN_ERRORS:", "    return 'evaluation-failure'"]
    rec += [f"extend(({', '.join(s + r)}))"]
    if check is not None:
        rec += [f"if abs({r[check]}) > {DIVERGENCE_LIMIT!r}:", "    return 'divergence'"]
    body = [f"{', '.join(s)}, = start", "extend = vals.extend", *rec, "for _ in range(n_steps):", "    try:"]
    for j, (inputs, h) in enumerate(((s, None), (u, "h2"), (u, "h2"), (u, "dt")), 1):
        if h:
            body += [f"        u{i} = s{i} + {h}*k{j - 1}_{i}" for i in range(m)]
        lines, derivs = stage(inputs)
        body += [f"        {ln}" for ln in lines]
        body += [f"        k{j}_{i} = {e}" for i, e in enumerate(derivs)]
    body += ["    except _DOMAIN_ERRORS:", "        return 'evaluation-failure'"]
    body += [f"    s{i} = s{i} + h6*(((k1_{i} + 2.0*k2_{i}) + 2.0*k3_{i}) + k4_{i})" for i in range(m)]
    body += [f"    {ln}" for ln in rec]
    src = "def _run(start, vals, n_steps, h2, dt, h6, isfinite):\n" + "\n".join(f"    {ln}" for ln in body)
    ns = {**_PY_NS, "_DOMAIN_ERRORS": _DOMAIN_ERRORS}
    exec(compile(src, "<rk4-kernel>", "exec"), ns)
    vals = array("d")
    event = ns["_run"]([float(v) for v in s0], vals, n_steps, 0.5 * dt, dt, dt / 6.0, math.isfinite)
    return np.frombuffer(vals, float).reshape(-1, m + len(outs)), event


def integrate_plant(sys: SystemDef, x0, t_final: float, dt: float = 1e-3) -> SimTrace:
    """Plant-only rollout recording states, outputs and the target: the
    empty observer realization, so the estimate and error are NaN."""
    return simulate_custom_observer(sys, (), None, x0, (), t_final, dt)


def chain_init_exact(sys: SystemDef, x0, v: int) -> np.ndarray:
    """Estimate-chain start on the invariant manifold: the target and its
    derivatives along the flow at x0, orders 0..v-1."""
    b = sys.bindings(x0)
    return np.array([evaluate(e, b) for e in target_derivatives(sys, v - 1)])


def simulate_coupled(sys: SystemDef, obs: ObserverIO, x0, chain0, t_final: float, dt: float = 1e-3) -> SimTrace:
    """Joint rollout of the plant and the order-v estimate chain.

    The chain is the realization xi1' = xi2, ..., xiv' = T - a1*xiv - ... -
    av*xi1 with read-out xi1: xi<k+1> holds the estimate's k-th time
    derivative, and T reads the plant's current output derivatives.
    """
    v = obs.v
    chain0 = np.asarray(chain0, dtype=float)
    if chain0.shape != (v,):
        raise SimError(f"chain0 must have v={v} entries")
    sys.check_reads(obs.T, "T", v, SimError)
    xi = [Sym(f"xi{k}") for k in range(1, v + 1)]
    shadowed = free_symbols(obs.T) & {*(s.name for s in xi), *(f"y{j}" for j in range(1, sys.p + 1))}
    if shadowed:
        raise SimError(f"T reads parameter(s) {sorted(shadowed)} that the chain's own names shadow")
    feedback = (Neg(Product((Const(a), xi[v - k]))) for k, a in enumerate(obs.alphas.alphas, 1))
    top = Sum((obs.T, *feedback))
    return simulate_custom_observer(sys, [*xi[1:], top], xi[0], x0, chain0, t_final, dt)


def simulate_custom_observer(
    sys: SystemDef, xi_rhs, zhat_expr, x0, xi0, t_final: float, dt: float = 1e-3
) -> SimTrace:
    """Rollout of the plant against an observer realization, the kernel
    state being the plant's followed by the observer's.

    The observer state derivative expressions and the estimate read-out may
    reference the observer states as xi1..xim, the measurements as y1..yp,
    their time derivatives as w<i>_<j> (any order, w0_<j> being y<j>), and
    the plant parameters, which those names shadow.  The estimate is
    recorded and checked against DIVERGENCE_LIMIT, and err = zhat - z; a
    None read-out leaves both NaN.
    """
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    m = xi0.size
    if len(xi_rhs) != m:
        raise SimError("xi0 length must match the number of observer state equations")
    xi_rhs = [as_expr(e) for e in xi_rhs]
    zhat = [] if zhat_expr is None else [as_expr(zhat_expr)]
    n_steps = _steps(t_final, dt)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.n,):
        raise SimError(f"x0 must have {sys.n} entries")
    reads = set().union(*map(free_symbols, xi_rhs + zhat))
    ws = measured_derivatives(sys, max((w[0] for w in map(w_index, reads) if w), default=0))
    n = sys.n

    def slots(u):
        # xi<k+1> is u[n+k]; y<j> and w<i>_<j> are read in place
        xs = dict(zip(sys.state_names, u))
        obs = {f"xi{k + 1}": u[n + k] for k in range(m)}
        obs.update((f"y{j + 1}", (e, xs)) for j, e in enumerate(sys.h))
        obs.update((nm, (e, xs)) for nm, e in ws.items())
        return xs, obs

    def stage(u):
        xs, obs = slots(u)
        return _py_block([(e, xs) for e in sys.f] + [(e, obs) for e in xi_rhs], sys.params)

    def record(s):
        xs, obs = slots(s)
        return _py_block([(e, xs) for e in (*sys.h, sys.q)] + [(e, obs) for e in zhat], sys.params)

    p = sys.p
    table, event = _rk4_kernel(stage, record, np.concatenate((x0, xi0)), dt, n_steps, p + 1 if zhat else None)
    z = table[:, n + m + p]
    zh = table[:, n + m + p + 1] if zhat else np.full(table.shape[0], np.nan)
    t = np.arange(table.shape[0]) * dt
    return SimTrace(t, table[:, :n], table[:, n + m : n + m + p], z, zh, zh - z, event)


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
    _check_outputs(lsys, lobs)
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
    for r in np.flatnonzero(~finite | near):
        if not finite[r] or abs(zh_row @ states[r]) > DIVERGENCE_LIMIT:
            event, last = "divergence", (r if finite[r] else r - 1)
            break
    states = states[: last + 1]
    z, zh = states[:, :n] @ lsys.q[0], states @ zh_row
    t = np.arange(states.shape[0]) * dt
    return SimTrace(t, states[:, :n], states[:, :n] @ lsys.H.T, z, zh, zh - z, event)


# ---------------------------------------------------------------------------
# exact error dynamics and decay-rate fitting


def _expm(C: np.ndarray) -> np.ndarray:
    """Matrix exponential.  A 1x1 input takes np.exp.  A larger one is scaled
    by 2^-s to a 1-norm below 1/2, where the degree-18 Taylor polynomial is
    exact to rounding, and the polynomial is squared s times (scaling and
    squaring: Higham, SIAM J. Matrix Anal. Appl. 26, 2005)."""
    if C.shape == (1, 1):
        return np.exp(C)
    s = max(0, math.frexp(np.linalg.norm(C, 1))[1] + 1)
    A = C / 2.0**s
    E = term = np.eye(len(C))
    for k in range(1, 19):
        term = term @ A / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def _error_companion(alphas: AlphaCoeffs) -> np.ndarray:
    v = alphas.v
    C = np.zeros((v, v))
    for i in range(v - 1):
        C[i, i + 1] = 1.0
    C[v - 1] = [-alphas.alphas[v - 1 - j] for j in range(v)]
    return C


def exact_error_grid(alphas: AlphaCoeffs, e_init, t_grid) -> np.ndarray:
    """Exact error evaluated on a uniform time grid (single exponential of
    the step, then repeated application)."""
    t_grid = np.asarray(t_grid, dtype=float)
    e_init = np.atleast_1d(np.asarray(e_init, dtype=float))
    if e_init.shape != (alphas.v,):
        raise SimError(f"e_init must have v={alphas.v} entries")
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise SimError("need a one-dimensional time grid")
    dts = np.diff(t_grid)
    step = dts[0] if dts.size else 0.0
    if not np.allclose(dts, step, rtol=1e-9, atol=1e-12):
        raise SimError("time grid must be uniform")
    C = _error_companion(alphas)
    u = _expm(C * t_grid[0]) @ e_init if t_grid[0] != 0 else e_init.copy()
    Phi = _expm(C * step)
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

# rows per formatted block: 1024 wrote a T=20 batch trace at the same speed
# but raised the peak RSS of its process by 0.4-0.6 MB
_CSV_BLOCK = 512


def write_csv(trace: SimTrace, path):
    """Write t, states, outputs, target, estimate and error at 17 significant
    digits, one row per step.  Rows are formatted in blocks of _CSV_BLOCK,
    so only one block at a time is held as Python floats, and a column
    whose bits repeat another's (an output that is a state, say) is
    formatted once."""
    y = trace.y if trace.y.ndim == 2 else trace.y[:, None]
    header = (
        ["t"]
        + [f"x{i+1}" for i in range(trace.x.shape[1])]
        + [f"y{j+1}" for j in range(y.shape[1])]
        + ["z", "zhat", "err"]
    )
    cols = [np.asarray(c, dtype=float) for c in (trace.t, *trace.x.T, *y.T, trace.z, trace.zhat, trace.err)]
    bits = [c.view(np.int64) for c in cols]
    # the first column with a column's bits stands for it
    first = [next(i for i, d in enumerate(bits) if np.array_equal(d, b)) for b in bits]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(cols[0]), _CSV_BLOCK):
            text = {}
            for i in set(first):
                block = cols[i][start : start + _CSV_BLOCK].tolist()
                text[i] = (("%.17g\n" * len(block)) % tuple(block)).split("\n")[:-1]
            fh.write("\n".join(map(",".join, zip(*(text[i] for i in first)))) + "\n")
