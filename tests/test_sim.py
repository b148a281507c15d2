"""Fixed-step simulation, exact error dynamics, decay fitting, CSV export."""

import math
import warnings

import numpy as np
import pytest

from funcobs import sim
from funcobs.expr import EvalError, as_expr, compile_exprs, parse
from funcobs.lie import observability_set
from funcobs.observability import load_psi, verify_psi
from funcobs.cli import builtin_double_integrator, data_path
from funcobs.sim import (
    DIVERGENCE_LIMIT,
    SimError,
    SimTrace,
    chain_init_exact,
    compile_checked,
    error_decay_fit,
    exact_error_grid,
    exact_error_solution,
    integrate_plant,
    simulate_coupled,
    simulate_custom_observer,
    simulate_linear_observer,
    write_csv,
)
from funcobs.synthesis import (
    design_linear_observer,
    linear_observer_to_io,
    make_alphas,
    poles_to_alphas,
    synthesize_nonlinear,
    xi_from_chain,
)
from funcobs.system import (
    LinearSystemDef,
    SystemDef,
    builtin_batch_reactor,
    builtin_cstr,
    linear_to_system,
)

X0 = np.array([1.0, 0.2, 0.1])


def _batch_setup(lam=-2.0):
    sys_ = builtin_batch_reactor()
    rep = load_psi(data_path("psi_batch.json"))
    verify_psi(sys_, rep)
    obs = synthesize_nonlinear(rep, poles_to_alphas([lam]))
    return sys_, obs


# ---------------------------------------------------------------------------
# plant integration

def test_plant_matches_exponential_decay():
    # cA' = -cA with k1 = 1
    sys_ = builtin_batch_reactor()
    tr = integrate_plant(sys_, X0, 2.0, dt=1e-3)
    assert abs(tr.x[-1, 0] - math.exp(-2.0)) <= 1e-12
    assert tr.meta["integrator"] == "rk4"
    assert tr.meta["event"] is None
    assert np.isnan(tr.zhat).all() and np.isnan(tr.err).all()
    assert tr.z == pytest.approx(tr.x[:, 0])


def test_rk4_is_fourth_order():
    # halving dt divides the global error by ~16
    sys_ = builtin_batch_reactor()
    errs = []
    for dt in (4e-2, 2e-2):
        tr = integrate_plant(sys_, X0, 1.0, dt=dt)
        errs.append(abs(tr.x[-1, 0] - math.exp(-1.0)))
    assert 13.0 <= errs[0] / errs[1] <= 20.0


def test_time_grid_and_shapes():
    sys_ = builtin_batch_reactor()
    tr = integrate_plant(sys_, X0, 0.5, dt=1e-2)
    assert tr.t.shape == (51,)
    assert tr.t[0] == 0.0
    assert tr.t[-1] == pytest.approx(0.5)
    assert tr.x.shape == (51, 3)
    assert tr.y.shape == (51, 1)


def test_bad_inputs_rejected():
    sys_ = builtin_batch_reactor()
    with pytest.raises(SimError):
        integrate_plant(sys_, X0, -1.0)
    with pytest.raises(SimError):
        integrate_plant(sys_, X0, 1.0, dt=0.0)
    with pytest.raises(SimError):
        integrate_plant(sys_, np.array([1.0, 0.2]), 1.0)


def test_evaluation_failure_truncates():
    # output leaves the domain of ln when x crosses zero
    sys_ = SystemDef(
        state_names=("x",),
        params={},
        f=(parse("0 - 1"),),
        h=(parse("ln(x)"),),
        q=parse("x"),
        box={"x": (0.1, 1.0)},
    )
    tr = integrate_plant(sys_, np.array([0.5]), 1.0, dt=1e-2)
    assert tr.meta["event"] == "evaluation-failure"
    assert tr.t.size < 101
    assert tr.x.shape[0] == tr.y.shape[0] == tr.z.size


def test_division_by_zero_is_evaluation_failure():
    # the plant's f is undefined at the start; no inf/nan, no RuntimeWarning
    sys_ = SystemDef(
        state_names=("x",),
        params={},
        f=(parse("-1/(x-0.25)"),),
        h=(parse("x"),),
        q=parse("x"),
        box={"x": (0.0, 1.0)},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tr = integrate_plant(sys_, np.array([0.25]), 1.0, dt=1e-2)
    assert tr.meta["event"] == "evaluation-failure"
    assert tr.t.size == 1
    assert tr.x.tolist() == [[0.25]]


def test_compile_checked_reports_domain_errors_only():
    fn = compile_checked((parse("ln(x)"), parse("1/(x-1)")), ["x"], {})
    assert fn([2.0]) == (math.log(2.0), 1.0)
    with pytest.raises(EvalError, match="math domain error"):
        fn([-1.0])
    with pytest.raises(EvalError, match="division by zero"):
        fn([1.0])
    with pytest.raises(TypeError):
        fn(None)  # a caller's bug, not a domain error


def test_programming_error_in_rollout_propagates():
    def broken_rhs(s):
        raise ValueError("shape bug")

    with pytest.raises(ValueError, match="shape bug"):
        sim._rk4_loop(broken_rhs, [1.0], 1e-2, 10)

    def ident(x):
        return tuple(x)

    def no_target(x):
        return ()

    with pytest.raises(IndexError):
        sim._fill_outputs(np.zeros((3, 1)), 1, 1, ident, no_target)


# ---------------------------------------------------------------------------
# chain initialization

def test_chain_init_exact_values():
    sys_ = builtin_batch_reactor()
    c1 = chain_init_exact(sys_, X0, 1)
    assert c1 == pytest.approx([1.0])
    c2 = chain_init_exact(sys_, X0, 2)
    assert c2 == pytest.approx([1.0, -1.0])  # q, then dq/dt = -k1*cA


# ---------------------------------------------------------------------------
# coupled simulation

def test_exact_init_stays_on_invariant_manifold():
    sys_, obs = _batch_setup()
    chain0 = chain_init_exact(sys_, X0, obs.v)
    tr = simulate_coupled(sys_, obs, X0, chain0, 10.0, dt=1e-3)
    assert np.max(np.abs(tr.err)) <= 1e-9


def test_offset_init_follows_assigned_decay():
    sys_, obs = _batch_setup(-2.0)
    chain0 = chain_init_exact(sys_, X0, obs.v) + np.array([0.3])
    tr = simulate_coupled(sys_, obs, X0, chain0, 5.0, dt=1e-3)
    expected = 0.3 * np.exp(-2.0 * tr.t)
    assert np.max(np.abs(tr.err - expected)) <= 1e-9


def test_coupled_error_matches_exact_grid():
    sys_, obs = _batch_setup(-1.5)
    chain0 = chain_init_exact(sys_, X0, obs.v) + np.array([-0.2])
    tr = simulate_coupled(sys_, obs, X0, chain0, 4.0, dt=1e-3)
    grid = exact_error_grid(obs.alphas, [-0.2], tr.t)
    assert np.max(np.abs(tr.err - grid)) <= 1e-9


def test_divergence_truncates_with_event():
    sys_, _ = _batch_setup()
    rep = load_psi(data_path("psi_batch.json"))
    verify_psi(sys_, rep)
    obs = synthesize_nonlinear(rep, make_alphas([-3.0]), allow_unstable=True)  # pole +3
    chain0 = chain_init_exact(sys_, X0, 1) + np.array([0.1])
    tr = simulate_coupled(sys_, obs, X0, chain0, 20.0, dt=1e-3)
    assert tr.meta["event"] == "divergence"
    assert tr.t.size < 20001
    assert abs(tr.zhat[-1]) > 1e12 or not np.isfinite(tr.zhat[-1])


def test_custom_observer_matches_chain_form():
    # the same dynamics written as an explicit one-state realization
    sys_, obs = _batch_setup(-2.0)
    tr_chain = simulate_coupled(sys_, obs, X0, np.array([0.0]), 5.0, dt=1e-3)
    xi0 = (1.0 - 2.0) * 0.2  # consistent with zhat(0) = 0
    tr_ss = simulate_custom_observer(
        sys_,
        ["-2*xi1 - (1 - 2/k1)*(-2*y1 + k2*y1^2)"],
        "xi1 - (1 - 2/k1)*y1",
        X0,
        [xi0],
        5.0,
        dt=1e-3,
    )
    assert np.max(np.abs(tr_chain.zhat - tr_ss.zhat)) <= 1e-8


def test_linear_routes_agree():
    lsys = builtin_double_integrator()
    lobs = design_linear_observer(lsys, [-3.0])
    x0 = np.array([0.0, 1.0])
    xi0 = xi_from_chain(lobs, np.array([0.0]), np.atleast_2d(lsys.H @ x0))
    tr_mat = simulate_linear_observer(lsys, lobs, x0, xi0, 5.0, dt=1e-3)
    tr_chain = simulate_coupled(
        linear_to_system(lsys), linear_observer_to_io(lobs), x0, np.array([0.0]), 5.0, dt=1e-3
    )
    assert np.max(np.abs(tr_mat.zhat - tr_chain.zhat)) <= 1e-10
    assert np.max(np.abs(tr_mat.err + np.exp(-3.0 * tr_mat.t))) <= 1e-10


# ---------------------------------------------------------------------------
# exact error dynamics

def test_exact_error_first_order():
    al = make_alphas([2.0])
    assert exact_error_solution(al, [0.5], 1.0) == pytest.approx(0.5 * math.exp(-2.0))


def test_exact_error_critically_damped():
    # (s+1)^2: e(t) = (e0 + (edot0 + e0) t) exp(-t)
    al = poles_to_alphas([-1.0, -1.0])
    assert exact_error_solution(al, [1.0, 0.0], 1.0) == pytest.approx(2.0 / math.e)
    t = np.linspace(0.0, 3.0, 61)
    grid = exact_error_grid(al, [1.0, 0.0], t)
    assert grid == pytest.approx((1.0 + t) * np.exp(-t), abs=1e-12)


def test_exact_error_oscillatory():
    # s^2 + 2s + 5: poles -1 +- 2i, e0=(1,0): e(t) = exp(-t)(cos 2t + sin(2t)/2)
    al = poles_to_alphas([complex(-1, 2), complex(-1, -2)])
    t = np.linspace(0.0, 2.0, 41)
    grid = exact_error_grid(al, [1.0, 0.0], t)
    expected = np.exp(-t) * (np.cos(2 * t) + 0.5 * np.sin(2 * t))
    assert grid == pytest.approx(expected, abs=1e-12)


def test_exact_error_grid_requires_uniform_grid():
    al = make_alphas([1.0])
    with pytest.raises(SimError):
        exact_error_grid(al, [1.0], np.array([0.0, 0.1, 0.3]))


def test_exact_error_grid_offset_start():
    al = make_alphas([1.0])
    t = np.linspace(0.5, 1.5, 11)
    grid = exact_error_grid(al, [2.0], t)
    assert grid == pytest.approx(2.0 * np.exp(-t), rel=1e-12)


def test_exact_error_shape_check():
    with pytest.raises(SimError):
        exact_error_solution(make_alphas([1.0, 2.0]), [1.0], 0.5)


# ---------------------------------------------------------------------------
# decay fitting

def _trace_from_err(t, err):
    n = t.size
    z = np.zeros(n)
    return SimTrace(
        t=t, x=np.zeros((n, 1)), y=np.zeros((n, 1)), z=z, zhat=z + err, err=err,
        meta={"event": None},
    )


def test_decay_fit_recovers_rate():
    t = np.linspace(0.0, 5.0, 5001)
    tr = _trace_from_err(t, 0.7 * np.exp(-2.0 * t))
    assert error_decay_fit(tr, 0.5, 2.0) == pytest.approx(-2.0, rel=1e-9)


def test_decay_fit_rejects_sign_changes():
    t = np.linspace(0.0, 5.0, 5001)
    tr = _trace_from_err(t, np.exp(-t) * np.cos(5.0 * t))
    with pytest.raises(SimError) as err:
        error_decay_fit(tr, 0.5, 2.0)
    assert "sign" in str(err.value)


def test_decay_fit_rejects_noise_floor():
    t = np.linspace(0.0, 5.0, 5001)
    tr = _trace_from_err(t, 1e-20 * np.exp(-t))
    with pytest.raises(SimError):
        error_decay_fit(tr, 0.5, 2.0)


def test_decay_fit_needs_window_samples():
    t = np.linspace(0.0, 5.0, 6)
    tr = _trace_from_err(t, np.exp(-t))
    with pytest.raises(SimError):
        error_decay_fit(tr, 0.1, 0.9)


# ---------------------------------------------------------------------------
# CSV export

def test_csv_format_and_roundtrip(tmp_path):
    sys_, obs = _batch_setup()
    chain0 = chain_init_exact(sys_, X0, obs.v)
    tr = simulate_coupled(sys_, obs, X0, chain0, 0.05, dt=1e-2)
    path = tmp_path / "trace.csv"
    write_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,y1,z,zhat,err"
    assert len(lines) == tr.t.size + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(data[:, 1:4], tr.x)
    assert np.array_equal(data[:, 6], tr.zhat)


def test_csv_deterministic(tmp_path):
    sys_, obs = _batch_setup()
    chain0 = chain_init_exact(sys_, X0, obs.v)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(simulate_coupled(sys_, obs, X0, chain0, 0.2, dt=1e-2), p1)
    write_csv(simulate_coupled(sys_, obs, X0, chain0, 0.2, dt=1e-2), p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# the float rollouts and the row-format CSV writer against the numpy code
# they replaced, kept here as oracles: the arithmetic is unchanged, so the
# results must agree bit for bit


def _numpy_rk4(rhs, s0, dt, n_steps, zhat_slot=None):
    s = np.array(s0, dtype=float)
    out = np.empty((n_steps + 1, s.size))
    out[0] = s
    last = n_steps
    for k in range(n_steps):
        k1 = rhs(s)
        k2 = rhs(s + (0.5 * dt) * k1)
        k3 = rhs(s + (0.5 * dt) * k2)
        k4 = rhs(s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(s)):
            last = k
            break
        out[k + 1] = s
        if zhat_slot is not None and abs(s[zhat_slot]) > DIVERGENCE_LIMIT:
            last = k + 1
            break
    return out[: last + 1]


def _numpy_outputs(sys_, states):
    h_fn = compile_exprs(sys_.h, sys_.state_names, sys_.params)
    q_fn = compile_exprs((sys_.q,), sys_.state_names, sys_.params)
    xs = states[:, : sys_.n]
    y = np.array([h_fn(x) for x in xs]).reshape(len(xs), sys_.p)
    return y, np.array([q_fn(x)[0] for x in xs])


def _numpy_coupled(sys_, obs, x0, chain0, t_final, dt):
    v, n = obs.v, sys_.n
    os_ = observability_set(sys_, v + 1)
    wnames = [f"w{i}_{j}" for i in range(v + 1) for j in range(1, sys_.p + 1)]
    wexprs = [os_.table[i][j - 1] for i in range(v + 1) for j in range(1, sys_.p + 1)]
    f_fn = compile_exprs(sys_.f, sys_.state_names, sys_.params)
    w_fn = compile_exprs(wexprs, sys_.state_names, sys_.params)
    T_fn = compile_exprs((obs.T,), wnames, sys_.params)
    a = obs.alphas.alphas

    def rhs(s):
        x, c = s[:n], s[n:]
        dc = np.empty(v)
        dc[: v - 1] = c[1:]
        top = T_fn(w_fn(x))[0]
        for k in range(1, v + 1):
            top -= a[k - 1] * c[v - k]
        dc[v - 1] = top
        return np.concatenate((np.asarray(f_fn(x)), dc))

    s0 = np.concatenate((x0, chain0))
    return _numpy_rk4(rhs, s0, dt, int(round(t_final / dt)), zhat_slot=n)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_float_plant_rollout_matches_numpy_loop():
    sys_ = builtin_batch_reactor()
    tr = integrate_plant(sys_, X0, 2.0, dt=1e-3)
    f_fn = compile_exprs(sys_.f, sys_.state_names, sys_.params)
    ref = _numpy_rk4(lambda s: np.array(f_fn(s)), X0, 1e-3, 2000)
    y, z = _numpy_outputs(sys_, ref)
    assert _same_bits(tr.x, ref)
    assert _same_bits(tr.y, y) and _same_bits(tr.z, z)


def _cstr_setup(lam):
    sys_ = builtin_cstr()
    rep = load_psi(data_path("psi_cstr.json"))
    verify_psi(sys_, rep, rtol=1e-8)
    return sys_, synthesize_nonlinear(rep, poles_to_alphas([lam]))


def _triple_integrator_setup(lam):
    # y = x1, z = x2: an order-2 estimate chain
    lsys = LinearSystemDef(
        F=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], H=[[1.0, 0.0, 0.0]], q=[[0.0, 1.0, 0.0]]
    )
    lobs = design_linear_observer(lsys, [lam, lam])
    return linear_to_system(lsys), linear_observer_to_io(lobs)


@pytest.mark.parametrize(
    "case, t_final, dt",
    [
        ("batch", 2.0, 1e-3),
        ("cstr", 2.0, 1e-3),
        ("triple-integrator", 2.0, 1e-3),
        ("batch-divergent", 20.0, 1e-2),
    ],
)
def test_float_coupled_rollout_matches_numpy_loop(case, t_final, dt):
    if case == "batch":
        (sys_, obs), x0, off = _batch_setup(-2.0), X0, [0.3]
    elif case == "cstr":
        (sys_, obs), x0, off = _cstr_setup(-1.0), np.array([1.0, 1.0, 0.9]), [-0.2]
    elif case == "triple-integrator":
        (sys_, obs), x0, off = _triple_integrator_setup(-1.5), np.array([0.3, -0.4, 0.5]), [0.2, -0.1]
    else:
        sys_ = builtin_batch_reactor()
        rep = load_psi(data_path("psi_batch.json"))
        verify_psi(sys_, rep)
        obs = synthesize_nonlinear(rep, make_alphas([-3.0]), allow_unstable=True)
        x0, off = X0, [0.1]
    chain0 = chain_init_exact(sys_, x0, obs.v) + np.array(off)
    tr = simulate_coupled(sys_, obs, x0, chain0, t_final, dt=dt)
    ref = _numpy_coupled(sys_, obs, x0, chain0, t_final, dt)
    y, z = _numpy_outputs(sys_, ref)
    assert tr.meta["event"] == ("divergence" if case == "batch-divergent" else None)
    assert _same_bits(tr.x, ref[:, : sys_.n])
    assert _same_bits(tr.zhat, ref[:, sys_.n])
    assert _same_bits(tr.y, y) and _same_bits(tr.z, z)


def test_float_custom_observer_rollout_matches_numpy_loop():
    sys_, _ = _batch_setup(-2.0)
    xi_rhs = ["-2*xi1 - (1 - 2/k1)*(-2*y1 + k2*y1^2)"]
    zhat = "xi1 - (1 - 2/k1)*y1"
    tr = simulate_custom_observer(sys_, xi_rhs, zhat, X0, [-0.2], 2.0, dt=1e-3)

    n = sys_.n
    names = ["xi1", "y1"]
    f_fn = compile_exprs(sys_.f, sys_.state_names, sys_.params)
    h_fn = compile_exprs(sys_.h, sys_.state_names, sys_.params)
    rhs_fn = compile_exprs(tuple(as_expr(e) for e in xi_rhs), names, sys_.params)
    zhat_fn = compile_exprs((as_expr(zhat),), names, sys_.params)

    def rhs(s):
        args = np.concatenate((s[n:], np.asarray(h_fn(s[:n]))))
        return np.concatenate((np.asarray(f_fn(s[:n])), np.asarray(rhs_fn(args))))

    ref = _numpy_rk4(rhs, np.concatenate((X0, [-0.2])), 1e-3, 2000)
    y, z = _numpy_outputs(sys_, ref)
    zh = np.array([zhat_fn(np.concatenate((s[n:], yk)))[0] for s, yk in zip(ref, y)])
    assert _same_bits(tr.x, ref[:, :n])
    assert _same_bits(tr.zhat, zh)
    assert _same_bits(tr.y, y) and _same_bits(tr.z, z)


def _per_value_csv(trace, path):
    n = trace.x.shape[1]
    p = trace.y.shape[1] if trace.y.ndim == 2 else 1
    cols = ["t"] + [f"x{i+1}" for i in range(n)] + [f"y{j+1}" for j in range(p)] + ["z", "zhat", "err"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(trace.t.size):
            row = (
                [trace.t[k]]
                + list(trace.x[k])
                + list(np.atleast_1d(trace.y[k]))
                + [trace.z[k], trace.zhat[k], trace.err[k]]
            )
            fh.write(",".join(format(val, ".17g") for val in row) + "\n")


def _specials_trace(y_ndim):
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.7976931348623157e308,
                0.1 + 0.2, 1e16, 123456789.125, -2.5e-17, 1.0]
    vals = np.array(specials * 3)
    k = vals.size // 6
    return SimTrace(
        t=np.arange(k) * 0.1,
        x=vals[: 2 * k].reshape(k, 2),
        y=vals[2 * k: 3 * k] if y_ndim == 1 else vals[2 * k: 3 * k].reshape(k, 1),
        z=vals[3 * k: 4 * k],
        zhat=vals[4 * k: 5 * k],
        err=vals[5 * k:],
    )


@pytest.mark.parametrize("case", ["specials-1d-y", "specials-2d-y", "rollout"])
def test_csv_matches_per_value_writer(tmp_path, case):
    if case == "rollout":
        sys_, obs = _batch_setup()
        tr = simulate_coupled(sys_, obs, X0, chain_init_exact(sys_, X0, 1) + 0.1, 1.0, dt=1e-3)
    else:
        tr = _specials_trace(1 if case == "specials-1d-y" else 2)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(tr, new)
    _per_value_csv(tr, old)
    assert new.read_bytes() == old.read_bytes()
    if case != "rollout":
        text = new.read_text()
        assert "nan" in text and "-inf" in text and ",-0," in text


@pytest.mark.parametrize("t0", [0.0, 0.5])
def test_exact_error_grid_first_order_matches_scipy_expm(t0):
    import scipy.linalg

    al = make_alphas([1.7])
    t = t0 + np.arange(4001) * 1e-3
    e0 = np.array([0.3])
    C = np.array([[-al.alphas[0]]])
    u = scipy.linalg.expm(C * t[0]) @ e0 if t[0] != 0 else e0.copy()
    Phi = scipy.linalg.expm(C * np.diff(t)[0])
    ref = np.empty(t.size)
    ref[0] = u[0]
    for k in range(1, t.size):
        u = Phi @ u
        ref[k] = u[0]
    assert _same_bits(exact_error_grid(al, e0, t), ref)
