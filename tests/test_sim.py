"""Fixed-step simulation, exact error dynamics, decay fitting, CSV export."""

import math
import warnings

import numpy as np
import pytest

from funcobs import sim
from funcobs.expr import as_expr, compile_exprs, parse, to_text
from funcobs.lie import lie_table, measured_derivatives
from funcobs.observability import load_psi, verify_psi
from funcobs.cli import builtin_double_integrator, data_path
from funcobs.sim import (
    DIVERGENCE_LIMIT,
    SimError,
    SimTrace,
    chain_init_exact,
    error_decay_fit,
    exact_error_grid,
    integrate_plant,
    simulate_coupled,
    simulate_custom_observer,
    simulate_linear_observer,
    write_csv,
)
from funcobs.synthesis import (
    design_linear_observer,
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

from linear_chain import linear_observer_to_io

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
    assert tr.event is None
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
    assert tr.event == "evaluation-failure"
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
    assert tr.event == "evaluation-failure"
    assert tr.t.size == 1
    assert tr.x.tolist() == [[0.25]]


def test_programming_error_in_rollout_propagates():
    # a non-domain error in the stage code or in the output code is a bug,
    # not an evaluation failure: it propagates out of the kernel
    def record(s):
        return [], [s[0]]

    with pytest.raises(TypeError):
        sim._rk4_kernel(lambda u: ([], [f"{u[0]} + None"]), record, [1.0], 1e-2, 10)
    with pytest.raises(NameError):  # a derivative that reads past the state
        sim._rk4_kernel(lambda u: ([], ["u1"]), record, [1.0], 1e-2, 10)
    with pytest.raises(TypeError):
        sim._rk4_kernel(lambda u: ([], ["-1.0"]), lambda s: ([], [f"{s[0]} + None"]), [1.0], 1e-2, 10)


def test_output_failure_at_start_is_evaluation_failure():
    # ln(x) fails at x0 = -1; the plant itself diverges later, which must not
    # relabel the run
    sys_ = SystemDef(
        state_names=("x",), params={}, f=(parse("1 + x*x"),), h=(parse("ln(x)"),),
        q=parse("x"), box={"x": (0.1, 1.0)},
    )
    tr = integrate_plant(sys_, np.array([-1.0]), 5.0, dt=1e-2)
    assert tr.event == "evaluation-failure"
    assert tr.t.size == 0 and tr.x.shape == (0, 1) and tr.y.shape == (0, 1)


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
    assert tr.event == "divergence"
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


@pytest.mark.parametrize("case", ["batch", "triple-integrator"])
def test_custom_observer_reads_measurement_derivatives(case):
    # the chain written out as text: T reads w<i>_<j> up to order v, which
    # the custom observer binds from its own expressions
    sys_, obs = _batch_setup(-2.0) if case == "batch" else _triple_integrator_setup(-1.5)
    v, a = obs.v, obs.alphas.alphas
    top = f"({to_text(obs.T)})" + "".join(f" - {a[k - 1]!r}*xi{v - k + 1}" for k in range(1, v + 1))
    xi_rhs = [f"xi{k}" for k in range(2, v + 1)] + [top]
    chain0 = chain_init_exact(sys_, X0, v) + 0.1
    tr_chain = simulate_coupled(sys_, obs, X0, chain0, 2.0, dt=1e-3)
    tr_ss = simulate_custom_observer(sys_, xi_rhs, "xi1", X0, chain0, 2.0, dt=1e-3)
    assert tr_ss.event is None and tr_ss.t.size == 2001
    assert np.max(np.abs(tr_chain.zhat - tr_ss.zhat)) <= 1e-12


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
    assert exact_error_grid(al, [0.5], [1.0]) == pytest.approx([0.5 * math.exp(-2.0)])


def test_exact_error_critically_damped():
    # (s+1)^2: e(t) = (e0 + (edot0 + e0) t) exp(-t)
    al = poles_to_alphas([-1.0, -1.0])
    assert exact_error_grid(al, [1.0, 0.0], [1.0]) == pytest.approx([2.0 / math.e])
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


def test_exact_error_one_point_grid_at_zero_is_the_initial_error():
    for al, e_init in ((make_alphas([2.0]), [0.3]), (poles_to_alphas([-1.0, -1.0]), [0.1, 7.0])):
        assert exact_error_grid(al, e_init, [0.0])[0] == e_init[0]


def test_exact_error_shape_check():
    with pytest.raises(SimError):
        exact_error_grid(make_alphas([1.0, 2.0]), [1.0], [0.5])


@pytest.mark.parametrize("coeffs, e_init", [([1.0], [1.0, 5.0]), ([1.0, 2.0], [1.0])])
def test_exact_error_grid_checks_initial_error_length(coeffs, e_init):
    with pytest.raises(SimError, match=f"e_init must have v={len(coeffs)} entries"):
        exact_error_grid(make_alphas(coeffs), e_init, np.linspace(0.0, 1.0, 11))


# ---------------------------------------------------------------------------
# decay fitting

def _trace_from_err(t, err):
    n = t.size
    z = np.zeros(n)
    return SimTrace(
        t=t, x=np.zeros((n, 1)), y=np.zeros((n, 1)), z=z, zhat=z + err, err=err,
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
    table = lie_table(sys_, sys_.h, v + 1)
    wnames = [f"w{i}_{j}" for i in range(v + 1) for j in range(1, sys_.p + 1)]
    wexprs = [table[i][j - 1] for i in range(v + 1) for j in range(1, sys_.p + 1)]
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
    verify_psi(sys_, rep)
    return sys_, synthesize_nonlinear(rep, poles_to_alphas([lam]))


def _triple_integrator_setup(lam):
    # y = x1, z = x2: an order-2 estimate chain
    lsys = LinearSystemDef(
        F=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], H=[[1.0, 0.0, 0.0]], q=[[0.0, 1.0, 0.0]]
    )
    lobs = design_linear_observer(lsys, [lam, lam])
    return linear_to_system(lsys), linear_observer_to_io(lobs)


def _quadruple_integrator_setup():
    # y = x1, z = x2: an order-3 estimate chain with alphas (6, 11, 6)
    lsys = LinearSystemDef(F=np.eye(4, k=1), H=np.eye(4)[:1], q=np.eye(4)[1:2])
    lobs = design_linear_observer(lsys, [-1.0, -2.0, -3.0])
    return linear_to_system(lsys), linear_observer_to_io(lobs)


@pytest.mark.parametrize(
    "case, t_final, dt",
    [
        ("batch", 2.0, 1e-3),
        ("cstr", 2.0, 1e-3),
        ("triple-integrator", 2.0, 1e-3),
        ("quadruple-integrator", 2.0, 1e-3),
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
    elif case == "quadruple-integrator":  # the feedback order a1*c2 + a2*c1 + a3*c0 past v = 2
        (sys_, obs), x0 = _quadruple_integrator_setup(), np.array([0.3, -0.4, 0.5, -0.2])
        off = [0.2, -0.1, 0.05]
        assert obs.v == 3 and obs.alphas.alphas == (6.0, 11.0, 6.0)
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
    assert tr.event == ("divergence" if case == "batch-divergent" else None)
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


@pytest.mark.parametrize("case", ["specials-1d-y", "specials-2d-y", "rollout", "signed-zeros"])
def test_csv_matches_per_value_writer(tmp_path, case):
    # the writer formats a column once when its bits repeat another's: the
    # specials repeat y as zhat and z as err, the batch rollout x2 as y1 and
    # x1 as z, and signed zeros make columns that are equal but not the same
    if case == "rollout":  # 2,501 rows: four full blocks and a partial one
        sys_, obs = _batch_setup()
        tr = simulate_coupled(sys_, obs, X0, chain_init_exact(sys_, X0, 1) + 0.1, 2.5, dt=1e-3)
    elif case == "signed-zeros":
        col = np.array([0.0, 1.5, 0.0])
        tr = SimTrace(t=np.arange(3) * 0.1, x=np.column_stack((col, -col)), y=col.copy(),
                      z=col * -0.0, zhat=col * 0.0, err=-col)
    else:
        tr = _specials_trace(1 if case == "specials-1d-y" else 2)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(tr, new)
    _per_value_csv(tr, old)
    assert new.read_bytes() == old.read_bytes()
    if case.startswith("specials"):
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


def test_step_count_past_the_limit_is_refused():
    assert sim._steps(10.0, 1e-6) == sim.MAX_STEPS
    with pytest.raises(SimError, match=r"asks for \d+ steps, more than the limit of 10000000"):
        sim._steps(10.0, 1e-300)


def _companion_poles(kind, v):
    if kind == "real":
        return [-1.0 - 0.5 * k for k in range(v)]
    if kind == "repeated":
        return [-2.0] * v
    pairs = [complex(-0.5 - 0.3 * k, s * (1.0 + k)) for k in range(v // 2) for s in (1, -1)]
    return pairs + [-1.5] * (v % 2)


@pytest.mark.parametrize("kind", ["real", "repeated", "complex"])
@pytest.mark.parametrize("v", range(2, 9))
def test_expm_matches_scipy(monkeypatch, kind, v):
    # the Taylor scaling and squaring of `_expm` against scipy's Pade
    # approximant: the exponential itself to t=20, and a 20,001-point grid
    import scipy.linalg

    al = poles_to_alphas(_companion_poles(kind, v))
    C = sim._error_companion(al)
    for t in (1e-3, 1.0, 5.0, 20.0):
        ref = scipy.linalg.expm(C * t)
        assert np.abs(sim._expm(C * t) - ref).max() <= 5e-9 * np.abs(ref).max()
    e0 = np.linspace(-1.0, 1.0, v)
    t = 0.5 + np.arange(20001) * 1e-3
    grid = exact_error_grid(al, e0, t)
    monkeypatch.setattr(sim, "_expm", scipy.linalg.expm)
    assert np.abs(grid - exact_error_grid(al, e0, t)).max() <= 3e-12


# ---------------------------------------------------------------------------
# the generated RK4 kernel against the list-based loop and per-rollout
# right-hand-side and output closures it replaced, kept here as the oracle:
# the operation order is unchanged, so states, outputs, event and row count
# must agree.  The oracle applies the kernel's one event rule: row by row,
# the first domain error, non-finite state or |zhat| above the limit ends
# the run.


def _list_rk4(rhs, out, s0, dt, n_steps, zhat_col=None):
    s = [float(v) for v in s0]
    rows = []
    h2, h6 = 0.5 * dt, dt / 6.0
    for step in range(n_steps + 1):
        if step:
            try:
                k1 = rhs(s)
                k2 = rhs([a + h2 * b for a, b in zip(s, k1)])
                k3 = rhs([a + h2 * b for a, b in zip(s, k2)])
                k4 = rhs([a + dt * b for a, b in zip(s, k3)])
            except sim._DOMAIN_ERRORS:
                return rows, "evaluation-failure"
            s = [
                a + h6 * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)
            ]
        if not all(map(math.isfinite, s)):
            return rows, "divergence"
        try:
            outputs = out(s)
        except sim._DOMAIN_ERRORS:
            return rows, "evaluation-failure"
        rows.append(s + outputs)
        if zhat_col is not None and abs(outputs[zhat_col]) > DIVERGENCE_LIMIT:
            return rows, "divergence"
    return rows, None


def _list_outputs(sys_, zhat=None):
    """y, z and, when given, zhat(s, y) of a row state s."""
    n = sys_.n
    h_fn = compile_exprs(sys_.h, sys_.state_names, sys_.params)
    q_fn = compile_exprs((sys_.q,), sys_.state_names, sys_.params)

    def out(s):
        y = list(h_fn(s[:n]))
        return y + [q_fn(s[:n])[0]] + ([] if zhat is None else [zhat(s, y)])

    return out


def _list_coupled_rhs(sys_, obs):
    v, n = obs.v, sys_.n
    wmap = measured_derivatives(sys_, v)
    f_fn = compile_exprs(sys_.f, sys_.state_names, sys_.params)
    w_fn = compile_exprs(list(wmap.values()), sys_.state_names, sys_.params)
    T_fn = compile_exprs((obs.T,), list(wmap), sys_.params)
    a = obs.alphas.alphas

    def rhs(s):
        x = s[:n]
        c = s[n:]
        top = T_fn(w_fn(x))[0]
        for k in range(1, v + 1):
            top -= a[k - 1] * c[v - k]
        return [*f_fn(x), *c[1:], top]

    return rhs


def _list_custom(sys_, xi_rhs, zhat):
    """(rhs, out) of a custom observer."""
    n = sys_.n
    names = [f"xi{i+1}" for i in range(len(xi_rhs))] + [f"y{j+1}" for j in range(sys_.p)]
    f_fn = compile_exprs(sys_.f, sys_.state_names, sys_.params)
    h_fn = compile_exprs(sys_.h, sys_.state_names, sys_.params)
    rhs_fn = compile_exprs(tuple(as_expr(e) for e in xi_rhs), names, sys_.params)
    zhat_fn = compile_exprs((as_expr(zhat),), names, sys_.params)

    def rhs(s):
        x = s[:n]
        return [*f_fn(x), *rhs_fn([*s[n:], *h_fn(x)])]

    return rhs, _list_outputs(sys_, lambda s, y: zhat_fn([*s[n:], *y])[0])


def _custom_case(xi_rhs, zhat, xi0, t_final, dt, event):
    sys_, _ = _batch_setup(-2.0)
    run = lambda: simulate_custom_observer(sys_, xi_rhs, zhat, X0, [xi0], t_final, dt=dt)
    rhs, out = _list_custom(sys_, xi_rhs, zhat)
    return run, rhs, out, [*X0, xi0], dt, int(round(t_final / dt)), sys_.p + 1, event


def _kernel_case(case):
    """(rollout, old right-hand side, old outputs, start, dt, steps, zhat
    column of the outputs, event)."""
    if case in ("division-by-zero", "output-failure"):
        # division: x reaches exactly 0 at a stage of step 8, where y' = 1/x;
        # output: ln(x) fails once x has crossed 0 while the plant runs on
        f, h = ("-1", "1/x"), ("y",) if case == "division-by-zero" else ("ln(x)",)
        sys_ = SystemDef(
            state_names=("x", "y"), params={}, f=tuple(map(parse, f)),
            h=tuple(map(parse, h)), q=parse("x"), box={"x": (0.1, 1.0), "y": (-1.0, 1.0)},
        )
        s0 = [1.0, 0.0]
        run = lambda: integrate_plant(sys_, np.array(s0), 2.0, dt=0.125)
        rhs = compile_exprs(sys_.f, sys_.state_names, sys_.params)
        return run, rhs, _list_outputs(sys_), s0, 0.125, 16, None, "evaluation-failure"
    if case == "custom-observer":
        xi_rhs = ["-2*xi1 - (1 - 2/k1)*(-2*y1 + k2*y1^2)"]
        return _custom_case(xi_rhs, "xi1 - (1 - 2/k1)*y1", -0.2, 2.0, 1e-3, None)
    if case == "estimate-failure":  # zhat = ln(xi1) fails once xi1 crosses 0
        return _custom_case(["-1"], "ln(xi1) + y1", 0.5, 2.0, 1e-2, "evaluation-failure")
    t_final, dt, event = 2.0, 1e-3, None
    if case == "batch":
        (sys_, obs), x0, off = _batch_setup(-2.0), X0, [0.3]
    elif case == "cstr":
        (sys_, obs), x0, off = _cstr_setup(-1.0), np.array([1.0, 1.0, 0.9]), [-0.2]
    elif case == "triple-integrator":
        (sys_, obs), x0, off = _triple_integrator_setup(-1.5), np.array([0.3, -0.4, 0.5]), [0.2, -0.1]
    else:  # batch-divergent: pole +3
        sys_, rep = builtin_batch_reactor(), load_psi(data_path("psi_batch.json"))
        verify_psi(sys_, rep)
        obs = synthesize_nonlinear(rep, make_alphas([-3.0]), allow_unstable=True)
        (x0, off), t_final, dt, event = (X0, [0.1]), 20.0, 1e-2, "divergence"
    chain0 = chain_init_exact(sys_, x0, obs.v) + np.array(off)
    run = lambda: simulate_coupled(sys_, obs, x0, chain0, t_final, dt=dt)
    s0 = [*x0, *chain0]
    out = _list_outputs(sys_, lambda s, y: s[sys_.n])
    rhs = _list_coupled_rhs(sys_, obs)
    return run, rhs, out, s0, dt, int(round(t_final / dt)), sys_.p + 1, event


@pytest.mark.parametrize(
    "case",
    [
        "batch", "cstr", "triple-integrator", "batch-divergent", "division-by-zero",
        "output-failure", "custom-observer", "estimate-failure",
    ],
)
def test_kernel_matches_list_rk4_loop(monkeypatch, case):
    run, rhs, out, s0, dt, n_steps, zhat_col, event = _kernel_case(case)
    seen = []
    kernel = sim._rk4_kernel

    def spy(stage, *args, **kwargs):
        seen.append((stage, kernel(stage, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(sim, "_rk4_kernel", spy)
    tr = run()
    (stage, (table, got_event)), = seen
    ref, ref_event = _list_rk4(rhs, out, s0, dt, n_steps, zhat_col)
    ref = np.array(ref).reshape(len(ref), table.shape[1])
    assert got_event == ref_event == event == tr.event
    assert table.shape[0] == ref.shape[0] == tr.t.size
    assert 1 < ref.shape[0] <= n_steps + 1
    assert _same_bits(table, ref)
    m, p = len(s0), tr.y.shape[1]
    assert _same_bits(tr.x, ref[:, : tr.x.shape[1]])
    assert _same_bits(tr.y, ref[:, m : m + p]) and _same_bits(tr.z, ref[:, m + p])
    if zhat_col is not None:
        assert _same_bits(tr.zhat, ref[:, m + zhat_col])
        assert _same_bits(tr.err, ref[:, m + zhat_col] - ref[:, m + p])
    if case == "cstr":  # exp(-1/x2) of f, of the w locals and of T is computed once per stage
        lines, _ = stage([f"u{i}" for i in range(m)])
        assert any(ln.split(" = ")[1].startswith("_exp(") for ln in lines)


def test_cstr_stage_computes_its_arrhenius_exp_once(monkeypatch):
    # f holds exp((-1)/x2), the measurement derivatives and T hold exp(-(1/x2))
    run, _, _, s0 = _kernel_case("cstr")[:4]
    stages = []
    kernel = sim._rk4_kernel
    monkeypatch.setattr(sim, "_rk4_kernel", lambda stage, *a: (stages.append(stage), kernel(stage, *a))[1])
    run()
    (stage,) = stages
    for inputs in ("s", "u"):
        lines, derivs = stage([f"{inputs}{i}" for i in range(len(s0))])
        assert sum(src.count("_exp(") for src in [*lines, *derivs]) == 1


def _xi_list_rows(xi_rhs, xi0, t_final, dt):
    """Rows of the custom-observer list loop without the |zhat| check."""
    run, rhs, out, s0, dt, n_steps, _, _ = _custom_case(xi_rhs, "xi1", xi0, t_final, dt, None)
    rows, event = _list_rk4(rhs, out, s0, dt, n_steps)
    return run, np.array(rows), event


def test_custom_observer_stops_at_first_estimate_past_limit():
    # xi1' = 3*xi1 passes 1e12 near t = 9.2 and stays finite to T = 12
    run, rows, event = _xi_list_rows(["3*xi1"], 1.0, 12.0, 1e-2)
    assert event is None
    past = np.abs(rows[:, -1]) > DIVERGENCE_LIMIT
    keep = int(np.argmax(past)) + 1
    tr = run()
    assert tr.event == "divergence"
    assert tr.t.size == keep and 900 < keep < rows.shape[0]
    assert abs(tr.zhat[-1]) > DIVERGENCE_LIMIT and not (np.abs(tr.zhat[:-1]) > DIVERGENCE_LIMIT).any()
    assert _same_bits(tr.zhat, rows[:keep, -1])


def test_custom_observer_limit_precedes_later_non_finite_state():
    # xi1' = xi1*xi1 blows up at t = 1: the estimate passes 1e12 a few rows
    # before the state overflows.  The rollout stops at the first row past
    # the limit, not at the non-finite state.
    run, rows, event = _xi_list_rows(["xi1*xi1"], 1.0, 2.0, 1e-3)
    assert event == "divergence"  # the non-finite state, rows past the limit kept
    keep = int(np.argmax(np.abs(rows[:, -1]) > DIVERGENCE_LIMIT)) + 1
    assert keep < rows.shape[0]
    tr = run()
    assert tr.event == "divergence"
    assert tr.t.size == keep
    assert _same_bits(tr.zhat, rows[:keep, -1])


def test_chain_start_past_limit_stops_at_row_0():
    sys_, obs = _batch_setup(-2.0)
    tr = simulate_coupled(sys_, obs, X0, np.array([2e12]), 1.0, dt=1e-2)
    assert tr.event == "divergence"
    assert tr.zhat.tolist() == [2e12]


# ---------------------------------------------------------------------------
# the linear simulator against its step-by-step loop, which tests every row,
# the start included, before computing the next


def _stepwise_linear(lsys, lobs, x0, xi0, t_final, dt):
    n_steps = int(round(t_final / dt))
    n, v = lsys.n, lobs.v
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
    for k in range(n_steps + 1):
        if k > 0:
            states[k] = P @ states[k - 1]
        if not np.all(np.isfinite(states[k])) or abs(zh_row @ states[k]) > DIVERGENCE_LIMIT:
            event = "divergence"
            last = k if np.all(np.isfinite(states[k])) else k - 1
            break
    states = states[: last + 1]
    y = states[:, :n] @ lsys.H.T
    z = states[:, :n] @ lsys.q[0]
    zh = states @ zh_row
    return states, y, z, zh, event


@pytest.mark.parametrize(
    "pole, scale, t_final, event, rows",
    [
        (-3.0, 1.0, 10.0, None, 10001),
        (3.0, 1.0, 12.0, "divergence", 9613),  # |zhat| passes the limit
        (1e62, 1e30, 1.0, "divergence", 1),  # the first step overflows
    ],
    ids=["stable", "unstable-pole", "overflow"],
)
def test_linear_observer_matches_stepwise_loop(pole, scale, t_final, event, rows):
    lsys = builtin_double_integrator()
    lobs = design_linear_observer(lsys, [pole], allow_unstable=True)
    x0 = np.array([0.3, -0.2]) * scale
    xi0 = xi_from_chain(lobs, np.array([0.1 * scale]), np.atleast_2d(lsys.H @ x0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tr = simulate_linear_observer(lsys, lobs, x0, xi0, t_final, dt=1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        states, y, z, zh, ref_event = _stepwise_linear(lsys, lobs, x0, xi0, t_final, 1e-3)
    assert tr.event == ref_event == event
    assert tr.t.size == states.shape[0] == rows
    assert _same_bits(tr.x, states[:, : lsys.n])
    assert _same_bits(tr.y, y) and _same_bits(tr.z, z) and _same_bits(tr.zhat, zh)
    assert _same_bits(tr.err, zh - z)


@pytest.mark.parametrize(
    "zhat0, rows", [(2e12, 1), (math.nan, 0)], ids=["past-limit", "non-finite"]
)
def test_linear_start_row_is_checked(zhat0, rows):
    lsys = builtin_double_integrator()
    lobs = design_linear_observer(lsys, [-2.0])
    x0 = np.array([0.3, -0.2])
    xi0 = xi_from_chain(lobs, np.array([zhat0]), np.atleast_2d(lsys.H @ x0))
    tr = simulate_linear_observer(lsys, lobs, x0, xi0, 1.0, dt=1e-2)
    with np.errstate(over="ignore", invalid="ignore"):
        states, _, _, zh, ref_event = _stepwise_linear(lsys, lobs, x0, xi0, 1.0, 1e-2)
    assert tr.event == ref_event == "divergence"
    assert tr.t.size == states.shape[0] == rows
    assert _same_bits(tr.zhat, zh)
    if rows:  # the chain route of the same observer stops at the same row
        chain = simulate_coupled(
            linear_to_system(lsys), linear_observer_to_io(lobs), x0, np.array([zhat0]), 1.0, dt=1e-2
        )
        assert chain.event == "divergence"
        assert tr.zhat.tolist() == chain.zhat.tolist() == [zhat0]


def test_linear_observer_for_another_output_count_is_refused():
    lobs = design_linear_observer(builtin_double_integrator(), [-2.0])  # one measurement
    lsys = LinearSystemDef(F=[[0.0, 1.0], [0.0, 0.0]], H=np.eye(2), q=[[0.0, 1.0]])
    with pytest.raises(SimError, match=r"observer takes 1 measurement\(s\) but the system has 2"):
        simulate_linear_observer(lsys, lobs, [0.3, -0.2], [0.0], 1.0, dt=1e-2)


def test_kernel_start_row_is_checked():
    # a non-finite start ends a kernel rollout before row 0 is recorded, as
    # it ends the linear route of the same observer
    lsys = builtin_double_integrator()
    lobs = design_linear_observer(lsys, [-2.0])
    x0 = np.array([0.3, -0.2])
    chain = simulate_coupled(
        linear_to_system(lsys), linear_observer_to_io(lobs), x0, np.array([math.nan]), 1.0, dt=1e-2
    )
    plant = integrate_plant(builtin_batch_reactor(), [X0[0], math.nan, X0[2]], 1.0, dt=1e-2)
    for tr in (chain, plant):
        assert tr.event == "divergence"
        assert tr.t.size == tr.x.shape[0] == tr.zhat.size == 0


# ---------------------------------------------------------------------------
# the first-order exact error grid against the matrix loop it replaced


@pytest.mark.parametrize("t0", [0.0, 0.5])
@pytest.mark.parametrize("e0", [0.3, -1.0, 1e-300])
@pytest.mark.parametrize("pole", [-0.37, -1.0, -1.7, -2.0])
def test_exact_error_grid_first_order_matches_matrix_loop(pole, e0, t0):
    al = poles_to_alphas([pole])
    t = t0 + np.arange(20001) * 1e-3
    C = np.array([[-al.alphas[0]]])
    u = np.exp(C * t[0]) @ np.array([e0]) if t[0] != 0 else np.array([e0])
    Phi = np.exp(C * np.diff(t)[0])
    ref = np.empty(t.size)
    ref[0] = u[0]
    for k in range(1, t.size):
        u = Phi @ u
        ref[k] = u[0]
    assert _same_bits(exact_error_grid(al, [e0], t), ref)
    if e0 == 1e-300 and pole <= -1.0:  # the grid runs into the subnormal range
        assert 0.0 < abs(ref[-1]) < np.finfo(float).tiny
