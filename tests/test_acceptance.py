"""Acceptance suite: nine numbered end-to-end criteria at pinned tolerances.

Each criterion is one test; on success it prints a single status line so a
captured run shows per-criterion results, and `pytest -v` adds one
pass/fail line per test either way.
"""

import time

import numpy as np
import pytest

from funcobs.cli import builtin_double_integrator, data_path
from funcobs.expr import equivalent_numeric, parse
from funcobs.lie import lie_series_predict
from funcobs.observability import analysis, load_psi, verify_psi
from funcobs.sim import (
    chain_init_exact,
    error_decay_fit,
    exact_error_grid,
    integrate_plant,
    simulate_coupled,
    simulate_custom_observer,
    simulate_linear_observer,
)
from funcobs.synthesis import (
    compute_M,
    compute_betas,
    design_linear_observer,
    linear_error_init,
    linear_functional_index,
    poles_to_alphas,
    synthesize_nonlinear,
    verify_invariance,
    xi_from_chain,
)
from funcobs.system import LinearSystemDef, builtin_batch_reactor, builtin_cstr

X0_BATCH = (1.0, 0.2, 0.0)
X0_CSTR = (1.0, 1.0, 0.9)


def _passed(num, text):
    print(f"criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def batch_rep():
    sys_ = builtin_batch_reactor()
    rep = load_psi(data_path("psi_batch.json"))
    verify_psi(sys_, rep)
    assert rep.verified
    return sys_, rep


@pytest.fixture(scope="module")
def cstr_rep():
    sys_ = builtin_cstr()
    rep = load_psi(data_path("psi_cstr.json"))
    ver = verify_psi(sys_, rep)
    assert max(r.max_residual for r in ver) <= 1e-8
    return sys_, rep


def test_criterion_1_batch_end_to_end(batch_rep):
    t0 = time.perf_counter()
    sys_, rep = batch_rep
    obs = synthesize_nonlinear(rep, poles_to_alphas([-2.0]))

    expected = parse("-(1 - 2/k1)*(w1_1 + k2*w0_1^2)")
    box = {"w0_1": (0.05, 2.0), "w1_1": (-2.0, 2.0), "k1": (1.0, 1.0), "k2": (0.5, 0.5)}
    eq = equivalent_numeric(obs.T, expected, box)
    assert eq.equivalent
    assert eq.max_residual <= 1e-10

    # zhat(0) = 0 while z(0) = 1, so the error is exactly -exp(-2t)
    tr = simulate_coupled(sys_, obs, X0_BATCH, [0.0], t_final=5.0, dt=1e-3)
    assert tr.event is None
    for t_probe in (1.0, 2.0, 5.0):
        k = int(round(t_probe / 1e-3))
        assert abs(tr.err[k] - (-np.exp(-2.0 * t_probe))) <= 1e-6

    rate = error_decay_fit(tr, 0.5, 2.0)
    assert rate == pytest.approx(-2.0, rel=0.01)

    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    _passed(1, f"synthesized map matches, error tracks -exp(-2t), fit {rate:.4f}, {elapsed:.2f}s")


def test_criterion_2_realization_equivalence(batch_rep):
    sys_, rep = batch_rep
    obs = synthesize_nonlinear(rep, poles_to_alphas([-2.0]))
    chain = simulate_coupled(sys_, obs, X0_BATCH, [0.0], t_final=5.0, dt=1e-3)

    # first-order realization with direct feedthrough: zhat = xi + (2/k1 - 1) y
    custom = simulate_custom_observer(
        sys_,
        ["-2*xi1 - (1 - 2/k1)*(-2*y1 + k2*y1^2)"],
        "xi1 - (1 - 2/k1)*y1",
        X0_BATCH,
        [-0.2],
        t_final=5.0,
        dt=1e-3,
    )
    assert custom.event is None
    dev = float(np.max(np.abs(chain.zhat - custom.zhat)))
    assert dev <= 1e-8
    _passed(2, f"chain and state-space estimates agree to {dev:.2e} over [0, 5]")


def test_criterion_3_cstr_end_to_end(cstr_rep):
    t0 = time.perf_counter()
    sys_, rep = cstr_rep

    ver = verify_psi(sys_, rep)
    assert max(r.max_residual for r in ver) <= 1e-8

    obs = synthesize_nonlinear(rep, poles_to_alphas([-1.0]))
    inv = verify_invariance(sys_, obs)
    assert inv.max_residual <= 1e-8

    chain0 = chain_init_exact(sys_, X0_CSTR, 1)
    chain0[0] += 0.1
    tr = simulate_coupled(sys_, obs, X0_CSTR, chain0, t_final=10.0, dt=1e-3)
    assert tr.event is None
    dev = float(np.max(np.abs(tr.err - 0.1 * np.exp(-tr.t))))
    assert dev <= 1e-5

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(3, f"representation and identity hold, error tracks 0.1*exp(-t) to {dev:.2e}, {elapsed:.2f}s")


def test_criterion_4_functional_without_state_observability():
    sys_ = builtin_batch_reactor()
    (index, reports), _, scan = analysis(sys_, 6, 3)
    assert index is None
    assert [r.max_rank for r in reports] == [1, 2, 2, 2, 2, 2]

    chk = analysis(sys_, 2, 1)[1]
    assert chk.holds

    assert scan.candidate == 1
    _passed(4, "state rank saturates at 2 < 3 yet the target passes the span check with v = 1")


def test_criterion_5_double_integrator_pipeline():
    lsys = builtin_double_integrator()
    assert linear_functional_index(lsys, 3) == 1

    M, residual = compute_M(lsys, 1)
    assert residual <= 1e-12
    assert np.allclose(M, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    al = poles_to_alphas([-3.0])
    betas = compute_betas(M, al)
    # velocity target: no position feedthrough beyond the derivative path
    assert np.allclose(betas, [[3.0], [0.0]], atol=1e-12)

    lobs = design_linear_observer(lsys, [-3.0])
    assert np.allclose(lobs.A, [[-3.0]], atol=1e-12)
    assert np.allclose(lobs.B, [[-9.0]], atol=1e-12)
    assert np.allclose(lobs.C, [[1.0]], atol=1e-12)
    assert np.allclose(lobs.D, [[3.0]], atol=1e-12)

    # stacked-equation identity
    Hs = np.vstack([lsys.H @ np.linalg.matrix_power(lsys.F, k) for k in range(2)])
    Qs = np.vstack([lsys.q @ np.linalg.matrix_power(lsys.F, k) for k in range(2)])
    brow = np.concatenate([betas[1 - blk] for blk in range(2)])
    arow = np.array([al.alphas[0], 1.0])
    assert float(np.max(np.abs(brow @ Hs - arow @ Qs))) <= 1e-12

    x0 = np.array([0.0, 1.0])
    xi0 = xi_from_chain(lobs, [0.0], [[0.0]])  # zhat(0) = 0 against z(0) = 1
    e0 = linear_error_init(lsys, lobs, x0, xi0)
    assert np.allclose(e0, [-1.0], atol=1e-12)
    tr = simulate_linear_observer(lsys, lobs, x0, xi0, t_final=5.0, dt=1e-3)
    dev = float(np.max(np.abs(tr.err - (-np.exp(-3.0 * tr.t)))))
    assert dev <= 1e-8
    _passed(5, f"M, betas and realization match closed forms, error within {dev:.2e} of -exp(-3t)")


def test_criterion_6_random_linear_suite():
    t0 = time.perf_counter()
    found = 0
    worst_id = 0.0
    worst_sim = 0.0
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 3))
        F = rng.normal(size=(n, n))
        F -= (max(ev.real for ev in np.linalg.eigvals(F)) + 0.5) * np.eye(n)
        lsys = LinearSystemDef(F=F, H=rng.normal(size=(p, n)), q=rng.normal(size=(1, n)))
        v = linear_functional_index(lsys, 3)
        if v is None:
            continue
        found += 1
        lobs = design_linear_observer(lsys, [-1.5, -2.5, -3.5][:v])

        Hs = np.vstack([lsys.H @ np.linalg.matrix_power(F, k) for k in range(v + 1)])
        Qs = np.vstack([lsys.q @ np.linalg.matrix_power(F, k) for k in range(v + 1)])
        brow = np.concatenate([lobs.betas[v - blk] for blk in range(v + 1)])
        arow = np.array(list(lobs.alphas.alphas[::-1]) + [1.0])
        worst_id = max(worst_id, float(np.max(np.abs(brow @ Hs - arow @ Qs))))

        x0 = rng.normal(size=n)
        zd = [(lsys.q @ np.linalg.matrix_power(F, k) @ x0).item() for k in range(v)]
        zd[0] += 1.0
        yd = np.vstack(
            [[(row @ np.linalg.matrix_power(F, k) @ x0).item() for row in lsys.H] for k in range(v)]
        )
        xi0 = xi_from_chain(lobs, zd, yd)
        e0 = linear_error_init(lsys, lobs, x0, xi0)
        tr = simulate_linear_observer(lsys, lobs, x0, xi0, t_final=5.0, dt=1e-3)
        exact = exact_error_grid(lobs.alphas, e0, tr.t)
        worst_sim = max(worst_sim, float(np.max(np.abs(tr.err - exact))))

    elapsed = time.perf_counter() - t0
    assert found == 38
    assert worst_id <= 1e-10
    assert worst_sim <= 1e-6
    assert elapsed < 30.0
    _passed(6, f"{found}/50 designs, identity {worst_id:.2e}, sim deviation {worst_sim:.2e}, {elapsed:.1f}s")


def test_criterion_7_lie_series_order():
    sys_ = builtin_batch_reactor()
    refs = {}
    for t in (0.2, 0.1):
        tr = integrate_plant(sys_, X0_BATCH, t_final=t, dt=1e-5)
        refs[t] = float(tr.y[-1, 0])
    factors = []
    for m in (1, 2, 3):
        errs = [abs(lie_series_predict(sys_, X0_BATCH, t, m)[0] - refs[t]) for t in (0.2, 0.1)]
        factor = (errs[0] / errs[1]) / 2 ** (m + 1)
        assert 0.8 <= factor <= 1.25
        factors.append(factor)
    _passed(7, "halving t scales the truncation error by 2^(m+1) within "
               f"factors {', '.join(f'{f:.3f}' for f in factors)}")


def test_criterion_8_exact_init_invariant(batch_rep, cstr_rep):
    worst = []

    sys_b, rep_b = batch_rep
    obs_b = synthesize_nonlinear(rep_b, poles_to_alphas([-2.0]))
    tr = simulate_coupled(sys_b, obs_b, X0_BATCH, chain_init_exact(sys_b, X0_BATCH, 1), t_final=10.0)
    worst.append(float(np.max(np.abs(tr.err))))

    sys_c, rep_c = cstr_rep
    obs_c = synthesize_nonlinear(rep_c, poles_to_alphas([-1.0]))
    tr = simulate_coupled(sys_c, obs_c, X0_CSTR, chain_init_exact(sys_c, X0_CSTR, 1), t_final=10.0)
    worst.append(float(np.max(np.abs(tr.err))))

    lsys = builtin_double_integrator()
    lobs = design_linear_observer(lsys, [-3.0])
    x0 = np.array([0.0, 1.0])
    xi0 = xi_from_chain(lobs, [(lsys.q @ x0).item()], [[0.0]])
    tr = simulate_linear_observer(lsys, lobs, x0, xi0, t_final=10.0, dt=1e-3)
    worst.append(float(np.max(np.abs(tr.err))))

    assert all(w <= 1e-7 for w in worst)
    _passed(8, "exact initialization keeps |e(t)| at "
               f"{', '.join(f'{w:.2e}' for w in worst)} for t <= 10")


def test_criterion_9_pole_sweep(batch_rep):
    sys_, rep = batch_rep
    fitted = []
    for lam in (-0.5, -1.0, -2.0, -4.0):
        obs = synthesize_nonlinear(rep, poles_to_alphas([lam]))
        chain0 = chain_init_exact(sys_, X0_BATCH, 1)
        chain0[0] += 0.1
        tr = simulate_coupled(sys_, obs, X0_BATCH, chain0, t_final=10.0, dt=1e-3)
        rate = error_decay_fit(tr, 0.5, 2.0)
        assert rate == pytest.approx(lam, rel=0.02)
        fitted.append(rate)
    _passed(9, "fitted decay rates " + ", ".join(f"{r:.4f}" for r in fitted)
               + " match the assigned poles within 2%")
