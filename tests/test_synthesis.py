"""Observer synthesis: polynomial handling, driving maps, linear pipeline."""

import json
import re

import jsonschema
import numpy as np
import pytest

from funcobs.expr import evaluate, parse, to_text
from funcobs.observability import load_psi, verify_psi
from funcobs.cli import builtin_double_integrator, data_path
from funcobs.synthesis import (
    LinearObserver,
    ObserverIO,
    SynthesisError,
    UnstablePolesError,
    compute_M,
    compute_betas,
    design_linear_observer,
    linear_error_init,
    linear_functional_index,
    linear_realization,
    load_observer,
    make_alphas,
    poles_to_alphas,
    save_observer,
    synthesize_nonlinear,
    verify_invariance,
    xi_from_chain,
)
from funcobs.system import LinearSystemDef, builtin_batch_reactor, builtin_cstr

from linear_chain import linear_observer_to_io
from test_observability import _route_system

# ---------------------------------------------------------------------------
# assigned polynomials

def test_pole_expansion_hand_cases():
    # (s+2)(s+3) = s^2 + 5s + 6
    assert poles_to_alphas([-2, -3]).alphas == pytest.approx((5.0, 6.0))
    # (s+1)(s+2)(s+3) = s^3 + 6s^2 + 11s + 6
    assert poles_to_alphas([-1, -2, -3]).alphas == pytest.approx((6.0, 11.0, 6.0))
    # (s+1-2i)(s+1+2i) = s^2 + 2s + 5
    assert poles_to_alphas([complex(-1, 2), complex(-1, -2)]).alphas == pytest.approx(
        (2.0, 5.0)
    )


def test_pole_expansion_roundtrip():
    al = poles_to_alphas([-0.5, -4.0])
    got = sorted(r.real for r in al.roots)
    assert got == pytest.approx([-4.0, -0.5])
    assert al.hurwitz


def test_conjugate_closure_required():
    with pytest.raises(SynthesisError):
        poles_to_alphas([complex(-1, 2)])


def test_hurwitz_detection():
    assert make_alphas([2.0]).hurwitz  # s + 2
    assert not make_alphas([-1.0]).hurwitz  # s - 1
    assert not make_alphas([0.0, 1.0]).hurwitz  # s^2 + 1, marginal


# ---------------------------------------------------------------------------
# nonlinear synthesis

def _batch_observer(lam=-2.0):
    sys_ = builtin_batch_reactor()
    rep = load_psi(data_path("psi_batch.json"))
    verify_psi(sys_, rep)
    obs = synthesize_nonlinear(rep, poles_to_alphas([lam]))
    return sys_, obs


def test_batch_driving_map_matches_closed_form():
    # for pole lam: T = -(1 + lam/k1) * (w1_1 + k2*w0_1^2)
    _, obs = _batch_observer(-2.0)
    expected = parse("-(1 - 2/k1)*(w1_1 + k2*w0_1^2)")
    from funcobs.expr import equivalent_numeric

    box = {"w0_1": (0.05, 2.0), "w1_1": (-2.0, 2.0), "k1": (1.0, 1.0), "k2": (0.5, 0.5)}
    r = equivalent_numeric(obs.T, expected, box)
    assert r.equivalent
    assert r.max_residual <= 1e-10


def test_order_mismatch_rejected():
    rep = load_psi(data_path("psi_batch.json"))
    with pytest.raises(SynthesisError):
        synthesize_nonlinear(rep, poles_to_alphas([-1, -2]))


def test_unstable_poles_refused_without_override():
    sys_ = builtin_batch_reactor()
    rep = load_psi(data_path("psi_batch.json"))
    verify_psi(sys_, rep)
    with pytest.raises(UnstablePolesError):
        synthesize_nonlinear(rep, poles_to_alphas([1.0]))
    obs = synthesize_nonlinear(rep, poles_to_alphas([1.0]), allow_unstable=True)
    assert obs.alphas.alphas == pytest.approx((-1.0,))


def test_unverified_psi_warns():
    rep = load_psi(data_path("psi_batch.json"))
    with pytest.warns(UserWarning):
        synthesize_nonlinear(rep, poles_to_alphas([-2.0]))


def test_invariance_batch_and_cstr():
    sys_, obs = _batch_observer()
    assert verify_invariance(sys_, obs).max_residual <= 1e-12

    sysc = builtin_cstr()
    repc = load_psi(data_path("psi_cstr.json"))
    verify_psi(sysc, repc)
    obsc = synthesize_nonlinear(repc, poles_to_alphas([-1.0]))
    inv = verify_invariance(sysc, obsc)
    assert inv.equivalent
    assert inv.max_residual <= 1e-8


def test_invariance_detects_wrong_map():
    sys_, obs = _batch_observer()
    bad = ObserverIO(v=obs.v, alphas=obs.alphas, T=parse("w1_1"))
    inv = verify_invariance(sys_, bad)
    assert not inv.equivalent


# ---------------------------------------------------------------------------
# linear pipeline: double integrator as the worked example
#   F = [[0,1],[0,0]], H = [1,0], q = [0,1]
#   Hstack(v=1) = I, Qstack = [[0,1],[0,0]] so M = Qstack exactly

def test_double_integrator_index_and_M():
    lsys = builtin_double_integrator()
    assert linear_functional_index(lsys, 3) == 1
    M, residual = compute_M(lsys, 1)
    assert np.allclose(M, [[0.0, 1.0], [0.0, 0.0]], atol=1e-14)
    assert residual <= 1e-12


def test_double_integrator_betas_and_realization():
    lsys = builtin_double_integrator()
    M, _ = compute_M(lsys, 1)
    for a in (1.0, 3.0, 7.5):
        al = make_alphas([a])
        betas = compute_betas(M, al)
        assert betas == pytest.approx(np.array([[a], [0.0]]))
        lobs = linear_realization(al, betas)
        assert lobs.A == pytest.approx(np.array([[-a]]))
        assert lobs.B == pytest.approx(np.array([[-a * a]]))
        assert lobs.C == pytest.approx(np.array([[1.0]]))
        assert lobs.D == pytest.approx(np.array([[a]]))


def test_design_refuses_unstable_and_wrong_count():
    lsys = builtin_double_integrator()
    with pytest.raises(UnstablePolesError):
        design_linear_observer(lsys, [2.0])
    with pytest.raises(SynthesisError):
        design_linear_observer(lsys, [-1.0, -2.0])  # needs exactly v=1 poles


def test_index_none_when_not_functionally_observable():
    # y and z live in decoupled blocks
    lsys = LinearSystemDef(
        F=np.array([[-1.0, 0.0], [0.0, -2.0]]),
        H=np.array([[1.0, 0.0]]),
        q=np.array([[0.0, 1.0]]),
    )
    assert linear_functional_index(lsys, 3) is None
    with pytest.raises(SynthesisError):
        design_linear_observer(lsys, [-1.0])


def _seeded_plants():
    """The 140 seeded plants of tier-1: acceptance criterion 6's 50 and the
    90 of the linear/sampled route comparison."""
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, 3))
        F = rng.normal(size=(n, n))
        F -= (max(ev.real for ev in np.linalg.eigvals(F)) + 0.5) * np.eye(n)
        yield LinearSystemDef(F=F, H=rng.normal(size=(p, n)), q=rng.normal(size=(1, n)))
    for seed in range(90):
        yield _route_system(seed)


@pytest.mark.filterwarnings("error")
def test_design_order_matches_a_search_to_twice_n():
    # design_linear_observer stops its search at max(1, n - 1); a search to
    # 2n finds the same order, or none where the design refuses
    orders = set()
    for k, lsys in enumerate(_seeded_plants()):
        want = linear_functional_index(lsys, 2 * lsys.n)
        orders.add(want)
        if want is None:
            with pytest.raises(SynthesisError, match="no functional observer order exists"):
                design_linear_observer(lsys, [-1.0])
        else:
            assert design_linear_observer(lsys, [-1.0 - j for j in range(want)]).v == want, k
    assert orders == {1, 2, 3, 4, 5, None}


def test_chain_map_of_realization():
    lobs = design_linear_observer(builtin_double_integrator(), [-3.0])
    io = linear_observer_to_io(lobs)
    assert to_text(io.T) == "3.0*w1_1"
    assert io.v == 1
    assert evaluate(io.T, {"w1_1": 2.0}) == 6.0


def test_stacked_identity_on_random_systems():
    # [b_v ... b_0] Hs == [a_v ... a_1, 1] Qs whenever the solve succeeds
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        F = rng.normal(size=(n, n))
        F -= (max(ev.real for ev in np.linalg.eigvals(F)) + 0.5) * np.eye(n)
        lsys = LinearSystemDef(F=F, H=rng.normal(size=(2, n)), q=rng.normal(size=(1, n)))
        v = linear_functional_index(lsys, 3)
        if v is None:
            continue
        al = make_alphas(list(poles_to_alphas([-1.5, -2.5, -3.5][:v]).alphas))
        M, _ = compute_M(lsys, v)
        betas = compute_betas(M, al)
        Hs = np.vstack([lsys.H @ np.linalg.matrix_power(lsys.F, i) for i in range(v + 1)])
        Qs = np.vstack([lsys.q @ np.linalg.matrix_power(lsys.F, i) for i in range(v + 1)])
        brow = np.concatenate([betas[v - blk] for blk in range(v + 1)])
        arow = np.array(list(al.alphas[::-1]) + [1.0])
        assert np.max(np.abs(brow @ Hs - arow @ Qs)) <= 1e-10


def test_xi_from_chain_double_integrator():
    lsys = builtin_double_integrator()
    lobs = design_linear_observer(lsys, [-3.0])
    x0 = np.array([0.0, 1.0])
    # consistent start: zhat(0) = z(0) = x2 = 1, y(0) = x1 = 0
    xi0 = xi_from_chain(lobs, np.array([1.0]), np.array([[0.0]]))
    assert xi0 == pytest.approx([1.0])
    e0 = linear_error_init(lsys, lobs, x0, xi0)
    assert e0 == pytest.approx([0.0], abs=1e-14)


def test_linear_error_init_reports_offset():
    lsys = builtin_double_integrator()
    lobs = design_linear_observer(lsys, [-3.0])
    x0 = np.array([0.0, 1.0])
    xi0 = xi_from_chain(lobs, np.array([0.0]), np.array([[0.0]]))  # zhat(0) = 0
    e0 = linear_error_init(lsys, lobs, x0, xi0)
    assert e0 == pytest.approx([-1.0])


def test_xi_roundtrip_higher_order():
    # order-2 observer on a 3-state chain with scalar output
    F = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    H = np.array([[1.0, 0.0, 0.0]])
    q = np.array([[0.0, 0.0, 1.0]])
    lsys = LinearSystemDef(F=F, H=H, q=q)
    v = linear_functional_index(lsys, 3)
    assert v == 2
    lobs = design_linear_observer(lsys, [-2.0, -3.0])
    x0 = np.array([0.3, -0.7, 1.1])
    zd = np.array([(q @ np.linalg.matrix_power(F, k) @ x0).item() for k in range(v)])
    yd = np.vstack([H @ np.linalg.matrix_power(F, k) @ x0 for k in range(v)])
    xi0 = xi_from_chain(lobs, zd, yd)
    e0 = linear_error_init(lsys, lobs, x0, xi0)
    assert e0 == pytest.approx([0.0, 0.0], abs=1e-12)


# ---------------------------------------------------------------------------
# observer files

def test_observer_file_roundtrip_io(tmp_path, load_schema):
    _, obs = _batch_observer()
    path = tmp_path / "obs.json"
    save_observer(obs, path)
    with open(path) as fh:
        raw = json.load(fh)
    jsonschema.validate(raw, load_schema("observer.schema.json"))
    back = load_observer(path)
    assert isinstance(back, ObserverIO)
    assert back.v == obs.v
    assert back.alphas.alphas == pytest.approx(obs.alphas.alphas)
    assert to_text(back.T) == to_text(obs.T)


def test_observer_file_roundtrip_realization(tmp_path, load_schema):
    lobs = design_linear_observer(builtin_double_integrator(), [-3.0])
    path = tmp_path / "lobs.json"
    save_observer(lobs, path)
    with open(path) as fh:
        raw = json.load(fh)
    jsonschema.validate(raw, load_schema("observer.schema.json"))
    back = load_observer(path)
    assert isinstance(back, LinearObserver)
    assert back.A == pytest.approx(lobs.A)
    assert back.B == pytest.approx(lobs.B)
    assert back.D == pytest.approx(lobs.D)


@pytest.mark.parametrize(
    "edit, key",
    [({"A": [[5.0]], "C": [[7.0]]}, "A"), ({"B": [[-9.0, 0.0]]}, "B"), ({"C": []}, "C"),
     ({"D": [[3.0], [3.0]]}, "D")],
    ids=["values", "extra-column", "empty", "extra-row"],
)
def test_load_observer_refuses_matrices_off_the_realization(tmp_path, edit, key):
    raw = design_linear_observer(builtin_double_integrator(), [-3.0]).to_dict()
    path = tmp_path / "lobs.json"
    path.write_text(json.dumps({**raw, **edit}))
    with pytest.raises(SynthesisError, match=re.escape(f"{path}: '{key}' is {edit[key]!r}")):
        load_observer(path)


def test_load_observer_rejects_unknown_shape(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"v": 1, "alphas": [1.0]}))
    with pytest.raises(SynthesisError):
        load_observer(path)
