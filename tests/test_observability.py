"""Rank tests, functional-index scans, and psi verification."""

import json
from dataclasses import replace

import numpy as np
import pytest

import funcobs.lie
import funcobs.observability
from funcobs.expr import Const, Product, Quot, Sym, parse, substitute, to_text
from funcobs.jets import flow_derivatives
from funcobs.observability import (
    ObservabilityError,
    PsiRepresentation,
    analysis,
    load_psi,
    numeric_rank,
    numeric_ranks,
    sample_states,
    verify_psi,
)
from funcobs.cli import builtin_double_integrator, data_path
from funcobs.synthesis import linear_functional_index, poles_to_alphas, synthesize_nonlinear
from funcobs.system import (
    BUILTINS,
    LinearSystemDef,
    SystemDef,
    builtin_batch_reactor,
    builtin_cstr,
    linear_to_system,
    system_from_dict,
    write_json,
)


def _double_integrator_nl() -> SystemDef:
    return SystemDef(
        state_names=("x1", "x2"),
        params={},
        f=(parse("x2"), parse("0")),
        h=(parse("x1"),),
        q=parse("x2"),
        box={"x1": (-2.0, 2.0), "x2": (-2.0, 2.0)},
    )


# ---------------------------------------------------------------------------
# numeric rank

def test_numeric_rank_known_matrices():
    assert numeric_rank(np.eye(3)) == 3
    assert numeric_rank(np.zeros((2, 2))) == 0
    assert numeric_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    assert numeric_rank(np.array([[1.0, 0.0], [0.0, 1e-15]])) == 1  # below cutoff


def test_numeric_rank_scale_invariant():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [4.0, 6.0]])
    assert numeric_rank(a) == numeric_rank(1e8 * a) == numeric_rank(1e-8 * a) == 2


def test_numeric_ranks_degenerate_stacks():
    assert numeric_ranks(np.zeros((3, 4, 2))).tolist() == [0, 0, 0]
    assert numeric_ranks(np.zeros((2, 0, 3))).tolist() == [0, 0]
    with pytest.raises(ValueError):
        numeric_ranks(np.eye(3))


FOUR_SYSTEMS = pytest.mark.parametrize(
    "sys_",
    [
        builtin_batch_reactor(),
        builtin_cstr(),
        linear_to_system(builtin_double_integrator()),
        replace(builtin_batch_reactor(), q=parse("cC")),
    ],
    ids=["batch-reactor", "cstr", "double-integrator", "batch-target-cC"],
)


@FOUR_SYSTEMS
def test_batched_ranks_equal_per_sample_ranks(sys_):
    # the stacks the rank tests build at the CLI defaults (m_max 6, v_max 3)
    m, p, n = 6, sys_.p, sys_.n
    d = flow_derivatives(sys_, sys_.h + (sys_.q,), m, sample_states(sys_, 100, 42))
    J = d[:, :, :p, 1:].reshape(100, m * p, n)
    G = d[:, :4, p, 1:]
    stacks = [J[:, : p * k] for k in range(1, m + 1)]
    stacks += [np.concatenate([G[:, :1], J], axis=1)]
    stacks += [np.concatenate([J[:, : p * 4], G[:, k : k + 1]], axis=1) for k in range(4)]
    for stack in stacks:
        assert numeric_ranks(stack).tolist() == [numeric_rank(a) for a in stack]


# ---------------------------------------------------------------------------
# state observability

def test_double_integrator_observable_at_order_two():
    sys_ = _double_integrator_nl()
    (idx, reports), _, _ = analysis(sys_, 3, 1)
    assert idx == 2
    assert [r.max_rank for r in reports] == [1, 2, 2]
    assert "state-observable" in reports[1].verdict


def test_batch_rank_saturates_below_full():
    sys_ = builtin_batch_reactor()
    (idx, reports), _, _ = analysis(sys_, 6, 1)
    assert idx is None
    assert [r.max_rank for r in reports] == [1, 2, 2, 2, 2, 2]
    assert "not met" in reports[-1].verdict


def test_cstr_state_observable():
    idx = analysis(builtin_cstr(), 4, 1)[0][0]
    assert idx == 2


def test_rank_report_is_deterministic():
    sys_ = builtin_batch_reactor()
    r1 = analysis(sys_, 3, 1, n_samples=50, seed=11)[0][1][-1]
    r2 = analysis(sys_, 3, 1, n_samples=50, seed=11)[0][1][-1]
    assert r1.ranks == r2.ranks


def test_rank_monotone_in_m():
    sys_ = builtin_cstr()
    (_, reports), _, _ = analysis(sys_, 4, 1, n_samples=40)
    ranks = [r.max_rank for r in reports]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))


# ---------------------------------------------------------------------------
# functional checks

def test_batch_functional_check_passes_despite_state_deficiency():
    sys_ = builtin_batch_reactor()
    fc = analysis(sys_, 6, 1)[1]
    assert fc.holds
    assert fc.n_agree == fc.n_checked


def test_unreachable_target_fails_functional_check():
    # cC never shows up in any output derivative
    sys_ = replace(builtin_batch_reactor(), q=parse("cC"))
    fc = analysis(sys_, 4, 1)[1]
    assert not fc.holds
    assert "left the measured span" in fc.verdict


def test_functional_index_candidates():
    assert analysis(builtin_batch_reactor(), 1, 3)[2].candidate == 1
    assert analysis(builtin_cstr(), 1, 3)[2].candidate == 1


def test_functional_index_candidate_none_when_unreachable():
    sys_ = replace(builtin_batch_reactor(), q=parse("cC"))
    scan = analysis(sys_, 1, 3)[2]
    assert scan.candidate is None
    assert all(not c.holds for c in scan.checks if c.v == 1 and c.k == 0)


def test_double_integrator_candidate():
    assert analysis(_double_integrator_nl(), 1, 2)[2].candidate == 1


def test_rank_tests_build_no_symbolic_table(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rank tests must not build a symbolic derivative table")

    monkeypatch.setattr(funcobs.lie, "lie_table", forbidden)
    monkeypatch.setattr(funcobs.lie, "lie_derivative", forbidden)
    sys_ = builtin_cstr()
    assert analysis(sys_, 3, 1, n_samples=20)[0][1][-1].max_rank == 3
    (index, _), fc, scan = analysis(sys_, 6, 3, n_samples=20)
    assert index == 2
    assert fc.holds
    assert scan.candidate == 1


def test_all_samples_failing_names_the_first_point_and_order():
    # 10^400 is inf as a double, so f[0] is inf/inf = nan wherever it enters
    raw = builtin_batch_reactor().to_dict()
    raw["f"][0] = "-10^400*k1*cA/10^400"
    sys_ = system_from_dict(raw)
    first = ", ".join(f"{nm}={x!r}" for nm, x in zip(sys_.state_names, sample_states(sys_, 100, 42)[0].tolist()))
    with pytest.raises(ObservabilityError) as err:
        analysis(sys_, 6, 1)
    assert str(err.value) == (
        f"all 100 sample points failed to evaluate; at the first ({first}) "
        "the gradient of the order-2 derivative of output h[0] is not finite"
    )
    with pytest.raises(ObservabilityError, match="order-1 derivative of the target q is not finite"):
        analysis(sys_, 1, 3)


# ---------------------------------------------------------------------------
# one pass of jets for all three rank tests

@FOUR_SYSTEMS
@pytest.mark.parametrize("m_max, n_samples, v_max", [(6, 100, 3), (12, 1000, 8), (3, 50, 6)])
def test_analysis_equals_the_three_rank_tests(sys_, m_max, n_samples, v_max):
    # each test reads the same from the shared pass as from the shortest pass it needs
    index, fcheck, scan = analysis(sys_, m_max, v_max, n_samples)
    assert (index, fcheck) == analysis(sys_, m_max, 1, n_samples)[:2]
    assert scan == analysis(sys_, 1, v_max, n_samples)[2]


def test_analysis_skips_a_sample_for_the_index_only_when_an_output_fails():
    # the gradient ln(cA - 1) + cA/(cA - 1) of this target is not finite where
    # cA <= 1, about half the box; the output cB never fails
    sys_ = replace(builtin_batch_reactor(), q=parse("cA*ln(cA - 1)"))
    (_, reports), fcheck, scan = analysis(sys_, 6, 3)
    assert [r.n_failed for r in reports] == [0] * 6
    assert 0 < fcheck.base.n_failed < 100
    assert scan.checks[0].n_checked == 100 - fcheck.base.n_failed
    (_, alone), alone_check, _ = analysis(sys_, 6, 1)
    assert (reports, fcheck) == (alone, alone_check)


# ---------------------------------------------------------------------------
# units: a state, output, target or time measured in other units changes no verdict


def _rescaled(sys_: SystemDef, c) -> SystemDef:
    """sys_ over the states u = x / c: du_i/dt = f_i(c*u) / c_i, h and q read c*u."""
    x = {nm: Product((Const(ci), Sym(nm))) for nm, ci in zip(sys_.state_names, c)}
    return SystemDef(
        state_names=sys_.state_names,
        params=sys_.params,
        f=[Quot(substitute(fi, x), Const(ci)) for fi, ci in zip(sys_.f, c)],
        h=[substitute(hj, x) for hj in sys_.h],
        q=substitute(sys_.q, x),
        box={nm: (sys_.box[nm][0] / ci, sys_.box[nm][1] / ci) for nm, ci in zip(sys_.state_names, c)},
    )


def _verdicts(sys_: SystemDef):
    (index, reports), check, scan = analysis(sys_, 6, 3)
    return (
        [(r.max_rank, r.fraction_max) for r in reports],
        index,
        check.n_agree,
        [s.n_in_span for s in scan.checks],
        scan.candidate,
    )


ITEM1_XFAIL = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: rank depends on units")
UNIT_FACTORS = [
    # powers of two scale every double exactly: a control on the helper
    (2, 0.5, 4),
    *(tuple(f if k == i else 1 for k in range(3)) for i in range(3) for f in (1e4, 1e-4, 1e8, 1e-8)),
    (1e4, 1e-4, 1),
    (1, 1e10, 1e-10),
]
# each builtin's state factors, and the cases whose verdicts move today
STATE_UNIT_CASES = {
    "cstr": (UNIT_FACTORS, {(1e8, 1, 1), (1e-8, 1, 1), (1, 1e8, 1), (1, 1e-8, 1), (1, 1, 1e8),
                            (1, 1, 1e-8), (1e4, 1e-4, 1), (1, 1e10, 1e-10)}),
    # a factor on cC alone changes nothing: neither cB nor the target reads cC
    "batch-reactor": (UNIT_FACTORS, {(1e8, 1, 1), (1e-8, 1, 1), (1, 1e8, 1), (1, 1e-8, 1),
                                     (1e4, 1e-4, 1), (1, 1e10, 1e-10)}),
    "double-integrator": (
        [(2, 0.5), *(tuple(f if k == i else 1 for k in range(2)) for i in range(2)
                     for f in (1e4, 1e-4, 1e8, 1e-8)), (1e4, 1e-4), (1e10, 1e-10)],
        {(1e10, 1e-10)},
    ),
}


@pytest.mark.parametrize(
    "name, c",
    [
        pytest.param(name, c, id=f"{name}-" + "-".join(f"{ci:g}" for ci in c),
                     marks=[ITEM1_XFAIL] if c in failing else [])
        for name, (factors, failing) in STATE_UNIT_CASES.items()
        for c in factors
    ],
)
def test_verdicts_do_not_depend_on_state_units(name, c):
    sys_ = BUILTINS[name]()
    assert _verdicts(_rescaled(sys_, c)) == _verdicts(sys_)


def _in_units(sys_: SystemDef, kind: str, c: float) -> SystemDef:
    """sys_ with its outputs (h -> c*h), its target (q -> c*q) or its time
    (t = c*tau, so f -> c*f) measured in other units."""
    k = Const(c)
    if kind == "output":
        return replace(sys_, h=[Product((k, hj)) for hj in sys_.h])
    if kind == "target":
        return replace(sys_, q=Product((k, sys_.q)))
    return replace(sys_, f=[Product((k, fi)) for fi in sys_.f])


@pytest.mark.parametrize(
    "name, kind, c",
    [
        # a time unit of 1e6 lowers fraction_at_max at m >= 4 on both
        # nonlinear builtins, and two functional-span checks read 98/100
        pytest.param(name, kind, c, id=f"{name}-{kind}-{c:g}",
                     marks=[ITEM1_XFAIL] if (name, kind, c) in {("cstr", "time", 1e6),
                                                                ("batch-reactor", "time", 1e6)} else [])
        for name in STATE_UNIT_CASES
        for kind in ("output", "target", "time")
        for c in (1e-6, 1e6)
    ],
)
def test_verdicts_do_not_depend_on_output_target_or_time_units(name, kind, c):
    sys_ = BUILTINS[name]()
    assert _verdicts(_in_units(sys_, kind, c)) == _verdicts(sys_)


def _route_system(seed: int) -> LinearSystemDef:
    """A random linear system: generic, with a last state that neither H nor
    the other states see, or with the target on a single state, by seed % 3."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    F, H, q = rng.normal(size=(n, n)), rng.normal(size=(p, n)), rng.normal(size=(1, n))
    if seed % 3 == 1:
        F[:-1, -1] = H[:, -1] = 0.0
    elif seed % 3 == 2:
        q = np.eye(n)[int(rng.integers(n))][None, :]
    return LinearSystemDef(F=F, H=H, q=q)


def test_linear_and_sampled_routes_agree():
    # the matrix route and the sampled route answer the same questions
    candidates = set()
    for seed in range(90):
        lsys = _route_system(seed)
        (index, _), _, scan = analysis(linear_to_system(lsys), 6, 3)
        stack = np.vstack([lsys.H @ np.linalg.matrix_power(lsys.F, k) for k in range(6)])
        ranks = [numeric_rank(stack[: lsys.p * m]) for m in range(1, 7)]
        assert index == next((m for m, r in enumerate(ranks, 1) if r == lsys.n), None), seed
        assert scan.candidate == linear_functional_index(lsys, 3), seed
        candidates.add(scan.candidate)
    assert candidates == {1, 2, 3, None}


# ---------------------------------------------------------------------------
# psi representations

def test_psi_rejects_order_overflow():
    with pytest.raises(ObservabilityError):
        PsiRepresentation(v=1, psi=(parse("w0_1"), parse("w2_1")))


def test_psi_requires_v_plus_one_entries():
    with pytest.raises(ObservabilityError):
        PsiRepresentation(v=2, psi=(parse("w0_1"), parse("w1_1")))


def test_psi_file_roundtrip(tmp_path):
    rep = load_psi(data_path("psi_batch.json"))
    out = tmp_path / "psi.json"
    write_json(out, {"v": rep.v, "psi": [to_text(e) for e in rep.psi]})
    back = load_psi(out)
    assert back.v == rep.v
    assert [to_text(e) for e in back.psi] == [to_text(e) for e in rep.psi]


def test_verify_psi_batch_exact():
    sys_ = builtin_batch_reactor()
    rep = load_psi(data_path("psi_batch.json"))
    ver = verify_psi(sys_, rep)
    assert all(r.equivalent for r in ver)
    assert max(r.max_residual for r in ver) <= 1e-12
    assert rep.verified


def test_verify_psi_cstr():
    sys_ = builtin_cstr()
    rep = load_psi(data_path("psi_cstr.json"))
    ver = verify_psi(sys_, rep)
    assert rep.verified
    assert max(r.max_residual for r in ver) <= 1e-8


def test_verify_psi_rejects_wrong_representation():
    sys_ = builtin_batch_reactor()
    rep = PsiRepresentation(v=1, psi=(parse("w0_1"), parse("w1_1")))  # claims q = cB
    ver = verify_psi(sys_, rep)
    assert not all(r.equivalent for r in ver)
    assert not rep.verified


def test_verify_psi_clears_a_stale_verified_flag():
    # psi_batch reproduces cA's derivatives, not cC's: a second check against
    # the other target fails and the earlier verdict must not survive it
    rep = load_psi(data_path("psi_batch.json"))
    verify_psi(builtin_batch_reactor(), rep)
    assert rep.verified
    ver = verify_psi(replace(builtin_batch_reactor(), q="cC"), rep)
    assert not rep.verified
    assert [r.equivalent for r in ver] == [False, False]
    with pytest.warns(UserWarning, match="not been verified"):
        synthesize_nonlinear(rep, poles_to_alphas([-2.0]))


def test_verify_psi_rejects_state_references():
    sys_ = builtin_batch_reactor()
    rep = PsiRepresentation(v=1, psi=(parse("cA"), parse("-cA")))
    with pytest.raises(ObservabilityError) as err:
        verify_psi(sys_, rep)
    assert "cA" in str(err.value)


def test_verify_psi_rejects_missing_output_channel():
    sys_ = builtin_batch_reactor()  # p = 1
    rep = PsiRepresentation(v=1, psi=(parse("w0_2"), parse("w1_2")))
    with pytest.raises(ObservabilityError):
        verify_psi(sys_, rep)


# ---------------------------------------------------------------------------
# file handling

def test_load_psi_requires_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v": 1}))
    with pytest.raises(ObservabilityError):
        load_psi(path)
