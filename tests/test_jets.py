"""Taylor-mode jets against the symbolic derivative table they replace.

The oracle builds the table with `lie_table` and differentiates every entry
with `differentiate`, as the rank tests did before jets, and evaluates value
and gradients through one `compile_exprs` callable, falling back to the
tree-walk `evaluate` at the samples where that call fails.
"""

import functools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funcobs.cli import builtin_double_integrator
from funcobs.expr import Const, EvalError, Expr, ExprError, Pow, Product, Quot, Sum, Sym
from funcobs.expr import compile_exprs, differentiate, evaluate, parse
from funcobs.jets import flow_derivatives
from funcobs.lie import lie_table
from funcobs.observability import analysis, numeric_rank, sample_states
from funcobs.system import SystemDef, builtin_batch_reactor, builtin_cstr, linear_to_system
from rank_reference import masked_analysis

RTOL = 1e-12
# CLI defaults of `analyze`: 100 samples, seed 42, m_max 6, v_max 3.
SAMPLES, SEED, M_MAX, V_MAX = 100, 42, 6, 3

BUILTINS = {
    "batch-reactor": builtin_batch_reactor,
    "cstr": builtin_cstr,
    "double-integrator": lambda: linear_to_system(builtin_double_integrator()),
}


def _symbolic_table(sys_, exprs, order):
    """[k][e] = (L^k exprs[e], its partial derivatives by state)."""
    return [
        [(e, *(differentiate(e, nm) for nm in sys_.state_names)) for e in row]
        for row in lie_table(sys_, exprs, order)
    ]


def _evaluate_table(sys_, table, pts):
    """Same layout as `flow_derivatives`; NaN where `evaluate` fails.

    The table is compiled once and called once per sample.  A sample whose
    call raises or gives a non-finite entry is evaluated again entry by entry
    with `evaluate`, so its NaNs fall where the tree walk puts them."""
    flat = [expr for row in table for entries in row for expr in entries]
    fn = compile_exprs(flat, sys_.state_names, sys_.params)
    out = np.full((len(pts), len(flat)), np.nan)
    for s, x in enumerate(pts.tolist()):
        try:
            out[s] = fn(x)
        except (ZeroDivisionError, ValueError, OverflowError):
            pass
        if np.isfinite(out[s]).all():
            continue
        out[s] = np.nan
        b = sys_.bindings(x)
        for i, expr in enumerate(flat):
            try:
                out[s, i] = evaluate(expr, b)
            except EvalError:
                pass
    return out.reshape(len(pts), len(table), len(table[0]), 1 + sys_.n)


@functools.lru_cache(maxsize=None)
def _builtin_oracle(name):
    """Output derivatives of orders < M_MAX and target derivatives of orders
    <= V_MAX, at the CLI-default samples."""
    sys_ = BUILTINS[name]()
    pts = sample_states(sys_, SAMPLES, SEED)
    h = _evaluate_table(sys_, _symbolic_table(sys_, sys_.h, M_MAX), pts)
    q = _evaluate_table(sys_, _symbolic_table(sys_, (sys_.q,), V_MAX + 1), pts)
    return sys_, pts, h, q


def _assert_close(got, want, rtol=RTOL):
    """Error relative to the Taylor-coefficient scale at the same sample.

    Jets compute the coefficients L^k e / k!, with rounding relative to the
    largest coefficient met so far, so order k is judged against k! times
    the largest |L^j e| / j!, j <= k, over values, gradients and
    expressions.  A derivative that cancels to zero, like L^2 x2 under
    f = (-2*x1^2, 2*x1*x2), is thereby judged against the size of the terms
    that cancelled rather than against its own rounding noise.
    """
    assert got.shape == want.shape
    fact = np.array([math.factorial(k) for k in range(want.shape[1])]).reshape(1, -1, 1, 1)
    coeff = np.max(np.abs(want), axis=(2, 3), keepdims=True) / fact
    scale = fact * np.maximum.accumulate(coeff, axis=1)
    err = np.abs(got - want) / np.where(scale > 0, scale, 1.0)
    assert np.max(err) <= rtol


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_jets_match_symbolic(name):
    sys_, pts, h, q = _builtin_oracle(name)
    _assert_close(flow_derivatives(sys_, sys_.h, M_MAX, pts), h)
    _assert_close(flow_derivatives(sys_, (sys_.q,), V_MAX + 1, pts), q)


def _oracle_ranks(sys_, h, q):
    """Per-sample ranks computed matrix by matrix, as the rank tests did
    before jets: (index ranks per m, span-check in-span count, candidate
    in-span counts per v, all target orders 0..v appended at once)."""
    p, n = sys_.p, sys_.n
    assert np.isfinite(h).all() and np.isfinite(q).all()
    J = h[:, :, :, 1:].reshape(-1, M_MAX * p, n)
    G = q[:, :, 0, 1:]
    index = [[numeric_rank(Js[: p * m]) for Js in J] for m in range(1, M_MAX + 1)]
    base = [numeric_rank(Js) for Js in J]
    aug = [numeric_rank(np.vstack([Gs[:1], Js])) for Js, Gs in zip(J, G)]
    in_span = sum(b == a for b, a in zip(base, aug))
    counts = [
        sum(
            numeric_rank(Js) == numeric_rank(np.vstack([Js, Gs[: v + 1]]))
            for Js, Gs in zip(J[:, : p * (v + 1)], G)
        )
        for v in range(1, V_MAX + 1)
    ]
    return index, in_span, counts


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_ranks_match_symbolic_at_cli_defaults(name):
    sys_, _, h, q = _builtin_oracle(name)
    index, in_span, counts = _oracle_ranks(sys_, h, q)
    (_, reports), fc, scan = analysis(sys_, M_MAX, V_MAX, SAMPLES, SEED)
    assert [r.ranks for r in reports] == index
    assert fc.n_in_span == in_span
    assert [c.n_in_span for c in scan.checks] == counts


# ---------------------------------------------------------------------------
# hypothesis-generated systems

NAMES = ("x1", "x2")
BOX = {nm: (0.5, 1.5) for nm in NAMES}
_coef = st.integers(-3, 3).filter(bool).map(Const)


_powers = st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])


@st.composite
def _monomials(draw):
    factors = [draw(_coef)]
    for nm, k in zip(NAMES, draw(_powers)):
        if k:
            factors.append(Pow(Sym(nm), k) if k > 1 else Sym(nm))
    return Product(tuple(factors))


_polys = st.lists(_monomials(), min_size=1, max_size=2).map(lambda ts: Sum(tuple(ts)))


@st.composite
def _rationals(draw):
    # the denominator 2 + monomial^2 stays away from zero on the box
    den = Sum((Const(2), Pow(draw(_monomials()), 2)))
    return Quot(draw(_polys), den)


def _system(f, h, q):
    return SystemDef(state_names=NAMES, params={}, f=f, h=h, q=q, box=BOX)


def _check_against_oracle(sys_, order):
    pts = sample_states(sys_, 5, 7)
    exprs = sys_.h + (sys_.q,)
    want = _evaluate_table(sys_, _symbolic_table(sys_, exprs, order), pts)
    _assert_close(flow_derivatives(sys_, exprs, order, pts), want)


# Symbolic swell bounds the oracle's reach: derivative orders 0..5 for
# polynomials, 0..3 once quotients and elementary functions enter.
@settings(max_examples=12)
@given(st.tuples(_polys, _polys), _polys, _polys)
def test_polynomial_systems_match_symbolic(f, h, q):
    _check_against_oracle(_system(f, (h,), q), 6)


@settings(max_examples=10)
@given(st.tuples(_rationals(), _polys), st.one_of(_polys, _rationals()), _polys)
def test_rational_systems_match_symbolic(f, h, q):
    _check_against_oracle(_system(f, (h,), q), 4)


def test_elementary_functions_match_symbolic():
    sys_ = _system(
        (parse("sin(x2) - x1/(1 + x2^2)"), parse("exp(-x1)*cos(x1*x2)")),
        (parse("ln(x1 + x2^2)"), parse("x1^-2 + x2^3")),
        parse("exp(x1)*sin(x2)"),
    )
    _check_against_oracle(sys_, 4)


# ---------------------------------------------------------------------------
# closed forms past the oracle's reach

K_HIGH = 40
# Worst scaled error seen at K_HIGH on these points: 5.5e-13 for x^-3,
# 2e-15 or less for the rest.
HIGH_RTOL = 1e-10
HIGH_PTS = np.linspace(0.5, 1.5, 11).reshape(-1, 1)
_SIN_CYCLE = (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))


def _along_a_line(d):
    """Under dx/dt = 1, L^k h = h^(k), whose gradient is h^(k+1); d(k, x) is h^(k)."""
    return lambda k, x: (d(k, x), d(k + 1, x))


# (f, h) -> (L^k h, its gradient) at x, for the one-state system dx/dt = f
CLOSED_FORMS = {
    ("1", "exp(x)"): _along_a_line(lambda k, x: np.exp(x)),
    ("1", "ln(x)"): _along_a_line(
        lambda k, x: np.log(x) if k == 0 else (-1) ** (k - 1) * math.factorial(k - 1) / x**k
    ),
    ("1", "sin(x)"): _along_a_line(lambda k, x: _SIN_CYCLE[k % 4](x)),
    ("1", "cos(x)"): _along_a_line(lambda k, x: _SIN_CYCLE[(k + 1) % 4](x)),
    ("1", "1/x"): _along_a_line(lambda k, x: (-1) ** k * math.factorial(k) / x ** (k + 1)),
    ("1", "x^-3"): _along_a_line(
        lambda k, x: (-1) ** k * math.factorial(k + 2) / 2 / x ** (k + 3)
    ),
    # Riccati: L^k x = k! x^(k+1)
    ("x^2", "x"): lambda k, x: (math.factorial(k) * x ** (k + 1), math.factorial(k + 1) * x**k),
}


@pytest.mark.parametrize("f, h", sorted(CLOSED_FORMS))
def test_high_orders_match_closed_forms(f, h):
    sys_ = SystemDef(
        state_names=("x",), params={}, f=(parse(f),), h=(parse(h),), q=parse("x"),
        box={"x": (0.5, 1.5)},
    )
    d = CLOSED_FORMS[f, h]
    want = np.array([[[d(k, x)] for k in range(K_HIGH)] for x in HIGH_PTS[:, 0]])
    _assert_close(flow_derivatives(sys_, sys_.h, K_HIGH, HIGH_PTS), want, HIGH_RTOL)


# ---------------------------------------------------------------------------
# failure semantics

# x1 spans zero, so ln(x1) is undefined on part of the box.  Only gradient
# entries decide a skip: the gradients of ln(x1) never contain the ln, so that
# output skips nothing on either path.
LN_SYSTEMS = [
    ("x2*ln(x1)", "x2", True),
    ("ln(x1)", "x1*x2", False),
    ("exp(ln(x1)*x2) + x2", "ln(x1)", True),
]


@pytest.mark.parametrize("h, q, skips", LN_SYSTEMS)
def test_ln_domain_failures_skip_the_same_samples(h, q, skips):
    sys_ = SystemDef(
        state_names=NAMES,
        params={},
        f=(parse("x2"), parse("-x1 + x2/2")),
        h=(parse(h),),
        q=parse(q),
        box={"x1": (-1.0, 2.0), "x2": (0.5, 1.5)},
    )
    m, v, n = 4, 2, 60
    pts = sample_states(sys_, n, SEED)
    hs = _evaluate_table(sys_, _symbolic_table(sys_, sys_.h, m), pts)
    qs = _evaluate_table(sys_, _symbolic_table(sys_, (sys_.q,), v + 1), pts)
    h_ok = np.isfinite(hs[..., 1:]).all(axis=(1, 2, 3))
    q_ok = np.isfinite(qs[..., 1:]).all(axis=(1, 2, 3))
    q0_ok = np.isfinite(qs[:, :1, :, 1:]).all(axis=(1, 2, 3))
    assert (0 < n - h_ok.sum() < n) if skips else h_ok.all()

    result = analysis(sys_, m, v, n, SEED)
    assert result == masked_analysis(sys_, m, v, n, SEED)
    (_, reports), fc, scan = result
    assert reports[-1].n_failed == n - h_ok.sum()
    assert reports[0].n_failed == n - h_ok.sum()
    assert fc.n_checked == (h_ok & q0_ok).sum()
    h_ok_v = np.isfinite(hs[:, : v + 1, :, 1:]).all(axis=(1, 2, 3))
    assert scan.checks[0].n_checked == (h_ok_v & q_ok).sum()


def test_jets_raise_on_unbound_symbol():
    sys_ = builtin_batch_reactor()
    sys_.params.pop("k2")
    with pytest.raises(ExprError, match="unbound symbol 'k2'") as err:
        flow_derivatives(sys_, sys_.h, 3, sample_states(sys_, 4, SEED))
    assert not isinstance(err.value, EvalError)
    with pytest.raises(ExprError, match="unbound symbol") as err:
        analysis(sys_, 3, 1, n_samples=4)
    assert not isinstance(err.value, EvalError)


def test_jets_raise_on_unsupported_node():
    sys_ = builtin_batch_reactor()
    for node, message in (
        (Sym("w1_1"), "unbound symbol 'w1_1' in jet evaluation"),
        (Expr(), "cannot evaluate Expr() as a jet"),
    ):
        with pytest.raises(ExprError) as err:
            flow_derivatives(sys_, (node,), 2, sample_states(sys_, 4, SEED))
        assert str(err.value) == message
        assert not isinstance(err.value, EvalError)


def test_jets_keep_floating_point_state_scoped():
    # Domain failures become non-finite entries even when the caller has
    # floating-point errors raising, and the caller's setting survives.
    sys_ = _system((parse("x2"), parse("1/x1")), (parse("ln(x1)*x2"),), parse("x1"))
    pts = np.array([[-1.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    with np.errstate(all="raise"):
        before = np.geterr()
        d = flow_derivatives(sys_, sys_.h, 3, pts)
        assert np.geterr() == before
    assert not np.isfinite(d[0]).all() and not np.isfinite(d[1]).all()
    assert np.isfinite(d[2]).all()


@pytest.mark.parametrize("builtin", ["batch-reactor", "cstr"])
def test_float_factorials_keep_analysis_bytes(tmp_path, monkeypatch, builtin):
    # The jets scale order k by k! as a double.  Below 21! the int64
    # factorials they multiplied by before convert to the same doubles, so
    # analysis.json at the CLI defaults keeps its bytes.
    from funcobs import jets, lie, observability
    from funcobs.cli import main

    def int_factorial_jets(sys_, exprs, order, pts):
        with monkeypatch.context() as mp:
            mp.setattr(jets, "math", types.SimpleNamespace(factorial=lambda k: 1))
            raw = jets.flow_derivatives(sys_, exprs, order, pts)
        return raw * np.array([math.factorial(k) for k in range(order)]).reshape(1, -1, 1, 1)

    args = ["analyze", "--builtin", builtin, "--out"]
    assert main([*args, str(tmp_path / "float")]) == 0
    for mod in (lie, observability):
        monkeypatch.setattr(mod, "flow_derivatives", int_factorial_jets)
    assert main([*args, str(tmp_path / "int")]) == 0
    read = lambda name: (tmp_path / name / "analysis.json").read_bytes()
    assert read("float") == read("int")


def test_jets_reject_orders_past_finite_factorials():
    sys_ = builtin_batch_reactor()
    pts = sample_states(sys_, 2, SEED)
    assert np.isfinite(flow_derivatives(sys_, sys_.h, 22, pts)).all()  # 21! > int64
    with pytest.raises(ValueError, match="171! is not a finite double"):
        flow_derivatives(sys_, sys_.h, 172, pts)
