"""Library guards that the schemas, the parser and the CLI checks keep the
CLI from reaching: each refuses a bad argument with its own error class and
message."""

from dataclasses import replace

import numpy as np
import pytest

from funcobs.expr import (
    Call,
    Const,
    EvalError,
    Expr,
    ExprError,
    Pow,
    ParseError,
    Sym,
    as_expr,
    differentiate,
    equivalent_numeric,
    evaluate,
    parse,
    simplify,
    substitute,
    to_text,
)
from funcobs.jets import flow_derivatives
from funcobs.lie import LieError, lie_derivative, lie_series_predict, lie_table
from funcobs.observability import ObservabilityError, PsiRepresentation, analysis, verify_psi
from funcobs.sim import (
    SimError,
    error_decay_fit,
    exact_error_grid,
    integrate_plant,
    simulate_coupled,
    simulate_custom_observer,
    simulate_linear_observer,
)
from funcobs.synthesis import (
    ObserverIO,
    SynthesisError,
    compute_betas,
    compute_M,
    design_linear_observer,
    linear_functional_index,
    linear_realization,
    make_alphas,
    poles_to_alphas,
    xi_from_chain,
)
from funcobs.system import (
    LinearSystemDef,
    SystemDef,
    SystemDefError,
    builtin_batch_reactor,
    builtin_double_integrator,
    load_linear_system,
)

BATCH = builtin_batch_reactor()
X0 = [1.0, 0.2, 0.1]
OBS = ObserverIO(v=1, alphas=make_alphas([2.0]), T=parse("w1_1 + 2*w0_1"))
LOBS = linear_realization(make_alphas([1.0]), [[1.0], [1.0]])
X = Sym("x")
# dx/dt = 1/x is not finite at x = 0
POLE = SystemDef(("x",), {}, ("1/x",), ("x",), "x", {"x": (0.0, 1.0)})
# a parameter with the name the observer slots give the first measurement
PARAM_Y1 = SystemDef(("x",), {"y1": 2.0}, ("-x",), ("x",), "x", {"x": (0.0, 1.0)})
# F = 0: the target x2 is no combination of the measured x1 and its derivatives
UNREACHABLE = LinearSystemDef(F=np.zeros((2, 2)), H=[[1.0, 0.0]], q=[[0.0, 1.0]])
# H F^2 = [0, 0, 1e320]: the order-2 rows overflow, though every entry of F is finite
OVERFLOW = LinearSystemDef(F=[[0, 1e160, 0], [0, 0, 1e160], [1e160, 0, 0]], H=[[1, 0, 0]], q=[[0, 1, 1]])


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: lie_table(BATCH, BATCH.h, 0), LieError,
                     "derivative table needs order >= 1", id="lie_table-order"),
        pytest.param(lambda: lie_derivative(BATCH, parse("k*cA")), LieError,
                     "unknown symbol 'k' in the differentiated expression", id="lie_derivative-name"),
        pytest.param(lambda: lie_derivative(BATCH, parse("w0_1 + cA")), LieError,
                     "measurement derivative w0_1 not allowed in the differentiated expression",
                     id="lie_derivative-w"),
        pytest.param(lambda: lie_series_predict(BATCH, X0, 0.1, -1), LieError,
                     "series order must be >= 0", id="lie_series_predict-order"),
        pytest.param(lambda: lie_series_predict(POLE, [0.0], 0.1, 2), EvalError,
                     "non-finite output derivative in 'x'", id="lie_series_predict-non-finite"),
        pytest.param(lambda: analysis(BATCH, 0, 1), ObservabilityError,
                     "m_max must be >= 1", id="analysis-m_max"),
        pytest.param(lambda: analysis(BATCH, 1, 0), ObservabilityError,
                     "v_max must be >= 1", id="analysis-v_max"),
        # no sample would check anything: a check on nothing must not pass
        pytest.param(lambda: analysis(BATCH, 6, 3, n_samples=0), ObservabilityError,
                     "n_samples must be >= 1", id="analysis-n_samples"),
        pytest.param(lambda: equivalent_numeric(X, parse("x + 1"), {"x": (0.0, 1.0)}, n=0), ExprError,
                     "n must be >= 1", id="equivalent_numeric-n"),
        pytest.param(lambda: equivalent_numeric(X, X, {"x": (0.0, 1.0)}, n=-5), ExprError,
                     "n must be >= 1", id="equivalent_numeric-negative-n"),
        pytest.param(lambda: verify_psi(BATCH, PsiRepresentation(v=1, psi=(parse("w0_1"), parse("w1_1"))),
                                        n_samples=0), ExprError, "n must be >= 1", id="verify_psi-n_samples"),
        pytest.param(lambda: PsiRepresentation(v=0, psi=(parse("w0_1"),)), ObservabilityError,
                     "observer order v must be >= 1", id="PsiRepresentation-v"),
        pytest.param(lambda: make_alphas([]), SynthesisError,
                     "at least one coefficient is required", id="make_alphas-empty"),
        pytest.param(lambda: poles_to_alphas([]), SynthesisError,
                     "empty pole set", id="poles_to_alphas-empty"),
        # the two poles lie within the pairing tolerance of each other's
        # conjugate, but in the same half-plane
        pytest.param(lambda: poles_to_alphas([-10 + 1e-8j, -10 + 5e-10j]), SynthesisError,
                     "pole set is not closed under conjugation: no partner for (-10+5e-10j)",
                     id="poles_to_alphas-same-half-plane"),
        # a conjugate within the pairing tolerance, whose imaginary residue the
        # large real pole lifts past the coefficient tolerance
        pytest.param(lambda: poles_to_alphas([0.5j, -0.5j + 1.4e-9j, -1000]), SynthesisError,
                     "pole expansion produced complex coefficients",
                     id="poles_to_alphas-complex"),
        pytest.param(lambda: linear_functional_index(UNREACHABLE, 0), SynthesisError,
                     "v_max must be >= 1", id="linear_functional_index-v_max"),
        pytest.param(lambda: compute_M(UNREACHABLE, 1), SynthesisError,
                     "target derivatives are not reproducible from output derivatives "
                     "at order v=1 (residual 1.000e+00)", id="compute_M-unreachable"),
        pytest.param(lambda: linear_functional_index(OVERFLOW, 3), SynthesisError,
                     "the order-2 rows H F^2 and q F^2 overflow a double",
                     id="linear_functional_index-overflow"),
        pytest.param(lambda: compute_M(OVERFLOW, 2), SynthesisError,
                     "the order-2 rows H F^2 and q F^2 overflow a double", id="compute_M-overflow"),
        pytest.param(lambda: design_linear_observer(UNREACHABLE, [-1.0]), SynthesisError,
                     "no functional observer order exists (none up to max(1, n - 1) = 1)",
                     id="design_linear_observer-none"),
        pytest.param(lambda: compute_betas(np.zeros((3, 2)), make_alphas([1.0])), SynthesisError,
                     "M of shape (3, 2) does not match order v=1", id="compute_betas-shape"),
        pytest.param(lambda: linear_realization(make_alphas([1.0]), [[1.0]]), SynthesisError,
                     "need v+1 beta rows, got 1", id="linear_realization-rows"),
        pytest.param(lambda: xi_from_chain(LOBS, [0.0, 0.0], [[0.0]]), SynthesisError,
                     "need v estimate derivatives and v measurement derivative rows",
                     id="xi_from_chain-shape"),
        pytest.param(lambda: SystemDef(("1x",), {}, ("0",), ("1",), "1", {}), SystemDefError,
                     "state name '1x' is not a valid identifier", id="SystemDef-state-name"),
        pytest.param(lambda: SystemDef((), {}, (), ("1",), "1", {}), SystemDefError,
                     "a system needs at least one state", id="SystemDef-no-state"),
        pytest.param(lambda: SystemDef(("x", "y"), {}, ("0",), ("x",), "x", {}), SystemDefError,
                     "vector field has 1 rows for 2 states", id="SystemDef-f-rows"),
        pytest.param(lambda: SystemDef(("x",), {}, ("0",), (), "x", {}), SystemDefError,
                     "at least one measured output is required", id="SystemDef-no-output"),
        pytest.param(lambda: LinearSystemDef(F=[[0.0]], H=[[1.0]], q=[[1.0, 0.0]]), SystemDefError,
                     "q must be a single row over the states", id="LinearSystemDef-q"),
        pytest.param(lambda: flow_derivatives(BATCH, BATCH.h, 2, np.zeros((4, 2))), ValueError,
                     "expected sample points of shape (N, 3), got (4, 2)",
                     id="flow_derivatives-shape"),
        pytest.param(lambda: flow_derivatives(BATCH, BATCH.h, 0, np.zeros((4, 3))), ValueError,
                     "jets need order >= 1", id="flow_derivatives-order"),
        pytest.param(lambda: simulate_coupled(BATCH, OBS, X0, [0.0, 0.0], 1.0), SimError,
                     "chain0 must have v=1 entries", id="simulate_coupled-chain0"),
        pytest.param(lambda: simulate_coupled(BATCH, replace(OBS, T=parse("w2_1")), X0, [0.0], 1.0), SimError,
                     "T uses w2_1 of derivative order 2 > v=1", id="simulate_coupled-T-order"),
        # the chain binds y1 to the first output, so a parameter of that name is out of T's reach
        pytest.param(lambda: simulate_coupled(PARAM_Y1, replace(OBS, T=parse("y1*w1_1")), [0.5], [0.0], 1.0),
                     SimError, "T reads parameter(s) ['y1'] that the chain's own names shadow",
                     id="simulate_coupled-T-shadowed"),
        pytest.param(lambda: exact_error_grid(make_alphas([1.0]), [1.0], np.zeros((2, 2))),
                     SimError, "need a one-dimensional time grid", id="exact_error_grid-2d"),
        pytest.param(lambda: simulate_custom_observer(BATCH, ["-xi1"], "xi1", X0, [0.0, 0.0], 1.0),
                     SimError, "xi0 length must match the number of observer state equations",
                     id="simulate_custom_observer-xi0"),
        pytest.param(lambda: simulate_linear_observer(builtin_double_integrator(), LOBS, [0.0], [0.0], 1.0),
                     SimError, "bad x0 or xi0 shape", id="simulate_linear_observer-x0"),
        # a plant-only trace has no estimate, so its err column is NaN
        pytest.param(lambda: error_decay_fit(integrate_plant(BATCH, X0, 0.01), 0.0, 0.01), SimError,
                     "fit window contains non-finite error values", id="error_decay_fit-non-finite"),
        pytest.param(lambda: Const(True), ExprError, "bad constant True", id="Const-bool"),
        pytest.param(lambda: Sym("1x"), ExprError, "bad symbol name '1x'", id="Sym-name"),
        pytest.param(lambda: Pow(X, 1.5), ExprError,
                     "power exponent must be an integer, got 1.5", id="Pow-exponent"),
        pytest.param(lambda: Call("tan", X), ExprError, "unknown function 'tan'", id="Call-fn"),
        pytest.param(lambda: as_expr([1]), ExprError,
                     "cannot interpret [1] as an expression", id="as_expr-list"),
        pytest.param(lambda: substitute(X, {3: "x"}), ExprError,
                     "bad substitution key 3", id="substitute-key"),
        pytest.param(lambda: substitute(X, {(1, 1): "x"}), ExprError,
                     "bad substitution key (1, 1)", id="substitute-pair-key"),
        pytest.param(lambda: parse("w1_0"), ParseError,
                     "output index in 'w1_0' must be >= 1 (column 0 of 'w1_0')",
                     id="parse-w-output-index"),
        pytest.param(lambda: parse("x $ y"), ParseError,
                     "unexpected character '$' (column 2 of 'x $ y')", id="parse-character"),
        pytest.param(lambda: parse("x y"), ParseError,
                     "unexpected trailing input 'y' (column 2 of 'x y')", id="parse-trailing"),
        pytest.param(lambda: parse("x +"), ParseError,
                     "unexpected end of input (column 3 of 'x +')", id="parse-end"),
        # no binding by the parser's name w<i>_<j> would reach these
        pytest.param(lambda: Sym("w1_0"), ExprError,
                     "bad measurement-derivative name 'w1_0'", id="Sym-w-output-index"),
        pytest.param(lambda: Sym("w01_1"), ExprError,
                     "bad measurement-derivative name 'w01_1'", id="Sym-w-leading-zero"),
        pytest.param(lambda: evaluate(parse("exp(x)"), {"x": 1000.0}), EvalError,
                     "overflow in function evaluation in 'exp(x)'", id="evaluate-exp-overflow"),
        pytest.param(lambda: evaluate(Pow(X, 2), {"x": 1e200}), EvalError,
                     "overflow in power in 'x^2'", id="evaluate-power-overflow"),
        pytest.param(lambda: evaluate(Pow(X, -1), {"x": 0.0}), EvalError,
                     "zero raised to a negative power in 'x^-1'", id="evaluate-zero-power"),
        pytest.param(lambda: to_text(Expr()), ExprError, "cannot print Expr()", id="to_text-node"),
        pytest.param(lambda: evaluate(Expr()), ExprError,
                     "cannot evaluate Expr()", id="evaluate-node"),
        pytest.param(lambda: differentiate(Expr(), "x"), ExprError,
                     "cannot differentiate Expr()", id="differentiate-node"),
        pytest.param(lambda: simplify(Expr()), ExprError,
                     "cannot simplify Expr()", id="simplify-node"),
    ],
)
def test_guard_refuses_bad_argument(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_linear_file_with_infinity_is_refused(tmp_path):
    # JSON's Infinity passes the schema's number check
    path = tmp_path / "lin.json"
    path.write_text('{"F": [[Infinity]], "H": [[1]], "q": [[1]]}')
    with pytest.raises(SystemDefError) as err:
        load_linear_system(path)
    assert type(err.value) is SystemDefError
    assert str(err.value) == "F has non-finite entries"
