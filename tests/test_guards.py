"""Library guards that the schemas, the parser and the CLI checks keep the
CLI from reaching: each refuses a bad argument with its own error class and
message."""

import numpy as np
import pytest

from funcobs.expr import (
    Call,
    Const,
    EvalError,
    Expr,
    ExprError,
    Pow,
    Sym,
    WVar,
    as_expr,
    differentiate,
    evaluate,
    parse,
    simplify,
    substitute,
    to_text,
)
from funcobs.jets import flow_derivatives
from funcobs.lie import LieError, lie_series_predict, lie_table
from funcobs.observability import ObservabilityError, PsiRepresentation, analysis
from funcobs.sim import SimError, exact_error_grid, simulate_coupled
from funcobs.synthesis import ObserverIO, SynthesisError, make_alphas, poles_to_alphas
from funcobs.system import builtin_batch_reactor

BATCH = builtin_batch_reactor()
X0 = [1.0, 0.2, 0.1]
OBS = ObserverIO(v=1, alphas=make_alphas([2.0]), T=parse("w1_1 + 2*w0_1"))
X = Sym("x")


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: lie_table(BATCH, BATCH.h, 0), LieError,
                     "derivative table needs order >= 1", id="lie_table-order"),
        pytest.param(lambda: lie_series_predict(BATCH, X0, 0.1, -1), LieError,
                     "series order must be >= 0", id="lie_series_predict-order"),
        pytest.param(lambda: analysis(BATCH, 0, 1), ObservabilityError,
                     "m_max must be >= 1", id="analysis-m_max"),
        pytest.param(lambda: analysis(BATCH, 1, 0), ObservabilityError,
                     "v_max must be >= 1", id="analysis-v_max"),
        pytest.param(lambda: PsiRepresentation(v=0, psi=(parse("w0_1"),)), ObservabilityError,
                     "observer order v must be >= 1", id="PsiRepresentation-v"),
        pytest.param(lambda: make_alphas([]), SynthesisError,
                     "at least one coefficient is required", id="make_alphas-empty"),
        pytest.param(lambda: poles_to_alphas([]), SynthesisError,
                     "empty pole set", id="poles_to_alphas-empty"),
        pytest.param(lambda: flow_derivatives(BATCH, BATCH.h, 2, np.zeros((4, 2))), ValueError,
                     "expected sample points of shape (N, 3), got (4, 2)",
                     id="flow_derivatives-shape"),
        pytest.param(lambda: flow_derivatives(BATCH, BATCH.h, 0, np.zeros((4, 3))), ValueError,
                     "jets need order >= 1", id="flow_derivatives-order"),
        pytest.param(lambda: simulate_coupled(BATCH, OBS, X0, [0.0, 0.0], 1.0), SimError,
                     "chain0 must have v=1 entries", id="simulate_coupled-chain0"),
        pytest.param(lambda: exact_error_grid(make_alphas([1.0]), [1.0], np.zeros((2, 2))),
                     SimError, "need a one-dimensional time grid", id="exact_error_grid-2d"),
        pytest.param(lambda: Const(True), ExprError, "bad constant True", id="Const-bool"),
        pytest.param(lambda: Sym("1x"), ExprError, "bad symbol name '1x'", id="Sym-name"),
        pytest.param(lambda: WVar(-1, 1), ExprError,
                     "bad measurement-derivative index w-1_1", id="WVar-order"),
        pytest.param(lambda: Pow(X, 1.5), ExprError,
                     "power exponent must be an integer, got 1.5", id="Pow-exponent"),
        pytest.param(lambda: Call("tan", X), ExprError, "unknown function 'tan'", id="Call-fn"),
        pytest.param(lambda: as_expr([1]), ExprError,
                     "cannot interpret [1] as an expression", id="as_expr-list"),
        pytest.param(lambda: substitute(X, {3: "x"}), ExprError,
                     "bad substitution key 3", id="substitute-key"),
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
