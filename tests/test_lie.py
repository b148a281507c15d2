"""Derivatives along the flow: hand-derived oracles and trajectory checks."""

import hashlib

import numpy as np
import pytest

from funcobs.expr import evaluate, parse, to_text
from funcobs.lie import (
    LieError,
    lie_derivative,
    lie_series_predict,
    lie_table,
    measured_derivatives,
    target_derivatives,
)
from funcobs.sim import integrate_plant
from funcobs.system import builtin_batch_reactor, builtin_cstr

# hand-derived for f = (-k1*cA, k1*cA - k2*cB^2, k2*cB^2 - k3*cC), h = cB:
#   L0 = cB
#   L1 = k1*cA - k2*cB^2
#   L2 = -k1^2*cA - 2*k1*k2*cA*cB + 2*k2^2*cB^3


def _batch_L2(k1, k2, cA, cB):
    return -(k1**2) * cA - 2 * k1 * k2 * cA * cB + 2 * k2**2 * cB**3


def test_batch_output_derivatives_match_hand_results():
    sys_ = builtin_batch_reactor()
    table = lie_table(sys_, sys_.h, 3)
    pts = [(1.0, 0.2, 0.0), (0.5, 1.1, 0.3), (1.7, 0.6, 0.9)]
    for cA, cB, cC in pts:
        b = sys_.bindings(np.array([cA, cB, cC]))
        assert evaluate(table[0][0], b) == pytest.approx(cB, rel=1e-14)
        assert evaluate(table[1][0], b) == pytest.approx(
            1.0 * cA - 0.5 * cB**2, rel=1e-14
        )
        assert evaluate(table[2][0], b) == pytest.approx(
            _batch_L2(1.0, 0.5, cA, cB), rel=1e-13
        )


def test_batch_target_derivatives():
    # q = cA: derivatives are (-k1)^k * cA
    sys_ = builtin_batch_reactor()
    Q = target_derivatives(sys_, 3)
    b = sys_.bindings(np.array([1.3, 0.4, 0.2]))
    for k in range(4):
        assert evaluate(Q[k], b) == pytest.approx((-1.0) ** k * 1.3, rel=1e-13)


def test_cstr_first_derivatives_equal_vector_field_rows():
    # h = (theta, thetaj) are bare states, so L1 h_j is f[1], f[2]
    sys_ = builtin_cstr()
    table = lie_table(sys_, sys_.h, 2)
    x = np.array([0.8, 1.1, 0.7])
    b = sys_.bindings(x)
    assert evaluate(table[1][0], b) == pytest.approx(evaluate(sys_.f[1], b), rel=1e-14)
    assert evaluate(table[1][1], b) == pytest.approx(evaluate(sys_.f[2], b), rel=1e-14)


def test_lie_derivative_rejects_w_vars():
    sys_ = builtin_batch_reactor()
    with pytest.raises(LieError):
        lie_derivative(sys_, parse("w0_1 + cA"))


def test_measured_derivatives_order():
    sys_ = builtin_cstr()
    rows = list(measured_derivatives(sys_, 1).items())
    assert [nm for nm, _ in rows] == ["w0_1", "w0_2", "w1_1", "w1_2"]
    assert to_text(rows[0][1]) == "theta"


# sha256 of the printed order-5 derivative tables of both builtins, pinned
# when the tables were first written out: it covers `simplify` output at
# orders that no artifact reaches
LIE_TABLES_SHA256 = "8329a83afb7359293f552aa778c33a058df595651bff5f850888d295f8594fe0"


def test_order5_lie_tables_text_is_pinned():
    rows = []
    for sys_ in (builtin_batch_reactor(), builtin_cstr()):
        rows += [to_text(e) for e in measured_derivatives(sys_, 4).values()]
        rows += [to_text(e) for e in target_derivatives(sys_, 4)]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == LIE_TABLES_SHA256


def test_output_derivatives_match_trajectory_differences():
    # d^i y / dt^i along a simulated trajectory, by central differences
    for sys_ in (builtin_batch_reactor(), builtin_cstr()):
        x0 = np.array(
            [(lo + hi) / 2 for lo, hi in (sys_.box[nm] for nm in sys_.state_names)]
        )
        dt = 1e-4
        tr = integrate_plant(sys_, x0, 0.2, dt=dt)
        table = lie_table(sys_, sys_.h, 3)
        k = 1000  # interior sample, t = 0.1
        b = sys_.bindings(tr.x[k])
        for j in range(sys_.p):
            y = tr.y[:, j]
            fd1 = (y[k + 1] - y[k - 1]) / (2 * dt)
            fd2 = (y[k + 1] - 2 * y[k] + y[k - 1]) / dt**2
            l1 = evaluate(table[1][j], b)
            l2 = evaluate(table[2][j], b)
            assert abs(fd1 - l1) <= 1e-4 * (1.0 + abs(l1))
            assert abs(fd2 - l2) <= 1e-4 * (1.0 + abs(l2))


def test_series_prediction_improves_with_order():
    sys_ = builtin_batch_reactor()
    x0 = np.array([1.0, 0.2, 0.0])
    t = 0.3
    ref = integrate_plant(sys_, x0, t, dt=1e-5)
    y_true = ref.y[-1, 0]
    errs = [abs(lie_series_predict(sys_, x0, t, m)[0] - y_true) for m in (1, 2, 3, 4)]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_series_zero_time_returns_output():
    sys_ = builtin_cstr()
    x0 = np.array([1.0, 1.0, 0.9])
    pred = lie_series_predict(sys_, x0, 0.0, 2)
    b = sys_.bindings(x0)
    for j in range(sys_.p):
        assert pred[j] == pytest.approx(evaluate(sys_.h[j], b), rel=1e-15)
