"""Library guards that the schemas and the CLI checks keep the CLI from
reaching: each refuses a bad argument with its own error class and message."""

import numpy as np
import pytest

from funcobs.expr import parse
from funcobs.jets import flow_derivatives
from funcobs.lie import LieError, lie_series_predict, lie_table
from funcobs.observability import (
    ObservabilityError,
    PsiRepresentation,
    functional_index_candidate,
    functional_rank_check,
    observability_index,
)
from funcobs.sim import SimError, exact_error_grid, simulate_coupled
from funcobs.synthesis import ObserverIO, SynthesisError, make_alphas, poles_to_alphas
from funcobs.system import builtin_batch_reactor

BATCH = builtin_batch_reactor()
X0 = [1.0, 0.2, 0.1]
OBS = ObserverIO(v=1, alphas=make_alphas([2.0]), T=parse("w1_1 + 2*w0_1"))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: lie_table(BATCH, BATCH.h, 0), LieError,
                     "derivative table needs order >= 1", id="lie_table-order"),
        pytest.param(lambda: lie_series_predict(BATCH, X0, 0.1, -1), LieError,
                     "series order must be >= 0", id="lie_series_predict-order"),
        pytest.param(lambda: observability_index(BATCH, 0), ObservabilityError,
                     "m_max must be >= 1", id="observability_index-m_max"),
        pytest.param(lambda: functional_rank_check(BATCH, 0), ObservabilityError,
                     "derivative order m must be >= 1", id="functional_rank_check-m"),
        pytest.param(lambda: functional_index_candidate(BATCH, 0), ObservabilityError,
                     "v_max must be >= 1", id="functional_index_candidate-v_max"),
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
    ],
)
def test_guard_refuses_bad_argument(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
