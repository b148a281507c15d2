"""The chain form of a realized linear observer, for the tests that check
the realized route against the T-form route."""

from funcobs.expr import simplify, w_name
from funcobs.synthesis import ObserverIO
from funcobs.system import _linear_row


def linear_observer_to_io(lobs) -> ObserverIO:
    """The observer as a T-form ObserverIO: its betas weight the measurement
    derivatives w<i>_<j> in T."""
    names = [w_name(lobs.v - k, j) for k in range(lobs.v + 1) for j in range(1, lobs.p + 1)]
    return ObserverIO(v=lobs.v, alphas=lobs.alphas, T=simplify(_linear_row(lobs.betas.ravel(), names)))
