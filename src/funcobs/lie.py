"""Directional derivative tables along the plant vector field.

For a plant dx/dt = f(x), the directional (Lie) derivative of a scalar
g is sum_i (dg/dx_i) * f_i; iterating it on the measured outputs yields
the symbolic table of output derivatives that psi verification and the
observer synthesis consume.  Values and gradients at points (Jacobians,
series predictions) come from the Taylor-mode jets in `funcobs.jets`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expr import (
    Const,
    EvalError,
    Expr,
    Product,
    Sum,
    differentiate,
    free_symbols,
    simplify,
)
from .jets import flow_derivatives
from .system import SystemDef


class LieError(ValueError):
    pass


def lie_derivative(sys: SystemDef, g: Expr) -> Expr:
    """One application of the plant's directional derivative to g."""
    names, wvars = free_symbols(g)
    if wvars:
        i, j = sorted(wvars)[0]
        raise LieError(
            f"measurement derivative w{i}_{j} is not a state-space quantity"
        )
    terms = []
    for nm, fi in zip(sys.state_names, sys.f):
        dg = differentiate(g, nm)
        if isinstance(dg, Const) and dg.value == 0:
            continue
        terms.append(Product((dg, fi)))
    if not terms:
        return Const(0)
    return simplify(terms[0] if len(terms) == 1 else Sum(tuple(terms)))


@dataclass
class ObservabilitySet:
    """Derivatives of every measured output up to order m-1.

    table[i][j] is the i-th derivative of output j+1 along the flow.
    """

    sys: SystemDef
    m: int
    table: list[list[Expr]]

    def rows(self):
        """Flattened (i, j, expr) rows ordered by derivative order, then output."""
        out = []
        for i in range(self.m):
            for j, e in enumerate(self.table[i], start=1):
                out.append((i, j, e))
        return out

    def derivative_map(self) -> dict[tuple[int, int], Expr]:
        """(i, j) -> the expression that the measurement derivative w<i>_<j> stands for."""
        return {(i, j): e for i, j, e in self.rows()}


def observability_set(sys: SystemDef, m: int) -> ObservabilitySet:
    if m < 1:
        raise LieError("derivative table needs m >= 1")
    table = [list(sys.h)]
    for _ in range(m - 1):
        table.append([lie_derivative(sys, e) for e in table[-1]])
    return ObservabilitySet(sys=sys, m=m, table=table)


def observability_jacobian(os_: ObservabilitySet, x) -> np.ndarray:
    """Stacked gradient matrix of the derivative table at a point.

    Rows follow `ObservabilitySet.rows` order.  Points outside the sampling
    box are allowed but warned about, since the local tests only certify
    behaviour on the box.  The gradients come from Taylor-mode jets, not
    from the symbolic table; a non-finite entry raises EvalError.
    """
    sys = os_.sys
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        raise LieError(f"expected a point with {sys.n} coordinates")
    for nm, val in zip(sys.state_names, x):
        lo, hi = sys.box[nm]
        if val < lo or val > hi:
            warnings.warn(
                f"evaluation point has {nm}={val:g} outside the box [{lo:g}, {hi:g}]",
                stacklevel=2,
            )
            break
    J = flow_derivatives(sys, sys.h, os_.m, x[None, :])[0, :, :, 1:].reshape(-1, sys.n)
    bad = ~np.isfinite(J).all(axis=1)
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), sys.p)
        raise EvalError(f"non-finite gradient of derivative order {i}", sys.h[j])
    return J


@dataclass
class QDerivatives:
    """Derivatives of the estimation target along the flow, orders 0..v."""

    sys: SystemDef
    v: int
    Q: list[Expr]


def q_derivatives(sys: SystemDef, v: int) -> QDerivatives:
    if v < 0:
        raise LieError("derivative order must be >= 0")
    Q = [simplify(sys.q)]
    for _ in range(v):
        Q.append(lie_derivative(sys, Q[-1]))
    return QDerivatives(sys=sys, v=v, Q=Q)


def lie_series_predict(sys: SystemDef, x0, t: float, m: int) -> list[float]:
    """Taylor prediction of each output at time t from the point x0,
    truncated after the t^m term (error is O(t^(m+1)) for smooth flows)."""
    if m < 0:
        raise LieError("series order must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    derivs = flow_derivatives(sys, sys.h, m + 1, x0[None, :])[0, :, :, 0]
    out = []
    for j in range(sys.p):
        if not np.isfinite(derivs[:, j]).all():
            raise EvalError("non-finite output derivative", sys.h[j])
        acc = 0.0
        for i in range(m + 1):
            acc += float(derivs[i, j]) * t**i / math.factorial(i)
        out.append(acc)
    return out
