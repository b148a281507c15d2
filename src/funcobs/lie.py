"""Directional derivative tables along the plant vector field.

For a plant dx/dt = f(x), the directional (Lie) derivative of a scalar
g is sum_i (dg/dx_i) * f_i; iterating it on the measured outputs yields
the symbolic table of output derivatives that psi verification and the
observer synthesis consume.  Values at points (series predictions) come
from the Taylor-mode jets in `funcobs.jets`.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import (
    Const,
    EvalError,
    Expr,
    Product,
    Sum,
    differentiate,
    simplify,
    w_name,
)
from .jets import flow_derivatives
from .system import SystemDef


class LieError(ValueError):
    pass


def lie_derivative(sys: SystemDef, g: Expr) -> Expr:
    """One application of the plant's directional derivative to g."""
    sys.check_reads(g, "the differentiated expression", error=LieError)
    terms = []
    for nm, fi in zip(sys.state_names, sys.f):
        dg = differentiate(g, nm)
        if isinstance(dg, Const) and dg.value == 0:
            continue
        terms.append(Product((dg, fi)))
    if not terms:
        return Const(0)
    return simplify(terms[0] if len(terms) == 1 else Sum(tuple(terms)))


def lie_table(sys: SystemDef, exprs, order: int) -> list[tuple[Expr, ...]]:
    """Row k holds L_f^k of each expression, for k < order; row 0 is exprs as
    given.  The symbolic twin of `jets.flow_derivatives`, with its [k][e] axes."""
    if order < 1:
        raise LieError("derivative table needs order >= 1")
    table = [tuple(exprs)]
    for _ in range(order - 1):
        table.append(tuple(lie_derivative(sys, e) for e in table[-1]))
    return table


def measured_derivatives(sys: SystemDef, v: int) -> dict[str, Expr]:
    """Name w<i>_<j> -> the expression that measurement derivative stands
    for, i <= v and j 1-based, ordered by derivative order, then output."""
    table = lie_table(sys, sys.h, v + 1)
    return {w_name(i, j): e for i, row in enumerate(table) for j, e in enumerate(row, start=1)}


def target_derivatives(sys: SystemDef, v: int) -> list[Expr]:
    """Derivatives of the estimation target along the flow, orders 0..v."""
    return [row[0] for row in lie_table(sys, (simplify(sys.q),), v + 1)]


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
