"""Derivatives along the flow by truncated Taylor series (Taylor-mode jets).

For a plant dx/dt = f(x) started at x0, the Taylor coefficients of x(t)
follow from the Picard recurrence x[k+1] = f(x)[k] / (k+1).  Pushing those
series through an expression g gives g(x(t))[k] = L_f^k g(x0) / k!, so the
derivatives of g along the flow come out of one numeric pass instead of the
symbolic derivative table, whose size grows about 8x per order.  Carrying
first-order tangents with respect to x0 alongside yields their state
gradients too.  This is the power-series evaluation of the randomized rank
test in Sedoglavic (J. Symbolic Comput. 33, 2002), using the coefficient
recurrences of Griewank & Walther (Evaluating Derivatives, 2nd ed., 2008).

A jet is an array of shape (K, 1 + n, N): Taylor order, then the value
followed by its partial derivatives with respect to the n initial states,
then the sample axis.  Constants and parameters stay scalars.  Domain
failures (ln of a non-positive value, division by zero, overflow) surface
as non-finite entries, which callers turn into per-sample skip masks; an
unbound symbol or an unsupported node raises.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .expr import Call, Const, Expr, ExprError, Neg, Pow, Product, Quot, Sum, Sym, _operands

# Largest order whose factorials 0!..(order-1)! are all finite doubles.
MAX_ORDER = 171


def flow_derivatives(sys, exprs, order: int, pts) -> np.ndarray:
    """Derivatives of orders 0..order-1 along the flow of `sys`, with their
    state gradients, at every row of `pts` (shape (N, n)).

    Returns an array of shape (N, order, len(exprs), 1 + n) whose entry
    [s, k, e, 0] is L_f^k exprs[e] at pts[s] and whose entries [s, k, e, 1:]
    are its partial derivatives with respect to the states.  Samples where
    some evaluation fails hold non-finite entries.
    """
    pts = np.asarray(pts, dtype=float)
    n = sys.n
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"expected sample points of shape (N, {n}), got {pts.shape}")
    if order < 1:
        raise ValueError("jets need order >= 1")
    if order > MAX_ORDER:
        raise ValueError(f"jets need order <= {MAX_ORDER}: {order - 1}! is not a finite double")
    N = pts.shape[0]
    params = {nm: np.float64(v) for nm, v in sys.params.items()}
    X = np.zeros((n, order, 1 + n, N))
    X[:, 0, 0, :] = pts.T
    X[np.arange(n), 0, 1 + np.arange(n), :] = 1.0
    with np.errstate(all="ignore"):
        for k in range(order - 1):
            env = dict(params)
            env.update(zip(sys.state_names, X[:, : k + 1]))
            for i, fi in enumerate(sys.f):
                X[i, k + 1] = _full(_eval(fi, env), k + 1, 1 + n, N)[k] / (k + 1)
        env = dict(params)
        env.update(zip(sys.state_names, X))
        out = np.stack([_full(_eval(e, env), order, 1 + n, N) for e in exprs])
        out *= np.array([float(math.factorial(k)) for k in range(order)]).reshape(1, -1, 1, 1)
    return out.transpose(3, 1, 0, 2)


def _full(a, K: int, d: int, N: int) -> np.ndarray:
    """A jet as an array; a scalar becomes a constant series."""
    if isinstance(a, np.ndarray):
        return a
    out = np.zeros((K, d, N))
    out[0, 0] = a
    return out


# ---------------------------------------------------------------------------
# the expression tree over jets


def _eval(e: Expr, env: dict):
    if isinstance(e, Const):
        return np.float64(float(e.value))
    if isinstance(e, Sym):
        try:
            return env[e.name]
        except KeyError:
            raise ExprError(f"unbound symbol '{e.name}' in jet evaluation") from None
    args = [_eval(a, env) for a in _operands(e)]
    if isinstance(e, Neg):
        return -args[0]
    if isinstance(e, (Sum, Product)):
        return functools.reduce(_add if isinstance(e, Sum) else _mul, args)
    if isinstance(e, Quot):
        return _div(*args)
    if isinstance(e, Pow):
        return _pow(args[0], e.exponent)
    if isinstance(e, Call):
        a = args[0]
        if not isinstance(a, np.ndarray):
            return {"exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos}[e.fn](a)
        return _CALLS[e.fn](a)
    raise ExprError(f"cannot evaluate {e!r} as a jet")


def _add(a, b):
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a + b
    if isinstance(b, np.ndarray):
        a, b = b, a
    if not isinstance(a, np.ndarray):
        return a + b
    out = a.copy()
    out[0, 0] += b
    return out


def _mul(a, b):
    if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
        return a * b
    out = _cauchy(a[:, :1], b)
    out[:, 1:] += _cauchy(a[:, 1:], b[:, :1])
    return out


def _div(a, b):
    if not isinstance(b, np.ndarray):
        return a / b
    a = _full(a, *b.shape)
    val = _sdiv(a[:, :1], b[:, :1])
    grad = _sdiv(a[:, 1:] - _cauchy(val, b[:, 1:]), b[:, :1])
    return np.concatenate([val, grad], axis=1)


def _pow(a, m: int):
    if m == 0:
        return np.float64(1.0)
    if not isinstance(a, np.ndarray):
        return a**m
    if m < 0:
        return _div(np.float64(1.0), _pow(a, -m))
    out = a
    for _ in range(m - 1):
        out = _mul(out, a)
    return out


def _exp(a):
    val = _sexp(a[:, :1])
    return np.concatenate([val, _cauchy(val, a[:, 1:])], axis=1)


def _ln(a):
    return np.concatenate([_sln(a[:, :1]), _sdiv(a[:, 1:], a[:, :1])], axis=1)


def _sin(a):
    s, c = _ssincos(a[:, :1])
    return np.concatenate([s, _cauchy(c, a[:, 1:])], axis=1)


def _cos(a):
    s, c = _ssincos(a[:, :1])
    return np.concatenate([c, -_cauchy(s, a[:, 1:])], axis=1)


_CALLS = {"exp": _exp, "ln": _ln, "sin": _sin, "cos": _cos}


# ---------------------------------------------------------------------------
# truncated power series: arrays with the Taylor order on axis 0, any
# trailing shape, broadcast against each other


def _cauchy(a, b):
    """Truncated product: c[k] = sum_i a[i] b[k-i]."""
    K = a.shape[0]
    c = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in range(K):
        c[i:] += a[i] * b[: K - i]
    return c


def _sdiv(a, b):
    """Truncated quotient: c[k] = (a[k] - sum_{i>=1} b[i] c[k-i]) / b[0]."""
    K = b.shape[0]
    c = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for k in range(K):
        c[k] = (a[k] - np.sum(c[:k] * b[k:0:-1], axis=0)) / b[0]
    return c


def _weighted(a):
    """i * a[i] for i >= 1, the coefficients of t * a'(t)."""
    w = np.arange(1, a.shape[0], dtype=float).reshape((-1,) + (1,) * (a.ndim - 1))
    return w * a[1:]


def _sexp(a):
    """e' = a' e:  e[k] = (1/k) sum_{i=1..k} i a[i] e[k-i]."""
    e = np.empty_like(a)
    e[0] = np.exp(a[0])
    w = _weighted(a)
    for k in range(1, a.shape[0]):
        e[k] = np.sum(w[:k] * e[k - 1 :: -1], axis=0) / k
    return e


def _sln(a):
    """a l' = a':  l[k] = (a[k] - (1/k) sum_{i=1..k-1} i l[i] a[k-i]) / a[0]."""
    lg = np.empty_like(a)
    lg[0] = np.log(a[0])
    for k in range(1, a.shape[0]):
        w = _weighted(lg[:k])
        lg[k] = (a[k] - np.sum(w * a[k - 1 : 0 : -1], axis=0) / k) / a[0]
    return lg


def _ssincos(a):
    """s' = a' c, c' = -a' s."""
    s = np.empty_like(a)
    c = np.empty_like(a)
    s[0] = np.sin(a[0])
    c[0] = np.cos(a[0])
    w = _weighted(a)
    for k in range(1, a.shape[0]):
        s[k] = np.sum(w[:k] * c[k - 1 :: -1], axis=0) / k
        c[k] = -np.sum(w[:k] * s[k - 1 :: -1], axis=0) / k
    return s, c
