"""Derivatives along the flow by truncated Taylor series (Taylor-mode jets).

For a plant dx/dt = f(x) started at x0, the Taylor coefficients of x(t)
follow from the Picard recurrence x[k+1] = f(x)[k] / (k+1).  Pushing those
series through an expression g gives g(x(t))[k] = L_f^k g(x0) / k!, so the
derivatives of g along the flow come out of one numeric pass instead of the
symbolic derivative table, whose size grows about 8x per order.  Carrying
first-order tangents with respect to x0 alongside yields their state
gradients too.  This is the power-series evaluation of the randomized rank
test in Sedoglavic (J. Symbolic Comput. 33, 2002).

f and the expressions are lowered once to a tape with one entry per distinct
subtree that depends on the states; the rest folds to numpy scalars.  One rule
per node gives coefficient k of an entry from lower ones (Griewank & Walther,
Evaluating Derivatives, 2nd ed., 2008, ch. 13): O(K^2) per entry for K orders.
A coefficient, shape (1 + n, N), is the value and its gradient by initial state
and sample.  The tape keeps all, entries x K x (1 + n) x N doubles: for cstr's
22 entries 0.4 MB at the `analyze` defaults, 22 MB at K = 31 and N = 1000.

Domain failures (ln of a non-positive value, division by zero, overflow)
surface as non-finite entries, which callers turn into per-sample skip
masks; an unbound symbol or an unsupported node raises.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .expr import Call, Const, Expr, ExprError, Neg, Pow, Product, Quot, Sum, Sym, _operands

# Largest order whose factorials 0!..(order-1)! are all finite doubles.
MAX_ORDER = 171

_FOLD = {"+": operator.add, "*": operator.mul, "/": operator.truediv,
         "exp": np.exp, "ln": np.log, "sin": np.sin, "cos": np.cos}
_SLOPE = {"exp": np.exp, "ln": np.reciprocal, "sin": np.cos, "cos": lambda x: -np.sin(x)}


def flow_derivatives(sys, exprs, order: int, pts) -> np.ndarray:
    """Derivatives of orders 0..order-1 along the flow of `sys`, with their
    state gradients, at every row of `pts` (shape (N, n)).

    Returns an array of shape (N, order, len(exprs), 1 + n) whose entry
    [s, k, e, 0] is L_f^k exprs[e] at pts[s] and whose entries [s, k, e, 1:]
    are its partial derivatives with respect to the states.  Samples where
    some evaluation fails hold non-finite entries.
    """
    pts, n = np.asarray(pts, dtype=float), sys.n
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"expected sample points of shape (N, {n}), got {pts.shape}")
    if order < 1:
        raise ValueError("jets need order >= 1")
    if order > MAX_ORDER:
        raise ValueError(f"jets need order <= {MAX_ORDER}: {order - 1}! is not a finite double")
    tape = [("x", None, None)] * n
    memo = {Sym(nm): np.float64(v) for nm, v in sys.params.items()}
    memo.update((Sym(nm), i) for i, nm in enumerate(sys.state_names))
    with np.errstate(all="ignore"):
        F = [_entry(_lower(fi, tape, memo), tape) for fi in sys.f]
        tape[:n] = [("x", fi, None) for fi in F]
        E = [_entry(_lower(e, tape, memo), tape) for e in exprs]
        C = [np.zeros((order, 1 + n, len(pts))) for _ in tape]  # small blocks: less peak RSS
        for i in range(n):
            C[i][0, 0], C[i][0, 1 + i] = pts[:, i], 1.0
        for k in range(order):
            w = np.arange(1.0, k + 1).reshape(-1, 1, 1)  # i, the weight of term i of t u'(t)
            for i in range(0 if k else n, len(tape)):
                _rule(C, k, w, i, *tape[i])
        out = np.stack([C[e] for e in E])
        out *= np.array([float(math.factorial(k)) for k in range(order)])[:, None, None]
    return out.transpose(3, 1, 0, 2)


def _lower(e: Expr, tape: list, memo: dict):
    """The tape index of e, or its value if it does not depend on the states.
    Entries (op, a, b) read earlier entries a and b, or for + * / a constant b."""
    if e in memo:
        return memo[e]
    if isinstance(e, Const):
        return np.float64(float(e.value))
    if isinstance(e, Sym):
        raise ExprError(f"unbound symbol '{e.name}' in jet evaluation")
    args = [_lower(a, tape, memo) for a in _operands(e)]
    if isinstance(e, Neg):
        out = _emit(tape, "*", args[0], np.float64(-1.0))
    elif isinstance(e, (Sum, Product)):
        op = "+" if isinstance(e, Sum) else "*"
        out = functools.reduce(functools.partial(_emit, tape, op), args)
    elif isinstance(e, Quot):
        out = _emit(tape, "/", *args)
    elif isinstance(e, Pow) and not isinstance(args[0], int):
        out = args[0] ** e.exponent
    elif isinstance(e, Pow):  # repeated products, then one quotient if negative
        mul = functools.partial(_emit, tape, "*")
        out = functools.reduce(mul, args * abs(e.exponent), np.float64(1.0))
        out = out if e.exponent >= 0 else _emit(tape, "/", np.float64(1.0), out)
    elif isinstance(e, Call) and e.fn in ("sin", "cos") and isinstance(args[0], int):
        i = len(tape)  # each reads the other's coefficients, so both enter the tape
        tape += [("sin", args[0], i + 1), ("cos", args[0], i)]
        memo[Call("sin", e.arg)], memo[Call("cos", e.arg)] = i, i + 1
        out = memo[e]
    elif isinstance(e, Call):
        out = _emit(tape, e.fn, args[0], None)
    else:
        raise ExprError(f"cannot evaluate {e!r} as a jet")
    memo[e] = out
    return out


def _emit(tape: list, op: str, a, b):
    """Fold an operation on constants, or append it to the tape."""
    if not isinstance(a, int) and not isinstance(b, int):
        return _FOLD[op](a) if b is None else _FOLD[op](a, b)
    if op in ("+", "*") and not isinstance(a, int):
        a, b = b, a
    if op in ("*", "/") and not isinstance(b, int) and b == 1.0:  # x*1 and x/1 are x: no entry
        return a
    tape.append((op, _entry(a, tape) if op == "/" else a, b))
    return len(tape) - 1


def _entry(a, tape: list) -> int:
    """A tape index for an operand, entering a constant as a series."""
    if not isinstance(a, int):
        tape.append(("c", a, None))
        a = len(tape) - 1
    return a


def _rule(C: list, k: int, w: np.ndarray, i: int, op: str, a, b):
    """Coefficient k of entry i, from its operands' up to k and its own below k."""
    c = C[i]
    if op == "c":
        c[0, 0] = a
        return
    u, v = C[a], C[b] if isinstance(b, int) else None
    if op == "x":  # the Picard step x[k] = f[k-1] / k
        c[k] = u[k - 1] / k
    elif op == "+":
        c[k] = u[k] if v is None else u[k] + v[k]
        if k == 0 and v is None:
            c[0, 0] += b
    elif op == "*":
        c[k] = u[k] * b if v is None else _tmul(u[: k + 1], v[k::-1])
    elif op == "/":
        c[k] = u[k] / b if v is None else _tdiv(u[k] - _tmul(v[1 : k + 1], c[:k][::-1]), v[0])
    elif k == 0:  # the function at the value, its slope times the gradient
        c[0, 0], c[0, 1:] = _FOLD[op](u[0, 0]), _SLOPE[op](u[0, 0]) * u[0, 1:]
    elif op == "ln":  # u l' = u'
        c[k] = _tdiv(u[k] - _tmul(w[:-1] * c[1:k], u[1:k][::-1]) / k, u[0])
    else:  # exp' = u' exp, sin' = u' cos, cos' = -u' sin
        d = c if op == "exp" else v
        c[k] = _tmul(w * u[1 : k + 1], d[k - 1 :: -1]) / (-k if op == "cos" else k)


def _tmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the leading axis of the (value, gradient) products a * b."""
    out = a[:, :1] * b
    out[:, 1:] += a[:, 1:] * b[:, :1]
    return out.sum(axis=0)


def _tdiv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (value, gradient) quotient a / b."""
    q = a[0] / b[0]
    return np.vstack((q, (a[1:] - q * b[1:]) / b[0]))
