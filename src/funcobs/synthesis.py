"""Observer synthesis with assignable linear error dynamics.

Nonlinear route: given a verified representation psi[0..v] of the target's
derivatives in terms of output derivatives, and a monic stable polynomial
s^v + a1 s^(v-1) + ... + av, the driving map

    T = psi[v] + a1 * psi[v-1] + ... + av * psi[0]

yields an order-v estimate chain whose estimation error obeys the chosen
polynomial exactly, for any plant trajectory.  Linear route: the same
construction done with matrices, ending in an explicit state-space
realization of the transfer from measurements to estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .expr import Const, EquivalenceReport, Expr, Product, Sum, parse, simplify, substitute, to_text
from .lie import measured_derivatives, target_derivatives
from .observability import PsiRepresentation, numeric_rank
from .system import LinearSystemDef, SystemDef, _read_json, system_equivalence, write_json
from .system import SynthesisError, UnstablePolesError, as_matrix, check_shape, shipped_schema


@dataclass
class AlphaCoeffs:
    """Coefficients a1..av of a monic polynomial, highest order first,
    with stability decided by root-finding on its companion matrix."""

    v: int
    alphas: tuple[float, ...]
    hurwitz: bool
    roots: tuple[complex, ...]


def make_alphas(alphas) -> AlphaCoeffs:
    alphas = tuple(float(a) for a in alphas)
    v = len(alphas)
    if v < 1:
        raise SynthesisError("at least one coefficient is required")
    roots = tuple(complex(r) for r in np.roots(np.concatenate(([1.0], alphas))))
    hurwitz = all(r.real < 0 for r in roots)
    return AlphaCoeffs(v=v, alphas=alphas, hurwitz=hurwitz, roots=roots)


def poles_to_alphas(poles) -> AlphaCoeffs:
    """Expand a conjugate-closed pole multiset into real monic coefficients."""
    ps = [complex(p) for p in poles]
    if not ps:
        raise SynthesisError("empty pole set")
    pending = [p for p in ps if abs(p.imag) > 0]
    while pending:
        p = pending.pop()
        tol = 1e-9 * (1.0 + abs(p))
        match = next(
            (k for k, q in enumerate(pending) if q.imag * p.imag < 0 and abs(q - p.conjugate()) <= tol),
            None,
        )
        if match is None:
            raise SynthesisError(
                f"pole set is not closed under conjugation: no partner for {p}"
            )
        pending.pop(match)
    coeffs = np.atleast_1d(np.poly(ps))
    if np.max(np.abs(coeffs.imag)) > 1e-9 * (1.0 + np.max(np.abs(coeffs))):
        raise SynthesisError("pole expansion produced complex coefficients")
    return make_alphas(coeffs.real[1:])


@dataclass
class ObserverIO:
    """Order-v observer in measurement-derivative form: the estimate chain is
    driven by T evaluated on the plant's output derivatives."""

    v: int
    alphas: AlphaCoeffs
    T: Expr

    def to_dict(self) -> dict:
        return {"v": self.v, "alphas": list(self.alphas.alphas), "T": to_text(self.T)}


def _check_stable(alphas: AlphaCoeffs, allow_unstable: bool):
    if not alphas.hurwitz and not allow_unstable:
        raise UnstablePolesError(
            f"assigned polynomial has roots {alphas.roots} not strictly in the "
            "left half plane; pass allow_unstable to proceed anyway"
        )


def synthesize_nonlinear(
    rep: PsiRepresentation, alphas: AlphaCoeffs, allow_unstable: bool = False
) -> ObserverIO:
    if rep.v != alphas.v:
        raise SynthesisError(
            f"representation order v={rep.v} does not match {alphas.v} coefficients"
        )
    _check_stable(alphas, allow_unstable)
    if not rep.verified:
        warnings.warn(
            "psi representation has not been verified against a system",
            stacklevel=2,
        )
    return ObserverIO(v=rep.v, alphas=alphas, T=_assigned_sum(rep.psi, alphas))


def _assigned_sum(seq, alphas: AlphaCoeffs) -> Expr:
    """seq[v] + a1*seq[v-1] + ... + av*seq[0], simplified, for v = len(seq) - 1."""
    v = len(seq) - 1
    terms = [Product((Const(float(a)), seq[v - k])) for k, a in enumerate(alphas.alphas, start=1)]
    return simplify(Sum((seq[v], *terms)))


def invariance_identity(sys: SystemDef, obs: ObserverIO) -> tuple[Expr, Expr]:
    """Both sides of the defining identity of the design, over the states:
    the v-th derivative of the target plus the assigned-polynomial
    combination of its lower derivatives, and T evaluated on the output
    derivatives.  The design is correct exactly when they agree."""
    lhs = _assigned_sum(target_derivatives(sys, obs.v), obs.alphas)
    rhs = substitute(obs.T, measured_derivatives(sys, obs.v))
    return lhs, rhs


def verify_invariance(
    sys: SystemDef, obs: ObserverIO, n_samples: int = 100, seed: int = 42
) -> EquivalenceReport:
    """Check the design identity (`invariance_identity`) numerically on the box."""
    return system_equivalence(sys, *invariance_identity(sys, obs), n=n_samples, seed=seed)


# ---------------------------------------------------------------------------
# linear pipeline


def _stacks(lsys: LinearSystemDef, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Output- and target-derivative coefficient stacks up to order v; rows
    that overflow are refused at the first order that has them."""
    hs = [lsys.H]
    qs = [lsys.q]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, v + 1):
            hs.append(hs[-1] @ lsys.F)
            qs.append(qs[-1] @ lsys.F)
            if not (np.isfinite(hs[-1]).all() and np.isfinite(qs[-1]).all()):
                raise SynthesisError(f"the order-{k} rows H F^{k} and q F^{k} overflow a double")
    return np.vstack(hs), np.vstack(qs)


def linear_functional_index(lsys: LinearSystemDef, v_max: int) -> int | None:
    """Smallest v such that every target derivative row up to order v lies in
    the row space of the output derivative stack up to order v."""
    if v_max < 1:
        raise SynthesisError("v_max must be >= 1")
    for v in range(1, v_max + 1):
        Hs, Qs = _stacks(lsys, v)
        if numeric_rank(Hs) == numeric_rank(np.vstack([Hs, Qs])):
            return v
    return None


def compute_M(lsys: LinearSystemDef, v: int) -> tuple[np.ndarray, float]:
    """Minimum-norm solution of  M @ Hstack = Qstack  and its residual."""
    Hs, Qs = _stacks(lsys, v)
    M, *_ = np.linalg.lstsq(Hs.T, Qs.T, rcond=None)
    M = M.T
    residual = float(np.max(np.abs(M @ Hs - Qs)))
    limit = 1e-10 * (1.0 + float(np.linalg.norm(Qs)))
    if residual > limit:
        raise SynthesisError(
            f"target derivatives are not reproducible from output derivatives at "
            f"order v={v} (residual {residual:.3e})"
        )
    return M, residual


def compute_betas(M: np.ndarray, alphas: AlphaCoeffs) -> np.ndarray:
    """Measurement-derivative weights: betas[k] is the row multiplying the
    (v-k)-th output-derivative block, k = 0..v."""
    v = alphas.v
    rows, cols = M.shape
    if rows != v + 1 or cols % (v + 1) != 0:
        raise SynthesisError(f"M of shape {M.shape} does not match order v={v}")
    p = cols // (v + 1)
    arow = np.array(list(alphas.alphas[::-1]) + [1.0])  # [a_v ... a_1, 1]
    prod = arow @ M
    betas = np.empty((v + 1, p))
    for blk in range(v + 1):
        betas[v - blk] = prod[blk * p : (blk + 1) * p]
    return betas


@dataclass
class LinearObserver:
    """Order-v linear observer realized as xi' = A xi + B y, zhat = C xi + D y."""

    v: int
    alphas: AlphaCoeffs
    betas: np.ndarray  # (v+1, p)
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def p(self) -> int:
        return self.betas.shape[1]

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "alphas": list(self.alphas.alphas),
            "betas": self.betas.tolist(),
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "C": self.C.tolist(),
            "D": self.D.tolist(),
        }


def linear_realization(alphas: AlphaCoeffs, betas: np.ndarray) -> LinearObserver:
    """State-space form driven by the raw measurements only.

    A carries the assigned polynomial down its last column, B feeds the
    measurements, and the estimate is the last observer state plus a direct
    measurement term.
    """
    v = alphas.v
    betas = np.atleast_2d(as_matrix(betas, "betas", SynthesisError))
    if betas.shape[0] != v + 1:
        raise SynthesisError(f"need v+1 beta rows, got {betas.shape[0]}")
    p = betas.shape[1]
    a = np.asarray(alphas.alphas)
    A = np.zeros((v, v))
    for i in range(1, v):
        A[i, i - 1] = 1.0
    for i in range(v):
        A[i, v - 1] = -a[v - 1 - i]  # rows run -a_v ... -a_1
    B = np.empty((v, p))
    for i in range(v):
        B[i] = betas[v - i] - a[v - 1 - i] * betas[0]
    C = np.zeros((1, v))
    C[0, v - 1] = 1.0
    D = betas[0:1].copy()
    return LinearObserver(v=v, alphas=alphas, betas=betas, A=A, B=B, C=C, D=D)


def design_linear_observer(lsys: LinearSystemDef, poles, allow_unstable: bool = False) -> LinearObserver:
    """Full linear pipeline: order scan, weight solve, realization.

    The scan stops at v = max(1, n - 1): by order n - 1 the rows H F^k span
    all they ever will, a row space that F maps into itself, so every higher
    order passes exactly when n - 1 does.  If no order up to it works, none does.
    """
    bound = max(1, lsys.n - 1)
    v = linear_functional_index(lsys, bound)
    if v is None:
        raise SynthesisError(f"no functional observer order exists (none up to max(1, n - 1) = {bound})")
    alphas = poles_to_alphas(poles)
    if alphas.v != v:
        raise SynthesisError(
            f"system needs an order-{v} observer but {alphas.v} pole(s) were given"
        )
    _check_stable(alphas, allow_unstable)
    M, _ = compute_M(lsys, v)
    betas = compute_betas(M, alphas)
    return linear_realization(alphas, betas)


def xi_from_chain(lobs: LinearObserver, zhat_derivs, y_derivs) -> np.ndarray:
    """Observer state consistent with given estimate/measurement derivatives.

    zhat_derivs[r] is the r-th time derivative of the estimate at t=0,
    r = 0..v-1; y_derivs[r] the r-th derivative of the measurement vector.
    Inverts the realization's output chain, so simulating the state-space
    form from the result reproduces the chain-form trajectory.
    """
    v = lobs.v
    z = np.asarray(zhat_derivs, dtype=float)
    y = np.atleast_2d(np.asarray(y_derivs, dtype=float))
    if z.shape != (v,) or y.shape != (v, lobs.p):
        raise SynthesisError("need v estimate derivatives and v measurement derivative rows")
    a = lobs.alphas.alphas
    xi = np.empty(v)
    for r in range(v):
        val = z[r]
        for i in range(1, r + 1):
            val += a[i - 1] * z[r - i]
        for i in range(r + 1):
            val -= float(lobs.betas[i] @ y[r - i])
        xi[v - 1 - r] = val
    return xi


def linear_error_init(lsys: LinearSystemDef, lobs: LinearObserver, x0, xi0) -> np.ndarray:
    """Initial estimation error and its derivatives up to order v-1, the
    initial condition of the homogeneous error dynamics."""
    v = lobs.v
    x0 = np.asarray(x0, dtype=float)
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    e = np.empty(v)
    for k in range(v):
        zh = (lobs.C @ np.linalg.matrix_power(lobs.A, k) @ xi0).item()
        for i in range(k):
            zh += (
                lobs.C
                @ np.linalg.matrix_power(lobs.A, k - 1 - i)
                @ lobs.B
                @ (lsys.H @ np.linalg.matrix_power(lsys.F, i) @ x0)
            ).item()
        zh += (lobs.D @ (lsys.H @ np.linalg.matrix_power(lsys.F, k) @ x0)).item()
        z = (lsys.q @ np.linalg.matrix_power(lsys.F, k) @ x0).item()
        e[k] = zh - z
    return e


# ---------------------------------------------------------------------------
# observer files


def save_observer(obs, path):
    write_json(path, obs.to_dict())


def load_observer(path):
    """Load either observer flavour; the key set decides which.  The declared
    order v must equal the number of polynomial coefficients, and a realized
    observer's A, B, C and D must be the realization of its alphas and betas."""
    raw = _read_json(path)
    if not isinstance(raw, dict) or ("T" not in raw and "A" not in raw):
        raise SynthesisError(f"{path}: not an observer file (no 'T' or 'A' key)")
    check_shape(raw, shipped_schema("observer")["oneOf"]["T" not in raw], path, SynthesisError)
    alphas = make_alphas(raw["alphas"])
    if raw["v"] != alphas.v:
        raise SynthesisError(
            f"{path}: observer order v={raw['v']} does not match {alphas.v} coefficient(s)"
        )
    if "T" in raw:
        return ObserverIO(v=alphas.v, alphas=alphas, T=parse(raw["T"]))
    lobs = linear_realization(alphas, raw["betas"])
    for key in ("A", "B", "C", "D"):
        if not np.array_equal(as_matrix(raw[key], key, SynthesisError), getattr(lobs, key)):
            raise SynthesisError(
                f"{path}: {key!r} is {raw[key]!r}, but the realization of the file's "
                f"alphas and betas has {getattr(lobs, key).tolist()!r}"
            )
    return lobs
