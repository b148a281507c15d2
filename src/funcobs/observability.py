"""Randomized local observability tests and functional representations.

The rank tests sample the system box with a seeded generator and evaluate
the gradient stacks at every sample in one pass of Taylor-mode jets
(`funcobs.jets`); samples where an entry is not finite are skipped and
counted.  Rank is counted against a relative singular-value cutoff with an
absolute floor, and mixed per-sample verdicts are reported rather than
averaged away: a condition "holds" only when it holds at every sample that
evaluated successfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import (
    Const,
    Expr,
    Product,
    Sum,
    WVar,
    differentiate,
    free_symbols,
    parse,
    seeded_uniform,
    simplify,
    substitute,
    to_text,
)
from .jets import MAX_ORDER, flow_derivatives
from .lie import observability_set, q_derivatives
from .system import SystemDef, _read_json, system_equivalence, write_json
from .system import check_shape, shipped_schema

RANK_RTOL = 1e-9
RANK_FLOOR = 1e-12


class ObservabilityError(RuntimeError):
    pass


def numeric_rank(mat: np.ndarray) -> int:
    """Singular values above max(RANK_RTOL * s_max, RANK_FLOOR) count."""
    a = np.atleast_2d(np.asarray(mat, dtype=float))
    return int(numeric_ranks(a[None])[0])


def numeric_ranks(stack: np.ndarray) -> np.ndarray:
    """`numeric_rank` of every matrix in an (N, r, n) stack, by one batched SVD."""
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3:
        raise ValueError(f"expected an (N, r, n) stack, got shape {a.shape}")
    if a.shape[1] == 0 or a.shape[2] == 0:
        return np.zeros(a.shape[0], dtype=int)
    s = np.linalg.svd(a, compute_uv=False)
    above = np.sum(s > np.maximum(RANK_RTOL * s[:, :1], RANK_FLOOR), axis=1)
    return np.where(s[:, 0] == 0.0, 0, above)


def sample_states(sys: SystemDef, n_samples: int, seed: int) -> np.ndarray:
    """Deterministic uniform samples of the system box, one state per column."""
    return np.column_stack(seeded_uniform(seed, (sys.box[nm] for nm in sys.state_names), n_samples))


@dataclass
class RankReport:
    m: int
    ranks: list[int]
    max_rank: int
    fraction_max: float
    tol_rtol: float
    tol_floor: float
    n_failed: int
    verdict: str

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "max_rank": self.max_rank,
            "fraction_at_max": self.fraction_max,
            "n_samples_failed": self.n_failed,
            "verdict": self.verdict,
        }


def _rank_report(m: int, ranks: list[int], n_failed: int, full: int) -> RankReport:
    max_rank = max(ranks)
    frac = ranks.count(max_rank) / len(ranks)
    if max_rank == full:
        verdict = "locally state-observable on the sampled box (sufficient rank test)"
    else:
        verdict = f"rank saturates at {max_rank} < {full}: sufficient rank test not met"
    return RankReport(
        m=m,
        ranks=ranks,
        max_rank=max_rank,
        fraction_max=frac,
        tol_rtol=RANK_RTOL,
        tol_floor=RANK_FLOOR,
        n_failed=n_failed,
        verdict=verdict,
    )


def _gradient_stacks(
    sys: SystemDef, m: int, n_samples: int, seed: int, v: int | None = None
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Gradient stacks at the sampled states that evaluate.

    Returns the output-derivative gradients of orders 0..m-1, shape
    (N, m*p, n) with rows in `ObservabilitySet.rows` order; the target-derivative
    gradients of orders 0..v, shape (N, v+1, n), or None when v is None; and
    the number of samples skipped because some entry failed to evaluate.
    """
    if m < 1:
        raise ObservabilityError("derivative order m must be >= 1")
    order = m if v is None else max(m, v + 1)
    if order > MAX_ORDER:
        raise ObservabilityError(
            f"derivative order {order} exceeds {MAX_ORDER}: {order - 1}! is not a finite double"
        )
    pts = sample_states(sys, n_samples, seed)
    exprs = sys.h if v is None else sys.h + (sys.q,)
    d = flow_derivatives(sys, exprs, order, pts)
    J = d[:, :m, : sys.p, 1:].reshape(len(pts), m * sys.p, sys.n)
    ok = np.isfinite(J).all(axis=(1, 2))
    G = None
    if v is not None:
        G = d[:, : v + 1, sys.p, 1:]
        ok &= np.isfinite(G).all(axis=(1, 2))
        G = G[ok]
    if not ok.any():
        checked = np.zeros(d.shape[1:3], dtype=bool)  # (order, expression) pairs tested
        checked[:m, : sys.p] = True
        if v is not None:
            checked[: v + 1, sys.p] = True
        k, j = np.argwhere(checked & ~np.isfinite(d[0, :, :, 1:]).all(axis=2))[0]
        point = ", ".join(f"{nm}={x!r}" for nm, x in zip(sys.state_names, pts[0].tolist()))
        what = f"output h[{j}]" if j < sys.p else "the target q"
        raise ObservabilityError(
            f"all {len(pts)} sample points failed to evaluate; at the first ({point}) "
            f"the gradient of the order-{k} derivative of {what} is not finite"
        )
    return J[ok], G, int(np.count_nonzero(~ok))


def state_observability_rank(
    sys: SystemDef, m: int, n_samples: int = 100, seed: int = 42
) -> RankReport:
    """Rank of the stacked output-derivative gradients at sampled points."""
    return observability_index(sys, m, n_samples, seed)[1][-1]


def observability_index(
    sys: SystemDef, m_max: int, n_samples: int = 100, seed: int = 42
) -> tuple[int | None, list[RankReport]]:
    """Smallest derivative order whose gradient stack reaches full rank.

    Returns (order, per-order reports); order is None when the rank table
    saturates below n everywhere up to m_max.
    """
    if m_max < 1:
        raise ObservabilityError("m_max must be >= 1")
    J, _, failed = _gradient_stacks(sys, m_max, n_samples, seed)
    reports = [
        _rank_report(m, numeric_ranks(J[:, : sys.p * m]).tolist(), failed, sys.n)
        for m in range(1, m_max + 1)
    ]
    index = next((r.m for r in reports if r.max_rank == sys.n), None)
    return index, reports


@dataclass
class FunctionalRankCheck:
    m: int
    base: RankReport
    augmented: RankReport
    n_agree: int
    n_checked: int
    holds: bool
    verdict: str


def functional_rank_check(
    sys: SystemDef, m: int, n_samples: int = 100, seed: int = 42
) -> FunctionalRankCheck:
    """Does the target gradient stay inside the span of the output-derivative
    gradients?  Necessary for any representation of the target in terms of
    output derivatives up to order m-1; failure is a refutation, success is
    sampled evidence only.
    """
    J, G, failed = _gradient_stacks(sys, m, n_samples, seed, v=0)
    rb = numeric_ranks(J)
    ra = numeric_ranks(np.concatenate([G, J], axis=1))
    base_ranks = rb.tolist()
    aug_ranks = ra.tolist()
    agree = int(np.count_nonzero(rb == ra))
    holds = agree == len(base_ranks)
    verdict = (
        "target gradient lies in the measured span at every sample (necessary condition holds)"
        if holds
        else f"target gradient left the measured span at {len(base_ranks) - agree} of {len(base_ranks)} samples"
    )
    return FunctionalRankCheck(
        m=m,
        base=_rank_report(m, base_ranks, failed, sys.n),
        augmented=_rank_report(m, aug_ranks, failed, sys.n),
        n_agree=agree,
        n_checked=len(base_ranks),
        holds=holds,
        verdict=verdict,
    )


@dataclass
class SpanCheck:
    v: int
    k: int
    n_in_span: int
    n_checked: int
    holds: bool


@dataclass
class FunctionalIndexScan:
    candidate: int | None
    v_max: int
    checks: list[SpanCheck]
    note: str = (
        "candidate order from sampled gradient-span tests; necessary, not sufficient"
    )

    def checks_for(self, v: int) -> list[SpanCheck]:
        return [c for c in self.checks if c.v == v]


def functional_index_candidate(
    sys: SystemDef, v_max: int, n_samples: int = 100, seed: int = 42
) -> FunctionalIndexScan:
    """Scan candidate observer orders v = 1..v_max.

    For order v, every derivative of the target up to order v must have its
    gradient inside the span of the output-derivative gradients up to order
    v, at every sampled point.
    """
    if v_max < 1:
        raise ObservabilityError("v_max must be >= 1")
    J, G, _ = _gradient_stacks(sys, v_max + 1, n_samples, seed, v=v_max)
    n_checked = len(J)

    checks: list[SpanCheck] = []
    candidate = None
    for v in range(1, v_max + 1):
        Jv = J[:, : sys.p * (v + 1)]
        base = numeric_ranks(Jv)
        all_hold = True
        for k in range(v + 1):
            aug = numeric_ranks(np.concatenate([Jv, G[:, k : k + 1]], axis=1))
            in_span = int(np.count_nonzero(base == aug))
            holds = in_span == n_checked
            checks.append(SpanCheck(v=v, k=k, n_in_span=in_span, n_checked=n_checked, holds=holds))
            all_hold = all_hold and holds
        if all_hold and candidate is None:
            candidate = v
    return FunctionalIndexScan(candidate=candidate, v_max=v_max, checks=checks)


# ---------------------------------------------------------------------------
# psi representations


@dataclass
class PsiRepresentation:
    """Expressions psi[0..v] over measurement derivatives w<i>_<j>, i <= v,
    meant to reproduce the target's derivatives of orders 0..v."""

    v: int
    psi: tuple[Expr, ...]
    verified: bool = False

    def __post_init__(self):
        self.psi = tuple(self.psi)
        if self.v < 1:
            raise ObservabilityError("observer order v must be >= 1")
        if len(self.psi) != self.v + 1:
            raise ObservabilityError(
                f"need {self.v + 1} psi expressions for order v={self.v}, got {len(self.psi)}"
            )
        for k, e in enumerate(self.psi):
            _, wvars = free_symbols(e)
            for i, j in sorted(wvars):
                if i > self.v:
                    raise ObservabilityError(
                        f"psi[{k}] uses w{i}_{j} of derivative order {i} > v={self.v}"
                    )

    def max_order(self) -> int:
        worst = 0
        for e in self.psi:
            _, wvars = free_symbols(e)
            for i, _ in wvars:
                worst = max(worst, i)
        return worst


def load_psi(path) -> PsiRepresentation:
    raw = _read_json(path)
    check_shape(raw, shipped_schema("psi"), path, ObservabilityError)
    return PsiRepresentation(v=raw["v"], psi=tuple(parse(s) for s in raw["psi"]))


def save_psi(rep: PsiRepresentation, path):
    write_json(path, {"v": rep.v, "psi": [to_text(e) for e in rep.psi]})


def _check_psi_against_system(sys: SystemDef, e: Expr, label: str):
    names, wvars = free_symbols(e)
    for nm in sorted(names):
        if nm in sys.state_names:
            raise ObservabilityError(
                f"{label} references state '{nm}' directly; only measurement "
                "derivatives and parameters are allowed"
            )
        if nm not in sys.params:
            raise ObservabilityError(f"unknown symbol '{nm}' in {label}")
    for i, j in sorted(wvars):
        if j > sys.p:
            raise ObservabilityError(
                f"{label} uses w{i}_{j} but the system has only {sys.p} output(s)"
            )


@dataclass
class PsiVerification:
    v: int
    residuals: list[float]
    passed: bool
    rtol: float
    reports: list = field(repr=False, default_factory=list)


def verify_psi(
    sys: SystemDef,
    rep: PsiRepresentation,
    n_samples: int = 100,
    seed: int = 42,
    rtol: float = 1e-9,
) -> PsiVerification:
    """Substitute the output-derivative expressions into each psi[k] and
    compare against the k-th derivative of the target, numerically over the
    box.  On success the representation is marked verified."""
    for k, e in enumerate(rep.psi):
        _check_psi_against_system(sys, e, f"psi[{k}]")
    subs = observability_set(sys, rep.v + 1).derivative_map()
    qd = q_derivatives(sys, rep.v)
    residuals = []
    reports = []
    ok = True
    for k in range(rep.v + 1):
        realized = substitute(rep.psi[k], subs)
        r = system_equivalence(sys, qd.Q[k], realized, n=n_samples, seed=seed, rtol=rtol)
        residuals.append(r.max_residual)
        reports.append(r)
        ok = ok and r.equivalent
    if ok:
        rep.verified = True
    return PsiVerification(v=rep.v, residuals=residuals, passed=ok, rtol=rtol, reports=reports)


@dataclass
class LiftResult:
    candidate: Expr
    exceeds_order: bool
    max_order: int


def lift_psi(psi_k: Expr, p: int, v_cap: int) -> LiftResult:
    """Formal time derivative of an expression over measurement derivatives:
    each w<i>_<j> advances to w<i+1>_<j> via the chain rule.  The result is
    flagged when it needs derivative orders beyond v_cap, which is exactly
    the evidence that the candidate order is too small."""
    _, wvars = free_symbols(psi_k)
    for i, j in sorted(wvars):
        if j > p:
            raise ObservabilityError(f"w{i}_{j} exceeds the declared output count {p}")
    terms = []
    for i, j in sorted(wvars):
        partial = differentiate(psi_k, f"w{i}_{j}")
        if isinstance(partial, Const) and partial.value == 0:
            continue
        terms.append(Product((partial, WVar(i + 1, j))))
    if not terms:
        lifted: Expr = Const(0)
    else:
        lifted = simplify(terms[0] if len(terms) == 1 else Sum(tuple(terms)))
    _, out_w = free_symbols(lifted)
    max_order = max((i for i, _ in out_w), default=0)
    return LiftResult(candidate=lifted, exceeds_order=max_order > v_cap, max_order=max_order)
