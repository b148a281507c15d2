"""Randomized local observability tests and functional representations.

The rank tests sample the system box with a seeded generator and read the
gradients of h and q at every sample from the one pass of Taylor-mode
jets (`funcobs.jets`) that `analysis` makes; a sample where a row a test
reads is not finite is skipped and counted.  Rank is counted against a
relative singular-value cutoff with an absolute floor, and mixed
per-sample verdicts are reported rather than averaged away: a condition
"holds" only when it holds at every sample that evaluated successfully.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import EquivalenceReport, Expr, free_symbols, parse, seeded_uniform, substitute, w_index, w_name
from .jets import MAX_ORDER, flow_derivatives
from .lie import measured_derivatives, target_derivatives
from .system import SystemDef, _read_json, check_shape, shipped_schema, system_equivalence

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
    """Ranks of the output-derivative gradients of orders below m, per sample."""

    m: int
    ranks: list[int]
    max_rank: int
    fraction_max: float
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
        n_failed=n_failed,
        verdict=verdict,
    )


def _kept(sys: SystemDef, pts: np.ndarray, finite: np.ndarray, m: int, k: int) -> np.ndarray:
    """The samples where the output-derivative gradients of orders < m and the target-derivative
    gradients of orders < k are all finite; `finite` is laid out like the gradients of the jets."""
    ok = finite[:, :m, : sys.p].all(axis=(1, 2, 3)) & finite[:, :k, sys.p].all(axis=(1, 2))
    if not ok.any():
        checked = np.zeros(finite.shape[1:3], dtype=bool)  # (order, expression) pairs tested
        checked[:m, : sys.p] = True
        checked[:k, sys.p] = True
        order, j = np.argwhere(checked & ~finite[0].all(axis=2))[0]
        point = ", ".join(f"{nm}={x!r}" for nm, x in zip(sys.state_names, pts[0].tolist()))
        what = f"output h[{j}]" if j < sys.p else "the target q"
        raise ObservabilityError(
            f"all {len(pts)} sample points failed to evaluate; at the first ({point}) "
            f"the gradient of the order-{order} derivative of {what} is not finite"
        )
    return ok


@dataclass
class SpanCheck:
    """At how many samples every target-derivative gradient of order < k lies
    in the span of the output-derivative gradients of order < m; the scan's
    check of observer order v has m = k = v + 1."""

    m: int
    k: int
    n_in_span: int
    n_checked: int
    holds: bool


@dataclass
class FunctionalIndexScan:
    """The span check of each v = 1..v_max and the lowest v at which it holds."""

    candidate: int | None
    checks: list[SpanCheck]


def analysis(sys: SystemDef, m_max: int, v_max: int, n_samples: int = 100, seed: int = 42) -> tuple:
    """The three rank tests, ((index, reports), check, scan), read from one
    pass of jets at `n_samples` seeded points of the box.

    - index is the smallest order m <= m_max whose output-derivative gradients
      reach rank n, with one `RankReport` per m; it is None when the rank
      saturates below n everywhere up to m_max.  It skips a sample where an
      output row of order < m_max is not finite.
    - check asks whether the target gradient stays inside the span of the
      output-derivative gradients up to order m_max - 1.  That is necessary
      for any representation of the target in those derivatives: failure is
      a refutation, success is sampled evidence only.  It skips a sample
      where one of those output rows or the order-0 target row is not finite.
    - scan tries observer orders v = 1..v_max; its candidate is the lowest v
      at which the target-derivative gradients up to order v all lie inside
      the span of the output-derivative gradients up to order v, at every
      sample.  It skips a sample, for every v, where an output or target row
      of order <= v_max is not finite.

    The base rank of the output rows of orders < m is computed once per m over
    every sample, and the three tests read that one table on their own masks.
    A span check adds one batch that appends its target rows (the scan's, of
    orders 0..v, at once): they lie in the span where the rank stays put.

    Order k of a jet reads only lower orders and earlier entries, so each
    test reads the numbers a pass of its own order would give.
    """
    if m_max < 1:
        raise ObservabilityError("m_max must be >= 1")
    if v_max < 1:
        raise ObservabilityError("v_max must be >= 1")
    if n_samples < 1:
        raise ObservabilityError("n_samples must be >= 1")
    order = m_max if m_max > MAX_ORDER else max(m_max, v_max + 1)  # a bad m_max is named first
    if order > MAX_ORDER:
        raise ObservabilityError(
            f"derivative order {order} exceeds {MAX_ORDER}: {order - 1}! is not a finite double"
        )
    pts = sample_states(sys, n_samples, seed)
    g = flow_derivatives(sys, sys.h + (sys.q,), order, pts)[..., 1:]  # (sample, order, expression, state)
    finite = np.isfinite(g)
    index_ok, check_ok, scan_ok = (  # only an h row can skip an index sample; one scan mask for every v
        _kept(sys, pts, finite, m, k) for m, k in ((m_max, 0), (m_max, 1), (v_max + 1, v_max + 1))
    )
    g[~finite] = 0.0  # a skipped sample's rank is never read
    p, n = sys.p, sys.n
    J = g[:, :, :p].reshape(n_samples, order * p, n)  # rows in `measured_derivatives` order
    base = [numeric_ranks(J[:, : p * m]) for m in range(1, order + 1)]
    failed = int(np.count_nonzero(~index_ok))
    reports = [_rank_report(m, base[m - 1][index_ok].tolist(), failed, n) for m in range(1, m_max + 1)]
    index = next((r.m for r in reports if r.max_rank == n), None)
    spans = []
    for ok, m, k in [(check_ok, m_max, 1)] + [(scan_ok, v + 1, v + 1) for v in range(1, v_max + 1)]:
        ranks = numeric_ranks(np.concatenate([J[ok, : p * m], g[ok, :k, p]], axis=1))
        in_span = int(np.count_nonzero(ranks == base[m - 1][ok]))
        spans.append(SpanCheck(m=m, k=k, n_in_span=in_span, n_checked=len(ranks), holds=in_span == len(ranks)))
    candidate = next((v for v, c in enumerate(spans[1:], 1) if c.holds), None)
    return (index, reports), spans[0], FunctionalIndexScan(candidate=candidate, checks=spans[1:])


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
            for i, j in sorted(filter(None, map(w_index, free_symbols(e)))):
                if i > self.v:
                    raise ObservabilityError(
                        f"psi[{k}] uses {w_name(i, j)} of derivative order {i} > v={self.v}"
                    )


def load_psi(path) -> PsiRepresentation:
    raw = _read_json(path)
    check_shape(raw, shipped_schema("psi"), path, ObservabilityError)
    return PsiRepresentation(v=raw["v"], psi=tuple(parse(s) for s in raw["psi"]))


def verify_psi(
    sys: SystemDef, rep: PsiRepresentation, n_samples: int = 100, seed: int = 42
) -> list[EquivalenceReport]:
    """Substitute the output-derivative expressions into each psi[k] and
    compare against the k-th derivative of the target, numerically over the
    box; report k is order k.  The representation is marked verified
    exactly when every order agrees."""
    for k, e in enumerate(rep.psi):
        sys.check_reads(e, f"psi[{k}]", rep.v, ObservabilityError)
    subs = measured_derivatives(sys, rep.v)
    Q = target_derivatives(sys, rep.v)
    reports = [
        system_equivalence(sys, Q[k], substitute(rep.psi[k], subs), n=n_samples, seed=seed)
        for k in range(rep.v + 1)
    ]
    rep.verified = all(r.equivalent for r in reports)
    return reports
