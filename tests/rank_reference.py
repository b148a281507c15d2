"""A reference for `observability.analysis` that runs each rank test on its
own: it masks first and then ranks only the samples that test keeps, with
two batched SVDs per span check.  `analysis` ranks every sample once per
order and shares those base ranks, so the two must agree exactly."""

import numpy as np

from funcobs.jets import flow_derivatives
from funcobs.observability import FunctionalIndexScan, SpanCheck, _rank_report, numeric_ranks, sample_states


def masked_analysis(sys_, m_max, v_max, n_samples=100, seed=42):
    pts = sample_states(sys_, n_samples, seed)
    d = flow_derivatives(sys_, sys_.h + (sys_.q,), max(m_max, v_max + 1), pts)
    p, n = sys_.p, sys_.n

    def kept_stacks(m, k):
        J = d[:, :m, :p, 1:].reshape(n_samples, m * p, n)
        G = d[:, :k, p, 1:]
        ok = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(G).all(axis=(1, 2))
        return J[ok], G[ok], int(np.count_nonzero(~ok))

    def span_check(J, G, m, k):
        in_span = int(np.count_nonzero(numeric_ranks(J) == numeric_ranks(np.concatenate([J, G], axis=1))))
        return SpanCheck(m=m, k=k, n_in_span=in_span, n_checked=len(J), holds=in_span == len(J))

    J, _, failed = kept_stacks(m_max, 0)
    reports = [_rank_report(m, numeric_ranks(J[:, : p * m]).tolist(), failed, n) for m in range(1, m_max + 1)]
    index = next((r.m for r in reports if r.max_rank == n), None)
    check = span_check(*kept_stacks(m_max, 1)[:2], m_max, 1)
    J, G, _ = kept_stacks(v_max + 1, v_max + 1)
    checks = [span_check(J[:, : p * (v + 1)], G[:, : v + 1], v + 1, v + 1) for v in range(1, v_max + 1)]
    candidate = next((v for v, c in enumerate(checks, 1) if c.holds), None)
    return (index, reports), check, FunctionalIndexScan(candidate=candidate, checks=checks)
