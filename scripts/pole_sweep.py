#!/usr/bin/env python3
"""Sweep assigned observer poles on the batch reactor and compare the fitted
error decay rate against the assignment.

Writes one CSV row per pole and prints a small table.
"""

import argparse
import csv
import sys
from pathlib import Path

from funcobs.observability import load_psi, verify_psi
from funcobs.sim import chain_init_exact, error_decay_fit, simulate_coupled
from funcobs.synthesis import poles_to_alphas, synthesize_nonlinear
from funcobs.system import builtin_batch_reactor, data_path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--poles", default="-0.25,-0.5,-1,-2,-4,-8",
                    help="comma-separated real poles to sweep")
    ap.add_argument("--offset", type=float, default=0.1,
                    help="initial estimate offset from the invariant manifold")
    ap.add_argument("--t-final", type=float, default=10.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--out", type=Path, default=Path("pole_sweep.csv"))
    args = ap.parse_args(argv)

    sys_ = builtin_batch_reactor()
    rep = load_psi(data_path("psi_batch.json"))
    verify_psi(sys_, rep)
    if not rep.verified:
        print("representation failed verification", file=sys.stderr)
        return 1

    x0 = (1.0, 0.2, 0.0)
    rows = []
    for tok in args.poles.split(","):
        lam = float(tok)
        obs = synthesize_nonlinear(rep, poles_to_alphas([lam]))
        chain0 = chain_init_exact(sys_, x0, 1)
        chain0[0] += args.offset
        tr = simulate_coupled(sys_, obs, x0, chain0, t_final=args.t_final, dt=args.dt)
        # fit early, before the error reaches the noise floor for fast poles
        t_hi = min(2.0, 0.4 * args.t_final)
        rate = error_decay_fit(tr, 0.5 * t_hi / 2.0, t_hi)
        rows.append((lam, rate, rate / lam - 1.0))
        print(f"pole {lam:+.3f}  fitted {rate:+.5f}  relative error {rate / lam - 1.0:+.2e}")

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["assigned_pole", "fitted_rate", "relative_error"])
        w.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
