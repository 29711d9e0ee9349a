"""Write the reference values the correctness gates compare against.

    PYTHONPATH=src python3 bench/make_reference.py   # about 3 min on 2 cores

Closed-form and exact values are recorded at full precision from the
library calls the CLI makes. Monte Carlo references are high-trial runs
from REFERENCE_SEED, a seed no benchmark run uses, so the gate on a
run's mean does not depend on the run's seed. Rerun this only when a
change is meant to move the exact or closed-form values, and say so.
"""

from __future__ import annotations

import argparse
import json
import os

from cumasim.harness import SweepSpec, run_sweep

from workloads import WORKLOADS

REFERENCE_SEED = 2**63 + 15164
QUAD_TOL = 1e-6  # the CLI default
LARGE_REF_TRIALS = 10_000


def _sweep_rows(spec: SweepSpec) -> dict:
    out = {}
    for row in run_sweep(spec).rows:
        out[f"{row.metric}.approx"] = {"kind": "closed", "value": row.analytic_approx}
        if row.analytic_exact is not None:
            out[f"{row.metric}.exact"] = {"kind": "exact", "value": row.analytic_exact}
        if row.mc_mean is not None:
            out[f"{row.metric}.mc"] = {"kind": "mc", "value": row.mc_mean, "stderr": row.mc_stderr, "trials": row.trials}
    return out


def exact_secrecy() -> dict:
    spec = SweepSpec(
        axis="rs", values=(1.0,), metrics=("er", "op", "sop"), preset="6GHz-VC",
        eve_preset="6GHz-NC", users=20, exact="on", mc=False,
    )
    return {"trials": spec.trials, "seed_column": spec.seed, "values": _sweep_rows(spec)}


def mc_large_grid() -> dict:
    spec = SweepSpec(
        axis="users", values=(10.0,), metrics=("er",), preset="26GHz-C", trials=LARGE_REF_TRIALS,
        seed=REFERENCE_SEED, exact="off",
    )
    return {"trials": 1000, "values": _sweep_rows(spec)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"))
    args = ap.parse_args()
    refs = {"exact-secrecy": exact_secrecy(), "mc-large-grid": mc_large_grid()}
    if set(refs) != set(WORKLOADS):
        raise SystemExit(f"references {sorted(refs)} do not cover the workloads {sorted(WORKLOADS)}")
    doc = {"reference_seed": REFERENCE_SEED, "quad_tol": QUAD_TOL, "workloads": refs}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
