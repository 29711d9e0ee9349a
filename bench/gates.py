"""Correctness gates on the CLI's printed output.

Every printed number is parsed into a keyed value that remembers its
printed resolution (one unit in the last printed digit), and each key is
checked against `reference.json` by the rule of its kind:

- ``closed``: closed-form columns, relative tolerance CLOSED_RTOL;
- ``exact``: quadrature columns, relative tolerance EXACT_RTOL, which is
  on the scale of the CLI's default ``quad_tol`` (1e-6);
- ``mc``: Monte Carlo means, within Z_BOUND combined standard errors of
  a high-trial reference mean drawn from a seed no run uses.

Half a unit in the last printed digit is always allowed, because the CLI
rounds. Deviations are returned as diagnostics; a run passes when every
key is present, has a reference, and lies within its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

CLOSED_RTOL = 1e-9
EXACT_RTOL = 1e-5
Z_BOUND = 5.0


@dataclass(frozen=True)
class Printed:
    value: float
    ulp: float

    @classmethod
    def parse(cls, token: str) -> "Printed":
        d = Decimal(token)
        return cls(value=float(d), ulp=10.0 ** d.as_tuple().exponent)


def parse_csv(text: str, trials: int, seed: int) -> dict[str, Printed]:
    """Keyed values of a sweep CSV with a single axis value.

    Raises ValueError when the trials or seed column disagrees with the run.
    """
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    if header != ["axis_value", "metric", "analytic_approx", "analytic_exact", "mc_mean", "mc_stderr", "trials", "seed"]:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    out: dict[str, Printed] = {}
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        m = cells["metric"]
        for col, key in (("analytic_approx", "approx"), ("analytic_exact", "exact"), ("mc_mean", "mc"), ("mc_stderr", "mc_stderr")):
            if cells[col]:
                out[f"{m}.{key}"] = Printed.parse(cells[col])
        if (int(cells["trials"]), int(cells["seed"])) != (trials, seed):
            raise ValueError(f"row {m}: trials,seed = {cells['trials']},{cells['seed']}, expected {trials},{seed}")
    return out


def check(values: dict[str, Printed], ref: dict) -> list[dict]:
    """One diagnostic per reference key; ``ok`` is False where the gate trips.

    ``ref`` maps each key to {"kind", "value"} plus, for ``mc``, the
    reference "stderr". Output keys without a reference are reported as
    failures too.
    """
    diags = []
    for key, r in ref.items():
        got = values.get(key)
        kind = r["kind"]
        se = values.get(f"{key}_stderr")
        if got is None or (kind == "mc" and se is None):
            diags.append({"key": key, "ok": False, "detail": "missing from output"})
            continue
        dev = abs(got.value - r["value"])
        if kind == "closed":
            bound = CLOSED_RTOL * abs(r["value"])
        elif kind == "exact":
            bound = EXACT_RTOL * abs(r["value"])
        elif kind == "mc":
            bound = Z_BOUND * math.hypot(se.value, r["stderr"])
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        bound += 0.5 * got.ulp
        diags.append({"key": key, "ok": dev <= bound, "value": got.value, "reference": r["value"], "deviation": dev, "bound": bound})
    gated = set(ref) | {f"{k}_stderr" for k, r in ref.items() if r["kind"] == "mc"}
    for key in sorted(set(values) - gated):
        diags.append({"key": key, "ok": False, "detail": "no reference for this output"})
    return diags
