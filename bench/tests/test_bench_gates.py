import json
import os

import pytest

import gates
from gates import Printed, check, parse_csv

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(BENCH, "reference.json")) as fh:
    REF = json.load(fh)["workloads"]

CSV_OUT = """axis_value,metric,analytic_approx,analytic_exact,mc_mean,mc_stderr,trials,seed
10,er,2998.96551309,,51.9808207114,0.162222734136,1000,1
"""


def test_printed_resolution():
    assert Printed.parse("23.6911") == Printed(23.6911, pytest.approx(1e-4))
    assert Printed.parse("1.15592e-06").ulp == pytest.approx(1e-11)
    assert Printed.parse("10").ulp == 1.0


def test_parse_csv_checks_trials_and_seed():
    v = parse_csv(CSV_OUT, 1000, 1)
    assert set(v) == {"er.approx", "er.mc", "er.mc_stderr"}
    with pytest.raises(ValueError):
        parse_csv(CSV_OUT, 1000, 2)
    with pytest.raises(ValueError):
        parse_csv("a,b\n", 1000, 1)


def _exact(value):
    return Printed(value, 1e-12)


def _values_at_reference(ref):
    out = {}
    for key, r in ref["values"].items():
        out[key] = _exact(r["value"])
        if r["kind"] == "mc":
            out[f"{key}_stderr"] = _exact(r["stderr"] * (r["trials"] / ref["trials"]) ** 0.5)
    return out


@pytest.mark.parametrize("workload", sorted(REF))
def test_reference_values_pass(workload):
    ref = REF[workload]
    diags = check(_values_at_reference(ref), ref["values"])
    assert diags and all(d["ok"] for d in diags)


@pytest.mark.parametrize("workload", sorted(REF))
def test_negative_control_perturbed_value_trips(workload):
    """Every gated key trips when its value moves a few bounds away."""
    ref = REF[workload]
    for key, r in ref["values"].items():
        values = _values_at_reference(ref)
        diag = next(d for d in check(values, ref["values"]) if d["key"] == key)
        values[key] = _exact(r["value"] + 3.0 * diag["bound"])
        tripped = [d["key"] for d in check(values, ref["values"]) if not d["ok"]]
        assert tripped == [key]


def test_negative_control_exact_value_off_by_ten_quad_tol():
    ref = REF["exact-secrecy"]
    values = _values_at_reference(ref)
    values["sop.exact"] = _exact(ref["values"]["sop.exact"]["value"] * (1 + 10 * 1e-6 * 2))
    assert [d["key"] for d in check(values, ref["values"]) if not d["ok"]] == ["sop.exact"]


def test_negative_control_mc_mean_six_sigma_off():
    ref = REF["mc-large-grid"]
    values = _values_at_reference(ref)
    r = ref["values"]["er.mc"]
    se = values["er.mc_stderr"].value
    values["er.mc"] = _exact(r["value"] + 6.0 * (se**2 + r["stderr"] ** 2) ** 0.5)
    assert gates.Z_BOUND < 6.0
    assert [d["key"] for d in check(values, ref["values"]) if not d["ok"]] == ["er.mc"]


def test_missing_and_unexpected_keys_trip():
    ref = REF["mc-large-grid"]
    values = _values_at_reference(ref)
    del values["er.approx"]
    values["op.approx"] = _exact(1.0)
    bad = {d["key"]: d["detail"] for d in check(values, ref["values"]) if not d["ok"]}
    assert bad == {"er.approx": "missing from output", "op.approx": "no reference for this output"}
