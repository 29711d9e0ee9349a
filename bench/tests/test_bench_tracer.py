import os
import subprocess
import sys
import time

import numpy as np
import pytest

import tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_self_time_subtracts_children():
    # root [0, 10] -> a [1, 4] -> b [2, 3];  root -> c [5, 9]
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = tracer.self_times(parent, start, end)
    np.testing.assert_allclose(own, [10 - 3 - 4, 3 - 1, 1, 4])
    # self times of a tree add up to the root's duration
    assert own.sum() == pytest.approx(10.0)


def test_outermost_skips_nested_members():
    # 0 -> 1(member) -> 2 -> 3(member);  0 -> 4(member)
    parent = np.array([-1, 0, 1, 2, 0], dtype=np.int32)
    member = np.array([False, True, False, True, True])
    np.testing.assert_array_equal(tracer.outermost(parent, member), [False, True, False, False, True])


def test_recorder_links_parents_and_times():
    rec = tracer.SpanRecorder("t")

    def leaf():
        time.sleep(0.01)

    leaf_t = rec.wrap("leaf", leaf)

    def outer():
        leaf_t()
        leaf_t()
        time.sleep(0.01)
        return 7

    outer_t = rec.wrap("outer", outer)
    assert outer_t() == 7
    arr = rec.arrays()
    assert [rec.names[i] for i in arr["name_id"]] == ["outer", "leaf", "leaf"]
    assert list(arr["parent"]) == [-1, 0, 0]
    own = tracer.self_times(arr["parent"], arr["start"], arr["end"])
    dur = arr["end"] - arr["start"]
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert own[0] >= 0.009


def test_recorder_closes_span_on_exception():
    rec = tracer.SpanRecorder("t")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    rec.wrap("after", lambda: None)()
    arr = rec.arrays()
    assert arr["end"][0] >= arr["start"][0] > 0.0
    assert list(arr["parent"]) == [-1, -1]


def test_traced_cli_run_matches_untraced_and_reports_layers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    args = ["compare", "--preset", "6GHz-NC", "--users", "4", "--trials", "300", "--exact", "off", "--seed", "3"]
    plain = subprocess.run([sys.executable, "-m", "cumasim", *args], env=env, capture_output=True, text=True, timeout=120)
    out = tmp_path / "spans.npz"
    traced = subprocess.run(
        [sys.executable, os.path.join(BENCH, "tracer.py"), "--out", str(out), "--run-id", "r1", "--", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    spans = tracer.load(str(out))
    assert spans["run_id"] == "r1"
    names = [spans["names"][i] for i in spans["name_id"]]
    assert names[0] == "cli.main" and spans["parent"][0] == -1
    for expected in ("montecarlo.SeedSpec.rng", "montecarlo.sir_sample", "harness.ks_statistic", "geometry.correlation_matrix"):
        assert expected in names
    m = tracer.layer_metrics(spans, 1.0, 1.5)
    assert m["montecarlo.sir_samples.calls"] == (2.0, "count")  # mc_metrics and compare_distributions
    assert m["montecarlo.trials"][0] == 600.0
    assert m["montecarlo.select_ports.calls"][0] >= 600.0
    assert m["geometry.ports"][0] == 28.0
    assert m["montecarlo.matmul_gflop"][0] == pytest.approx(4 * 28**2 * 4 * 600 / 1e9)
    assert m["analytic.exact_pdf_zI.calls"][0] == 0.0
    assert m["trace_overhead_s"][0] == pytest.approx(0.5)
    assert set(tracer.EXACT_COUNTS) <= set(m)
    own = tracer.self_times(spans["parent"], spans["start"], spans["end"])
    assert own.min() > -1e-6
    assert own.sum() == pytest.approx(spans["end"][0] - spans["start"][0], rel=1e-6)
