import sys
import time

import pytest

import run


@pytest.fixture(autouse=True)
def state_dir(tmp_path, monkeypatch):
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(run, "STATE", str(tmp_path))


def test_run_child_reports_output_and_usage():
    r = run.run_child([sys.executable, "-c", "print('hi'); x = bytearray(50_000_000)"], time.monotonic() + 60)
    assert r.code == 0 and r.problems == []
    assert r.stdout == "hi\n"
    assert r.peak_rss_mb > 50 and r.cpu_s > 0 and r.wall_s > 0


def test_run_child_kills_at_deadline():
    t0 = time.monotonic()
    r = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], time.monotonic() + 0.5)
    assert time.monotonic() - t0 < 10
    assert r.code is None and r.problems == ["killed at the run deadline"]


def test_nonzero_exit_is_a_problem():
    r = run.run_child([sys.executable, "-c", "raise SystemExit(3)"], time.monotonic() + 60)
    assert r.problems == ["exit code 3"]


def test_records_repeat_exactly(tmp_path):
    (tmp_path / "records").mkdir()
    rec = run.Records("abc")
    assert rec.agree("k", {"a": 1.5})
    again = run.Records("abc")
    assert again.agree("k", {"a": 1.5})
    assert not again.agree("k", {"a": 1.5000001})


def test_same_bytes_flags_differing_output(tmp_path):
    (tmp_path / "records").mkdir()

    def child(out):
        return run.ChildRun(argv=["x"], code=0, wall_s=1, cpu_s=1, peak_rss_mb=1, stdout=out, stderr="", problems=[])

    runs = [child("a"), child("a"), child("b")]
    run._same_bytes(runs, run.Records("abc"), "stdout/w/1")
    assert [bool(r.problems) for r in runs] == [False, False, True]
    later = [child("c")]
    run._same_bytes(later, run.Records("abc"), "stdout/w/1")
    assert later[0].problems == ["output differs from an earlier benchmark run of this code and seed"]
