import statistics

import pytest

from summary import quartiles, spread, summarize


def test_quartiles_match_statistics_quantiles():
    vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = quartiles(vals)
    assert (q1, q2, q3) == tuple(statistics.quantiles(vals, n=4))
    assert q2 == statistics.median(vals)
    # exclusive method on 10 sorted values: positions 2.75 and 8.25
    s = sorted(vals)
    assert q1 == pytest.approx(s[1] + 0.75 * (s[2] - s[1]))
    assert q3 == pytest.approx(s[7] + 0.25 * (s[8] - s[7]))


def test_single_value_has_no_spread():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0


def test_spread_is_iqr_over_median():
    vals = [10.0, 10.0, 11.0, 12.0, 12.0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    assert spread(vals) == pytest.approx((q3 - q1) / q2)


def test_summarize_groups_by_workload_and_trace():
    def res(w, trace, seed, v):
        return {
            "workload": w, "trace": trace, "seed": seed, "attempted": 3, "failed": 0, "manifest": {},
            "metrics": {"wall_s": {"value": v, "unit": "s"}},
        }

    out = summarize([res("a", 0, 1, 1.0), res("a", 0, 2, 3.0), res("a", 1, 1, 9.0), res("b", 0, 1, 2.0)])
    assert set(out) == {"a/trace0", "a/trace1", "b/trace0"}
    assert out["a/trace0"]["metrics"]["wall_s"]["median"] == 2.0
    assert out["a/trace0"]["seeds"] == [1, 2]
    assert out["a/trace0"]["attempted"] == 6
