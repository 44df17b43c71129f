"""The pair script's summary: medians, quartiles, per-pair counts and failures
from results shaped as bench/run.py prints them."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", PAIRS)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def result(setup, rss, failures=()):
    return {"metrics": {"setup_s": {"value": setup, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}},
            "attempted": 10, "failed": len(failures), "failures": list(failures)}


def test_summary_of_alternating_pairs():
    pairs = load_pairs()
    runs = [{"first": "parent", "parent": result(0.20, 100.0), "change": result(0.12, 100.0)},
            {"first": "change", "parent": result(0.24, 100.0), "change": result(0.14, 101.0)},
            {"first": "parent", "parent": result(0.22, 100.0, ["failed operation: x"]),
             "change": result(0.25, 99.0, ["failed operation: x"])},
            {"first": "change", "parent": {"error": "exit 1: boom"}, "change": result(0.1, 1.0)}]
    summary = pairs.summarize("construct-large", runs)
    assert (summary["pairs_run"], summary["pairs_compared"]) == (4, 3)
    assert summary["first"] == ["parent", "change", "parent", "change"]
    setup = summary["metrics"]["setup_s"]
    assert setup["pairs"] == [[0.20, 0.12], [0.24, 0.14], [0.22, 0.25]]
    assert (setup["change_lower"], setup["change_higher"]) == (2, 1)
    assert setup["parent"]["median"] == pytest.approx(0.22)
    assert setup["parent"]["q1"] == pytest.approx(0.21)
    assert setup["parent"]["iqr"] == pytest.approx(0.02)
    assert setup["median_gap"] == pytest.approx(-0.08)
    assert setup["gap_exceeds_parent_iqr"]
    assert "np.savetxt" in setup["flatdpp_free"]
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["change_lower"], rss["change_higher"]) == (1, 1)
    assert not rss["gap_exceeds_parent_iqr"] and "flatdpp_free" not in rss
    assert summary["failed"] == {"parent": 1, "change": 1}
    assert summary["failures"] == {"parent": ["exit 1: boom", "failed operation: x"],
                                   "change": ["failed operation: x"]}


def test_only_construct_large_setup_is_flagged():
    pairs = load_pairs()
    runs = [{"first": "parent", "parent": result(0.2, 1.0), "change": result(0.1, 1.0)}]
    summary = pairs.summarize("sample-large", runs)
    assert all("flatdpp_free" not in m for m in summary["metrics"].values())
    assert summary["metrics"]["setup_s"]["parent"]["iqr"] == 0.0


BOUNDS = {"setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
          "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}}


def test_relative_gap_and_the_bound_it_is_past():
    pairs = load_pairs()
    # setup_s: 8.44 -> 10.74 ms is +27%, past a 25% bound on a lower-is-better
    # metric; peak_rss_mb: 294.6 -> 264.1 MB is -10.4%, a gain, not past it
    runs = [{"first": "parent", "parent": result(0.00844, 294.6),
             "change": result(0.01074, 264.1)}]
    summary = pairs.summarize("construct-large", runs, BOUNDS)
    setup, rss = summary["metrics"]["setup_s"], summary["metrics"]["peak_rss_mb"]
    assert setup["relative_gap"] == pytest.approx(0.2725, abs=1e-4)
    assert setup["past_bound"] is True
    assert rss["relative_gap"] == pytest.approx(-0.1035, abs=1e-4)
    assert rss["past_bound"] is False
    # just inside the bound is not past it
    inside = [{"first": "parent", "parent": result(0.2, 100.0), "change": result(0.24, 109.0)}]
    summary = pairs.summarize("sample-large", inside, BOUNDS)
    assert [m["past_bound"] for m in summary["metrics"].values()] == [False, False]
    # no bound given, or a parent median of 0: nothing to judge
    summary = pairs.summarize("sample-large", inside)
    assert [m["past_bound"] for m in summary["metrics"].values()] == [None, None]
    zero = [{"first": "parent", "parent": result(0.0, 1.0), "change": result(0.1, 1.0)}]
    setup = pairs.summarize("sample-large", zero, BOUNDS)["metrics"]["setup_s"]
    assert setup["relative_gap"] is None and setup["past_bound"] is None


def test_past_bound_follows_the_better_direction():
    pairs = load_pairs()
    higher = {"better": "higher", "bound": 0.1}
    assert pairs.past_bound(-0.11, higher) and not pairs.past_bound(0.5, higher)
    lower = {"better": "lower", "bound": 0.1}
    assert pairs.past_bound(0.11, lower) and not pairs.past_bound(-0.5, lower)


def test_fewer_than_ten_pairs_carry_a_warning():
    pairs = load_pairs()
    assert pairs.pairs_warning(10) is None and pairs.pairs_warning(12) is None
    for n in (1, 6, 9):
        warning = pairs.pairs_warning(n)
        assert warning.startswith(f"{n} pairs, fewer than 10") and "--pairs 10" in warning
