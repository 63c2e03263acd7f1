"""The summary step of ``scripts/bench_pairs.py``, on synthetic results;
no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(**values):
    """A run.py result line with these metric values."""
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def pairs(parent, change, name="setup_s"):
    return [{"parent": result(**{name: p}), "change": result(**{name: c})}
            for p, c in zip(parent, change)]


def test_medians_iqr_and_better_pairs():
    parent = [0.20, 0.21, 0.22, 0.19, 0.20]
    change = [0.17, 0.18, 0.23, 0.17, 0.16]
    s = bench_pairs.summarize(pairs(parent, change), {"setup_s": "lower"})["setup_s"]
    assert s["better"] == "lower"
    assert s["parent_median"] == 0.20
    assert s["change_median"] == 0.17
    # inclusive quartiles of the parent's 0.19, 0.20, 0.20, 0.21, 0.22
    assert s["parent_iqr"] == pytest.approx(0.01)
    assert s["change_better_pairs"] == 4 and s["pairs"] == 5
    assert s["change_worse_pairs"] == 1
    assert s["gain_exceeds_iqr"] and not s["worse_beyond_iqr"]


def test_higher_is_better_and_a_gain_within_the_iqr():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [1.5, 1.5, 3.5, 4.5]
    s = bench_pairs.summarize(pairs(parent, change, "gbps"),
                              {"gbps": "higher"})["gbps"]
    assert s["better"] == "higher"
    assert s["change_better_pairs"] == 3
    assert s["change_worse_pairs"] == 1
    assert s["parent_iqr"] == pytest.approx(1.5)
    assert not s["gain_exceeds_iqr"]      # 2.5 -> 2.5
    assert not s["worse_beyond_iqr"]


def test_unnamed_metrics_are_lower_is_better_and_ties_are_not_better():
    s = bench_pairs.summarize(pairs([38, 38], [38, 38], "iters_total"), {})
    assert s["iters_total"]["better"] == "lower"
    assert s["iters_total"]["change_better_pairs"] == 0
    assert s["iters_total"]["change_worse_pairs"] == 0
    assert s["iters_total"]["parent_iqr"] == 0
    assert not s["iters_total"]["gain_exceeds_iqr"]
    assert not s["iters_total"]["worse_beyond_iqr"]


@pytest.mark.parametrize("better, parent, change, worse_pairs, beyond", [
    # lower is better: medians 0.20 -> 0.24 against an IQR of 0.01
    ("lower", [0.20, 0.21, 0.22, 0.19, 0.20], [0.24, 0.25, 0.18, 0.24, 0.23], 4, True),
    # a loss within the parent's spread
    ("lower", [1.0, 2.0, 3.0, 4.0], [1.5, 2.5, 3.5, 3.5], 3, False),
    # higher is better: medians 2.5 -> 0.85 against an IQR of 1.5
    ("higher", [1.0, 2.0, 3.0, 4.0], [0.5, 0.8, 0.9, 5.0], 3, True),
])
def test_worse_pairs_and_a_loss_beyond_the_iqr(better, parent, change,
                                               worse_pairs, beyond):
    s = bench_pairs.summarize(pairs(parent, change), {"setup_s": better})["setup_s"]
    assert s["change_worse_pairs"] == worse_pairs
    assert s["worse_beyond_iqr"] is beyond
    assert not (s["worse_beyond_iqr"] and s["gain_exceeds_iqr"])


def test_main_prints_the_metrics_worse_beyond_the_iqr(monkeypatch, tmp_path, capsys):
    # no benchmark runs: run_tree returns canned results, the change slower
    # on setup_s and faster on solve_s
    def fake_run(tree, workload, seed, seconds):
        slow = tree.name == "change"
        return result(setup_s=0.3 if slow else 0.2, solve_s=0.1 if slow else 0.2)
    monkeypatch.setattr(bench_pairs, "run_tree", fake_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "cube3d", "--pairs", "3",
                             "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "worse beyond IQR: setup_s"


def test_only_metrics_on_every_side_are_summarized():
    ps = pairs([1.0], [0.5])
    ps[0]["change"]["metrics"]["extra"] = {"value": 1.0, "unit": "s"}
    assert list(bench_pairs.summarize(ps, {})) == ["setup_s"]


def test_directions_follow_benchmark_json():
    better = bench_pairs.directions(ROOT)
    assert better["setup_s"] == "lower"
    assert bench_pairs.directions(ROOT / "tests") == {}
