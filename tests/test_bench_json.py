"""tools/bench_json.py: pairing benchmark result files and taking medians."""
import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "bench_json.py")
_SPEC = importlib.util.spec_from_file_location("bench_json", _PATH)
bench_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_json)


def _write_run(path, metrics, correct=True, attempted=10):
    result = {"correct": correct, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": "s"}
                          for k, v in metrics.items()}}
    path.write_text("progress line\n" + json.dumps(result) + "\n")


def _runs(tmp_path, values):
    for side, by_seed in values.items():
        (tmp_path / side).mkdir()
        for seed, v in by_seed.items():
            _write_run(tmp_path / side / ("pairs-seed%d.out" % seed),
                       {"run_s": v})
    return tmp_path


def test_medians_and_pairs(tmp_path):
    runs = _runs(tmp_path, {"parent": {1: 4.0, 2: 6.0, 3: 5.0},
                            "change": {1: 3.0, 2: 5.0, 3: 4.0}})
    _write_run(runs / "parent" / "pairs-seed1.trace.out", {"layer_s": 1.0})
    _write_run(runs / "change" / "pairs-seed1.trace.out", {"layer_s": 0.5})
    out = tmp_path / "BENCH.json"
    assert bench_json.main([str(runs), "--parent-commit", "a",
                            "--change-commit", "b", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    pairs = report["workloads"]["pairs"]
    assert pairs["seeds"] == [1, 2, 3]
    row = pairs["metrics"]["run_s"]
    assert row["parent"] == [4.0, 6.0, 5.0] and row["change"] == [3.0, 5.0, 4.0]
    assert row["parent_summary"] == {"median": 5.0, "q1": 4.5, "q3": 5.5}
    assert row["change_over_parent"] == pytest.approx(0.8)
    assert pairs["traced"]["1"] == {"parent": {"layer_s": 1.0},
                                    "change": {"layer_s": 0.5}}


def test_each_run_keeps_its_attempted_calls(tmp_path):
    """A run's call count sits beside its metrics, pair by pair, so a
    memory move can be read against the rounds each run made."""
    for side, by_seed in {"parent": {1: (4.0, 30), 2: (6.0, 20)},
                          "change": {1: (3.0, 45), 2: (5.0, 25)}}.items():
        (tmp_path / side).mkdir()
        for seed, (v, attempted) in by_seed.items():
            _write_run(tmp_path / side / ("pairs-seed%d.out" % seed),
                       {"peak_rss_mb": v}, attempted=attempted)
    out = tmp_path / "BENCH.json"
    assert bench_json.main([str(tmp_path), "--parent-commit", "a",
                            "--change-commit", "b", "--out", str(out)]) == 0
    pairs = json.loads(out.read_text())["workloads"]["pairs"]
    assert pairs["seeds"] == [1, 2]
    assert pairs["attempted"] == {"parent": [30, 20], "change": [45, 25]}
    assert pairs["metrics"]["peak_rss_mb"]["change"] == [3.0, 5.0]


@pytest.mark.parametrize("problem", ["unpaired", "incorrect"])
def test_bad_runs_exit_2(tmp_path, problem):
    runs = _runs(tmp_path, {"parent": {1: 4.0, 2: 6.0},
                            "change": {1: 3.0, 2: 5.0}})
    if problem == "unpaired":
        _write_run(runs / "parent" / "pairs-seed9.out", {"run_s": 1.0})
    else:
        _write_run(runs / "change" / "pairs-seed2.out", {"run_s": 1.0},
                   correct=False)
    assert bench_json.main([str(runs), "--parent-commit", "a",
                            "--change-commit", "b",
                            "--out", str(tmp_path / "x.json")]) == 2
