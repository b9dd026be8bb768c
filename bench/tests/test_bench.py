"""Tests of the benchmark: each check must reject a corrupted result, and
every workload must run end to end at a reduced size.

    python3 -m pytest bench/tests -q
"""
import contextlib
import dataclasses
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import networkx as nx
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import clock  # noqa: E402
import make_hosts  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

rm = run.import_program()

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def one_round(w):
    """The outputs of one round."""
    rec = clock.Recorder()
    with rec:
        out = w.run_round(rec)
    assert len(rec.records()) == len(rec.calls) > 0
    return out


@pytest.fixture(scope="module")
def decide():
    w = workloads.Decide(rm, seed=5, scale=0.05)
    return w, one_round(w)


def test_decide_passes_and_rejects_a_moved_edge(decide):
    w, models = decide
    assert w.check(models) == []
    i = next(i for i, m in enumerate(models) if m is not None)
    m = models[i]
    kept = sorted(set(m.host.edges) - m.contracted - m.deleted)
    bad = dataclasses.replace(m, deleted=m.deleted | {kept[0]})
    assert w.check(models[:i] + [bad] + models[i + 1:])


def test_decide_rejects_flipped_verdicts(decide):
    w, models = decide
    pos = next(i for i, m in enumerate(models) if m is not None)
    flipped = list(models)
    flipped[pos] = None
    assert w.check(flipped)
    neg = next(i for i, m in enumerate(models) if m is None)
    flipped = list(models)
    flipped[neg] = models[pos]  # a certificate for another host
    assert w.check(flipped)


def test_scaling_uses_the_samples_around_a_call():
    rec = clock.Recorder()
    rec.times = [0.0, 1.0, 2.0, 3.0, 10.0]
    rec.refs = [100.0, 2 * clock.NOMINAL, 4 * clock.NOMINAL, 6 * clock.NOMINAL, 100.0]
    # The last sample before the call and the first one after it.
    assert rec.scaled(1.2, 1.4, 0.2) == pytest.approx(0.2 / 3)
    # And every sample taken during the call.
    assert rec.scaled(1.2, 2.9, 1.5) == pytest.approx(1.5 / 4)


def test_sampling_time_is_taken_out_of_a_call():
    rec = clock.Recorder()
    with rec:
        rec.call(time.sleep, 0.3)
    (start, end, net, yes), = rec.calls
    assert not yes
    during = [r for t, r in zip(rec.times, rec.refs) if start < t < end]
    assert len(during) >= 5
    assert end - start - net >= sum(during)
    assert net == pytest.approx(0.3, abs=0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_oracle_agrees_with_known_minors():
    k5, k33, k331 = (checks.PATTERNS[n] for n in ("K5", "K33", "K33_11"))
    assert checks.has_minor(k331, k5)  # contract one u-v edge
    assert not checks.has_minor(k33, k5)
    assert not checks.has_minor(nx.wheel_graph(8), k5)  # planar
    assert checks.has_minor(nx.complete_graph(6), k5, pinned=[(0, 1), (1, 2), (0, 2)])


def test_enumerate_rejects_a_dropped_class():
    w = workloads.Enumerate(rm, seed=2)
    classes, verdicts, wheels = one_round(w)
    assert w.check((classes, verdicts, wheels)) == []
    assert w.check((classes[:-1], verdicts, wheels))
    assert w.check((classes, verdicts, wheels[1:]))
    flipped = [not verdicts[0]] + verdicts[1:]
    assert w.check((classes, flipped, wheels))


def test_triangles_rejects_a_missing_k5_model_and_a_stray_miss():
    w = workloads.Triangles(rm, seed=4, scale=0.1)
    models = one_round(w)
    assert w.check(models) == []
    no_k5 = [(a, None) for a, _ in models]
    assert w.check(no_k5)
    i = next(i for i, (a, _) in enumerate(models) if a is not None)
    stray = list(models)
    stray[i] = (None, models[i][1])  # a K33_11 miss that is no committed record
    assert w.check(stray)


def test_pairs_rejects_a_wrong_matroid_witness():
    w = workloads.Pairs(rm, seed=6, scale=0.05)
    hits, reports, witnesses = one_round(w)
    assert w.check((hits, reports, witnesses)) == []
    row = next(r for r in witnesses if r[0] is not None)
    c, d = row[0]
    e = next(x for x in range(1, 13) if x not in c and x not in d
             and x not in w.element_pairs[witnesses.index(row)])
    row[0] = (c, frozenset(set(d) - {min(d)} | {e}))
    assert w.check_matroids(witnesses)
    assert w.check(([None] + hits[1:], reports, witnesses))


def test_host_list_check():
    lines = make_hosts.read_hosts()
    assert make_hosts.check_hosts(lines) == []
    assert make_hosts.check_hosts(lines[:-1])
    assert make_hosts.check_hosts(lines[:-1] + lines[:1])


def run_main(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_end_to_end(name):
    scale = "1" if name == "enumerate_7" else "0.05"
    base = ("--workload", name, "--seed", "9", "--seconds", "0.1", "--scale", scale)
    result = run_main(*base, "--trace", "0")
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    traced = run_main(*base, "--trace", "1")
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pairs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
