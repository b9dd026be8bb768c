"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload decide_8 --seed 1 --seconds 25 --trace 0

Run from the repository root: the program is imported from `src/`.  The
workload's inputs are built from the seed (`setup_s` is the median of
several builds), then whole rounds of the same public calls repeat until
the next round would end past `--seconds`.  Every time is scaled to a
reference speed (see `clock.py`), and each call's latency is its median
over the rounds.  Outputs are checked after the timed section.  With
`--trace 0` the last line of output holds the end-to-end metrics; with
`--trace 1` the rounds run under the span tracer, it holds the per-layer
metrics, and per-span totals are written to
`bench/out/<workload>-seed<n>.trace.json`.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import clock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
NODE_SAMPLE = 3  # positive and negative find_minor queries bisected per run


def import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import rootedminors
    if not os.path.abspath(rootedminors.__file__).startswith(src + os.sep):
        raise ImportError("rootedminors is not imported from %s" % src)
    from rootedminors import (catalog, generate, matroids, minors,  # noqa: F401
                              multigraph, rounded)
    return rootedminors


def setup(name, seed, scale):
    def build():
        return workloads.WORKLOADS[name](import_program(), seed, scale)

    rec = clock.Recorder()
    with rec:
        for _ in range(SETUP_REPEATS):
            workload = rec.call(build)
    return workload, statistics.median(t for t, _ in rec.records())


def settle():
    """Collect, then exempt the live heap from later collections.

    A collection's cost grows with the objects alive, so without this the
    program would run slower on seeds whose inputs and kept outputs are
    larger, and the benchmark would time its own data.
    """
    gc.collect()
    gc.freeze()


def run_rounds(workload, seconds):
    """Whole rounds until the next one would end past `seconds`.

    Returns each round's recorder, the first round's outputs and a
    summary of every round's outputs."""
    round_times, rounds, summaries = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        settle()
        rec = clock.Recorder()
        t = time.perf_counter()
        with rec:
            out = workload.run_round(rec)
        round_times.append(time.perf_counter() - t)
        rounds.append(rec)
        summaries.append(workload.summary(out))
        if first is None:
            first = out
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(round_times) > seconds:
            return rounds, first, summaries


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def end_to_end(rounds, setup_s):
    records = [rec.records() for rec in rounds]
    lat = [statistics.median(t for t, _ in call) for call in zip(*records)]
    neg = [t for t, (_, yes) in zip(lat, records[0]) if not yes]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(lat), "s"),
        "query_p50_ms": (1000 * statistics.median(lat), "ms"),
        "query_p99_ms": (1000 * percentile(lat, 99), "ms"),
        "neg_query_p50_ms": (1000 * statistics.median(neg), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def count_nodes(find_minor, budget_error, host, pattern, required):
    """Search nodes of one query: the smallest node cap that does not raise."""
    def fits(cap):
        try:
            find_minor(host, pattern, required=required, node_cap=cap)
            return True
        except budget_error:
            return False

    lo, hi = -1, 1024  # lo never fits, hi is the candidate
    while not fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def per_layer(tracer, rounds, nodes_pos, nodes_neg):
    named = tracer.named

    def layer_s(ss):
        return sum(s.layer_time() for s in ss) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    iso = named("isomorphism.are_isomorphic")
    tc = named("multigraph.is_three_connected")
    fm = named("minors.find_minor")
    fm_pos = [s for s in fm if s.result is not None]
    fm_neg = [s for s in fm if s.result is None]
    tri = [s for s in named("minors.preserve_triangle_k331")
           + named("minors.preserve_triangle_k5") if s.parent is None]
    fam = named("minors.find_family_minor")
    rd = named("rounded.verify_two_rounded")
    mh = named("matroids.matroid_has_minor")
    mi = named("matroids.matroid_isomorphic")
    return {
        "generate.all_graphs_s": (layer_s(named("generate.all_graphs")), "s"),
        "generate.three_connected_by_wheels_s":
            (layer_s(named("generate.three_connected_by_wheels")), "s"),
        "isomorphism.are_isomorphic_calls": (len(iso) / rounds, "count"),
        "isomorphism.are_isomorphic_s": (layer_s(iso), "s"),
        "isomorphism.are_isomorphic_hit_ratio":
            (ratio(sum(s.result is not None for s in iso), len(iso)), "ratio"),
        "multigraph.is_three_connected_calls": (len(tc) / rounds, "count"),
        "multigraph.is_three_connected_s": (layer_s(tc), "s"),
        "minors.find_minor_pos_calls": (len(fm_pos) / rounds, "count"),
        "minors.find_minor_neg_calls": (len(fm_neg) / rounds, "count"),
        "minors.find_minor_pos_s": (layer_s(fm_pos), "s"),
        "minors.find_minor_neg_s": (layer_s(fm_neg), "s"),
        "minors.nodes_pos_p50":
            (statistics.median(nodes_pos) if nodes_pos else 0, "count"),
        "minors.nodes_neg_p50":
            (statistics.median(nodes_neg) if nodes_neg else 0, "count"),
        "minors.preserve_triangle_k331_s":
            (layer_s(named("minors.preserve_triangle_k331")), "s"),
        "minors.preserve_triangle_k5_s":
            (layer_s(named("minors.preserve_triangle_k5")), "s"),
        "minors.find_minor_calls_per_triangle_query":
            (ratio(sum(len(spans.within(s, "minors.find_minor")) for s in tri),
                   len(tri)), "ratio"),
        "minors.find_family_minor_s": (layer_s(fam), "s"),
        "minors.family_members_per_query":
            (ratio(sum(len(spans.within(s, "minors.find_minor")) for s in fam),
                   len(fam)), "ratio"),
        "rounded.verify_two_rounded_s": (layer_s(rd), "s"),
        "rounded.candidates":
            (sum(len(s.result.candidates) for s in rd) / rounds, "count"),
        "matroids.matroid_has_minor_pos_s":
            (layer_s([s for s in mh if s.result is not None]), "s"),
        "matroids.matroid_has_minor_neg_s":
            (layer_s([s for s in mh if s.result is None]), "s"),
        "matroids.matroid_isomorphic_calls": (len(mi) / rounds, "count"),
        "matroids.matroid_isomorphic_s": (layer_s(mi), "s"),
    }


def write_trace(tracer, name, seed, rounds, nodes, run_s):
    """Per-span-name totals of a traced run, for reading beside the metrics.

    `run_s` is measured with tracing on; less the untraced `run_s` of the
    same seed, it is the tracing overhead.
    """
    names = {}
    for s in tracer.spans:
        row = names.setdefault(s.name, {"calls": 0, "seconds": 0.0, "layer_seconds": 0.0})
        row["calls"] += 1
        row["seconds"] += s.duration
        row["layer_seconds"] += s.layer_time()
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d.trace.json" % (name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": rounds, "run_s": run_s,
                   "spans": names, "nodes_pos": nodes[0], "nodes_neg": nodes[1]},
                  fh, indent=1, sort_keys=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size as a share of the full workload (tests)")
    args = ap.parse_args(argv)

    workload, setup_s = setup(args.workload, args.seed, args.scale)
    rm = workload.rm
    tracer = spans.Tracer(rm) if args.trace else None
    if tracer:
        with tracer:
            rounds, first, summaries = run_rounds(workload, args.seconds)
    else:
        rounds, first, summaries = run_rounds(workload, args.seconds)

    problems = workload.check(first)
    problems += ["round %d differs from round 1" % (i + 1)
                 for i, s in enumerate(summaries) if s != summaries[0]]
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)

    if tracer:
        pos, neg = workload.node_sample(first, random.Random(args.seed), NODE_SAMPLE)
        nodes = [[count_nodes(rm.minors.find_minor, rm.SearchBudgetExceeded, *q)
                  for q in side] for side in (pos, neg)]
        metrics = per_layer(tracer, len(rounds), *nodes)
        write_trace(tracer, args.workload, args.seed, len(rounds), nodes,
                    end_to_end(rounds, setup_s)["run_s"][0])
    else:
        metrics = end_to_end(rounds, setup_s)
    attempted = sum(len(rec.calls) for rec in rounds)
    print("%s seed %d: %d rounds, %d calls" % (
        args.workload, args.seed, len(rounds), attempted), file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
