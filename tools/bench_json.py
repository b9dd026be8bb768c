"""Summarise paired benchmark runs of two commits as one BENCH_*.json file.

    python3 tools/bench_json.py RUNS --parent-commit A --change-commit B \
        --out BENCH_11.json [--note TEXT]

RUNS holds one directory per side, `parent/` and `change/`.  Each file in
them is the standard output of one `bench/run.py` run, named
`<workload>-seed<n>.out` for an untraced run and `<workload>-seed<n>.trace.out`
for a `--trace 1` run; its last line is the run's result.  A run of one
side pairs with the run of the other side on the same workload and seed.
For every workload the output gives the seeds, each run's `attempted`
(the calls its rounds made, so the rounds it ran in the fixed time), each
metric's value per pair, and each side's median and quartiles; for every
traced run, its per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

SIDES = ("parent", "change")
NAME = re.compile(r"^(?P<workload>[\w.]+)-seed(?P<seed>-?\d+)(?P<trace>\.trace)?\.out$")


def read_result(path):
    """The result object on the last non-empty line of a run's output."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("%s: no result line" % path)
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise ValueError("%s: the run's checks failed" % path)
    return result


def read_side(directory):
    """{(workload, seed, traced): result} for every run file in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        match = NAME.match(name)
        if match:
            key = (match["workload"], int(match["seed"]), bool(match["trace"]))
            runs[key] = read_result(os.path.join(directory, name))
    return runs


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs, parent_commit, change_commit, note):
    parent, change = runs
    unpaired = sorted(set(parent) ^ set(change))
    if unpaired:
        raise ValueError("runs without a partner: %s" % unpaired)
    workloads = {}
    for workload, seed, traced in sorted(parent):
        entry = workloads.setdefault(workload, {
            "seeds": [], "attempted": {side: [] for side in SIDES},
            "metrics": {}, "traced": {}})
        pair = [side[(workload, seed, traced)] for side in runs]
        if traced:
            entry["traced"][str(seed)] = {
                side: {k: v["value"] for k, v in r["metrics"].items()}
                for side, r in zip(SIDES, pair)}
            continue
        entry["seeds"].append(seed)
        for side, r in zip(SIDES, pair):
            entry["attempted"][side].append(r["attempted"])
        for metric, value in pair[0]["metrics"].items():
            row = entry["metrics"].setdefault(
                metric, {"unit": value["unit"], "parent": [], "change": []})
            for side, r in zip(SIDES, pair):
                row[side].append(r["metrics"][metric]["value"])
    for entry in workloads.values():
        for row in entry["metrics"].values():
            for side in SIDES:
                row[side + "_summary"] = spread(row[side])
            row["change_over_parent"] = (row["change_summary"]["median"]
                                         / row["parent_summary"]["median"])
    return {"parent_commit": parent_commit, "change_commit": change_commit,
            "note": note, "workloads": workloads}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", help="directory holding parent/ and change/")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("--note", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    try:
        runs = [read_side(os.path.join(args.runs, side)) for side in SIDES]
        report = summarise(runs, args.parent_commit, args.change_commit,
                           args.note)
    except (OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
