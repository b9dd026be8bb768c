"""The forest oracle and the oracle gate: independence, edge cases, budget."""
import json
from pathlib import Path

import pytest

from rootedminors import catalog, io, isomorphism, minors, verification
from rootedminors.minors import (find_minor, preserve_triangle_k331,
                                 preserve_triangle_k5)
from rootedminors.multigraph import LabeledMultigraph, complete_graph

COUNTEREXAMPLES = Path(__file__).parent / "data" / \
    "k33_11_triangle_counterexamples.json"


def _octahedron():
    """K6 minus a perfect matching: planar, so it has no K5-minor."""
    return LabeledMultigraph(range(6), dict(enumerate(
        ((a, b) for a in range(6) for b in range(a + 1, 6) if b != a + 3),
        start=1)))


def _refuse(*args, **kwargs):
    raise AssertionError("the oracle called the program's search or "
                         "labelling")


def test_oracle_does_not_use_the_search_or_the_labelling(monkeypatch):
    record = json.loads(COUNTEREXAMPLES.read_text())["records"][0]
    host = io.from_graph6(record["graph6"])
    tri = [e for e, (a, b) in host.edges.items()
           if a in record["triangle"] and b in record["triangle"]]
    k33_11 = catalog.build("K33_11").graph
    monkeypatch.setattr(minors, "find_minor", _refuse)
    monkeypatch.setattr(isomorphism, "canonical_labeling", _refuse)
    monkeypatch.setattr(verification, "are_isomorphic", _refuse)
    assert verification.minor_oracle(k33_11, "K5")
    assert not verification.minor_oracle(_octahedron(), "K5")
    assert not verification.minor_oracle(host, "K33_11", required=tri)


def _k5_with_a_required_loop():
    g = complete_graph(5)
    e = g.fresh_edge_id()
    return g.with_edge(e, 0, 0), (e,)


def _k5_with_required_parallels():
    g = complete_graph(5)
    e = g.fresh_edge_id()
    return g.with_edge(e, *g.endpoints(1)), (1, e)


def _k5_split_by_a_path():
    """K5 with vertex 0 split into 0 (on 1, 2) and 5 (on 3, 4), joined by
    edge 11 and by the path 0-6-5.  Every K5-minor puts 0 and 5 in one
    branch set, so none keeps edge 11."""
    edges = {1: (0, 1), 2: (0, 2), 3: (5, 3), 4: (5, 4), 5: (1, 2),
             6: (1, 3), 7: (1, 4), 8: (2, 3), 9: (2, 4), 10: (3, 4),
             11: (0, 5), 12: (0, 6), 13: (6, 5)}
    return LabeledMultigraph(range(7), edges), (11,)


@pytest.mark.parametrize("case", [_k5_with_a_required_loop,
                                  _k5_with_required_parallels,
                                  _k5_split_by_a_path],
                         ids=lambda case: case.__name__)
def test_oracle_says_no_where_no_required_edge_can_be_kept(case):
    host, required = case()
    assert verification.minor_oracle(host, "K5")
    assert not verification.minor_oracle(host, "K5", required=required)
    assert find_minor(host, "K5", required=required) is None


def test_oracle_gate_records_overruns_and_decides_the_rest():
    report = verification.oracle_equivalence(seed=0, cases=8, node_cap=1)
    assert report["overruns"] and report["disagreements"] == []
    assert report["agree"] + len(report["overruns"]) == 8
    assert report["pass"] is False and report["outcome"] == "budget"
    assert {"case", "pattern", "required"} == set(report["overruns"][0])


@pytest.fixture(scope="module")
def scan7():
    return verification.exhaustive_scan(max_n=7)


def test_covered_triangle_scan_agrees_with_asking_every_triangle(scan7):
    """Both triangle searches asked directly on every triangle of every
    host at n <= 7 with a K33_11-minor miss exactly where the scan does."""
    report = scan7["triangle_preservation_exhaustive"]
    direct = {"K33_11": [], "K5": []}
    triangles = 0
    for g in verification.closure(7):
        if minors.is_planar(g) or find_minor(g, "K33_11") is None:
            continue
        for tri in g.triangles():
            triangles += 1
            record = {"graph6": io.to_graph6(g),
                      "triangle": verification.triangle_vertices(g, tri)}
            for target, search in (("K33_11", preserve_triangle_k331),
                                   ("K5", preserve_triangle_k5)):
                if search(g, tri) is None:
                    direct[target].append(record)
    assert triangles == report["triangles"] == 1142
    assert report["failures_k331"] == direct["K33_11"]
    assert len(direct["K33_11"]) == 5
    assert report["failures_k5"] == direct["K5"] == []


def test_triangle_searches_are_pinned_at_n7(scan7):
    """Each host's unpinned model and earlier triangle models answer the
    triangles they keep, so 1142 triangles take 414 and 341 searches."""
    report = scan7["triangle_preservation_exhaustive"]
    assert report["searches"] == {"K33_11": 414, "K5": 341}
    assert report["rejected_models"] == []


def _reject_every_model(monkeypatch):
    monkeypatch.setattr(minors, "verify_model",
                        lambda model: (False, ["rejected on purpose"]))


def test_scan_with_every_model_rejected_searches_every_triangle(
        monkeypatch, scan7):
    _reject_every_model(monkeypatch)
    scan = verification.exhaustive_scan(max_n=7)
    k5, tri = (scan["k5_equivalence_exhaustive"],
               scan["triangle_preservation_exhaustive"])
    assert not k5["pass"] and not tri["pass"]
    # every unpinned model: one per host with a K33_11-minor and per host
    # with a K5-minor, which are the same 92 hosts and K5 itself
    unpinned = [r["target"] for r in k5["rejected_models"]]
    assert (unpinned.count("K33_11"), unpinned.count("K5")) == (92, 93)
    assert tri["hosts"] == 92
    assert tri["searches"] == {"K33_11": 1142, "K5": 1142}
    assert tri["failures_k331"] == scan7["triangle_preservation_exhaustive"][
        "failures_k331"]
    rejected = {target: [r for r in tri["rejected_models"]
                         if r["target"] == target]
                for target in ("K33_11", "K5")}
    assert len(rejected["K33_11"]) == 1142 - 5
    assert len(rejected["K5"]) == 1142
    assert {tuple(r["diagnostics"]) for r in tri["rejected_models"]} == {
        ("rejected on purpose",)}


def test_sample_with_every_model_rejected_searches_every_pair(monkeypatch):
    report = verification.family_minor_sample(seed=0, hosts=20)
    assert report["pass"] and report["rejected_models"] == []
    assert report["searches"] < report["pairs"] == 200
    _reject_every_model(monkeypatch)
    report = verification.family_minor_sample(seed=0, hosts=20)
    assert not report["pass"] and report["failures"] == []
    assert report["searches"] == len(report["rejected_models"]) == 200
    assert set(report["rejected_models"][0]) == {"graph6", "e", "f",
                                                 "diagnostics"}
