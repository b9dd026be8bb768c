"""The forest oracle and the oracle gate: independence, edge cases, budget."""
import json
from pathlib import Path

import pytest

from rootedminors import catalog, io, isomorphism, minors, verification
from rootedminors.minors import find_minor
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
