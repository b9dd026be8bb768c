"""JSON edge-list and graph6 ingest/emit."""
import json

import pytest

from rootedminors import catalog, io
from rootedminors.isomorphism import are_isomorphic
from rootedminors.multigraph import GraphError, LabeledMultigraph, complete_graph


def test_json_round_trip_preserves_ids():
    g = LabeledMultigraph({0, 2, 5}, {4: (0, 2), 9: (2, 5), 11: (5, 5)})
    back = io.from_json(io.to_json(g))
    assert back == g


def test_json_endpoints_come_back_ordered():
    text = json.dumps({"vertices": [0, 1, 2], "edges": [
        {"id": 1, "a": 2, "b": 0}, {"id": 2, "a": 1, "b": 2}]})
    g = io.from_json(text)
    assert g.edges == {1: (0, 2), 2: (1, 2)}
    assert all(type(pair) is tuple for pair in g.edges.values())
    assert json.loads(io.to_json(g))["edges"] == [
        {"id": 1, "a": 0, "b": 2}, {"id": 2, "a": 1, "b": 2}]
    assert io.from_json(io.to_json(g)) == g


def test_json_output_is_deterministic():
    g = catalog.build("G3").graph
    assert io.to_json(g) == io.to_json(g)
    data = json.loads(io.to_json(g))
    assert [rec["id"] for rec in data["edges"]] == sorted(g.edges)


@pytest.mark.parametrize("data", [
    [{"id": 1, "a": 0, "b": 1}],
    {"vertices": [0, 1], "edges": [{"id": 1, "a": 0}]},
    {"vertices": [0, 1], "edges": [[1, 0, 1]]},
    {"vertices": [0, 1], "edges": [{"id": "x", "a": 0, "b": 1}]},
    {"vertices": [[0], 1], "edges": []},
    {"vertices": [0, 1, 2], "edges": [{"id": 1, "a": 0, "b": 1},
                                      {"id": 1, "a": 1, "b": 2}]},
], ids=["not-an-object", "missing-b", "record-not-an-object", "string-id",
        "list-vertex", "duplicate-id"])
def test_json_rejects_malformed_graphs(data):
    with pytest.raises(GraphError):
        io.from_json(json.dumps(data))


def test_json_rejects_invalid_json():
    with pytest.raises(GraphError):
        io.from_json('{"vertices": [0, 1], "edges": [')


def test_graph6_k5():
    assert io.to_graph6(complete_graph(5)) == "D~{"
    g = io.from_graph6("D~{")
    assert are_isomorphic(g, complete_graph(5)) is not None


def test_graph6_round_trip_catalog():
    for name in ("K33", "K33_11", "G5", "FIG2_B"):
        g = catalog.build(name).graph
        back = io.from_graph6(io.to_graph6(g))
        assert are_isomorphic(g, back) is not None


def test_graph6_header_accepted():
    assert io.from_graph6(">>graph6<<D~{").n == 5


def test_graph6_rejects_the_long_form():
    """A "~" header marks n > 62, which neither reader nor writer takes."""
    empty_63 = "~??~" + "?" * (63 * 62 // 2 // 6 + 1)
    with pytest.raises(GraphError, match="at most 62 vertices"):
        io.from_graph6(empty_63)
    with pytest.raises(GraphError, match="at most 62 vertices"):
        io.to_graph6(LabeledMultigraph(range(63), {}))


def test_graph6_rejects_multigraphs():
    g = LabeledMultigraph({0, 1}, {1: (0, 1), 2: (0, 1)})
    with pytest.raises(GraphError):
        io.to_graph6(g)


def test_graph6_rejects_garbage():
    with pytest.raises(GraphError):
        io.from_graph6("")
    with pytest.raises(GraphError):
        io.from_graph6("D")  # truncated body


def test_load_graph_sniffs_format(tmp_path):
    g = catalog.build("K33_01").graph
    jpath = tmp_path / "g.json"
    jpath.write_text(io.to_json(g))
    assert io.load_graph(jpath) == g
    gpath = tmp_path / "g.g6"
    gpath.write_text(io.to_graph6(g))
    assert are_isomorphic(io.load_graph(gpath), g) is not None
    bare = tmp_path / "noext"
    bare.write_text(io.to_graph6(g))
    assert are_isomorphic(io.load_graph(bare), g) is not None


def test_load_graph_reads_json_whatever_the_file_name(tmp_path):
    g = catalog.build("K33_01").graph
    path = tmp_path / "g.g6"
    path.write_text(io.to_json(g))
    assert io.load_graph(path) == g
