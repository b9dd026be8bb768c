"""Multigraph kernel: construction, minors, simplify, splits, connectivity."""
import random
from itertools import combinations

import networkx as nx
import pytest

from rootedminors import catalog, generate
from rootedminors.isomorphism import are_isomorphic
from rootedminors.minors import apply_model
from rootedminors.multigraph import (
    GraphError,
    LabeledMultigraph,
    VertexSplit,
    complete_graph,
    cycle_graph,
    edge_additions,
    is_connected,
    is_three_connected,
    three_connected_splits,
    vertex_connectivity,
)


def test_basic_accessors():
    g = LabeledMultigraph({0, 1, 2}, {1: (0, 1), 2: (1, 2), 3: (1, 1)})
    assert g.n == 3 and g.m == 3
    assert g.endpoints(1) == (0, 1)
    assert g.endpoints(3) == (1, 1)
    assert g.degree(1) == 4  # loop counts twice
    assert g.neighbors(1) == [0, 1, 2]  # the loop makes 1 its own neighbor
    assert g.neighbors(0) == [1]
    assert g.multiplicity(0, 1) == 1
    assert not g.is_simple()


def test_edge_endpoints_must_be_vertices():
    with pytest.raises(GraphError):
        LabeledMultigraph({0, 1}, {1: (0, 5)})


def test_contract_keeps_smaller_vertex_id():
    g = LabeledMultigraph({3, 7}, {1: (3, 7)})
    h = g.contract_edge(1)
    assert h.sorted_vertices() == [3]
    assert h.m == 0


def test_contract_turns_parallel_edges_into_loops():
    g = LabeledMultigraph({0, 1, 2}, {1: (0, 1), 2: (0, 1), 3: (1, 2)})
    h = g.contract_edge(1)
    assert h.endpoints(2) == (0, 0)
    assert h.m == 2


def test_contract_loop_is_deletion():
    g = LabeledMultigraph({0, 1}, {1: (0, 0), 2: (0, 1)})
    h = g.contract_edge(1)
    assert h.n == 2 and h.m == 1


def test_contract_added_edge_of_k33_11_gives_k5_shape():
    entry = catalog.build("K33_11")
    h = entry.graph.contract_edge(entry.edge("u1", "v1"))
    assert are_isomorphic(h, catalog.build("K5").graph) is not None


def test_delete_added_edge_recovers_k33():
    entry = catalog.build("K33_01")
    e = entry.edge("v2", "v3")
    h = LabeledMultigraph(entry.graph.vertices, {
        f: pair for f, pair in entry.graph.edges.items() if f != e})
    assert are_isomorphic(h, catalog.build("K33").graph) is not None


def test_simplify_keeps_smallest_id():
    g = LabeledMultigraph({0, 1, 2}, {3: (0, 1), 7: (0, 1), 2: (1, 2), 4: (2, 2)})
    sg, kept = g.simplify()
    assert sg.is_simple()
    assert set(sg.edges) == {3, 2}
    assert kept[7] == 3 and kept[3] == 3


def test_simplify_is_idempotent_and_keeps_vertices():
    g = LabeledMultigraph({0, 1, 2, 9}, {1: (0, 1), 2: (0, 1), 3: (1, 1)})
    sg, _ = g.simplify()
    assert sg.sorted_vertices() == [0, 1, 2, 9]
    sg2, _ = sg.simplify()
    assert sg2 == sg


def test_minor_edge_ids_are_stable():
    g = complete_graph(5)
    ids = sorted(g.edges)
    keep = apply_model(g, ids[:2], ids[2:4])
    assert set(keep.edges) == set(ids) - set(ids[:4])


def test_contraction_commutes_for_disjoint_edges():
    g = complete_graph(6)
    e, f = 1, 15  # disjoint endpoint pairs in the sorted-pair numbering
    a, b = g.endpoints(e), g.endpoints(f)
    assert not set(a) & set(b)
    h1 = g.contract_edge(e).contract_edge(f)
    h2 = g.contract_edge(f).contract_edge(e)
    assert h1 == h2


def test_split_vertex_round_trip():
    entry = catalog.build("K33_01")
    g = entry.graph
    v = entry.vertex("v2")
    inc = sorted(g.incident(v))
    split = VertexSplit(v, frozenset(inc[:2]), frozenset(inc[2:]),
                        g.fresh_edge_id())
    h = g.split_vertex(split)
    assert h.n == g.n + 1 and h.m == g.m + 1
    back = h.contract_edge(split.new_edge_id)
    assert are_isomorphic(back, g) is not None


def test_split_of_degree_4_vertex_of_k33_01_can_give_g1():
    entry = catalog.build("K33_01")
    g = entry.graph
    v = entry.vertex("v2")
    inc = sorted(g.incident(v))
    g1 = catalog.build("G1").graph
    hits = 0
    for pair in combinations(inc, 2):
        rest = frozenset(inc) - frozenset(pair)
        h = g.split_vertex(VertexSplit(v, frozenset(pair), rest,
                                       g.fresh_edge_id()))
        if are_isomorphic(h, g1) is not None:
            hits += 1
    assert hits > 0


def test_split_rejects_singleton_part():
    g = complete_graph(5)
    inc = sorted(g.incident(0))
    with pytest.raises(GraphError):
        g.split_vertex(VertexSplit(0, frozenset(inc[:1]), frozenset(inc[1:]),
                                   g.fresh_edge_id()))


def test_triangles_counts():
    assert catalog.build("K33").graph.triangles() == []
    assert len(catalog.build("K5").graph.triangles()) == 10
    # one added edge per side, each seeing the three opposite vertices
    assert len(catalog.build("K33_11").graph.triangles()) == 6
    assert len(catalog.build("K33_02").graph.triangles()) == 6


def test_triangles_respect_parallel_edges():
    g = LabeledMultigraph({0, 1, 2}, {1: (0, 1), 2: (1, 2), 3: (0, 2), 4: (0, 1)})
    assert len(g.triangles()) == 2


def test_triangles_match_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        g = generate.random_host(rng, max_edges=14)
        brute = []
        for tri in combinations(sorted(g.edges), 3):
            pairs = [g.endpoints(e) for e in tri]
            ends = [v for pair in pairs for v in pair]
            if (all(a != b for a, b in pairs) and len(set(ends)) == 3
                    and len(set(pairs)) == 3):
                brute.append(tri)
        assert g.triangles() == brute


def test_vertex_connectivity_values():
    assert vertex_connectivity(complete_graph(5)) == 4
    assert vertex_connectivity(catalog.build("K33").graph) == 3
    assert vertex_connectivity(cycle_graph(5)) == 2


def _brute_force_connectivity(g):
    sg, _ = g.simplify()
    verts = sg.sorted_vertices()
    if sg.is_simple() and sg.m == len(verts) * (len(verts) - 1) // 2:
        return len(verts) - 1
    for k in range(len(verts)):
        for cut in combinations(verts, k):
            keep = [v for v in verts if v not in cut]
            edges = {e: (a, b) for e, (a, b) in sg.edges.items()
                     if a not in cut and b not in cut}
            rest = LabeledMultigraph(keep, edges)
            if rest.n and not is_connected(rest):
                return k
    return len(verts) - 1


def test_vertex_connectivity_matches_brute_force():
    cases = [complete_graph(4), cycle_graph(6),
             catalog.build("K33").graph, catalog.build("K33_11").graph,
             catalog.build("G1").graph, catalog.build("FIG5_1").graph]
    for g in cases:
        assert vertex_connectivity(g) == _brute_force_connectivity(g)


def test_connectivity_agrees_with_networkx():
    # networkx is the reference here: _brute_force_connectivity above
    # calls is_connected, the walk under test
    rng = random.Random(19)
    multi = [generate.random_host(rng) for _ in range(300)]
    assert not all(g.is_simple() for g in multi)
    graphs = generate.all_graphs(6)
    assert len(graphs) == 156
    for g in (*graphs, *multi):
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from((a, b) for a, b in g.edges.values() if a != b)
        kappa = nx.node_connectivity(nxg)
        assert vertex_connectivity(g) == kappa, g.edges
        assert is_connected(g) == nx.is_connected(nxg), g.edges
        assert is_three_connected(g) == (g.n >= 4 and kappa >= 3), g.edges


def test_is_three_connected():
    assert is_three_connected(catalog.build("G3").graph)
    assert not is_three_connected(cycle_graph(5))
    assert not is_three_connected(complete_graph(3))  # too few vertices
    assert not is_three_connected(catalog.build("FIG5_2").graph)


def test_is_connected():
    assert is_connected(cycle_graph(4))
    assert not is_connected(LabeledMultigraph({0, 1, 2}, {1: (0, 1)}))
    assert is_connected(LabeledMultigraph((), {}))
    assert is_connected(LabeledMultigraph({0}, {}))
    # a loop and a parallel pair neither join nor split components
    multi = {1: (0, 1), 2: (0, 1), 3: (2, 2), 4: (1, 2)}
    assert not is_connected(LabeledMultigraph({0, 1, 2, 3}, multi))
    assert is_connected(LabeledMultigraph({0, 1, 2, 3}, {**multi, 5: (2, 3)}))


@pytest.mark.parametrize("name, count", [
    ("K5", 15), ("K33_11", 12), ("K33", 0), ("K33_01", 6),
])
def test_three_connected_splits(name, count):
    g = catalog.build(name).graph
    splits = three_connected_splits(g)
    assert len(splits) == count
    partitions = set()
    for h, split in splits:
        assert split.part_a | split.part_b == set(g.incident(split.vertex))
        assert not split.part_a & split.part_b
        assert len(split.part_a) >= 2 and len(split.part_b) >= 2
        partitions.add((split.vertex, frozenset((split.part_a, split.part_b))))
        assert h.is_simple() and is_three_connected(h)
        back, _ = h.contract_edge(split.new_edge_id).simplify()
        assert are_isomorphic(back, g) is not None
    assert len(partitions) == count


def _check_edge_additions(g):
    before = (g.vertices, g.edges)
    adjacent = {frozenset(pair) for pair in g.edges.values()}
    expected = [pair for pair in combinations(g.sorted_vertices(), 2)
                if frozenset(pair) not in adjacent]
    added = edge_additions(g)
    assert [pair for _, _, pair in added] == expected
    for h, eid, (a, b) in added:
        assert eid == g.fresh_edge_id() and h.endpoints(eid) == (a, b)
        assert h.vertices == g.vertices and h.edges == {**g.edges, eid: (a, b)}
    assert (g.vertices, g.edges) == before


@pytest.mark.parametrize("name", catalog.list_names())
def test_edge_additions_on_catalog_graphs(name):
    _check_edge_additions(catalog.build(name).graph)


def test_edge_additions_with_parallel_edges_and_a_loop():
    g = LabeledMultigraph(range(5), {1: (0, 1), 2: (0, 1), 7: (1, 2),
                                     8: (2, 2), 9: (3, 4)})
    _check_edge_additions(g)
    assert [pair for _, _, pair in edge_additions(g)] == [
        (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]


def test_constructor_orders_pairs_and_keeps_ordered_tuples():
    pair = (1, 3)
    g = LabeledMultigraph(range(4), {1: pair, 2: (3, 0), 3: [2, 1], 4: [0, 2]})
    assert g.edges == {1: (1, 3), 2: (0, 3), 3: (1, 2), 4: (0, 2)}
    assert all(type(p) is tuple for p in g.edges.values())
    assert g.endpoints(1) is pair
    h = g.with_edge(5, 2, 3)
    assert all(h.endpoints(e) is g.endpoints(e) for e in g.edges)
    assert h.endpoints(5) == (2, 3)
