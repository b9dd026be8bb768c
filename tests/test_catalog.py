"""Catalog entries: counts, labels, and the published contraction identities."""
import pytest

from rootedminors import catalog
from rootedminors.isomorphism import are_isomorphic
from rootedminors.multigraph import (GraphError, LabeledMultigraph,
                                     is_three_connected)

EXPECTED_SIZES = {
    "K33": (6, 9), "K33_01": (6, 10), "K33_02": (6, 11), "K33_11": (6, 11),
    "K33_12": (6, 12), "K33_22": (6, 13), "K33_03": (6, 12), "K33_13": (6, 13),
    "K5": (5, 10),
    "G1": (7, 11), "G2": (7, 12), "G3": (7, 12), "G4": (7, 12),
    "G5": (7, 12), "G6": (7, 12),
    "FIG2_A": (7, 11), "FIG2_B": (7, 13),
    "FIG5_1": (7, 13), "FIG5_2": (7, 13), "FIG5_3": (7, 13),
}


def test_list_has_20_entries():
    assert len(catalog.list_names()) == 20
    assert set(catalog.list_names()) == set(EXPECTED_SIZES)


def test_list_order_is_pinned():
    """The order decides which patterns oracle_equivalence's seeded draws
    pick."""
    assert catalog.list_names() == [
        "K33", "K33_01", "K33_02", "K33_11", "K33_12", "K33_22", "K33_03",
        "K33_13", "K5", "G1", "G2", "G3", "G4", "G5", "G6",
        "FIG2_A", "FIG2_B", "FIG5_1", "FIG5_2", "FIG5_3"]


@pytest.mark.parametrize("name", sorted(EXPECTED_SIZES))
def test_entry_sizes(name):
    g = catalog.build(name).graph
    assert (g.n, g.m) == EXPECTED_SIZES[name]
    assert g.is_simple()


@pytest.mark.parametrize("name", [
    "K33", "K33_01", "K33_02", "K33_11", "K33_12", "K33_22", "K33_03",
    "K33_13", "K5", "G1", "G2", "G3", "G4", "G5", "G6",
])
def test_core_entries_are_three_connected(name):
    assert is_three_connected(catalog.build(name).graph)


@pytest.mark.parametrize("name", ["FIG5_1", "FIG5_2", "FIG5_3"])
def test_subdivision_hosts_are_not_three_connected(name):
    # each has a degree-2 subdivision vertex
    entry = catalog.build(name)
    assert len(entry.graph.incident(entry.vertex("v"))) == 2
    assert not is_three_connected(entry.graph)


def test_role_lookup():
    entry = catalog.build("K33_11")
    assert entry.vertex("u1") == 0
    e = entry.edge("u2", "u3")
    assert set(entry.graph.endpoints(e)) == {entry.vertex("u2"),
                                             entry.vertex("u3")}


def test_role_errors():
    entry = catalog.build("K33")
    with pytest.raises(GraphError):
        entry.vertex("w1")
    with pytest.raises(GraphError):
        entry.edge("u1", "u2")  # not adjacent in K3,3


def test_unknown_name():
    with pytest.raises(GraphError):
        catalog.build("K34")


def _contract(name, ra, rb):
    entry = catalog.build(name)
    return entry.graph.contract_edge(entry.edge(ra, rb))


def _delete(name, ra, rb):
    entry = catalog.build(name)
    e = entry.edge(ra, rb)
    return LabeledMultigraph(entry.graph.vertices, {
        f: pair for f, pair in entry.graph.edges.items() if f != e})


def _iso(g, target):
    return are_isomorphic(g, catalog.build(target).graph) is not None


def test_extension_family_nesting():
    # deleting one added edge steps down the i+j ladder
    assert _iso(_delete("K33_12", "u2", "u3"), "K33_02")
    assert _iso(_delete("K33_12", "v1", "v2"), "K33_11")


def test_g3_contractions_hit_k33_02():
    for ra, rb in (("w1", "w2"), ("v1", "w2"), ("v3", "w2")):
        assert _iso(_contract("G3", ra, rb), "K33_02")


def test_g4_contraction_hits_k33_02():
    assert _iso(_contract("G4", "w1", "w2"), "K33_02")


def test_g5_g6_contractions_hit_k33_11():
    for name in ("G5", "G6"):
        g = _contract(name, "w1", "w2")
        sg, _ = g.simplify()
        assert _iso(sg, "K33_11")


def test_fig5_hosts_contain_k33_11_after_suppressing_the_subdivision():
    for name in ("FIG5_1", "FIG5_2", "FIG5_3"):
        entry = catalog.build(name)
        v = entry.vertex("v")
        e = sorted(entry.graph.incident(v))[0]
        g = entry.graph.contract_edge(e)
        sg, _ = g.simplify()
        assert sg.n == 6
        assert _iso(sg, "K33_11")
