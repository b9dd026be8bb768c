"""Generators: exhaustive counts cross-checked two ways, random host sanity."""
import hashlib
import random

from rootedminors import catalog, generate, io
from rootedminors.isomorphism import are_isomorphic
from rootedminors.minors import is_planar
from rootedminors.multigraph import is_three_connected

# classes of simple graphs on n vertices
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# 3-connected classes
THREE_CONNECTED_COUNTS = {4: 1, 5: 3, 6: 17, 7: 136}


def test_edge_addition_counts_match_orbit_counting():
    for n, expected in GRAPH_COUNTS.items():
        if n <= 6:
            assert len(generate.all_graphs(n)) == expected
        assert generate.count_graphs_orbit(n) == expected


def test_edge_addition_counts_match_mask_brute_force():
    for n in range(1, 7):
        assert len(generate.all_graphs(n)) == generate.count_graphs_masks(n)


def test_no_two_representatives_are_isomorphic():
    graphs = generate.all_graphs(5)
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            assert are_isomorphic(g, h) is None


def _filtered(n):
    """The 3-connected classes on n vertices, by filtering all_graphs(n)."""
    return [g for g in generate.all_graphs(n) if is_three_connected(g)]


def test_three_connected_counts():
    for n, expected in THREE_CONNECTED_COUNTS.items():
        assert len(_filtered(n)) == expected


def test_wheel_closure_agrees_with_filtering():
    """Wheels closed under edge addition and vertex splitting give the same
    3-connected classes as filtering all_graphs, matched one-to-one up to
    isomorphism at every n <= 7.

    The exhaustive battery runs on the closure to n = 8.  Its 2388 classes
    at n = 8 (OEIS A006290) are pinned there: the K5 scan checks
    1 + 3 + 17 + 136 + 2388 - 1 = 2544 hosts, everything but K5 itself.
    """
    closure = generate.three_connected_by_wheels(7)
    for g in closure:
        assert g.is_simple() and is_three_connected(g)
    for n, expected in THREE_CONNECTED_COUNTS.items():
        ours = [g for g in closure if g.n == n]
        theirs = _filtered(n)
        assert len(ours) == len(theirs) == expected
        matched = set()
        for g in theirs:
            hits = [i for i, h in enumerate(ours)
                    if are_isomorphic(g, h) is not None]
            assert len(hits) == 1, (n, hits)
            matched.add(hits[0])
        assert len(matched) == expected


def test_closure_meets_the_same_representatives_in_order():
    """The closure's representatives, in order, as graph6: the digest was
    taken when classes were still found by pairwise isomorphism tests."""
    g6 = "\n".join(io.to_graph6(g)
                   for g in generate.three_connected_by_wheels(7))
    assert hashlib.sha256(g6.encode()).hexdigest() == (
        "4fd550bfe3d951c5aa70a2e12f0ef4ad2ee4b4cd4ab36966521b90df93c27989")


def test_wheels():
    w3 = generate.wheel(3)
    assert w3.n == 4 and w3.m == 6
    assert is_three_connected(generate.wheel(6))


def test_random_nonplanar_hosts():
    rng = random.Random(11)
    for _ in range(25):
        g = generate.random_nonplanar_host(rng)
        assert g.n <= 12
        assert g.is_simple()
        assert is_three_connected(g)
        assert not is_planar(g)
        assert are_isomorphic(g, catalog.build("K5").graph) is None
        assert g.n >= 6  # K5 is the only 3-connected non-planar 5-vertex graph


def test_random_hosts_are_reproducible():
    rng_a, rng_b = random.Random(3), random.Random(3)
    a = [generate.random_host(rng_a) for _ in range(5)]
    b = [generate.random_host(rng_b) for _ in range(5)]
    assert a == b
    assert all(g.m <= 12 for g in a)
