"""Graph generation for exhaustive and randomized verification runs.

The exhaustive battery scans the 3-connected classes of a wheel-based
closure generator.  Edge-addition enumeration gives every simple graph;
filtered by is_three_connected it cross-checks the closure at small n, and
the tests' permutation-orbit counts cross-check it in turn.  Both run
through one closure loop, which keeps a graph when its canonical code
(isomorphism.canonical_labeling) has not been met before, and grows one
child per orbit of the automorphism group that the same labelling gives.
Random host generators are driven by a caller-owned random.Random so runs
are reproducible from a seed.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import catalog
from .isomorphism import are_isomorphic, canonical_labeling
from .multigraph import (LabeledMultigraph, edge_additions,
                         is_three_connected, three_connected_splits)


def _closure(seeds, grow):
    """One representative per isomorphism class reachable from `seeds`,
    where grow(g, autos) lists the graphs one step from g, one per orbit of
    the automorphisms that `autos` generates; classes come in the order
    they are first met, the frontier is a stack.  A graph is new when its
    canonical code has not been met: one labelling, one lookup.

    The labelling of a new class also gives generators of its group, and
    they stay on the frontier with it until it is grown.  A child that an
    automorphism of its parent maps from an earlier sibling is isomorphic
    to that sibling, whose code is then already known; so growing only the
    first child of each orbit meets the same representatives, in the same
    order and with the same edge ids, with fewer labellings.
    """
    classes = {}  # canonical code -> the first graph met with it

    def new(graphs):
        for g in graphs:
            code, _, autos = canonical_labeling(g)
            if classes.setdefault(code, g) is g:
                yield g, autos

    frontier = list(new(seeds))
    while frontier:
        frontier.extend(new(grow(*frontier.pop())))
    return list(classes.values())


def _edge_additions(g, autos):
    return [h for h, _, _ in edge_additions(g, autos)]


@lru_cache(maxsize=None)
def all_graphs(n):
    """All simple graphs on n vertices, one representative per isomorphism
    class, ordered by edge count.

    The result is cached and shared; treat it as read-only.

    Every class with m edges is some class with m-1 edges plus one edge, so
    closing the edgeless graph under edge addition is exhaustive.
    """
    return tuple(sorted(_closure([LabeledMultigraph(range(n))],
                                 _edge_additions), key=lambda g: g.m))


def wheel(spokes):
    """Wheel graph: a cycle of `spokes` rim vertices plus a hub joined to all."""
    if spokes < 3:
        raise ValueError("a wheel needs at least 3 rim vertices")
    pairs = [(0, i) for i in range(1, spokes + 1)]
    pairs += [(i, i + 1) for i in range(1, spokes)] + [(1, spokes)]
    return LabeledMultigraph(range(spokes + 1),
                             dict(enumerate(sorted(pairs), start=1)))


def three_connected_by_wheels(max_n):
    """All 3-connected simple graphs on <= max_n vertices via wheel closure.

    Every 3-connected simple graph arises from a wheel by edge additions
    and vertex splits, so closing the wheels under both operations is
    exhaustive.  The tests match it against all_graphs filtered by
    is_three_connected at n <= 7.
    """
    def grow(g, autos):
        out = _edge_additions(g, autos)
        if g.n < max_n:
            out.extend(h for h, _ in three_connected_splits(g, autos))
        return out

    return _closure([wheel(spokes) for spokes in range(3, max_n)], grow)


def random_nonplanar_host(rng, max_vertices=12):
    """A random 3-connected simple non-planar graph, never isomorphic to K5.

    A random subdivision of K5 or K3,3 keeps a Kuratowski minor, then random
    edge additions restore 3-connectivity.
    """
    while True:
        base = catalog.build(rng.choice(("K5", "K33"))).graph
        g = base
        for _ in range(rng.randint(0, max_vertices - base.n)):
            e = rng.choice(sorted(g.edges))
            a, b = g.endpoints(e)
            w = g.fresh_vertex_id()
            edges = dict(g.edges)
            del edges[e]
            edges[g.fresh_edge_id()] = (a, w)
            edges[g.fresh_edge_id() + 1] = (b, w)
            g = LabeledMultigraph(set(g.vertices) | {w}, edges)
        present = set(g.edges.values())
        missing = [p for p in combinations(g.sorted_vertices(), 2)
                   if p not in present]
        rng.shuffle(missing)
        while not is_three_connected(g) and missing:
            g = g.with_edge(g.fresh_edge_id(), *missing.pop())
        if not is_three_connected(g):
            continue
        if are_isomorphic(g, catalog.build("K5").graph) is not None:
            continue
        return g


def random_host(rng, max_edges=12):
    """A random small multigraph (parallels and loops allowed)."""
    n = rng.randint(4, 8)
    m = rng.randint(3, max_edges)
    verts = list(range(n))
    edges = {}
    for eid in range(1, m + 1):
        if rng.random() < 0.05:
            v = rng.choice(verts)
            edges[eid] = (v, v)
        else:
            a, b = rng.sample(verts, 2)
            edges[eid] = (min(a, b), max(a, b))
    return LabeledMultigraph(verts, edges)
