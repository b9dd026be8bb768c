"""Graph generation for exhaustive and randomized verification runs.

The exhaustive battery scans the 3-connected classes of a wheel-based
closure generator.  Edge-addition enumeration gives every simple graph;
filtered by is_three_connected it cross-checks the closure at small n, and
a permutation-orbit count cross-checks it in turn.  Both run through one
closure loop, which keeps a graph when its canonical code
(isomorphism.canonical_labeling) has not been met before.
Random host generators are driven by a caller-owned random.Random so runs
are reproducible from a seed.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from . import catalog
from .isomorphism import are_isomorphic, canonical_labeling
from .multigraph import (LabeledMultigraph, edge_additions,
                         is_three_connected, three_connected_splits)


def _closure(seeds, grow):
    """One representative per isomorphism class reachable from `seeds`,
    where grow(g) lists the graphs one step from g; classes come in the
    order they are first met, the frontier is a stack.  A graph is new
    when its canonical code has not been met: one labelling, one lookup.
    """
    classes = {}  # canonical code -> the first graph met with it

    def is_new(g):
        return classes.setdefault(canonical_labeling(g)[0], g) is g

    frontier = [g for g in seeds if is_new(g)]
    while frontier:
        frontier.extend(h for h in grow(frontier.pop()) if is_new(h))
    return list(classes.values())


def _edge_additions(g):
    return [h for h, _, _ in edge_additions(g)]


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


def count_graphs_orbit(n):
    """Number of isomorphism classes of simple graphs on n vertices.

    Independent of all_graphs: averages 2^(pair-orbits) over all vertex
    permutations (orbit counting), no graph construction involved.
    """
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    total = 0
    for perm in permutations(range(n)):
        seen = [False] * len(pairs)
        orbits = 0
        for i, (a, b) in enumerate(pairs):
            if seen[i]:
                continue
            orbits += 1
            x, y = a, b
            while True:
                x, y = perm[x], perm[y]
                j = index[(x, y) if x < y else (y, x)]
                if seen[j]:
                    break
                seen[j] = True
        total += 1 << orbits
    return total // factorial(n)


def count_graphs_masks(n):
    """Class count by brute force over all edge subsets; n <= 6 only."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = []
    for perm in permutations(range(n)):
        table = [0] * len(pairs)
        for i, (a, b) in enumerate(pairs):
            x, y = perm[a], perm[b]
            table[i] = index[(x, y) if x < y else (y, x)]
        perms.append(table)
    seen = set()
    count = 0
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        count += 1
        for table in perms:
            img = 0
            rest = mask
            while rest:
                low = rest & -rest
                img |= 1 << table[low.bit_length() - 1]
                rest ^= low
            seen.add(img)
    return count


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
    def grow(g):
        out = _edge_additions(g)
        if g.n < max_n:
            out.extend(h for h, _ in three_connected_splits(g))
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
        missing = [p for p in combinations(g.sorted_vertices(), 2)
                   if not g.multiplicity(*p)]
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
