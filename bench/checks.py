"""Independent checks of the program's outputs.

Nothing here calls the program's search, generation or isomorphism code:
graphs are rebuilt in networkx from their edge lists, minor models are
re-derived from their (C, D) sets, minors are decided by a partition
oracle, and matroid witnesses are recomputed by GF(2) elimination.  Each
check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import functools
import warnings
from itertools import combinations, permutations

import networkx as nx

# -- patterns, defined apart from the program's catalog ------------------

def _k33_extension(i, j):
    """K3,3 on u0,u1,u2 | v0,v1,v2 plus i u-side and j v-side edges."""
    g = nx.complete_bipartite_graph(3, 3)  # 0,1,2 | 3,4,5
    g.add_edges_from([(1, 2), (0, 1), (0, 2)][:i])
    g.add_edges_from([(4, 5), (3, 4), (3, 5)][:j])
    return g


PATTERNS = {
    "K5": nx.complete_graph(5),
    "K33": _k33_extension(0, 0),
    "K33_01": _k33_extension(0, 1),
    "K33_02": _k33_extension(0, 2),
    "K33_11": _k33_extension(1, 1),
}


# -- graphs ----------------------------------------------------------------

def to_nx(g):
    """A simple program graph as a networkx graph on the same vertices."""
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges.values())
    return out


def wl_key(g):
    """An isomorphism invariant: sizes, degrees and a Weisfeiler-Lehman hash."""
    with warnings.catch_warnings():
        # The hash is only a bucket key, so the change of hash values
        # networkx warns about does not matter here.
        warnings.filterwarnings("ignore", message="The hashes produced")
        wl = nx.weisfeiler_lehman_graph_hash(g, iterations=3)
    return (g.number_of_nodes(), g.number_of_edges(),
            tuple(sorted(d for _, d in g.degree())), wl)


def class_buckets(graphs):
    """Graphs grouped by a cheap invariant, for isomorphism tests."""
    buckets = {}
    for i, g in enumerate(graphs):
        buckets.setdefault(wl_key(g), []).append(i)
    return buckets


def isomorphism_classes(graphs):
    """One networkx graph per isomorphism class, in first-seen order."""
    buckets = {}
    out = []
    for g in graphs:
        seen = buckets.setdefault(wl_key(g), [])
        if not any(nx.is_isomorphic(g, h) for h in seen):
            seen.append(g)
            out.append(g)
    return out


def pairwise_non_isomorphic(graphs):
    """Problems if two of the networkx graphs are isomorphic."""
    if len(isomorphism_classes(graphs)) < len(graphs):
        return ["two of %d graphs are isomorphic" % len(graphs)]
    return []


def same_classes(graphs, reference):
    """Problems unless the two lists hold the same isomorphism classes.

    Both lists must already be pairwise non-isomorphic.
    """
    if len(graphs) != len(reference):
        return ["%d classes, expected %d" % (len(graphs), len(reference))]
    ref = class_buckets(reference)
    for i, g in enumerate(graphs):
        cands = ref.get(wl_key(g), [])
        if not any(nx.is_isomorphic(g, reference[j]) for j in cands):
            return ["class %d has no isomorph in the reference" % i]
    return []


def is_three_connected(g):
    """networkx's verdict: g - v is biconnected for every vertex v."""
    return g.number_of_nodes() >= 4 and all(
        nx.is_biconnected(g.subgraph(set(g) - {v})) for v in g)


# -- minor models ----------------------------------------------------------

def rederive_model(model, host, pattern_graph, required=()):
    """Problems with a MinorModel: re-contract C, delete D, check the map.

    `pattern_graph` is the program's pattern (the map names its vertices);
    the caller checks it against PATTERNS separately.
    """
    edges = dict(host.edges)
    if dict(model.host.edges) != edges:
        return ["model is for another host"]
    c, d = set(model.contracted), set(model.deleted)
    if c & d or not (c | d) <= set(edges):
        return ["C and D overlap or name unknown edges"]
    forest = nx.MultiGraph()
    forest.add_nodes_from(host.vertices)
    forest.add_edges_from(edges[e] for e in c)
    if not nx.is_forest(forest):
        return ["C is not a forest"]
    block = {}
    for comp in nx.connected_components(forest):
        rep = min(comp)
        block.update((v, rep) for v in comp)
    kept = [e for e in edges if e not in c and e not in d]
    for e in required:
        if e not in kept:
            return ["required edge %r is contracted or deleted" % (e,)]
    minor = nx.MultiGraph()
    for e in kept:
        a, b = edges[e]
        minor.add_edge(block[a], block[b])
    iso = model.iso
    pat_nodes = set(pattern_graph.vertices)
    if set(iso) != set(minor.nodes) or set(iso.values()) != pat_nodes \
            or len(iso) != len(pat_nodes):
        return ["map is not a bijection onto the pattern"]
    image = sorted(tuple(sorted((iso[a], iso[b]))) for a, b in minor.edges())
    target = sorted(tuple(sorted(p)) for p in pattern_graph.edges.values())
    if image != target:
        return ["stored map is not an isomorphism onto the pattern"]
    return []


def _partitions(vertices, k):
    """Set partitions of `vertices` into exactly k blocks."""
    vertices = list(vertices)
    n = len(vertices)

    def rec(i, blocks):
        if n - i < k - len(blocks):
            return
        if i == n:
            yield blocks
            return
        v = vertices[i]
        for blk in blocks:
            blk.append(v)
            yield from rec(i + 1, blocks)
            blk.pop()
        if len(blocks) < k:
            blocks.append([v])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def has_minor(host, pattern, pinned=()):
    """Whether the networkx host has a `pattern` minor keeping `pinned` edges.

    A connected host has a minor of a connected pattern on k vertices iff
    its vertices split into k connected blocks whose quotient contains a
    copy of the pattern.  A pinned edge must join two blocks and lie in
    that copy.  Feasible for hosts of about 8 vertices.
    """
    k = pattern.number_of_nodes()
    bit = {(i, j): 1 << n for n, (i, j) in enumerate(combinations(range(k), 2))}
    copies = _copies(frozenset(map(frozenset, pattern.edges())), k)
    adj = {v: set(host[v]) for v in host}
    edges = list(host.edges())
    for blocks in _partitions(sorted(host), k):
        where = {v: i for i, b in enumerate(blocks) for v in b}
        if not all(_connected(b, adj, where) for b in blocks):
            continue
        pins = 0
        for a, b in pinned:
            pair = bit.get(tuple(sorted((where[a], where[b]))), 0)
            if not pair or pins & pair:
                break
            pins |= pair
        else:
            quotient = 0
            for a, b in edges:
                quotient |= bit.get(tuple(sorted((where[a], where[b]))), 0)
            if any(c & quotient == c and c & pins == pins for c in copies):
                return True
    return False


@functools.lru_cache(maxsize=None)
def _copies(edges, k):
    """Edge bitmasks of every labeled copy of a k-vertex pattern in K_k."""
    bit = {frozenset(p): 1 << n for n, p in enumerate(combinations(range(k), 2))}
    nodes = sorted({v for e in edges for v in e})
    out = set()
    for perm in permutations(range(k)):
        place = dict(zip(nodes, perm))
        out.add(sum(bit[frozenset(place[v] for v in e)] for e in edges))
    return tuple(sorted(out))


def _connected(block, adj, where):
    home = where[block[0]]
    seen = {block[0]}
    todo = [block[0]]
    while todo:
        v = todo.pop()
        for u in adj[v]:
            if u not in seen and where[u] == home:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(block)


# -- GF(2) matroids --------------------------------------------------------

def gf2_rank(vectors):
    basis = {}
    for v in vectors:
        while v:
            t = v.bit_length() - 1
            if t not in basis:
                basis[t] = v
                break
            v ^= basis[t]
    return len(basis)


def columns_of_rows(rows):
    """Column bitmasks of a 0/1 matrix given as row lists."""
    return [sum(row[j] << i for i, row in enumerate(rows))
            for j in range(len(rows[0]))]


def incidence_columns(edges):
    """Columns of a graph's vertex-edge incidence matrix over GF(2)."""
    return [(1 << a) ^ (1 << b) for a, b in edges]


def minor_profile(columns, contract=(), delete=()):
    """(rank, size, sorted circuit sizes) of M/contract\\delete.

    `columns` maps element -> GF(2) column; ranks in the minor are
    r(X + C) - r(C).
    """
    base = [columns[e] for e in contract]
    rc = gf2_rank(base)
    rest = [e for e in columns if e not in set(contract) | set(delete)]
    cols = [columns[e] for e in rest]
    n = len(cols)
    rank = [0] * (1 << n)
    for mask in range(1, 1 << n):
        rank[mask] = gf2_rank(base + [cols[j] for j in range(n)
                                      if mask >> j & 1]) - rc
    sizes = []
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if rank[mask] == size - 1 and all(
                rank[mask ^ (1 << j)] == size - 1
                for j in range(n) if mask >> j & 1):
            sizes.append(size)
    return rank[(1 << n) - 1], n, tuple(sorted(sizes))
