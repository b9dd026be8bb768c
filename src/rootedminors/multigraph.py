"""Labeled multigraph kernel: minor operations, simplification, connectivity.

Vertices are integers.  Edges are integers mapped to unordered endpoint
pairs; loops and parallel edges are allowed.  Edge ids are stable: deletion
and contraction never rename a surviving edge.  All operations return new
graphs; instances are never mutated after construction.

Adjacency is one int mask per vertex: neighbour_masks sets bit i for the
i-th vertex in sorted order, loops and multiplicities left out.  Triangles,
edge additions, is_three_connected and the minor search read these masks,
and the one walk, connected, decides whether a vertex mask induces a
connected graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .isomorphism import orbit_firsts


class GraphError(ValueError):
    """Raised for missing elements or malformed graph operations."""


class LabeledMultigraph:
    __slots__ = ("_vertices", "_edges")

    def __init__(self, vertices, edges=None):
        self._vertices = frozenset(vertices)
        norm = {}
        for eid, pair in (edges or {}).items():
            a, b = pair
            if a not in self._vertices or b not in self._vertices:
                raise GraphError("edge %r endpoint not in vertex set" % (eid,))
            eid = int(eid)
            if eid in norm:
                raise GraphError("duplicate edge id %r" % (eid,))
            if a > b or type(pair) is not tuple:  # else share the tuple
                pair = (a, b) if a <= b else (b, a)
            norm[eid] = pair
        self._edges = norm

    # -- basic accessors -------------------------------------------------

    @property
    def vertices(self):
        return self._vertices

    def sorted_vertices(self):
        return sorted(self._vertices)

    @property
    def edges(self):
        return dict(self._edges)

    def endpoints(self, e):
        try:
            return self._edges[e]
        except KeyError:
            raise GraphError("missing edge %r" % (e,)) from None

    @property
    def n(self):
        return len(self._vertices)

    @property
    def m(self):
        return len(self._edges)

    def has_edge(self, e):
        return e in self._edges

    def incident(self, v):
        """Sorted ids of edges incident to v (loops included once)."""
        return sorted(e for e, (a, b) in self._edges.items() if v == a or v == b)

    def edges_between(self, u, v):
        key = (u, v) if u <= v else (v, u)
        return sorted(e for e, pair in self._edges.items() if pair == key)

    def is_simple(self):
        seen = set()
        for a, b in self._edges.values():
            if a == b or (a, b) in seen:
                return False
            seen.add((a, b))
        return True

    # -- construction helpers --------------------------------------------

    def with_edge(self, eid, a, b):
        if eid in self._edges:
            raise GraphError("edge id %r already present" % (eid,))
        edges = dict(self._edges)
        edges[eid] = (a, b)
        vertices = self._vertices
        return LabeledMultigraph(
            vertices if {a, b} <= vertices else vertices | {a, b}, edges)

    def fresh_edge_id(self):
        return max(self._edges, default=0) + 1

    def fresh_vertex_id(self):
        return max(self._vertices, default=-1) + 1

    # -- minor operations --------------------------------------------------

    def contract_edge(self, e):
        """Contract edge e, merging its endpoints into the smaller vertex id.

        Parallel companions of e become loops and are retained.  Contracting
        a loop just removes it.
        """
        a, b = self.endpoints(e)
        merge = {max(a, b): min(a, b)}
        return LabeledMultigraph({merge.get(v, v) for v in self._vertices},
                                 self.relabeled_edges(merge, {e}))

    def relabeled_edges(self, merge, drop=()):
        """Edge id -> endpoints renamed by `merge`, for every edge not in
        `drop`; a vertex that `merge` does not map keeps its name."""
        return {e: (merge.get(a, a), merge.get(b, b))
                for e, (a, b) in self._edges.items() if e not in drop}

    def simplify(self):
        """Remove loops and all but one edge per parallel class.

        The representative of each class is its smallest edge id.  Returns
        (graph, kept) where kept maps every non-loop edge id to its class
        representative.
        """
        classes = {}
        for eid, (a, b) in sorted(self._edges.items()):
            if a == b:
                continue
            classes.setdefault((a, b), []).append(eid)
        kept = {}
        edges = {}
        for pair, ids in classes.items():
            rep = min(ids)
            edges[rep] = pair
            for e in ids:
                kept[e] = rep
        return LabeledMultigraph(self._vertices, edges), kept

    def split_vertex(self, split):
        """Expand a vertex into two adjacent vertices (inverse of contraction).

        The edges in split.part_a stay on the original vertex, those in
        split.part_b move to a fresh vertex, and the two are joined by the
        edge split.new_edge_id.  Contracting that edge recovers the graph
        up to vertex naming.
        """
        v = split.vertex
        if v not in self._vertices:
            raise GraphError("missing vertex %r" % (v,))
        part_a, part_b = set(split.part_a), set(split.part_b)
        inc = set(self.incident(v))
        if part_a & part_b or (part_a | part_b) != inc:
            raise GraphError("parts must partition the incident edges of %r" % (v,))
        if len(part_a) < 2 or len(part_b) < 2:
            raise GraphError("both parts must contain at least 2 edges")
        if split.new_edge_id in self._edges:
            raise GraphError("edge id %r already present" % (split.new_edge_id,))
        w = self.fresh_vertex_id()
        edges = {}
        for eid, (a, b) in self._edges.items():
            if eid in part_b:
                if a == v:
                    a = w
                if b == v:
                    b = w
            edges[eid] = (a, b)
        edges[split.new_edge_id] = (v, w)
        return LabeledMultigraph(self._vertices | {w}, edges)

    # -- triangles ---------------------------------------------------------

    def triangles(self):
        """All 3-edge sets forming a cycle on 3 distinct vertices.

        Parallel edges yield distinct triangles.  Output is deterministic:
        sorted id triples in sorted order.
        """
        ids = {}
        for e, pair in self._edges.items():
            ids.setdefault(pair, []).append(e)
        verts, nbr = neighbour_masks(self)
        out = []
        for i, a in enumerate(verts):
            for j in bits(nbr[i] & -(2 << i)):  # b above a, then c above b
                b = verts[j]
                for k in bits(nbr[i] & nbr[j] & -(2 << j)):
                    c = verts[k]
                    out.extend(tuple(sorted(t)) for t in product(
                        ids[(a, b)], ids[(b, c)], ids[(a, c)]))
        return sorted(out)

    # -- comparison / repr ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LabeledMultigraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self):
        return hash((self._vertices, tuple(sorted(self._edges.items()))))

    def __repr__(self):
        return "LabeledMultigraph(n=%d, m=%d)" % (self.n, self.m)


@dataclass(frozen=True)
class VertexSplit:
    """Partition of a vertex's incident edges for an expansion."""

    vertex: int
    part_a: frozenset
    part_b: frozenset
    new_edge_id: int


def three_connected_splits(g, autos=()):
    """Every simple 3-connected single-vertex split of g, as (graph, split).

    Only vertices of degree >= 4 qualify, since a part of one edge would
    leave a degree-2 end.  The smallest incident edge stays on the vertex,
    so each partition is produced once; vertices are taken in sorted order.
    Given generators `autos` of Aut(g), g simple, only the first split of
    each orbit is built: a split is named by its vertex and the two sets of
    neighbours its parts reach, and an automorphism carrying one split to
    another carries the first graph onto the second.
    """
    eid = g.fresh_edge_id()
    splits = {}
    for v in g.sorted_vertices():
        inc = g.incident(v)
        if len(inc) < 4:
            continue
        first, rest = inc[0], inc[1:]
        for k in range(1, len(rest) - 1):
            for combo in combinations(rest, k):
                part_a = frozenset((first,) + combo)
                split = VertexSplit(v, part_a, frozenset(rest) - part_a, eid)
                splits[_split_key(g, split) if autos else split] = split
    out = []
    for key in orbit_firsts(splits, autos):
        h = g.split_vertex(splits[key])
        if h.is_simple() and is_three_connected(h):
            out.append((h, splits[key]))
    return out


def _split_key(g, split):
    """(v, {neighbours through each part}); g simple, so a + b - v is one."""
    v = split.vertex
    return v, frozenset(frozenset(sum(g.endpoints(e)) - v for e in part)
                        for part in (split.part_a, split.part_b))


def edge_additions(g, autos=()):
    """Every g + ab for a non-adjacent pair a < b, as (graph, new edge id,
    (a, b)); the new edge takes g.fresh_edge_id() and pairs come in sorted
    order.  Given generators `autos` of Aut(g), only the first pair of each
    orbit is added, since an automorphism carrying ab to cd carries g + ab
    onto g + cd."""
    eid = g.fresh_edge_id()
    verts, nbr = neighbour_masks(g)
    full = (1 << len(verts)) - 1  # -(2 << i): the bits above i
    pairs = [frozenset((a, verts[j])) for i, a in enumerate(verts)
             for j in bits((full ^ nbr[i]) & -(2 << i))]
    return [(g.with_edge(eid, a, b), eid, (a, b))
            for a, b in map(sorted, orbit_firsts(pairs, autos))]


def complete_graph(n):
    vertices = range(n)
    edges = {}
    eid = 1
    for a, b in combinations(vertices, 2):
        edges[eid] = (a, b)
        eid += 1
    return LabeledMultigraph(vertices, edges)


def bits(mask):
    """Indices of the set bits of `mask`, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def neighbour_masks(g):
    """(sorted vertices, masks): bit j of masks[i] is set when the i-th and
    j-th vertices are adjacent; loops and parallel edges add nothing."""
    verts = g.sorted_vertices()
    index = {v: i for i, v in enumerate(verts)}
    nbr = [0] * len(verts)
    for a, b in g.edges.values():
        if a != b:
            nbr[index[a]] |= 1 << index[b]
            nbr[index[b]] |= 1 << index[a]
    return verts, nbr


def connected(nbr, alive):
    """Whether the vertices in the mask `alive` induce a connected graph
    under the neighbour masks nbr; no vertex at all counts as connected."""
    seen = stack = alive & -alive
    while stack:
        low = stack & -stack
        stack ^= low
        new = nbr[low.bit_length() - 1] & alive & ~seen
        seen |= new
        stack |= new
    return seen == alive


def _has_cut(nbr, k):
    """True iff removing some k of the vertices, k < len(nbr), disconnects
    the rest; a cut's bits are distinct, so their sum is their union."""
    full = (1 << len(nbr)) - 1
    return any(not connected(nbr, full ^ sum(cut)) for cut in
               combinations([1 << i for i in range(len(nbr))], k))


def is_three_connected(g):
    """True iff the simplification is 3-connected and has at least 4 vertices.

    Checked by direct enumeration of cut sets of size 0, 1 and 2.
    """
    _, nbr = neighbour_masks(g)
    if len(nbr) < 4 or any(mask.bit_count() < 3 for mask in nbr):
        return False
    return not any(_has_cut(nbr, k) for k in range(3))
