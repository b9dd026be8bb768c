"""Rooted minor search: explicit minor models with required-edge constraints.

A minor model is a pair (C, D) of disjoint edge sets, C a forest, together
with an isomorphism from host/C\\D (isolated vertices dropped) to the
pattern.  "Required" edges must survive into the minor's edge set, i.e. lie
outside C and D and map to pattern edges.  When the three edges of a host
triangle are all required, the keep-semantics force their images to form a
pattern triangle, which is the restriction condition triangle preservation
needs.

Patterns are simple and have no isolated vertices.  The search works on the
host's neighbour masks and connectivity walk from multigraph, and takes the
pattern's symmetry from the canonical labelling's generators, closed into
orbits by isomorphism.orbit and orbit_firsts.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import networkx as nx

from . import catalog
from .isomorphism import (are_isomorphic, canonical_labeling, is_isomorphism,
                          orbit, orbit_firsts)
from .multigraph import (GraphError, LabeledMultigraph, bits, connected,
                         is_three_connected, neighbour_masks)

DEFAULT_NODE_CAP = 10_000_000


class SearchBudgetExceeded(RuntimeError):
    """The node-expansion cap was hit; a defect at the supported scale."""


@dataclass(frozen=True)
class MinorModel:
    host: LabeledMultigraph
    contracted: frozenset
    deleted: frozenset
    pattern_name: str
    iso: dict  # result vertex -> pattern vertex

    def to_json_dict(self):
        return {
            "pattern": self.pattern_name,
            "contracted": sorted(self.contracted),
            "deleted": sorted(self.deleted),
            "iso": {str(v): p for v, p in sorted(self.iso.items())},
        }


def _spanning_forest(host, edges):
    """Union-find over `edges` in id order: (forest edges, vertex -> root).

    An edge joining two vertices already in one class is left out of the
    forest.  Each class is rooted at its smallest vertex.
    """
    parent = {v: v for v in host.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest = []
    for e in sorted(edges):
        a, b = host.endpoints(e)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            forest.append(e)
    return forest, {v: find(v) for v in host.vertices}


def forest_classes(host, contracted):
    """Vertex -> class root under the contracted edges; raises if C has a cycle."""
    forest, roots = _spanning_forest(host, contracted)
    left_out = set(contracted).difference(forest)
    if left_out:
        raise GraphError("contracted set is not a forest (edge %r)"
                         % (min(left_out),))
    return roots


def apply_model(host, contracted, deleted):
    """host/C\\D with stable edge ids; isolated leftover vertices are dropped."""
    contracted, deleted = frozenset(contracted), frozenset(deleted)
    if contracted & deleted:
        raise GraphError("contracted and deleted sets overlap")
    edges = host.relabeled_edges(forest_classes(host, contracted),
                                 contracted | deleted)
    touched = {v for pair in edges.values() for v in pair}
    return LabeledMultigraph(touched, edges)


def verify_model(model, pattern=None):
    """Re-derive the minor and check the stored isomorphism edge-by-edge.

    Returns (ok, diagnostics); nothing in the model is trusted.  Without
    `pattern`, the model's catalog name gives it, and a model of a graph
    pattern (whose name is empty) is rejected.
    """
    try:
        if pattern is None:
            pattern = catalog.build(model.pattern_name).graph
        result = apply_model(model.host, model.contracted, model.deleted)
    except GraphError as exc:
        return False, [str(exc)]
    if not is_isomorphism(result, pattern, model.iso):
        return False, ["iso is not an isomorphism from the minor onto the "
                       "pattern"]
    return True, []


def _connected_subsets(nbr, pool, must, max_size, budget):
    """Connected subsets of `pool` that contain `must`, up to max_size vertices.

    Vertex sets are int masks, bit i standing for the i-th host vertex, and
    nbr[i] is vertex i's neighbourhood.  Yields (subset, neighbourhood)
    pairs, the neighbourhood being the union of nbr over the subset.  Every
    subset is produced exactly once.  With `must`, all grow from its smallest
    vertex.  Without it, the subsets whose smallest vertex is r grow from r
    inside the pool's vertices from r up, so they come in increasing order of
    their smallest vertex.  `budget` is a one-element list counting
    expansions against the global node cap.
    """
    if max_size <= 0 or must & ~pool or must.bit_count() > max_size:
        return
    roots = must & -must if must else pool
    while roots:
        low = roots & -roots
        roots ^= low
        grow = pool if must else pool & -low
        r = low.bit_length() - 1
        first = nbr[r] & grow
        yield from _grow(nbr, must, max_size, budget, grow,
                         low, nbr[r], 1, bits(first), low | first)


def _grow(nbr, must, max_size, budget, grow, sub, reach, size, ext, seen):
    """The subsets below `sub` for _connected_subsets: ext lists the
    candidates in the order they were met; seen holds sub, ext and every
    candidate excluded above this node."""
    budget[0] -= 1
    if budget[0] < 0:
        raise SearchBudgetExceeded("minor search exceeded its node cap")
    if sub & must == must:
        yield sub, reach
    if size >= max_size:
        return
    for i, v in enumerate(ext):
        new = nbr[v] & grow & ~seen
        yield from _grow(nbr, must, max_size, budget, grow, sub | 1 << v,
                         reach | nbr[v], size + 1, ext[i + 1:] + bits(new),
                         seen | new)


@lru_cache(maxsize=32)
def _pattern_shape(pattern):
    """(sorted vertices, edges, unpinned placement order) of a pattern.

    Built once per pattern graph; the order puts larger degree first.  The
    search places one branch set per vertex and keeps one host edge per
    edge, so a pattern with a loop, a parallel edge or an isolated vertex
    raises GraphError: no model it could return would verify.
    """
    if not pattern.is_simple():
        raise GraphError("pattern must have no loops or parallel edges")
    vertices = tuple(pattern.sorted_vertices())
    edges = tuple(sorted(pattern.edges.values()))
    degree = dict.fromkeys(vertices, 0)
    for p, q in edges:
        degree[p] += 1
        degree[q] += 1
    if 0 in degree.values():
        raise GraphError("pattern must have no isolated vertices")
    return vertices, edges, tuple(sorted(vertices,
                                         key=lambda p: (-degree[p], p)))


def _generators(vertices, edges):
    """The canonical labelling's generators of Aut(pattern)."""
    return canonical_labeling(LabeledMultigraph(vertices,
                                                dict(enumerate(edges))))[2]


@lru_cache(maxsize=None)
def _automorphisms(vertices, edges):
    """Aut(pattern) as vertex -> vertex dicts, in lexicographic order of
    their images: the orbit of the identity arrangement under the
    generators."""
    images = orbit([vertices], _generators(vertices, edges))
    return tuple(dict(zip(vertices, moved)) for moved in sorted(images))


def _pin_assignments(required, host, pattern):
    """One host-vertex -> pattern-vertex pin map per orbit under Aut(pattern).

    A pin map sends each required host edge onto its own pattern edge
    (patterns are simple, so each pattern edge can keep only one host edge).
    Maps that differ by an automorphism of the pattern have models or not
    together, so only the first map of each orbit, in enumeration order, is
    yielded; the first map that succeeds is then the same as over all maps.
    """
    slots = {}
    shape = []
    for e in sorted(required):
        x, y = host.endpoints(e)
        shape.append((slots.setdefault(x, len(slots)),
                      slots.setdefault(y, len(slots))))
    vertex_of = sorted(slots, key=slots.get)
    vertices, edges, _ = _pattern_shape(pattern)
    for rep in _orbit_representatives(vertices, edges, tuple(shape)):
        yield dict(zip(vertex_of, rep))


@lru_cache(maxsize=None)
def _orbit_representatives(vertices, edges, shape):
    """Slot -> pattern-vertex tuples, the first of each Aut(pattern) orbit."""
    return tuple(orbit_firsts(_pin_tuples(edges, shape, 0, {}, frozenset()),
                              _generators(vertices, edges)))


def _pin_tuples(edges, shape, i, pins, used_edges):
    """Every way to send the slot pairs shape[i:] onto pattern edges not in
    `used_edges`, extending `pins` (slot -> pattern vertex)."""
    if i == len(shape):
        yield tuple(pins.values())  # slots were inserted in order
        return
    x, y = shape[i]
    if x == y:
        return  # a loop can never be a kept pattern edge
    for p, q in edges:
        if (p, q) in used_edges:
            continue
        for px, py in ((p, q), (q, p)):
            if pins.get(x, px) != px or pins.get(y, py) != py:
                continue
            new_pins = dict(pins)
            new_pins[x], new_pins[y] = px, py
            yield from _pin_tuples(edges, shape, i + 1, new_pins,
                                   used_edges | {(p, q)})


@lru_cache(maxsize=None)
def _symmetry_floors(vertices, edges, order, pinned):
    """Per placement position, the position of its floor, or None.

    Puget's stabilizer chain for all-different variables, the variables
    being the branch sets' smallest host vertices.  G starts as the
    automorphisms fixing every pinned pattern vertex.  Walking the order,
    each q in the orbit of b under G gets "min(B_q) > min(B_b)", and G
    shrinks to the stabilizer of b.  A later b's orbit lies in an earlier
    one's, so its constraint implies the earlier ones and q keeps only the
    last b: its floor.  Exactly one placement per G-orbit of placements
    meets every floor.
    """
    group = [s for s in _automorphisms(vertices, edges)
             if all(s[p] == p for p in pinned)]
    pos = {p: i for i, p in enumerate(order)}
    floors = [None] * len(order)
    for i, b in enumerate(order):
        for q in orbit([b], group) - {b}:
            floors[pos[q]] = i
        group = [s for s in group if s[b] == b]
    return tuple(floors)


@lru_cache(maxsize=None)
def _placement_plan(edges, order):
    """Per placement position i, the checks made after placing order[i].

    Returns (earlier, checks): earlier[i] holds the positions before i
    adjacent to order[i], and checks[i] the (j, count) pairs, j <= i, of the
    placed branches with `count` pattern neighbours placed after i.
    """
    pos = {p: i for i, p in enumerate(order)}
    adjacent = [[] for _ in order]
    for p, q in edges:
        adjacent[pos[p]].append(pos[q])
        adjacent[pos[q]].append(pos[p])
    earlier = tuple(tuple(sorted(j for j in adjacent[i] if j < i))
                    for i in range(len(order)))
    checks = tuple(
        tuple((j, k) for j in range(i + 1)
              if (k := sum(1 for t in adjacent[j] if t > i)))
        for i in range(len(order)))
    return earlier, checks


@lru_cache(maxsize=None)
def _forcing_plan(floors):
    """Per placement position i, None or the floors _place reads to force.

    A later position can start at the smallest free vertex v only if it has
    no floor, or its floor is placed and starts below v.  So the entry is
    None when a later position has no floor, and otherwise the later
    positions' floors placed before i: when none starts below v, v must go
    to position i.
    """
    plan = []
    for i in range(len(floors)):
        later = floors[i + 1:]
        plan.append(None if None in later
                    else tuple(sorted({f for f in later if f < i})))
    return tuple(plan)


def _build_model(host, edges, pattern_name, branches, required):
    """Assemble a MinorModel from a complete branch-set placement.

    `edges` are the pattern's edges (p, q), p < q, in sorted order.
    """
    branch_of = {}
    for p, sub in branches.items():
        for v in sub:
            branch_of[v] = p
    inside = [e for e, (a, b) in host.edges.items()
              if a in branch_of and branch_of[a] == branch_of.get(b)]
    contracted = frozenset(_spanning_forest(host, inside)[0])
    between = {}
    for e in sorted(host.edges):
        if e in contracted:
            continue
        a, b = host.endpoints(e)
        pa, pb = branch_of.get(a), branch_of.get(b)
        if pa is None or pb is None or pa == pb:
            continue
        key = (pa, pb) if pa <= pb else (pb, pa)
        between.setdefault(key, []).append(e)
    kept = set()
    for p, q in edges:
        candidates = between.get((p, q) if p <= q else (q, p), [])
        forced = [e for e in candidates if e in required]
        kept.add(forced[0] if forced else min(candidates))
    deleted = frozenset(host.edges) - contracted - kept
    iso = {min(sub): p for p, sub in branches.items()}
    return MinorModel(host, contracted, deleted, pattern_name, iso)


def find_minor(host, pattern, required=(), node_cap=DEFAULT_NODE_CAP):
    """Search for a minor model of `pattern` in `host` keeping `required`.

    Exhaustive for hosts in the supported size range: returns None only when
    no model exists.  Deterministic: the same query always yields the same
    model.  `pattern` may be a catalog name or a graph; a graph with a
    loop, a parallel edge or an isolated vertex raises GraphError.

    With no required edges on a connected host, the search also forces the
    smallest free vertex into a branch set wherever the symmetry floors
    leave it no other place (see _place).  Such models may differ from
    those of releases before the forcing; models with required edges,
    and models on disconnected hosts, do not.
    """
    pattern_name = ""
    if isinstance(pattern, str):
        pattern_name, pattern = pattern, catalog.build(pattern).graph
    vertices, edges, unpinned_order = _pattern_shape(pattern)
    required = frozenset(required)
    for e in required:
        if not host.has_edge(e):
            raise GraphError("required edge %r not in host" % (e,))
    if host.n < pattern.n or host.m < pattern.m:
        return None

    verts, nbr = neighbour_masks(host)
    index = {v: i for i, v in enumerate(verts)}
    budget = [node_cap]
    forcing = not required and connected(nbr, (1 << len(nbr)) - 1)

    for pins in _pin_assignments(required, host, pattern):
        pinned = {}
        for v, p in pins.items():
            pinned[p] = pinned.get(p, 0) | 1 << index[v]
        # pinned vertices first, the most pins first; stable, so ties keep
        # the unpinned order
        order = tuple(sorted(unpinned_order,
                             key=lambda p: -pinned.get(p, 0).bit_count()))
        model = _place(
            host, edges, pattern_name, required, verts, nbr, order,
            [pinned.get(p, 0) for p in order],
            _symmetry_floors(vertices, edges, order, frozenset(pinned)),
            forcing, budget,
        )
        if model is not None:
            return model
    return None


def _place(host, edges, pattern_name, required, verts, nbr, order, must,
           floors, forcing, budget):
    """The first placement of branch sets in search order, as a model.

    Position i places order[i]'s branch set: a connected subset of the host
    vertices still free, holding must[i] and no other position's pins,
    adjacent to the branch of every earlier pattern neighbour, and above its
    floor's smallest vertex.

    Unpinned branch sets are tried in increasing order of their smallest
    vertex.  Say the first model found without floors broke the floor f of
    position i.  An automorphism fixing the pins and the positions before f
    and taking order[f] to order[i] maps it to a model that agrees with it
    before f and takes at f a branch with a smaller smallest vertex, one
    the search would have found first.  So the floors change no answer and
    no model.

    With `forcing` (no pins, connected host), position i's branch set must
    also hold the smallest free vertex v wherever _forcing_plan leaves v no
    other place.  Any model extends to one whose branch sets cover every
    host vertex, as each free vertex can join a neighbouring branch, and an
    automorphism moves that model onto the floors.  In such a model v is the
    smallest vertex of some unplaced branch, and a branch whose floor is
    unplaced, or placed with a larger smallest vertex, cannot start at v.
    So forcing loses no answer, though the first model found may change.
    """
    n = len(order)
    earlier, checks = _placement_plan(edges, order)
    plan = _forcing_plan(floors) if forcing else (None,) * n
    all_pinned = 0
    for m in must:
        all_pinned |= m
    need = [0] * (n + 1)  # fewest vertices the positions from i on take
    for i in range(n - 1, -1, -1):
        need[i] = need[i + 1] + max(1, must[i].bit_count())
    branch = [0] * n
    reach = [0] * n  # neighbourhood of each placed branch

    def fits(i, available):
        """Position i's branch sets in search order, each as the vertices
        it leaves free; i == n yields once, so a model costs one node."""
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded("minor search exceeded its node cap")
        if i == n:
            yield available
            return
        pool = available & ~(all_pinned & ~must[i])
        needed = must[i]
        if plan[i] is not None:
            v = available & -available
            if all(branch[f] & -branch[f] > v for f in plan[i]):
                needed |= v
        f = floors[i]
        if f is not None:
            low = branch[f] & -branch[f]
            pool &= -(low << 1)  # only vertices above the floor's smallest
        max_size = available.bit_count() - need[i + 1]
        adjacent, frontiers = earlier[i], checks[i]
        for sub, sub_reach in _connected_subsets(nbr, pool, needed, max_size,
                                                 budget):
            if any(not reach[j] & sub for j in adjacent):
                continue
            rest = available & ~sub
            branch[i], reach[i] = sub, sub_reach
            # every placed branch must still reach one vertex per unplaced
            # pattern neighbour
            if all((reach[j] & rest).bit_count() >= k for j, k in frontiers):
                yield rest

    stack = [fits(0, (1 << len(verts)) - 1)]  # one generator per position
    while stack:
        rest = next(stack[-1], None)
        if rest is None:
            stack.pop()
        elif len(stack) <= n:
            stack.append(fits(len(stack), rest))
        else:
            branches = {p: {verts[k] for k in bits(b)}
                        for p, b in zip(order, branch)}
            return _build_model(host, edges, pattern_name, branches, required)
    return None


def find_family_minor(host, family, required=(), triangle=None,
                      node_cap=DEFAULT_NODE_CAP):
    """First (pattern-name, model) hit over the family, in listed order.

    In triangle mode the required set is the triangle's edge set and the
    kept edges necessarily form a pattern triangle.
    """
    if triangle is not None:
        required = frozenset(triangle)
        pairs = {host.endpoints(e) for e in required if host.has_edge(e)}
        if (len(triangle) != 3 or len(pairs) != 3
                or any(a == b for a, b in pairs)
                or len({v for pair in pairs for v in pair}) != 3):
            raise GraphError("%r is not a triangle of the host" % (triangle,))
    for name in family:
        model = find_minor(host, name, required=required, node_cap=node_cap)
        if model is not None:
            return name, model
    return None


FAMILY_A = ("K33", "K33_01", "K33_02", "K33_11")
FAMILY_B = ("K33", "K33_01", "K33_02", "K33_11", "K5")


def preserve_triangle_k331(host, triangle, node_cap=DEFAULT_NODE_CAP):
    """A K33_11 minor model keeping the triangle's edges as a pattern triangle."""
    hit = find_family_minor(host, ("K33_11",), triangle=triangle,
                            node_cap=node_cap)
    return hit[1] if hit else None


def preserve_triangle_k5(host, triangle, node_cap=DEFAULT_NODE_CAP):
    """A K5 minor model keeping the triangle's edges as a pattern triangle.

    A direct rooted K5 search with the triangle's edges required; on K5
    itself it returns the identity model.  It does not go through a K33_11
    model: some hosts (K33_13 with its class triangle is the smallest) have a
    triangle-preserving K5-minor but no triangle-preserving K33_11-minor.
    """
    hit = find_family_minor(host, ("K5",), triangle=triangle, node_cap=node_cap)
    return hit[1] if hit else None


def is_planar(g):
    sg, _ = g.simplify()
    nxg = nx.Graph()
    nxg.add_nodes_from(sg.vertices)
    nxg.add_edges_from(sg.edges.values())
    ok, _ = nx.check_planarity(nxg)
    return ok


def obstruction(g, node_cap=DEFAULT_NODE_CAP):
    """A K33- or K5-minor model iff g is non-planar (smaller pattern first)."""
    if is_planar(g):
        return None
    for name in ("K33", "K5"):
        model = find_minor(g, name, node_cap=node_cap)
        if model is not None:
            return name, model
    raise AssertionError("non-planar graph without Kuratowski minor")


def k5_iff_k331(host, node_cap=DEFAULT_NODE_CAP):
    """Whether host has a K5-minor exactly when it has a K33_11-minor."""
    if not host.is_simple():
        raise GraphError("host must be simple")
    if not is_three_connected(host):
        raise GraphError("host must be 3-connected")
    if are_isomorphic(host, catalog.build("K5").graph) is not None:
        raise GraphError("host must not be K5 itself")
    if is_planar(host):
        return True  # a planar host has neither minor
    has_k5 = find_minor(host, "K5", node_cap=node_cap) is not None
    has_k331 = find_minor(host, "K33_11", node_cap=node_cap) is not None
    return has_k5 == has_k331
