"""Rooted minor search: explicit minor models with required-edge constraints.

A minor model is a pair (C, D) of disjoint edge sets, C a forest, together
with an isomorphism from host/C\\D (isolated vertices dropped) to the
pattern.  "Required" edges must survive into the minor's edge set, i.e. lie
outside C and D and map to pattern edges.  When the three edges of a host
triangle are all required, the keep-semantics force their images to form a
pattern triangle, which is the restriction condition triangle preservation
needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import networkx as nx

from . import catalog
from .isomorphism import are_isomorphic, is_isomorphism
from .multigraph import GraphError, LabeledMultigraph, is_three_connected

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

    Returns (ok, diagnostics); nothing in the model is trusted.
    """
    if pattern is None:
        pattern = catalog.build(model.pattern_name).graph
    try:
        result = apply_model(model.host, model.contracted, model.deleted)
    except GraphError as exc:
        return False, [str(exc)]
    if not is_isomorphism(result, pattern, model.iso):
        return False, ["iso is not an isomorphism from the minor onto the "
                       "pattern"]
    return True, []


def _connected_subsets(adj, allowed, must, max_size, budget):
    """Connected subsets of `allowed`, containing `must`, up to max_size.

    No subset is produced twice.  `budget` is a one-element list counting
    expansions against the global node cap.
    """
    if max_size <= 0 or (must and len(must) > max_size):
        return
    allowed = set(allowed)
    if not must.issubset(allowed):
        return

    def rec(sub, ext, forbidden):
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded("minor search exceeded its node cap")
        if must.issubset(sub):
            yield frozenset(sub)
        if len(sub) >= max_size:
            return
        for i, v in enumerate(ext):
            new_sub = sub | {v}
            new_forbidden = forbidden | set(ext[:i])
            new_ext = list(ext[i + 1:])
            seen = new_sub | new_forbidden | set(new_ext)
            for u in sorted(adj[v] & allowed):
                if u not in seen:
                    new_ext.append(u)
                    seen.add(u)
            yield from rec(new_sub, new_ext, new_forbidden)

    if must:
        root = min(must)
        ext = sorted(adj[root] & allowed)
        yield from rec({root}, ext, set())
    else:
        roots = sorted(allowed)
        for i, root in enumerate(roots):
            pool = allowed - set(roots[:i])
            ext = sorted(adj[root] & pool)
            yield from rec({root}, ext, set())


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
    edges = tuple(sorted({(min(a, b), max(a, b))
                          for a, b in pattern.edges.values() if a != b}))
    for rep in _orbit_representatives(tuple(pattern.sorted_vertices()), edges,
                                      tuple(shape)):
        yield dict(zip(vertex_of, rep))


@lru_cache(maxsize=None)
def _orbit_representatives(vertices, edges, shape):
    """Slot -> pattern-vertex tuples, the first of each Aut(pattern) orbit."""
    pairs = {frozenset(e) for e in edges}
    sigmas = (dict(zip(vertices, perm)) for perm in permutations(vertices))
    auts = [sigma for sigma in sigmas
            if all(frozenset((sigma[p], sigma[q])) in pairs for p, q in edges)]

    def rec(i, pins, used_edges):
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
                yield from rec(i + 1, new_pins, used_edges | {(p, q)})

    reps, seen = [], set()
    for pins in rec(0, {}, frozenset()):
        if pins not in seen:
            reps.append(pins)
            seen.update(tuple(sigma[p] for p in pins) for sigma in auts)
    return tuple(reps)


def _build_model(host, pattern, pattern_name, branches, required):
    """Assemble a MinorModel from a complete branch-set placement."""
    branch_of = {}
    for p, sub in branches.items():
        for v in sub:
            branch_of[v] = p
    inside = [e for e, (a, b) in host.edges.items()
              if a in branch_of and branch_of[a] == branch_of.get(b)]
    contracted = frozenset(_spanning_forest(host, inside)[0])
    between = {}
    for e in host.edge_ids():
        if e in contracted:
            continue
        a, b = host.endpoints(e)
        pa, pb = branch_of.get(a), branch_of.get(b)
        if pa is None or pb is None or pa == pb:
            continue
        key = (pa, pb) if pa <= pb else (pb, pa)
        between.setdefault(key, []).append(e)
    kept = set()
    for p, q in sorted(
        (p, q) for p in pattern.vertices for q in pattern.adjacency()[p] if p < q
    ):
        candidates = between.get((p, q) if p <= q else (q, p), [])
        forced = [e for e in candidates if e in required]
        kept.add(forced[0] if forced else min(candidates))
    deleted = frozenset(host.edge_ids()) - contracted - kept
    iso = {min(sub): p for p, sub in branches.items()}
    return MinorModel(host, contracted, deleted, pattern_name, iso)


def find_minor(host, pattern, required=(), pattern_name="", node_cap=DEFAULT_NODE_CAP):
    """Search for a minor model of `pattern` in `host` keeping `required`.

    Exhaustive for hosts in the supported size range: returns None only when
    no model exists.  Deterministic: the same query always yields the same
    model.  `pattern` may be a catalog name or a graph.
    """
    if isinstance(pattern, str):
        pattern_name = pattern
        pattern = catalog.build(pattern_name).graph
    required = frozenset(required)
    for e in required:
        if not host.has_edge(e):
            raise GraphError("required edge %r not in host" % (e,))
    if host.n < pattern.n or host.m < pattern.m:
        return None

    adj = host.adjacency()
    pattern_adj = pattern.adjacency()
    budget = [node_cap]

    for pins in _pin_assignments(required, host, pattern):
        pins_by_p = {}
        for v, p in pins.items():
            pins_by_p.setdefault(p, set()).add(v)
        order = sorted(
            pattern.vertices,
            key=lambda p: (-len(pins_by_p.get(p, ())), -len(pattern_adj[p]), p),
        )
        all_pinned = set(pins)
        model = _place(
            host, pattern, pattern_name, adj, pattern_adj, order, pins_by_p,
            all_pinned, required, budget,
        )
        if model is not None:
            return model
    return None


def _place(host, pattern, pattern_name, adj, pattern_adj, order, pins_by_p,
           all_pinned, required, budget):
    available = set(host.vertices)
    branches = {}

    def min_need(i):
        return sum(max(1, len(pins_by_p.get(q, ()))) for q in order[i:])

    def feasible_frontiers(new_available):
        # every placed branch must still reach one vertex per unplaced
        # pattern neighbor
        for q, sub in branches.items():
            unplaced = [r for r in pattern_adj[q] if r not in branches]
            if not unplaced:
                continue
            frontier = set()
            for v in sub:
                frontier |= adj[v] & new_available
            if len(frontier) < len(unplaced):
                return False
        return True

    def rec(i):
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded("minor search exceeded its node cap")
        if i == len(order):
            return _build_model(host, pattern, pattern_name, branches, required)
        p = order[i]
        must = frozenset(pins_by_p.get(p, ()))
        foreign_pins = all_pinned - must
        pool = available - foreign_pins
        max_size = len(available) - min_need(i + 1)
        for sub in _connected_subsets(adj, pool, must, max_size, budget):
            ok = True
            for q in pattern_adj[p]:
                if q in branches and not any(adj[v] & sub for v in branches[q]):
                    ok = False
                    break
            if not ok:
                continue
            branches[p] = sub
            available.difference_update(sub)
            if feasible_frontiers(available):
                found = rec(i + 1)
                if found is not None:
                    return found
            available.update(sub)
            del branches[p]
        return None

    return rec(0)


def find_family_minor(host, family, required=(), triangle=None,
                      node_cap=DEFAULT_NODE_CAP):
    """First (pattern-name, model) hit over the family, in listed order.

    In triangle mode the required set is the triangle's edge set and the
    kept edges necessarily form a pattern triangle.
    """
    if triangle is not None:
        triple = tuple(sorted(triangle))
        if triple not in host.triangles():
            raise GraphError("%r is not a triangle of the host" % (triangle,))
        required = frozenset(triple)
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
