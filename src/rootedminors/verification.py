"""End-to-end verification runs shared by the CLI and the test suite.

Each function returns a JSON-serializable report with a boolean "pass".
The runs verify the headline results at their exhaustive base scales:
catalog contraction identities, 2-roundedness of the K3,3 extension
families, the K5 / K33_11 minor equivalence, triangle-preserving minors,
the R12 facts, planarity-obstruction agreement, and the search engine
against an independent oracle.

The two exhaustive claims (K5 / K33_11 equivalence and triangle
preservation) are read from one pass, exhaustive_scan, over the wheel
closure's 3-connected classes; each host's planarity, K5 and K33_11
questions are asked once.  The tests cross-check the wheel closure
against all_graphs filtered by is_three_connected at n <= 7.

A minor model keeps exactly the edges of its minor, so one model that
verify_model accepts answers every triangle or edge pair of its host
inside its kept edges (minors.Cover).  The triangle scan and the pair
sample search only the questions that no earlier verified model of the
same host and target answers, and report their searches next to their
questions.

minor_oracle, forest contraction plus VF2, is the one minor oracle: it
decides find_minor's question without calling find_minor.
"""
from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx
from networkx.algorithms.isomorphism import (GraphMatcher,
                                              categorical_node_match)

from . import catalog, generate, matroids, minors, rounded
from .io import to_graph6
from .isomorphism import are_isomorphic
from .minors import DEFAULT_NODE_CAP, FAMILY_A, FAMILY_B
from .multigraph import GraphError


def _contract_roles(name, ra, rb):
    entry = catalog.build(name)
    return entry.graph.contract_edge(entry.edge(ra, rb))


def _iso_to(g, name, simplify=False):
    if simplify:
        g, _ = g.simplify()
    return are_isomorphic(g, catalog.build(name).graph) is not None


def catalog_identities():
    """The contraction identities behind the roundedness case analysis.

    Contracting an edge whose ends share k neighbors leaves k parallel
    pairs, so the comparisons that need it go through simplify; the targets
    are forced by edge counts (for example G4/u3w2 loses three edges after
    simplification and lands on K3,3 itself).
    """
    checks = [
        ("K33_11/u1v1 = K5",
         _iso_to(_contract_roles("K33_11", "u1", "v1"), "K5")),
        ("si(G1/u3w2) = K33",
         _iso_to(_contract_roles("G1", "u3", "w2"), "K33", simplify=True)),
        ("G1/u3v1 = K33_01",
         _iso_to(_contract_roles("G1", "u3", "v1"), "K33_01")),
        ("si(G4/u3w2) = K33",
         _iso_to(_contract_roles("G4", "u3", "w2"), "K33", simplify=True)),
        ("si(G4/u3v1) = K33_01",
         _iso_to(_contract_roles("G4", "u3", "v1"), "K33_01", simplify=True)),
    ]
    e1 = catalog.build("G1")
    g2 = e1.graph.with_edge(
        e1.graph.fresh_edge_id(), e1.vertex("v1"), e1.vertex("w1")
    )
    checks.append(("G2 = G1 + v1w1", _iso_to(g2, "G2")))
    return {"pass": all(ok for _, ok in checks), "checks": checks}


def roundedness_families(node_cap=DEFAULT_NODE_CAP):
    reports = {}
    for label, family in (("a", FAMILY_A), ("b", FAMILY_B)):
        rep = rounded.verify_two_rounded(family, node_cap=node_cap)
        reports[label] = {
            "verdict": rep.verdict,
            "candidates": len(rep.candidates),
            "failures": len(rep.failures),
            "rejected": len(rep.rejected),
            "searches": rep.searches,
        }
        if rep.verdict == "budget":
            reports[label]["outcome"] = "budget"
    verdicts = {r["verdict"] for r in reports.values()}
    out = {"pass": verdicts == {"pass"}, "families": reports}
    if "budget" in verdicts and "fail" not in verdicts:
        out["outcome"] = "budget"
    return out


def triangle_vertices(host, triangle):
    """The sorted vertex triple spanned by a triangle's three edge ids."""
    return sorted({v for e in triangle for v in host.endpoints(e)})


# the wheel closure's classes, built once per process; read-only
closure = lru_cache(maxsize=None)(generate.three_connected_by_wheels)


def exhaustive_scan(max_n=8, node_cap=DEFAULT_NODE_CAP):
    """K5 / K33_11 equivalence and triangle preservation in one pass.

    A planar host gets no search (K5 and K33_11 are non-planar, and
    planarity is minor-closed); a non-planar one gets one unpinned K5 and
    one unpinned K33_11 search, whose answers must agree except on K5.

    The triangles of a host with a K33_11-minor are then taken in order,
    and each target searches only those that none of its verified models
    of the host keeps (the unpinned one included).  A model answers every
    triangle T inside its kept edges: no kept edge joins two vertices of
    one branch set, as it would be a loop of the simple minor, so T's three
    edges join three distinct branch sets and land on a pattern triangle.
    Every positive model is checked once by verify_model, and a rejected
    one answers nothing.  `searches` counts each target's triangle
    searches next to `triangles`.

    Failures are named by graph6 plus the triangle's vertices.  The
    triangle "pass" follows the paper's K5 statement; its K33_11 misses
    (26 at n <= 8, a claim the paper does not make) are data.
    """
    targets = (("K33_11", minors.preserve_triangle_k331),
               ("K5", minors.preserve_triangle_k5))
    checked = hosts = triangles = 0
    failures, unpinned_rejected, rejected_models = [], [], []
    misses = {target: [] for target, _ in targets}
    searches = dict.fromkeys(misses, 0)
    for g in closure(max_n):
        is_k5 = g.n == 5 and g.m == 10  # the hosts are simple
        checked += not is_k5
        if minors.is_planar(g):
            continue
        g6 = to_graph6(g)
        covers = {target: minors.Cover() for target in misses}
        found = {}
        for target in ("K5", "K33_11"):
            model = minors.find_minor(g, target, node_cap=node_cap)
            found[target] = model is not None
            if found[target] and (diagnostics := covers[target].admit(model)):
                unpinned_rejected.append({"graph6": g6, "target": target,
                                          "diagnostics": diagnostics})
        if not is_k5 and found["K5"] != found["K33_11"]:
            failures.append({"graph6": g6})
        if not found["K33_11"]:
            continue
        hosts += 1
        for tri in g.triangles():
            triangles += 1
            question = frozenset(tri)
            record = {"graph6": g6, "triangle": triangle_vertices(g, tri)}
            for target, search in targets:
                if covers[target].answers(question):
                    continue
                searches[target] += 1
                model = search(g, tri, node_cap=node_cap)
                if model is None:
                    misses[target].append(record)
                elif diagnostics := covers[target].admit(model, question):
                    rejected_models.append(dict(record, target=target,
                                                diagnostics=diagnostics))
    return {
        "k5_equivalence_exhaustive": {
            "pass": not failures and not unpinned_rejected,
            "checked": checked, "failures": failures,
            "rejected_models": unpinned_rejected,
        },
        "triangle_preservation_exhaustive": {
            "pass": not misses["K5"] and not rejected_models,
            "hosts": hosts,
            "triangles": triangles,
            "searches": searches,
            "failures_k331": misses["K33_11"],
            "failures_k5": misses["K5"],
            "rejected_models": rejected_models,
        },
    }


def _pair_record(g, e, f):
    """A host and an edge pair by graph6 and the edges' vertex pairs; the
    host's vertices are 0..n-1, as graph6 numbers them."""
    return {"graph6": to_graph6(g), "e": list(g.endpoints(e)),
            "f": list(g.endpoints(f))}


def family_minor_sample(seed=0, hosts=500, node_cap=DEFAULT_NODE_CAP):
    """Every 3-connected simple non-planar host except K5 has a family-(a)
    minor through any two of its edges; 10 pairs of each seeded random host.

    A drawn pair is searched only when no earlier verified model of its
    host keeps both edges; `searches` counts them next to `pairs`.
    """
    rng = random.Random(seed)
    failures, rejected_models = [], []
    searches = 0
    for _ in range(hosts):
        g = generate.random_nonplanar_host(rng)
        edge_ids = sorted(g.edges)
        cover = minors.Cover()
        for _ in range(10):
            e, f = rng.sample(edge_ids, 2)
            pair = frozenset((e, f))
            if cover.answers(pair):
                continue
            searches += 1
            hit = minors.find_family_minor(g, FAMILY_A, required=pair,
                                           node_cap=node_cap)
            if hit is None:
                failures.append(_pair_record(g, e, f))
            elif diagnostics := cover.admit(hit[1], pair):
                rejected_models.append(dict(_pair_record(g, e, f),
                                            diagnostics=diagnostics))
    return {"pass": not failures and not rejected_models, "hosts": hosts,
            "pairs": hosts * 10, "searches": searches,
            "failures": failures, "rejected_models": rejected_models}


def _marked_patterns(pattern, pairs, shape, onto):
    """The pattern as networkx graphs, one per marked vertex set S: `onto`,
    or else each set that can carry the required edges' shape."""
    k = len({v for edge in shape for v in edge})
    targets = {frozenset(onto)} if onto is not None else {
        frozenset(image) for image in permutations(pattern.vertices, k)
        if all(frozenset((image[i], image[j])) in pairs for i, j in shape)}
    out = []
    for target in sorted(targets, key=sorted):
        p = nx.Graph(list(pattern.edges.values()))
        nx.set_node_attributes(p, {v: v in target for v in p}, "t")
        out.append(p)
    return out


def minor_oracle(host, pattern, required=(), onto=None):
    """Whether `host` has a minor of the simple `pattern` (a graph or a
    catalog name) keeping each `required` edge on a pattern edge, with the
    required edges' ends on the pattern vertex set `onto` when it is given.

    Independent of find_minor and of the canonical labelling: a minor is a
    subgraph of a contraction.  The branch sets of a minor model are
    spanned by a forest C of non-required edges, with |C| <= n - pattern.n
    and, as no edge of C is a pattern edge, |C| <= m - pattern.m.  So the
    oracle contracts every such forest, skips it when a required edge
    becomes a loop or two become parallel, and asks networkx's VF2 matcher
    for a subgraph monomorphism of the pattern into simple(host/C) that
    sends the classes at the required edges' ends onto a marked vertex set
    and each required edge onto a pattern edge.  Feasible for hosts of up
    to about 8 vertices.
    """
    if isinstance(pattern, str):
        pattern = catalog.build(pattern).graph
    ends = [host.endpoints(e) for e in sorted(set(required))]
    pairs = {frozenset(pair) for pair in pattern.edges.values()}
    free = sorted(set(host.edges).difference(required))
    marked = categorical_node_match("t", False)
    shapes = {}  # the required edges' shape -> _marked_patterns
    for size in range(min(host.n - pattern.n, host.m - pattern.m) + 1):
        for cset in combinations(free, size):
            try:
                merge = minors.forest_classes(host, cset)
            except GraphError:
                continue  # contracted set contains a cycle
            kept = [(merge[a], merge[b]) for a, b in ends]
            if len({frozenset(e) for e in kept if e[0] != e[1]}) < len(kept):
                continue  # a required loop, or two required parallels
            index = {v: i for i, v in enumerate(dict.fromkeys(
                v for edge in kept for v in edge))}
            shape = tuple((index[a], index[b]) for a, b in kept)
            if shape not in shapes:
                shapes[shape] = _marked_patterns(pattern, pairs, shape,
                                                onto)
            g = nx.Graph((merge[a], merge[b]) for a, b in host.edges.values()
                         if merge[a] != merge[b])
            nx.set_node_attributes(g, {v: v in index for v in g}, "t")
            for p in shapes[shape]:
                matcher = GraphMatcher(g, p, node_match=marked)
                if any(all(frozenset((iso[a], iso[b])) in pairs
                           for a, b in kept)
                       for iso in matcher.subgraph_monomorphisms_iter()):
                    return True
    return False


def oracle_equivalence(seed=0, cases=200, node_cap=DEFAULT_NODE_CAP):
    """find_minor decisions against minor_oracle on seeded random hosts:
    every other host is non-planar on at most 7 vertices, so that positives
    are compared, and the rest are random_host multigraphs.  A case whose
    search hits the node cap is an overrun; the others are still decided."""
    rng = random.Random(seed)
    eligible = [n for n in catalog.list_names()
                if catalog.build(n).graph.m <= 11]
    agree = positives = 0
    disagreements, overruns = [], []
    for i in range(cases):
        host = (generate.random_nonplanar_host(rng, max_vertices=7) if i % 2
                else generate.random_host(rng, max_edges=12))
        pname = rng.choice(eligible)
        required = rng.sample(sorted(host.edges), rng.randint(0, 2))
        record = {"case": i, "pattern": pname, "required": required}
        try:
            fast = minors.find_minor(host, pname, required=required,
                                     node_cap=node_cap)
        except minors.SearchBudgetExceeded:
            overruns.append(record)
            continue
        slow = minor_oracle(host, pname, required=required)
        positives += slow
        if (fast is not None) == slow:
            agree += 1
        else:
            disagreements.append(record)
    out = {"pass": agree == cases, "cases": cases, "agree": agree,
           "positives": positives, "disagreements": disagreements,
           "overruns": overruns}
    if overruns and not disagreements:
        out["outcome"] = "budget"
    return out


def wagner_consistency(node_cap=DEFAULT_NODE_CAP):
    """is_planar vs Kuratowski minors on every simple graph on 7 vertices:
    obstruction asks planarity once, a planar graph must have neither a K5-
    nor a K33-minor, and a non-planar one's model must pass verify_model."""
    graphs = generate.all_graphs(7)
    mismatches = []
    for g in graphs:
        obs = minors.obstruction(g, node_cap=node_cap)
        if obs is None:
            ok = all(minors.find_minor(g, name, node_cap=node_cap) is None
                     for name in ("K5", "K33"))
        else:
            ok = minors.verify_model(obs[1])[0]
        if not ok:
            mismatches.append(to_graph6(g))
    return {"pass": not mismatches, "graphs": len(graphs),
            "mismatches": mismatches}


def r12_suite():
    report = matroids.verify_r12_claims()
    return {
        "pass": all(v["pass"] for v in report.values()),
        "checks": {k: v["pass"] for k, v in report.items()},
        "detail": report,
    }


def _budgeted(run, **kwargs):
    """run's report, or a budget record when one of its searches hits the
    node cap."""
    try:
        return run(**kwargs)
    except minors.SearchBudgetExceeded:
        return {"pass": False, "outcome": "budget"}


def verify_all(seed=0, node_cap=DEFAULT_NODE_CAP):
    """The full verification battery (17 s on a 2-core machine).  A
    battery that overruns the node cap is recorded as a budget record (both
    scan keys, for exhaustive_scan) and the others still run."""
    out = {
        "catalog_identities": catalog_identities(),
        "roundedness_families": roundedness_families(node_cap=node_cap),
    }
    scan = _budgeted(exhaustive_scan, node_cap=node_cap)
    out.update(scan if "pass" not in scan else dict.fromkeys(
        ("k5_equivalence_exhaustive", "triangle_preservation_exhaustive"), scan))
    out.update({
        "family_minor_sample": _budgeted(family_minor_sample, seed=seed,
                                         node_cap=node_cap),
        "r12_suite": r12_suite(),
        "oracle_equivalence": _budgeted(oracle_equivalence, seed=seed,
                                        node_cap=node_cap),
        "wagner_consistency": _budgeted(wagner_consistency, node_cap=node_cap),
    })
    out["pass"] = all(v["pass"] for v in out.values())
    return out
