"""The benchmark's four workloads.

Each workload builds its inputs from a seed when it is made, runs one
round of public calls in `run_round`, and checks a round's outputs in
`check`.  A round makes every call through the `clock.Recorder` it is
given, which times it, and returns its outputs.  Inputs are built from
the benchmark's own data and generators, so a change to the program
cannot change what it is asked.

Which isomorphism classes a workload asks about is fixed; the seed
renames their vertices and orders the calls.  Drawing a fresh sample of
classes per seed moved a round's time by 17% between seeds on decide_8
(measured from per-host search times), more than any bound, because a
few negative hosts cost a hundred times a positive one.

Every round asks the same calls in the same order, so that a call's
latency can be taken over the rounds.  Calls of different kinds are
asked in one seeded order rather than in blocks, so that a slow spell of
the machine falls on every kind alike.
"""
from __future__ import annotations

import functools
import json
import os
import random
from itertools import combinations

import networkx as nx

import checks
import make_hosts

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

FAMILY_A = ("K33", "K33_01", "K33_02", "K33_11")
FAMILY_B = FAMILY_A + ("K5",)

# R12 as [I6 | D] (Seymour's decomposition of regular matroids).
R12_ROWS = [
    [1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1],
]

# OEIS A000088 (graphs) and A006290 (3-connected graphs) at n = 7.
GRAPHS_7 = 1044
THREE_CONNECTED_UPTO = {4: 1, 5: 3, 6: 17, 7: 136}


def to_program(rm, g):
    """A networkx graph as a program graph, edges numbered in sorted order."""
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    return rm.LabeledMultigraph(
        g.nodes, {i: e for i, e in enumerate(edges, start=1)})


def relabel(g, rng):
    """g with its vertices renamed by a seeded random permutation."""
    perm = list(g)
    rng.shuffle(perm)
    return nx.relabel_nodes(g, dict(zip(g, perm)))


def read_hosts():
    return [nx.from_graph6_bytes(s.encode()) for s in make_hosts.read_hosts()]


def triangle_edges(g, tri):
    """Edge ids of the triangle on vertex triple tri."""
    a, b, c = sorted(tri)
    ids = {pair: e for e, pair in g.edges.items()}
    return tuple(sorted(ids[p] for p in ((a, b), (a, c), (b, c))))


def pattern_problems(rm, names):
    """The program's pattern graphs must be the patterns named here."""
    return ["catalog %s differs from its definition" % n for n in names
            if not nx.is_isomorphic(checks.to_nx(rm.catalog.build(n).graph),
                                    checks.PATTERNS[n])]


def split_sample(answered, rng, per_side):
    """Up to per_side find_minor queries answered yes and as many answered
    no, drawn with rng from (query, model or None) pairs."""
    answered = list(answered)
    pos = [q for q, m in answered if m is not None]
    neg = [q for q, m in answered if m is None]
    return (rng.sample(pos, min(per_side, len(pos))),
            rng.sample(neg, min(per_side, len(neg))))


class Enumerate:
    """all_graphs(7) from a cleared cache, then the 3-connectivity filter
    over the 1044 classes and the wheel closure to n = 7.

    The filter runs on networkx's atlas of 7-vertex graphs, relabeled by
    the seed, so its inputs do not come from the generator under test.
    """
    name = "enumerate_7"
    n = 7

    def __init__(self, rm, seed, scale=1.0):
        self.rm = rm
        self.clear_cache = rm.generate.all_graphs.cache_clear
        rng = random.Random(seed)
        atlas = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == self.n]
        rng.shuffle(atlas)
        self.atlas = atlas
        self.inputs = [to_program(rm, relabel(g, rng)) for g in atlas]

    def run_round(self, rec):
        gen, mg = self.rm.generate, self.rm.multigraph
        self.clear_cache()
        classes = rec.call(gen.all_graphs, self.n)
        verdicts = [rec.call(mg.is_three_connected, g) for g in self.inputs]
        wheels = rec.call(gen.three_connected_by_wheels, self.n)
        return (classes, verdicts, wheels)

    def check(self, out):
        classes, verdicts, wheels = out
        problems = []
        got = [checks.to_nx(g) for g in classes]
        if len(got) != GRAPHS_7:
            problems.append("%d classes, A000088 gives %d" % (len(got), GRAPHS_7))
        problems += checks.pairwise_non_isomorphic(got)
        problems += checks.same_classes(got, self.atlas)
        truth = [checks.is_three_connected(g) for g in self.atlas]
        if verdicts != truth:
            problems.append("is_three_connected disagrees with networkx")
        if sum(truth) != THREE_CONNECTED_UPTO[self.n]:
            problems.append("%d 3-connected classes" % sum(truth))
        w = [checks.to_nx(g) for g in wheels]
        if len(w) != sum(THREE_CONNECTED_UPTO.values()):
            problems.append("wheel closure gives %d classes" % len(w))
        if not all(checks.is_three_connected(g) for g in w):
            problems.append("wheel closure holds a graph that is not 3-connected")
        problems += checks.pairwise_non_isomorphic(w)
        top = [g for g in w if g.number_of_nodes() == self.n]
        ref = [g for g, ok in zip(self.atlas, truth) if ok]
        problems += checks.same_classes(top, ref)
        return problems

    @staticmethod
    def summary(out):
        classes, verdicts, wheels = out
        return (len(classes), tuple(verdicts), len(wheels))

    def node_sample(self, out, rng, per_side=3):
        return [], []


class Decide:
    """Unpinned K5 and K33_11 searches on a stratified sample of the 2388
    3-connected 8-vertex hosts.

    Hosts are ordered by planarity and edge count and cut into blocks of
    `block`; the middle host of each block is asked, so the sample keeps
    the make-up of the whole list.
    """
    name = "decide_8"
    patterns = ("K5", "K33_11")
    block = 16

    def __init__(self, rm, seed, scale=1.0):
        self.rm = rm
        rng = random.Random(seed)
        hosts = read_hosts()
        keyed = sorted(
            ((not nx.check_planarity(g)[0], g.number_of_edges(), i)
             for i, g in enumerate(hosts)))
        block = max(1, round(self.block / scale))
        picked = [keyed[min(i + block // 2, len(keyed) - 1)]
                  for i in range(0, len(keyed), block)]
        rng.shuffle(picked)
        self.planar = [not nonplanar for nonplanar, _, _ in picked]
        self.nx_hosts = [relabel(hosts[i], rng) for _, _, i in picked]
        hosts = [to_program(rm, g) for g in self.nx_hosts]
        self.queries = [(h, p, ()) for h in hosts for p in self.patterns]

    def run_round(self, rec):
        find_minor = self.rm.minors.find_minor
        return [rec.call(find_minor, h, p) for h, p, _ in self.queries]

    def check(self, models):
        rm = self.rm
        problems = pattern_problems(rm, self.patterns)
        for (h, p, _), model in zip(self.queries, models):
            if model is not None:
                problems += checks.rederive_model(
                    model, h, rm.catalog.build(p).graph)
        k = len(self.patterns)
        negatives = []
        for i, planar in enumerate(self.planar):
            has = [models[i * k + j] is not None for j in range(k)]
            if has[0] != has[1]:
                problems.append("host %d: K5 %s but K33_11 %s" % (i, has[0], has[1]))
            if planar and any(has):
                problems.append("planar host %d has a K5/K33_11 minor" % i)
            negatives += [(i, p) for p, yes in zip(self.patterns, has) if not yes]
        for i, p in negatives:
            if checks.has_minor(self.nx_hosts[i], checks.PATTERNS[p]):
                problems.append("oracle finds a %s-minor in host %d" % (p, i))
        return problems

    @staticmethod
    def summary(models):
        return tuple(m is not None for m in models)

    def node_sample(self, models, rng, per_side=3):
        return split_sample(zip(self.queries, models), rng, per_side)


class Triangles:
    """Triangle-preserving K33_11 and K5 searches on every triangle of a
    sample of the 8-vertex hosts with a K33_11-minor, plus every third of
    the 26 committed host/triangle pairs that have no K33_11-minor keeping
    the triangle, asked in one seeded order.  All 26 are re-confirmed by
    the oracle on every run."""
    name = "triangles_8"
    hosts = 12
    record_step = 3

    def __init__(self, rm, seed, scale=1.0):
        self.rm = rm
        rng = random.Random(seed)
        hosts = read_hosts()
        random.Random(0).shuffle(hosts)
        want = max(1, round(self.hosts * scale))
        k331 = checks.PATTERNS["K33_11"]
        chosen = []
        for g in hosts:
            if len(chosen) == want:
                break
            if not nx.check_planarity(g)[0] and checks.has_minor(g, k331):
                chosen.append(g)
        self.records = self.read_records()
        asked = self.records[::self.record_step]
        asked = asked[:max(1, round(len(asked) * scale))]
        # (program host, networkx host, triangle's edge ids, is a record)
        self.queries = []
        for g in chosen:
            g = relabel(g, rng)
            h = to_program(rm, g)
            self.queries += [(h, g, tri, False) for tri in h.triangles()]
        for g6, tri in asked:
            g = nx.from_graph6_bytes(g6.encode())
            nx.set_node_attributes(g, {v: v in tri for v in g}, "t")
            g = relabel(g, rng)
            h = to_program(rm, g)
            marked = [v for v, t in g.nodes(data="t") if t]
            self.queries.append((h, g, triangle_edges(h, marked), True))
        rng.shuffle(self.queries)

    @staticmethod
    def read_records():
        with open(os.path.join(DATA, "k33_11_triangle_misses.json")) as fh:
            return [(r["graph6"], r["triangle"]) for r in json.load(fh)["records"]]

    def run_round(self, rec):
        mn = self.rm.minors
        models = []
        for h, _, tri, _ in self.queries:
            models.append((rec.call(mn.preserve_triangle_k331, h, tri),
                           rec.call(mn.preserve_triangle_k5, h, tri)))
        return models

    def check(self, models):
        rm = self.rm
        problems = pattern_problems(rm, ("K5", "K33_11"))
        refs = []
        k331 = checks.PATTERNS["K33_11"]
        for g6, tri in self.records:
            g = nx.from_graph6_bytes(g6.encode())
            a, b, c = tri
            if not checks.has_minor(g, k331) or checks.has_minor(
                    g, k331, pinned=[(a, b), (a, c), (b, c)]):
                problems.append("oracle refutes committed miss %s %s" % (g6, tri))
            nx.set_node_attributes(g, {v: v in tri for v in g}, "t")
            refs.append(g)
        for (h, g, tri, record), pair in zip(self.queries, models):
            for name, model in zip(("K33_11", "K5"), pair):
                if model is None:
                    continue
                problems += checks.rederive_model(
                    model, h, rm.catalog.build(name).graph, required=tri)
            if pair[1] is None:
                problems.append("K5 target answers no on %s" % (tri,))
            if pair[0] is None:
                problems += self._check_miss(h, g, tri, refs)
            elif record:
                problems.append("committed miss %s answers yes" % (tri,))
        return problems

    @staticmethod
    def _check_miss(h, g, tri, refs):
        verts = {v for e in tri for v in h.endpoints(e)}
        marked = nx.Graph(g.edges())
        nx.set_node_attributes(marked, {v: v in verts for v in g}, "t")
        same = nx.algorithms.isomorphism.categorical_node_match("t", False)
        if not any(nx.is_isomorphic(marked, r, node_match=same) for r in refs):
            return ["K33_11 miss on %s is not a committed record" % sorted(verts)]
        pins = [h.endpoints(e) for e in tri]
        if checks.has_minor(g, checks.PATTERNS["K33_11"], pinned=pins):
            return ["oracle keeps triangle %s in a K33_11-minor" % sorted(verts)]
        return []

    @staticmethod
    def summary(models):
        return tuple((a is not None, b is not None) for a, b in models)

    def node_sample(self, models, rng, per_side=3):
        """The K33_11 searches the triangle queries make."""
        return split_sample((((h, "K33_11", tri), m[0]) for (h, _, tri, _), m
                             in zip(self.queries, models)), rng, per_side)


def random_host(rng, base, n):
    """A seeded 3-connected non-planar host on n vertices: subdivide random
    edges of K5 or K3,3, then add random edges until networkx finds the
    graph 3-connected."""
    while True:
        g = nx.Graph(checks.PATTERNS[base])
        for _ in range(n - g.number_of_nodes()):
            a, b = rng.choice(sorted(g.edges()))
            w = g.number_of_nodes()
            g.remove_edge(a, b)
            g.add_edges_from(((a, w), (w, b)))
        missing = [p for p in combinations(sorted(g), 2) if not g.has_edge(*p)]
        rng.shuffle(missing)
        while not checks.is_three_connected(g) and missing:
            g.add_edge(*missing.pop())
        if checks.is_three_connected(g):
            return g


class Pairs:
    """Family-(a) searches through two edges of seeded random hosts, the
    2-roundedness check of families a and b, and R12 element pairs against
    each family-(a) cycle matroid.

    R12 is asked about every sixth of its 66 element pairs in
    lexicographic order: all 66 in one round take 11-15 s, too long to
    repeat within a run, and the six slices differ in cost (2.2 to 2.6 s),
    so a slice picked by the seed would move the figures between seeds.

    The hosts are stratified: `hosts_per_size` hosts grown from each of K5
    and K3,3 for every size from 6 to 12 vertices, with two edge pairs
    each.  They come from a fixed generator seed; the run's seed renames
    their vertices.  R12's elements are not renamed.  The graph, roundedness
    and matroid calls are asked in one seeded order.
    """
    name = "pairs"
    sizes = range(6, 13)
    hosts_per_size = 8
    pairs_per_host = 2
    pair_step = 6

    def __init__(self, rm, seed, scale=1.0):
        self.rm = rm
        rng = random.Random(seed)
        gen = random.Random(0)
        self.graph_queries = []
        per_size = max(1, round(self.hosts_per_size * scale))
        for n in self.sizes:
            for base in ("K5", "K33"):
                for _ in range(per_size):
                    self.add_host(rm, gen, rng, base, n)
        rng.shuffle(self.graph_queries)
        mt = rm.matroids
        self.r12 = mt.BinaryMatroid.from_rows(R12_ROWS, range(1, 13))
        self.targets = [(n, mt.cycle_matroid(to_program(rm, checks.PATTERNS[n])))
                        for n in FAMILY_A]
        pairs = list(combinations(range(1, 13), 2))[::self.pair_step]
        self.element_pairs = pairs[:max(1, round(len(pairs) * scale))]
        self.families = {"a": FAMILY_A, "b": FAMILY_B}
        self.order = ([("graph", i, None) for i in range(len(self.graph_queries))]
                      + [("rounded", k, None) for k in self.families]
                      + [("matroid", i, j) for i in range(len(self.element_pairs))
                         for j in range(len(self.targets))])
        rng.shuffle(self.order)

    def add_host(self, rm, gen, rng, base, n):
        g = random_host(gen, base, n)
        pairs = [gen.sample(sorted(g.edges()), 2)
                 for _ in range(self.pairs_per_host)]
        perm = list(g)
        rng.shuffle(perm)
        name = dict(zip(g, perm))
        h = to_program(rm, nx.relabel_nodes(g, name))
        ids = {pair: e for e, pair in h.edges.items()}
        for pair in pairs:
            self.graph_queries.append((h, frozenset(
                ids[tuple(sorted((name[a], name[b])))] for a, b in pair)))

    def run_round(self, rec):
        rm = self.rm
        hits = [None] * len(self.graph_queries)
        reports = {}
        witnesses = [[None] * len(self.targets) for _ in self.element_pairs]
        for kind, i, j in self.order:
            if kind == "graph":
                h, ef = self.graph_queries[i]
                hits[i] = rec.call(rm.minors.find_family_minor, h, FAMILY_A,
                                   required=ef)
            elif kind == "rounded":
                reports[i] = rec.call(rm.rounded.verify_two_rounded,
                                      self.families[i])
            else:
                witnesses[i][j] = rec.call(
                    rm.matroids.matroid_has_minor, self.r12, self.targets[j][1],
                    required=self.element_pairs[i])
        return hits, reports, witnesses

    def check(self, out):
        hits, reports, witnesses = out
        rm = self.rm
        problems = pattern_problems(rm, FAMILY_B)
        for (h, ef), hit in zip(self.graph_queries, hits):
            if hit is None:
                problems.append("no family-(a) minor through %s" % sorted(ef))
                continue
            name, model = hit
            if name not in FAMILY_A or model.pattern_name != name:
                problems.append("hit names %r" % name)
                continue
            problems += checks.rederive_model(
                model, h, rm.catalog.build(name).graph, required=ef)
        for key, report in reports.items():
            if report.failures or not report.candidates:
                problems.append("family %s: %d failures, %d candidates" % (
                    key, len(report.failures), len(report.candidates)))
            for c in report.candidates:
                g = checks.to_nx(c.graph)
                if not c.graph.is_simple() or not checks.is_three_connected(g):
                    problems.append("family %s: candidate is not simple and "
                                    "3-connected" % key)
        problems += self.check_matroids(witnesses)
        return problems

    def check_matroids(self, witnesses):
        problems = []
        cols = dict(zip(range(1, 13), checks.columns_of_rows(R12_ROWS)))
        want = {n: checks.minor_profile(dict(enumerate(
                    checks.incidence_columns(checks.PATTERNS[n].edges()))))
                for n in FAMILY_A}
        profile = functools.lru_cache(maxsize=None)(
            lambda c, d: checks.minor_profile(cols, c, d))
        for ef, row in zip(self.element_pairs, witnesses):
            if all(w is None for w in row):
                problems.append("R12 pair %s is not covered" % (ef,))
            for (name, _), w in zip(self.targets, row):
                if w is None:
                    if _profile_match(cols, ef, want[name], profile):
                        problems.append("R12 pair %s: %s negative not confirmed"
                                        % (ef, name))
                    continue
                c, d = w
                if set(ef) & (set(c) | set(d)):
                    problems.append("R12 witness drops a required element")
                elif profile(tuple(sorted(c)), tuple(sorted(d))) != want[name]:
                    problems.append("R12 witness for %s %s is not a %s" % (
                        ef, (sorted(c), sorted(d)), name))
        return problems

    @staticmethod
    def summary(out):
        hits, reports, witnesses = out
        return (tuple(h[0] if h else None for h in hits),
                tuple((len(r.candidates), len(r.failures)) for r in reports.values()),
                tuple(tuple(w is not None for w in row) for row in witnesses))

    def node_sample(self, out, rng, per_side=3):
        return [], []


def _profile_match(cols, required, want, profile):
    """Whether some minor of the target's rank and size keeping `required`
    has the target's circuit profile (which an isomorph must have)."""
    rank, size, _ = want
    elements = sorted(cols)
    c_need = checks.gf2_rank(cols.values()) - rank
    d_need = len(elements) - c_need - size
    free = [e for e in elements if e not in required]
    for c in combinations(free, c_need):
        if checks.gf2_rank([cols[e] for e in c]) < c_need:
            continue
        rest = [e for e in free if e not in c]
        for d in combinations(rest, d_need):
            if profile(c, d) == want:
                return True
    return False


WORKLOADS = {w.name: w for w in (Enumerate, Decide, Triangles, Pairs)}
