"""Canonical labelling and isomorphism: codes, hits, misses, and returned
bijections."""
import hashlib
import random
from itertools import combinations_with_replacement, permutations, product

from rootedminors import catalog, generate
from rootedminors.isomorphism import (are_isomorphic, canonical_labeling,
                                      is_isomorphism)
from rootedminors.matroids import cycle_matroid, r10, r12
from rootedminors.minors import FAMILY_A, FAMILY_B
from rootedminors.multigraph import (LabeledMultigraph, complete_graph,
                                     edge_additions, is_three_connected,
                                     three_connected_splits)


def _shuffled_copy(g, rng):
    """g with its vertices renamed at random, into names from 0 to 99."""
    verts = g.sorted_vertices()
    perm = dict(zip(verts, rng.sample(range(100), len(verts))))
    edges = {e: (perm[a], perm[b]) for e, (a, b) in g.edges.items()}
    return LabeledMultigraph(perm.values(), edges)


def _sample_graphs(rng):
    """Catalog graphs and random multigraphs with loops and parallel edges."""
    names = catalog.list_names()
    graphs = [catalog.build(rng.choice(names)).graph for _ in range(100)]
    return graphs + [generate.random_host(rng, max_edges=16)
                     for _ in range(200)]


def test_reflexive_on_every_catalog_graph():
    for name in catalog.list_names():
        g = catalog.build(name).graph
        mapping = are_isomorphic(g, g)
        assert mapping is not None
        assert is_isomorphism(g, g, mapping)


def test_symmetric_on_random_relabelings():
    rng = random.Random(7)
    for g in _sample_graphs(rng):
        h = _shuffled_copy(g, rng)
        fwd = are_isomorphic(g, h)
        back = are_isomorphic(h, g)
        assert fwd is not None and back is not None
        assert is_isomorphism(g, h, fwd)
        assert is_isomorphism(h, g, back)


def test_side_symmetry_of_k33_extensions():
    # one edge added on either side of the bipartition gives the same graph
    k33 = catalog.build("K33")
    u_side = k33.graph.with_edge(10, k33.vertex("u2"), k33.vertex("u3"))
    assert are_isomorphic(u_side, catalog.build("K33_01").graph) is not None


def test_distinguishes_the_two_edge_extensions():
    g = catalog.build("K33_02").graph
    h = catalog.build("K33_11").graph
    assert g.m == h.m
    assert are_isomorphic(g, h) is None


def test_g2_is_g1_plus_edge():
    g1 = catalog.build("G1")
    plus = g1.graph.with_edge(g1.graph.fresh_edge_id(),
                              g1.vertex("v1"), g1.vertex("w1"))
    assert are_isomorphic(plus, catalog.build("G2").graph) is not None


def test_multiplicities_matter():
    path = LabeledMultigraph({0, 1, 2}, {1: (0, 1), 2: (1, 2)})
    doubled = LabeledMultigraph({0, 1, 2}, {1: (0, 1), 2: (0, 1)})
    assert are_isomorphic(path, doubled) is None


def test_loops_matter():
    loop = LabeledMultigraph({0, 1}, {1: (0, 1), 2: (0, 0)})
    parallel = LabeledMultigraph({0, 1}, {1: (0, 1), 2: (0, 1)})
    assert are_isomorphic(loop, parallel) is None
    assert are_isomorphic(loop, loop) is not None


def test_regular_non_isomorphic_pair():
    # K3,3 and the triangular prism are both cubic on 6 vertices
    prism = LabeledMultigraph(range(6), {
        1: (0, 1), 2: (1, 2), 3: (0, 2),
        4: (3, 4), 5: (4, 5), 6: (3, 5),
        7: (0, 3), 8: (1, 4), 9: (2, 5),
    })
    assert are_isomorphic(prism, catalog.build("K33").graph) is None


def test_is_isomorphism_rejects_bad_maps():
    g = complete_graph(4)
    good = {v: v for v in g.vertices}
    assert is_isomorphism(g, g, good)
    assert not is_isomorphism(g, g, {0: 0, 1: 1, 2: 2})
    assert not is_isomorphism(g, g, {0: 0, 1: 1, 2: 2, 3: 2})


def _edges_per_pair(g, u, v):
    key = (u, v) if u <= v else (v, u)
    return sum(pair == key for pair in g.edges.values())


def _counts_agree(g1, g2, mapping):
    """Reference check: a bijection, then the number of edges joining each
    vertex pair, loops included, equal to that of its image pair."""
    if set(mapping) != set(g1.vertices):
        return False
    if sorted(mapping.values()) != g2.sorted_vertices():
        return False
    return all(_edges_per_pair(g1, u, v)
               == _edges_per_pair(g2, mapping[u], mapping[v])
               for u, v in combinations_with_replacement(g1.vertices, 2))


def _bad_maps(g, h, perm, rng):
    """Maps g -> h that are not isomorphisms: a vertex missing, an image
    repeated, and the true map onto h with one edge moved."""
    u, v = rng.sample(sorted(perm), 2)
    missing = {w: x for w, x in perm.items() if w != u}
    out = [(h, missing), (h, {**perm, u: perm[v]})]
    if h.m:
        e = rng.choice(sorted(h.edges))
        a, b = h.endpoints(e)
        moved = {**h.edges, e: (a, rng.choice(sorted(h.vertices - {b})))}
        out.append((LabeledMultigraph(h.vertices, moved), perm))
    return out


def test_is_isomorphism_matches_counting_edges_per_pair():
    rng = random.Random(29)
    multi = [generate.random_host(rng, max_edges=16) for _ in range(300)]
    assert any(a == b for g in multi for a, b in g.edges.values())
    assert not all(g.is_simple() for g in multi)
    for g in (*generate.all_graphs(6), *multi):
        verts = g.sorted_vertices()
        perm = dict(zip(verts, rng.sample(range(100), len(verts))))
        h = LabeledMultigraph(perm.values(), {
            e: (perm[a], perm[b]) for e, (a, b) in g.edges.items()})
        assert is_isomorphism(g, h, perm) and _counts_agree(g, h, perm)
        for target, mapping in _bad_maps(g, h, perm, rng):
            assert not _counts_agree(g, target, mapping)
            assert not is_isomorphism(g, target, mapping), (g.edges, mapping)
        u, v = rng.sample(verts, 2)  # swapped images: wrong unless symmetric
        swapped = {**perm, u: perm[v], v: perm[u]}
        assert is_isomorphism(g, h, swapped) == _counts_agree(g, h, swapped)


def test_code_survives_relabelling():
    rng = random.Random(13)
    for g in _sample_graphs(rng):
        code, order, _ = canonical_labeling(g)
        assert sorted(order) == g.sorted_vertices()
        for _ in range(3):
            assert canonical_labeling(_shuffled_copy(g, rng))[0] == code


def test_classes_of_six_vertices_get_distinct_codes():
    graphs = generate.all_graphs(6)
    assert len({canonical_labeling(g)[0] for g in graphs}) == len(graphs) == 156


def test_codes_match_brute_force_on_large_multiplicities():
    """Equal codes exactly when some vertex permutation carries one
    multigraph onto the other, with multiplicities and loop counts large
    enough to overflow any field of fixed width."""
    pairs = ((0, 1), (0, 2), (1, 2))
    codes, keys = [], []
    for mult in product((0, 1, 2, 17), repeat=3):
        for loops in product((0, 1, 16), repeat=3):
            edges = [pair for pair, k in zip(pairs, mult) for _ in range(k)]
            edges += [(v, v) for v in range(3) for _ in range(loops[v])]
            g = LabeledMultigraph(range(3), dict(enumerate(edges)))
            codes.append(canonical_labeling(g)[0])
            keys.append(min(
                (tuple(mult[pairs.index(tuple(sorted((p[a], p[b]))))]
                       for a, b in pairs), tuple(loops[p[v]] for v in range(3)))
                for p in permutations(range(3))))
    for i in range(len(codes)):
        for j in range(i):
            assert (codes[i] == codes[j]) == (keys[i] == keys[j])


def _group_order(gens, verts):
    """Order of the permutation group on `verts` that `gens` generate."""
    identity = tuple(verts)
    group, stack = {identity}, [identity]
    while stack:
        x = stack.pop()
        for p in gens:
            y = tuple(p[v] for v in x)
            if y not in group:
                group.add(y)
                stack.append(y)
    return len(group)


def test_generators_generate_the_automorphism_group():
    """On every class of 6 vertices, the generators are automorphisms and
    the group they generate has the order that a brute force over all 720
    permutations counts."""
    for g in generate.all_graphs(6):
        gens = canonical_labeling(g)[2]
        assert all(is_isomorphism(g, g, p) for p in gens)
        edges = {frozenset(pair) for pair in g.edges.values()}
        order = sum(1 for perm in permutations(range(6))
                    if {frozenset((perm[a], perm[b])) for a, b in edges}
                    == edges)
        assert _group_order(gens, range(6)) == order
        assert (order == 1) == (not gens)


def test_generators_are_automorphisms_of_multigraphs():
    """Loops and parallel edges count, and the maps name g's own vertices."""
    rng = random.Random(17)
    for g in _sample_graphs(rng):
        for h in (g, _shuffled_copy(g, rng)):
            assert all(is_isomorphism(h, h, p)
                       for p in canonical_labeling(h)[2])


def test_generators_generate_the_automorphism_group_of_multigraphs():
    """On seeded random multigraphs of at most 6 vertices, loops and
    parallel edges included, the generators are automorphisms and generate
    a group of the order that a brute force over all permutations counts."""
    rng = random.Random(31)
    hosts = [g for g in (generate.random_host(rng) for _ in range(300))
             if g.n <= 6]
    assert len(hosts) >= 100
    assert any(a == b for g in hosts for a, b in g.edges.values())
    assert any(len(set(g.edges.values())) < g.m for g in hosts)
    for g in hosts:
        gens = canonical_labeling(g)[2]
        assert all(is_isomorphism(g, g, p) for p in gens)
        verts = g.sorted_vertices()
        edges = sorted(g.edges.values())
        order = 0
        for image in permutations(verts):
            perm = dict(zip(verts, image))
            order += sorted(tuple(sorted((perm[a], perm[b])))
                            for a, b in edges) == edges
        assert _group_order(gens, verts) == order, g.edges
        assert (order == 1) == (not gens)


def _labelling_corpus():
    """Named groups of labellings: simple graphs, catalog graphs, two-layer
    multigraphs, random multigraphs with loops, and the element-circuit
    incidence graphs of binary matroids."""
    doubled = []
    for name in sorted(set(FAMILY_A) | set(FAMILY_B)):
        g = catalog.build(name).graph
        tagged = [(h, e) for h, e, _ in edge_additions(g)
                  if is_three_connected(h)]
        tagged += [(h, s.new_edge_id) for h, s in three_connected_splits(g)]
        doubled += [h.with_edge(h.fresh_edge_id(), *h.endpoints(e))
                    for h, e in tagged]
    rng = random.Random(25)
    matroids = [r10(), r12()] + [cycle_matroid(catalog.build(name).graph)
                                 for name in FAMILY_A]
    return {
        "all_graphs(6)": [canonical_labeling(g) for g in generate.all_graphs(6)],
        "catalog": [canonical_labeling(catalog.build(name).graph)
                    for name in catalog.list_names()],
        "doubled candidates": [canonical_labeling(g) for g in doubled],
        "random_host": [canonical_labeling(generate.random_host(rng))
                        for _ in range(200)],
        "incidence graphs": [m._labelling for m in matroids],
    }


_PINNED_LABELLINGS = {
    "all_graphs(6)":
        "284cea8399cebbce44740a7e8b6ba85af34282a7267ef6bd1219d6d24a5f2a64",
    "catalog":
        "66c455f8be39682da2b414e1c5105a408e81f064204c6dad4c395b70e769fffa",
    "doubled candidates":
        "b9729cb5d32b7bbe13c6a247d119c220893ecabd4512645663878aa9e3044e9d",
    "random_host":
        "70dd35c138dc8a3fd853bceaac8d865cb646e95be7f7f0b1bdc44f4a8912b64f",
    "incidence graphs":
        "24597196200301d9d85b5e3418abc85903ed111d28ad01a6ff353444e12a7f98",
}


def test_labellings_are_pinned():
    """Codes, vertex orders and generators, in the order the search finds
    them, of a fixed corpus: a change to the search that moves any of them
    moves the closure's representatives and every pinned certificate."""
    corpus = _labelling_corpus()
    assert {part: len(labellings) for part, labellings in corpus.items()} == {
        "all_graphs(6)": 156, "catalog": 20, "doubled candidates": 68,
        "random_host": 200, "incidence graphs": 6}
    digests = {part: hashlib.sha256(repr(labellings).encode()).hexdigest()
               for part, labellings in corpus.items()}
    assert digests == _PINNED_LABELLINGS
