"""Rooted minor search: models, verification, triangle preservation."""
import gc
import random
from itertools import combinations, permutations, product

import pytest

from rootedminors import catalog, generate, minors, verification
from rootedminors.isomorphism import is_isomorphism
from rootedminors.minors import (
    FAMILY_A,
    MinorModel,
    SearchBudgetExceeded,
    apply_model,
    find_family_minor,
    find_minor,
    is_planar,
    k5_iff_k331,
    obstruction,
    preserve_triangle_k331,
    preserve_triangle_k5,
    verify_model,
)
from rootedminors.multigraph import (
    GraphError,
    LabeledMultigraph,
    complete_graph,
)


def petersen():
    outer = {i + 1: (i, (i + 1) % 5) for i in range(5)}
    spokes = {i + 6: (i, i + 5) for i in range(5)}
    inner = {i + 11: (i + 5, (i + 2) % 5 + 5) for i in range(5)}
    return LabeledMultigraph(range(10), {**outer, **spokes, **inner})


def test_apply_model_keeps_edge_ids():
    g = complete_graph(5)
    result = apply_model(g, {1, 2}, {3})
    assert set(result.edges) == set(g.edges) - {1, 2, 3}


def test_apply_model_rejects_cyclic_contraction():
    g = complete_graph(4)
    tri = [e for e, pair in g.edges.items() if 3 not in pair]
    assert tri == [1, 2, 4]
    # the smallest edge that closes a cycle in id order is named
    with pytest.raises(GraphError, match=r"\(edge 4\)"):
        apply_model(g, tri, ())


def test_apply_model_rejects_overlap():
    g = complete_graph(4)
    with pytest.raises(GraphError):
        apply_model(g, {1}, {1})


def test_apply_model_drops_isolated_vertices():
    g = LabeledMultigraph({0, 1, 2}, {1: (0, 1), 2: (1, 2)})
    result = apply_model(g, (), {2})
    assert result.sorted_vertices() == [0, 1]


def test_find_minor_identity():
    g = catalog.build("K33").graph
    model = find_minor(g, "K33")
    assert model is not None
    assert not model.contracted and not model.deleted
    ok, diag = verify_model(model)
    assert ok, diag


def test_find_minor_too_small_host():
    assert find_minor(complete_graph(5), "K33") is None


def test_petersen_has_k5_minor():
    model = find_minor(petersen(), "K5")
    assert model is not None
    ok, diag = verify_model(model)
    assert ok, diag


def test_models_are_deterministic():
    m1 = find_minor(petersen(), "K5")
    m2 = find_minor(petersen(), "K5")
    assert m1.contracted == m2.contracted
    assert m1.deleted == m2.deleted
    assert m1.iso == m2.iso


def test_models_match_golden_certificates():
    # recorded from an earlier implementation; each model contracts edges,
    # so a change in how C is chosen shows here
    fig2b = catalog.build("FIG2_B").graph
    models = [
        find_minor(petersen(), "K5"),
        preserve_triangle_k5(fig2b, fig2b.triangles()[0]),
        find_family_minor(catalog.build("G5").graph, FAMILY_A,
                          required={1, 12})[1],
    ]
    assert [m.to_json_dict() for m in models] == [
        {"pattern": "K5", "contracted": [1, 3, 10, 11, 12], "deleted": [],
         "iso": {"0": 0, "2": 1, "4": 2, "5": 3, "6": 4}},
        {"pattern": "K5", "contracted": [2, 11], "deleted": [6],
         "iso": {"0": 0, "1": 1, "3": 3, "4": 4, "6": 2}},
        {"pattern": "K33", "contracted": [10], "deleted": [3, 9],
         "iso": {"0": 0, "1": 2, "2": 1, "3": 3, "4": 5, "5": 4}},
    ]


def test_required_edges_stay_in_the_result():
    g = catalog.build("K33_01").graph
    required = [1, 5, 9]
    model = find_minor(g, "K33", required=required)
    assert model is not None
    kept = set(g.edges) - model.contracted - model.deleted
    assert set(required) <= kept


def test_required_monotonicity():
    g = catalog.build("K33_12").graph
    full = [1, 2, 3]
    assert find_minor(g, "K33", required=full) is not None
    for k in range(3):
        for sub in combinations(full, k):
            assert find_minor(g, "K33", required=sub) is not None


def test_unsatisfiable_required_pair():
    # keeping both added edges of K33_11 leaves no room for a K33 minor
    entry = catalog.build("K33_11")
    required = [entry.edge("u2", "u3"), entry.edge("v2", "v3")]
    assert find_minor(entry.graph, "K33", required=required) is None


def test_required_edge_must_exist():
    with pytest.raises(GraphError):
        find_minor(complete_graph(6), "K33", required=[99])


def test_k33_02_has_no_k33_11_minor():
    # equal size forces the minor to be the host itself, and they differ
    assert find_minor(catalog.build("K33_02").graph, "K33_11") is None


def test_verify_model_rejects_tampering():
    g = catalog.build("K33_11").graph
    model = find_minor(g, "K5")
    assert model is not None
    bad_iso = dict(model.iso)
    keys = sorted(bad_iso)
    bad_iso[keys[0]], bad_iso[keys[1]] = bad_iso[keys[1]], bad_iso[keys[0]]
    tampered = MinorModel(g, model.contracted, model.deleted,
                          model.pattern_name, bad_iso)
    ok, diag = verify_model(tampered)
    if ok:
        # the swap may happen to be an automorphism; force a structural break
        tampered = MinorModel(g, model.contracted,
                              model.deleted | {max(set(g.edges)
                                                   - model.contracted
                                                   - model.deleted)},
                              model.pattern_name, model.iso)
        ok, diag = verify_model(tampered)
    assert not ok and diag


def test_verify_model_of_a_graph_pattern_needs_the_pattern():
    pattern = complete_graph(4)
    model = find_minor(complete_graph(5), pattern)
    assert model is not None and model.pattern_name == ""
    ok, diag = verify_model(model)
    assert not ok and diag
    assert verify_model(model, pattern) == (True, [])


def test_node_cap_is_enforced():
    with pytest.raises(SearchBudgetExceeded):
        find_minor(petersen(), "K5", node_cap=1)


@pytest.mark.parametrize("host_name,pattern_name,required", [
    ("K33_11", "K5", ()),
    ("K33_11", "K33", (1, 2)),
    ("K33_02", "K33_11", ()),
    ("G1", "K33_01", ()),
    ("G5", "K33_11", (3,)),
    ("FIG2_A", "K33", ()),
    ("FIG2_B", "K5", ()),
])
def test_search_agrees_with_brute_force(host_name, pattern_name, required):
    host = catalog.build(host_name).graph
    pattern = catalog.build(pattern_name).graph
    fast = find_minor(host, pattern, required=required)
    slow = verification.minor_oracle(host, pattern, required=required)
    assert (fast is not None) == slow
    if fast is not None:
        ok, diag = verify_model(fast, pattern)
        assert ok, diag


def _k4_with(vertices, extra):
    return LabeledMultigraph(vertices, {
        **dict(enumerate(combinations(range(4), 2), 1)), **extra})


@pytest.mark.parametrize("pattern", [
    _k4_with(range(4), {7: (0, 1)}),
    _k4_with(range(4), {7: (2, 2)}),
    _k4_with(range(5), {}),
], ids=["parallel-edge", "loop", "isolated-vertex"])
def test_pattern_the_search_cannot_certify_is_rejected(pattern):
    # the search would place K4 and return a model that fails verify_model
    with pytest.raises(GraphError):
        find_minor(complete_graph(5), pattern)
    with pytest.raises(GraphError):
        find_minor(complete_graph(3), pattern)  # too small a host as well


def test_family_search_prefers_smaller_patterns():
    assert FAMILY_A == ("K33", "K33_01", "K33_02", "K33_11")
    g = catalog.build("K33_22").graph
    name, model = find_family_minor(g, FAMILY_A)
    assert name == "K33"
    ok, diag = verify_model(model)
    assert ok, diag


def test_triangle_mode_requires_a_triangle():
    g = catalog.build("K33_11").graph
    with pytest.raises(GraphError):
        find_family_minor(g, ("K33_11",), triangle=(1, 2, 3))


def test_triangle_check_matches_the_triangle_list():
    """find_family_minor accepts an edge triple as a triangle exactly when
    host.triangles() lists it, parallels and loops included."""
    rng = random.Random(5)
    hosts = [generate.random_host(rng) for _ in range(300)]
    hosts += [catalog.build(name).graph for name in catalog.list_names()]
    for host in hosts:
        listed = set(host.triangles())
        for triple in combinations(sorted(host.edges), 3):
            try:
                find_family_minor(host, (), triangle=triple)
                accepted = True
            except GraphError:
                accepted = False
            assert accepted == (triple in listed), triple
    e, f, g = catalog.build("K5").graph.triangles()[0]
    for bad in ((e, e, f), (e, f), (e, f, g, e), (e, f, 999)):
        with pytest.raises(GraphError):
            find_family_minor(complete_graph(5), (), triangle=bad)


def test_searches_leave_no_cyclic_garbage():
    hosts = [g for g in generate.three_connected_by_wheels(7) if g.n == 7][:20]
    gc.collect()
    gc.disable()
    try:
        for host in hosts:
            find_minor(host, "K5")
            preserve_triangle_k331(host, host.triangles()[0])
        assert gc.collect() < 100
    finally:
        gc.enable()


def test_triangle_preservation_on_k33_11_itself():
    g = catalog.build("K33_11").graph
    pattern = g
    for tri in g.triangles():
        model = preserve_triangle_k331(g, tri)
        assert model is not None
        assert not model.contracted and not model.deleted
        ok, diag = verify_model(model)
        assert ok, diag
        # the kept triangle maps to a pattern triangle
        images = set()
        for e in tri:
            a, b = g.endpoints(e)
            images.add((model.iso[a], model.iso[b]))
        verts = {v for pair in images for v in pair}
        assert len(verts) == 3
        assert all(pattern.edges_between(a, b) for a, b in
                   combinations(sorted(verts), 2))


@pytest.mark.parametrize("name", ["G5", "G6", "K33_12", "K33_22"])
def test_triangle_preservation_on_larger_hosts(name):
    g = catalog.build(name).graph
    for tri in g.triangles():
        model = preserve_triangle_k331(g, tri)
        assert model is not None
        ok, diag = verify_model(model)
        assert ok, diag


def test_k33_13_class_triangle_is_a_dead_end_for_k33_11():
    """K33_13 with the triangle inside its three-edge class admits no
    K33_11-minor keeping that triangle; the only K33_11-minors of K33_13
    arise by deleting two of those three class edges.  Cross-checked by
    the forest oracle below."""
    entry = catalog.build("K33_13")
    g = entry.graph
    tri = tuple(sorted(entry.edge(a, b) for a, b in
                       (("v1", "v2"), ("v2", "v3"), ("v1", "v3"))))
    assert tri in [tuple(t) for t in g.triangles()]
    assert preserve_triangle_k331(g, tri) is None
    assert verification.minor_oracle(g, "K33_11")
    assert not verification.minor_oracle(g, "K33_11", required=tri)
    # the K5 statement still holds there
    model = preserve_triangle_k5(g, tri)
    assert model is not None
    ok, diag = verify_model(model)
    assert ok, diag


def test_preserve_triangle_k5_identity_on_k5():
    g = catalog.build("K5").graph
    tri = g.triangles()[0]
    model = preserve_triangle_k5(g, tri)
    assert model.pattern_name == "K5"
    assert not model.contracted and not model.deleted


def test_planarity_and_obstructions():
    assert is_planar(complete_graph(4))
    assert obstruction(complete_graph(4)) is None
    assert not is_planar(complete_graph(5))
    name, model = obstruction(complete_graph(5))
    assert name == "K5"
    assert verify_model(model)[0]
    name, model = obstruction(catalog.build("K33_02").graph)
    assert name == "K33"
    assert verify_model(model)[0]


def icosahedron():
    pairs = [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
        (1, 6), (1, 7), (2, 7), (2, 8), (3, 8), (3, 9),
        (4, 9), (4, 10), (5, 10), (5, 6), (6, 7), (7, 8),
        (8, 9), (9, 10), (10, 6),
        (6, 11), (7, 11), (8, 11), (9, 11), (10, 11),
    ]
    return LabeledMultigraph(range(12),
                             {i: p for i, p in enumerate(pairs, start=1)})


def test_k5_iff_k331_examples():
    assert k5_iff_k331(catalog.build("K33_11").graph)
    assert k5_iff_k331(catalog.build("K33").graph)
    assert k5_iff_k331(icosahedron())


def test_k5_iff_k331_preconditions():
    with pytest.raises(GraphError):
        k5_iff_k331(LabeledMultigraph(  # a 5-cycle
            range(5), {i + 1: (i, (i + 1) % 5) for i in range(5)}))
    with pytest.raises(GraphError):
        k5_iff_k331(catalog.build("K5").graph)
    doubled = complete_graph(4).with_edge(99, 0, 1)
    with pytest.raises(GraphError):
        k5_iff_k331(doubled)


def test_model_json_shape():
    model = find_minor(catalog.build("K33_11").graph, "K5")
    data = model.to_json_dict()
    assert set(data) == {"pattern", "contracted", "deleted", "iso"}
    assert data["pattern"] == "K5"
    assert data["contracted"] == sorted(model.contracted)


def _pattern_pairs(pattern):
    return {frozenset(pair) for pair in pattern.edges.values()}


def _all_pin_maps(required, host, pattern):
    """Every pin map, found by trying every vertex map of the endpoints."""
    ends = sorted({v for e in required for v in host.endpoints(e)})
    pairs = _pattern_pairs(pattern)
    maps = []
    for images in product(pattern.sorted_vertices(), repeat=len(ends)):
        pins = dict(zip(ends, images))
        kept = [frozenset(pins[v] for v in host.endpoints(e))
                for e in required]
        if all(k in pairs for k in kept) and len(set(kept)) == len(kept):
            maps.append(pins)
    return maps


def _automorphisms(pattern):
    verts = pattern.sorted_vertices()
    pairs = _pattern_pairs(pattern)
    return [sigma for sigma in (dict(zip(verts, perm))
                                for perm in permutations(verts))
            if {frozenset(sigma[v] for v in pair) for pair in pairs} == pairs]


def _disjoint_pair(g):
    e, *rest = sorted(g.edges)
    ends = set(g.endpoints(e))
    return e, next(f for f in rest if not ends & set(g.endpoints(f)))


ORBIT_TABLE = [
    ("K5", "triangle", 60, 1),
    ("K33_11", "triangle", 36, 6),
    ("K33", "disjoint pair", 288, 6),
    ("K5", "disjoint pair", 360, 5),
]


@pytest.mark.parametrize("pattern_name,kind,maps,orbits", ORBIT_TABLE)
def test_pin_map_orbits_partition_all_pin_maps(pattern_name, kind, maps,
                                               orbits):
    pattern = catalog.build(pattern_name).graph
    host = catalog.build("K33_22").graph
    required = (host.triangles()[0] if kind == "triangle"
                else _disjoint_pair(host))
    reps = list(minors._pin_assignments(required, host, pattern))
    full = _all_pin_maps(required, host, pattern)
    assert (len(full), len(reps)) == (maps, orbits)
    key = lambda pins: tuple(sorted(pins.items()))
    auts = _automorphisms(pattern)
    orbit_of = [{key({v: sigma[p] for v, p in rep.items()}) for sigma in auts}
                for rep in reps]
    assert sum(len(orbit) for orbit in orbit_of) == len(full)
    assert set().union(*orbit_of) == {key(pins) for pins in full}


def _pin_maps_in_full(required, host, pattern):
    """Every pin map in the order of the search before orbit reduction."""
    req = sorted(required)
    pat_edges = sorted(tuple(sorted(pair)) for pair in _pattern_pairs(pattern))

    def rec(i, pins, used):
        if i == len(req):
            yield dict(pins)
            return
        x, y = host.endpoints(req[i])
        if x == y:
            return
        for p, q in pat_edges:
            if (p, q) in used:
                continue
            for px, py in ((p, q), (q, p)):
                if pins.get(x, px) == px and pins.get(y, py) == py:
                    yield from rec(i + 1, {**pins, x: px, y: py},
                                   used | {(p, q)})

    yield from rec(0, {}, frozenset())


def _pinned_queries():
    for name in catalog.list_names():
        g = catalog.build(name).graph
        for tri in g.triangles():
            for pattern_name in ("K33_11", "K5"):
                yield name, pattern_name, tuple(tri)
        for pair in list(combinations(sorted(g.edges), 2))[::3]:
            for pattern_name in ("K33", "K5"):
                yield name, pattern_name, pair


def test_orbit_reduction_returns_the_full_search_model(monkeypatch):
    queries = list(_pinned_queries())
    reduced = [find_minor(catalog.build(h).graph, p, required=req)
               for h, p, req in queries]
    monkeypatch.setattr(minors, "_pin_assignments", _pin_maps_in_full)
    full = [find_minor(catalog.build(h).graph, p, required=req)
            for h, p, req in queries]
    assert any(m is None for m in full) and any(m is not None for m in full)
    for query, a, b in zip(queries, reduced, full):
        assert (a and a.to_json_dict()) == (b and b.to_json_dict()), query


def _masks(g):
    """Neighbourhood masks of g, bit i for the i-th vertex in sorted order."""
    index = {v: i for i, v in enumerate(g.sorted_vertices())}
    nbr = [0] * g.n
    for a, b in g.edges.values():
        if a != b:
            nbr[index[a]] |= 1 << index[b]
            nbr[index[b]] |= 1 << index[a]
    return nbr


def _brute_connected_subsets(nbr, pool, must, max_size):
    subsets = set()
    for sub in range(1, 1 << len(nbr)):
        if sub & ~pool or sub & must != must or sub.bit_count() > max_size:
            continue
        reached = sub & -sub
        while True:
            grown = reached
            for i in range(len(nbr)):
                if reached >> i & 1:
                    grown |= nbr[i] & sub
            if grown == reached:
                break
            reached = grown
        if reached == sub:
            subsets.add(sub)
    return subsets


def _subset_cases():
    rng = random.Random(12)
    graphs = [catalog.build(name).graph for name in catalog.list_names()]
    for _ in range(30):
        n = rng.randint(4, 9)
        pairs = [(a, b) for a, b in combinations(range(n), 2)
                 if rng.random() < 0.4]
        graphs.append(LabeledMultigraph(range(n), dict(enumerate(pairs, 1))))
    for g in graphs:
        nbr = _masks(g)
        full = (1 << len(nbr)) - 1
        pool = full & ~(1 << rng.randrange(len(nbr)))
        members = [i for i in range(len(nbr)) if pool >> i & 1]
        for must in (0, 1 << rng.choice(members),
                     sum(1 << i for i in rng.sample(members, 2))):
            for max_size in (1, 3, len(nbr)):
                yield nbr, pool, must, max_size


def test_connected_subsets_come_once_each_in_order():
    cases = list(_subset_cases())
    assert len(cases) == 50 * 3 * 3
    for nbr, pool, must, max_size in cases:
        out = list(minors._connected_subsets(nbr, pool, must, max_size,
                                             [10 ** 9]))
        subsets = [sub for sub, _ in out]
        assert len(subsets) == len(set(subsets))
        assert set(subsets) == _brute_connected_subsets(nbr, pool, must,
                                                        max_size)
        for sub, reach in out:
            union = 0
            for i in range(len(nbr)):
                if sub >> i & 1:
                    union |= nbr[i]
            assert reach == union
        if not must:
            smallest = [sub & -sub for sub in subsets]
            assert smallest == sorted(smallest)


FLOOR_CASES = [
    ("K5", (), 120),
    ("K33", (), 72),
    ("K33_11", (), 8),
    ("K5", (0, 1, 2), 2),  # the shape of a K5 pin map on a host triangle
]


@pytest.mark.parametrize("name,pinned,group_size", FLOOR_CASES)
def test_symmetry_floors_keep_one_placement_per_orbit(name, pinned,
                                                      group_size):
    pattern = catalog.build(name).graph
    vertices, edges, order = minors._pattern_shape(pattern)
    order = tuple(sorted(order, key=lambda p: p not in pinned))
    floors = minors._symmetry_floors(vertices, edges, order,
                                     frozenset(pinned))
    assert all(f is None or f < i for i, f in enumerate(floors))
    group = [sigma for sigma in _automorphisms(pattern)
             if all(sigma[p] == p for p in pinned)]
    assert len(group) == group_size
    # branch sets are disjoint, so their smallest host vertices differ; of
    # the group's images of any such placement exactly one meets the floors
    rng = random.Random(7)
    for _ in range(100):
        smallest = dict(zip(vertices, rng.sample(range(100), len(vertices))))
        meets = [sigma for sigma in group
                 if all(f is None
                        or smallest[sigma[order[i]]] > smallest[sigma[order[f]]]
                        for i, f in enumerate(floors))]
        assert len(meets) == 1


def test_symmetry_floors_form_a_chain_on_k5():
    vertices, edges, order = minors._pattern_shape(catalog.build("K5").graph)
    assert order == (0, 1, 2, 3, 4)
    assert minors._symmetry_floors(vertices, edges, order, frozenset()) \
        == (None, 0, 1, 2, 3)
    assert minors._symmetry_floors(vertices, edges, order,
                                   frozenset({0, 1, 2})) \
        == (None, None, None, None, 3)


def _closure_answers():
    answers = []
    for h in generate.three_connected_by_wheels(7):
        models = [find_minor(h, p) for p in ("K5", "K33", "K33_11")]
        for tri in h.triangles():
            models += [preserve_triangle_k331(h, tri),
                       preserve_triangle_k5(h, tri)]
        answers.append([m and m.to_json_dict() for m in models])
    return answers


def test_symmetry_floors_return_the_unbroken_search_model(monkeypatch):
    with_floors = _closure_answers()
    monkeypatch.setattr(minors, "_symmetry_floors",
                        lambda vertices, edges, order, pinned:
                        (None,) * len(order))
    assert _closure_answers() == with_floors
    flat = [m for models in with_floors for m in models]
    assert len(with_floors) == 157
    assert None in flat and any(m is not None for m in flat)


def test_automorphisms_come_from_the_labelling_generators():
    for name in catalog.list_names():
        pattern = catalog.build(name).graph
        vertices, edges, _ = minors._pattern_shape(pattern)
        assert list(minors._automorphisms(vertices, edges)) \
            == _automorphisms(pattern), name
    # ten vertices: the brute force would try 10! maps
    vertices, edges, _ = minors._pattern_shape(petersen())
    auts = minors._automorphisms(vertices, edges)
    assert len(auts) == len({tuple(s.values()) for s in auts}) == 120
    assert all(is_isomorphism(petersen(), petersen(), s) for s in auts)


def test_forcing_plan_on_the_floor_chains():
    assert minors._forcing_plan((None, 0, 1, 2, 3)) == ((),) * 5
    vertices, edges, order = minors._pattern_shape(
        catalog.build("K33_11").graph)
    floors = minors._symmetry_floors(vertices, edges, order, frozenset())
    assert floors.count(None) == 3
    assert minors._forcing_plan(floors)[:-1] == (None,) * 5
    assert minors._forcing_plan(floors)[-1] == ()


def _octahedron():
    """K6 minus a perfect matching: planar, so it has no K5-minor."""
    return LabeledMultigraph(range(6), dict(enumerate(
        ((a, b) for a in range(6) for b in range(a + 1, 6) if b != a + 3),
        start=1)))


def test_forcing_cuts_the_octahedron_k5_search():
    # the search without forcing needs 230 nodes to answer this "no"
    assert find_minor(_octahedron(), "K5", node_cap=40) is None
    with pytest.raises(SearchBudgetExceeded):
        find_minor(_octahedron(), "K5", node_cap=30)


def _k5_with_vertex_0_apart():
    """K5 on vertices 1-5 with vertex 0 isolated, then in a triangle."""
    k5 = list(combinations(range(1, 6), 2))
    return [LabeledMultigraph(range(6), dict(enumerate(k5, 1))),
            LabeledMultigraph(range(8), dict(enumerate(
                k5 + [(0, 6), (6, 7), (0, 7)], 1)))]


def test_forcing_is_off_on_disconnected_hosts(monkeypatch):
    hosts = _k5_with_vertex_0_apart()
    for host in hosts:
        model = find_minor(host, "K5")
        assert model is not None and verify_model(model)[0]
    # forcing vertex 0 into the first branch set would answer "no"
    monkeypatch.setattr(minors, "connected", lambda nbr, alive: True)
    assert all(find_minor(host, "K5") is None for host in hosts)


def test_unpinned_search_agrees_with_the_oracle_on_six_vertices():
    graphs = generate.all_graphs(6)
    assert len(graphs) == 156
    positives = 0
    for g in graphs:
        for name in ("K5", "K33", "K33_11"):
            model = find_minor(g, name)
            assert (model is not None) == verification.minor_oracle(g, name), \
                (g.edges, name)
            if model is not None:
                assert verify_model(model)[0]
                positives += 1
    assert positives == 26
