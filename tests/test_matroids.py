"""GF(2) matroids: minors, duality, isomorphism, and the R12/R10 facts."""
import hashlib
import json
import random
from functools import cached_property
from itertools import combinations, permutations

import pytest

from rootedminors import catalog, generate, matroids, minors
from rootedminors.isomorphism import orbit
from rootedminors.matroids import (
    BinaryMatroid,
    MatroidError,
    cycle_matroid,
    matroid_has_minor,
    matroid_isomorphic,
    r10,
    r12,
    validate_matroid_iso,
    verify_r12_claims,
)
from rootedminors.multigraph import LabeledMultigraph, complete_graph


def test_r12_shape():
    m = r12()
    assert m.rank_value == 6 and m.size == 12
    assert m.elements == tuple(range(1, 13))
    assert m.simplify().size == m.size


def test_r10_shape():
    m = r10()
    assert m.rank_value == 5 and m.size == 10
    assert m.simplify().size == m.size


def test_cycle_matroid_ranks():
    assert cycle_matroid(catalog.build("K33").graph).rank_value == 5
    assert cycle_matroid(catalog.build("K33").graph).size == 9
    assert cycle_matroid(catalog.build("K5").graph).rank_value == 4
    assert cycle_matroid(catalog.build("K5").graph).size == 10


def test_cycle_matroid_circuits_are_cycles():
    m = cycle_matroid(catalog.build("K33").graph)
    sizes = sorted(len(c) for c in m.circuits())
    # K3,3 has nine 4-cycles and six 6-cycles
    assert sizes == [4] * 9 + [6] * 6


def test_contract_of_r12():
    c = r12().contract(1)
    assert c.rank_value == 5 and c.size == 11


def test_loops_and_parallels():
    g = LabeledMultigraph({0, 1, 2}, {1: (0, 1), 2: (0, 1), 3: (1, 2),
                                      4: (2, 2)})
    m = cycle_matroid(g)
    assert m.rank([4]) == 0  # loop
    assert m.rank([1, 2]) == 1  # parallel pair
    s = m.simplify()
    assert s.elements == (1, 3)


def test_simplify_is_identity_on_simple():
    m = r12()
    assert m.simplify().elements == m.elements


def test_si_of_r12_contraction_has_10_elements():
    si = r12().contract(1).simplify()
    assert si.rank_value == 5 and si.size == 10


def test_dual_involution():
    m = r12()
    dd = m.dual().dual()
    assert matroid_isomorphic(m, dd) is not None


def test_dual_rank_complement():
    m = cycle_matroid(catalog.build("K5").graph)
    assert m.dual().rank_value == m.size - m.rank_value


def test_delete_commutes_with_graph_deletion():
    g = catalog.build("K5").graph
    m = cycle_matroid(g)
    for e in sorted(g.edges):
        rest = {f: pair for f, pair in g.edges.items() if f != e}
        assert matroid_isomorphic(m.delete(e), cycle_matroid(
            LabeledMultigraph(g.vertices, rest))) is not None


@pytest.mark.parametrize("name", ["K33", "K33_01", "K5", "G1"])
def test_contract_commutes_with_graph_contraction(name):
    g = catalog.build(name).graph
    m = cycle_matroid(g)
    for e in sorted(g.edges):
        assert matroid_isomorphic(m.contract(e),
                                  cycle_matroid(g.contract_edge(e))) is not None


def test_minor_operations_commute():
    m = r12()
    a = m.contract(2).delete(9)
    b = m.delete(9).contract(2)
    assert a.elements == b.elements
    assert all(a.columns[e] == b.columns[e] for e in a.elements) or \
        matroid_isomorphic(a, b) is not None
    assert validate_matroid_iso(a, b, {e: e for e in a.elements})


def test_rank_submodularity_on_random_subsets():
    rng = random.Random(5)
    m = r12()
    for _ in range(50):
        a = set(rng.sample(m.elements, rng.randint(0, 8)))
        b = set(rng.sample(m.elements, rng.randint(0, 8)))
        assert m.rank(a | b) + m.rank(a & b) <= m.rank(a) + m.rank(b)


def test_matroid_iso_rejects_different_ranks():
    k5 = cycle_matroid(catalog.build("K5").graph)
    k33 = cycle_matroid(catalog.build("K33").graph)
    assert matroid_isomorphic(k5, k33) is None


def test_r12_self_dual_map_sends_1_to_7():
    """No automorphism of R12 sends 1 to 7, though one sends 1 to 6, so
    the report's 1 -> 7 map is an isomorphism onto the dual composed with
    an automorphism."""
    m = r12()
    reach = orbit([1], m.automorphism_generators())
    assert 6 in reach and 7 not in reach
    report = verify_r12_claims()["self_dual_1_to_7"]
    iso = {int(k): v for k, v in report["map"].items()}
    assert iso[1] == 7 and validate_matroid_iso(m, m.dual(), iso)


def test_wheel_duals_are_graphic():
    # planar duals stay graphic: no M(K5) or M(K33) minor can appear
    k5m = cycle_matroid(catalog.build("K5").graph)
    k33m = cycle_matroid(catalog.build("K33").graph)
    for spokes in (3, 4, 5):
        d = cycle_matroid(generate.wheel(spokes)).dual()
        assert matroid_has_minor(d, k5m) is None
        assert matroid_has_minor(d, k33m) is None


def test_identity_minor_with_everything_required():
    m = cycle_matroid(catalog.build("K5").graph)
    witness = matroid_has_minor(m, m, required=m.elements)
    assert witness == (frozenset(), frozenset())


def test_minor_search_rejects_unknown_required():
    with pytest.raises(MatroidError):
        matroid_has_minor(r12(), r10(), required=(99,))


def test_r10_deletions_are_the_k33_matroid():
    """Every single-element deletion of R10 is M(K3,3), so R10 does have
    minors among the extension-family cycle matroids; only the larger
    members are excluded by size and rank."""
    k33m = cycle_matroid(catalog.build("K33").graph)
    m = r10()
    for e in m.elements:
        assert matroid_isomorphic(m.delete(e), k33m) is not None
    k11 = cycle_matroid(catalog.build("K33_11").graph)
    assert matroid_has_minor(m, k11) is None


def test_r10_is_not_graphic():
    m = r10()
    for g in generate.all_graphs(6):
        if g.m == 10:
            assert matroid_isomorphic(m, cycle_matroid(g)) is None


def test_from_rows_validates():
    for rows, elements in [
        ([[1, 0]], [1, 1]),
        ([[1, 0, 1]], [1, 2]),
        ([[2, 0]], [1, 2]),
        ([[True, 0]], [1, 2]),
        ([[1.0, 0]], [1, 2]),
        (5, [1]),
        ([[1]], 3),
        ([[1, 0]], [1, [2]]),
        ([1.5], [1]),
        ([6], [1, 2]),
        ([[1, 0]], [1, "a"]),
    ]:
        with pytest.raises(MatroidError):
            BinaryMatroid.from_rows(rows, elements)


def _rows_of_columns(columns, height):
    """Row i holds bit i of each column, bit j for the j-th column."""
    return [sum(((c >> i) & 1) << j for j, c in enumerate(columns))
            for i in range(height)]


def test_pivot_independence_of_contraction():
    # contracting via any admissible pivot row yields the same matroid
    m = r12()
    e = 7
    col = m.columns[e]
    reference = m.contract(e)
    for t in range(col.bit_length()):
        if not (col >> t) & 1:
            continue
        low = (1 << t) - 1
        cols = {}
        for x in m.elements:
            if x == e:
                continue
            c = m.columns[x]
            if (c >> t) & 1:
                c ^= col
            cols[x] = (c & low) | ((c >> (t + 1)) << t)
        elements = tuple(x for x in m.elements if x != e)
        alt = BinaryMatroid(elements, _rows_of_columns(
            [cols[x] for x in elements], m.rank_value - 1))
        assert validate_matroid_iso(alt, reference,
                                    {x: x for x in alt.elements})


def test_r12_claims_all_pass():
    report = verify_r12_claims()
    assert all(v["pass"] for v in report.values()), {
        k: v["pass"] for k, v in report.items()
    }
    assert report["pair_coverage"]["covered"] == 66
    assert report["si_contractions_graphic"]["orbit_of_1"] == [1, 2, 5, 6, 9, 10]
    assert report["row_reversal_automorphism"]["map"]["1"] == 6


def test_r12_automorphism_orbits():
    """Aut(R12) has 24 elements and splits the ground set into two orbits of
    six; contracting an element of the first gives (after simplification)
    the cycle matroid of the one-added-edge K3,3 extension, while
    contracting an element of the second gives a simple 11-element matroid
    that is not graphic."""
    m = r12()
    gens = m.automorphism_generators()
    group = [dict(zip(m.elements, a)) for a in orbit([m.elements], gens)]
    assert len(group) == 24
    assert all(validate_matroid_iso(m, m, a) for a in group)
    orbit1 = sorted(orbit([1], gens))
    assert orbit1 == [1, 2, 5, 6, 9, 10]
    # the orbit is complete: an automorphism keeps the size of si(R12/x),
    # and that size is 10 exactly on the orbit found
    sizes = {x: m.contract(x).simplify().size for x in m.elements}
    assert [x for x in m.elements if sizes[x] == 10] == orbit1
    assert all(sizes[x] == 11 for x in m.elements if x not in orbit1)
    c7 = m.contract(7)
    assert c7.simplify().size == c7.size == 11
    for g in generate.all_graphs(6):
        if g.m == 11:
            assert matroid_isomorphic(c7, cycle_matroid(g)) is None
    # it is a connected matroid, so a graphic representation would need a
    # connected graph: rank 5 forces 6 vertices, ruled out above
    circuits = c7.circuits()
    for e, f in combinations(c7.elements, 2):
        assert any(e in c and f in c for c in circuits)


def test_r12_claims_callers_get_independent_copies():
    first = verify_r12_claims()
    first["pair_coverage"]["covered"] = 0
    first.clear()
    assert verify_r12_claims()["pair_coverage"]["covered"] == 66


def _brute_force_circuits(m):
    """Minimal non-empty subsets whose columns XOR to zero."""
    found = []
    for k in range(1, m.size + 1):
        for subset in combinations(m.elements, k):
            acc = 0
            for e in subset:
                acc ^= m.columns[e]
            if acc == 0 and not any(c <= set(subset) for c in found):
                found.append(frozenset(subset))
    return found


def _random_binary_matroid(rng):
    n = rng.randint(1, 10)
    r = rng.randint(0, min(n, 5))
    rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(r)]
    if n >= 3 and rng.random() < 0.5:
        # force a loop and a parallel pair
        for row in rows:
            row[0] = 0
            row[2] = row[1]
    return BinaryMatroid.from_rows(rows, range(1, n + 1))


@pytest.mark.parametrize("m", [r12(), r10()], ids=["R12", "R10"])
def test_contract_many_is_dual_of_delete_in_dual(m):
    """M/C = (M*\\C)*, a route that does not touch the contraction code."""
    for k in range(4):
        for cset in combinations(m.elements, k):
            got = m.contract_many(cset)
            want = m.dual().delete_many(cset).dual()
            assert got.elements == want.elements, cset
            assert got.rank_value == want.rank_value, cset
            assert validate_matroid_iso(
                got, want, {e: e for e in got.elements}), cset


def _circuit_cases():
    cases = []
    for name in catalog.list_names():
        m = cycle_matroid(catalog.build(name).graph)
        cases += [(name, m), (name + "*", m.dual())]
    cases += [("R10", r10()), ("R12", r12()), ("R12/1", r12().contract(1))]
    rng = random.Random(11)
    cases += [("random%d" % i, _random_binary_matroid(rng)) for i in range(50)]
    return cases


def test_small_circuit_counts_match_the_circuits():
    """Loops, parallel pairs, 3- and 4-circuits counted from the columns
    equal the circuits of sizes 1 to 4, on matroids with loops and parallel
    classes and on every single-element contraction of R12."""
    cases = _circuit_cases()
    cases += [("R12/%d" % e, r12().contract(e)) for e in r12().elements]
    assert any(m._small_circuits[0] and m._small_circuits[1]
               for _, m in cases)
    assert any(m._small_circuits[3] and m.simplify().size != m.size
               for _, m in cases)
    for name, m in cases:
        sizes = [c.bit_count() for c in m._circuits]
        assert m._small_circuits == tuple(
            sizes.count(k) for k in (1, 2, 3, 4)), name


def test_small_circuit_counts_ignore_labels_and_row_operations():
    """A copy with its elements renamed and held in another order, whose
    rows are mixed by random row operations, gets the same four counts."""
    rng = random.Random(27)
    for _ in range(50):
        m = _random_binary_matroid(rng)
        order = rng.sample(m.elements, m.size)
        rows = _rows_of_columns([m.columns[e] for e in order], m.rank_value)
        for _ in range(3 * len(rows) if len(rows) > 1 else 0):
            i, j = rng.sample(range(len(rows)), 2)
            rows[i] ^= rows[j]
        copy = BinaryMatroid(["x%d" % e for e in order], rows)
        assert validate_matroid_iso(
            m, copy, {e: "x%d" % e for e in m.elements})
        assert copy._small_circuits == m._small_circuits, m


def test_r12_pair_queries_build_circuits_only_for_their_witnesses(
        monkeypatch):
    """R12 against the four family-(a) cycle matroids on all 66 element
    pairs: every candidate that is not isomorphic to its target differs
    from it on the circuits of up to four elements, so circuits are built
    once per positive answer, for the witness, and never otherwise."""
    built = []
    circuits = BinaryMatroid._circuits.func
    counted = cached_property(lambda self: built.append(self) or circuits(self))
    counted.__set_name__(BinaryMatroid, "_circuits")
    monkeypatch.setattr(BinaryMatroid, "_circuits", counted)
    m = r12()
    targets = [cycle_matroid(catalog.build(name).graph)
               for name in ("K33", "K33_01", "K33_02", "K33_11")]
    for t in targets:
        t._circuits
    built.clear()
    positives = sum(
        matroid_has_minor(m, t, required=pair) is not None
        for pair in combinations(m.elements, 2) for t in targets)
    assert positives == 132 and len(built) == 132


def _eliminated_rank(columns):
    """GF(2) rank of column bitmasks by elimination on the highest bit."""
    basis = {}
    for c in columns:
        while c and c.bit_length() in basis:
            c ^= basis[c.bit_length()]
        if c:
            basis[c.bit_length()] = c
    return len(basis)


def test_row_representation_agrees_with_columns():
    for name, m in _circuit_cases():
        if m.size <= 8:
            for k in range(m.size + 1):
                for subset in combinations(m.elements, k):
                    assert m.rank(subset) == _eliminated_rank(
                        m.columns[e] for e in subset), (name, subset)
        d = m.dual()
        assert d.rank_value == m.size - m.rank_value, name
        assert validate_matroid_iso(d.dual(), m, {e: e for e in m.elements}), name
        assert m.delete_many(()) is m, name


def _preserves_every_rank(m1, m2, mapping):
    """The definition: the bijection keeps the rank of every subset."""
    return all(
        _eliminated_rank(m1.columns[e] for e in subset)
        == _eliminated_rank(m2.columns[mapping[e]] for e in subset)
        for k in range(m1.size + 1)
        for subset in combinations(m1.elements, k))


def _shuffled_positions(m, rng):
    """The same labelled matroid with its elements held in another order."""
    order = rng.sample(m.elements, m.size)
    return BinaryMatroid(order, _rows_of_columns(
        [m.columns[e] for e in order], m.rank_value))


def test_validation_agrees_with_rank_on_every_subset():
    rng = random.Random(17)
    small = [m for _, m in _circuit_cases() if m.size <= 8]
    small += [_shuffled_positions(m, rng) for m in small]
    answers = []
    for a in small:
        for b in small:
            if a.size != b.size:
                continue
            maps = [{e: e for e in a.elements}]
            maps += [dict(zip(a.elements, rng.sample(b.elements, b.size)))
                     for _ in range(2)]
            iso = matroid_isomorphic(a, b)
            if iso is not None:
                maps.append(iso)
            for mapping in maps:
                got = validate_matroid_iso(a, b, mapping)
                assert got == _preserves_every_rank(a, b, mapping), mapping
                answers.append((got, a.rank_value == b.rank_value))
    assert {got for got, _ in answers} == {True, False}
    assert (False, False) in answers  # pairs of different ranks were asked


def test_isomorphism_agrees_with_every_label_bijection():
    """The verdict is the brute force's: some bijection of labels keeps
    every rank.  The generators give each element the brute force's orbit
    and generate a group of the brute force's size."""
    rng = random.Random(23)
    small = [m for _, m in _circuit_cases() if m.size <= 6]
    small += [_shuffled_positions(m, rng) for m in small]
    verdicts, group_sizes = set(), set()
    for a in small:
        for b in small:
            if a.size != b.size:
                continue
            isos = []
            for image in permutations(b.elements):
                mapping = dict(zip(a.elements, image))
                if _preserves_every_rank(a, b, mapping):
                    isos.append(mapping)
            got = matroid_isomorphic(a, b)
            assert (got is not None) == bool(isos), (a, b)
            assert got is None or got in isos, (a, b)
            verdicts.add(bool(isos))
            if b is a:
                autos = isos
        gens = a.automorphism_generators()
        assert all(p in autos for p in gens), a
        for e in a.elements:
            assert orbit([e], gens) == {p[e] for p in autos}, (a, e)
        group = orbit([a.elements], gens)
        assert len(group) == len(autos), a
        group_sizes.add(len(group))
    assert verdicts == {False, True}
    assert 1 in group_sizes and max(group_sizes) > 2


def test_r12_claims_label_r12_and_its_dual_once_each(monkeypatch):
    """The orbit of 1 and the map onto the dual both come from R12's one
    labelling, so only R12 and R12* label 59-vertex incidence graphs."""
    sizes = []
    real = matroids.canonical_labeling

    def counted(g):
        sizes.append(g.n)
        return real(g)

    monkeypatch.setattr(matroids, "canonical_labeling", counted)
    matroids._r12_claims.cache_clear()
    assert all(v["pass"] for v in verify_r12_claims().values())
    assert sizes.count(59) == 2


def test_validation_rejects_maps_that_are_not_label_bijections():
    m = cycle_matroid(catalog.build("K33").graph)
    assert validate_matroid_iso(m, m, {e: e for e in m.elements})
    assert not validate_matroid_iso(m, m, {str(e): e for e in m.elements})
    assert not validate_matroid_iso(m, m, {e: str(e) for e in m.elements})
    assert not validate_matroid_iso(m, m, {e: e for e in m.elements[1:]})
    assert not validate_matroid_iso(
        m, m, {e: m.elements[0] for e in m.elements})
    first, second = m.elements[:2]
    onto_deletion = {e: e for e in m.elements}
    onto_deletion[first] = second
    assert not validate_matroid_iso(m, m.delete(first), onto_deletion)


def test_circuits_match_brute_force():
    cases = _circuit_cases()
    assert any(m.rank_value == 0 for _, m in cases)
    assert any(m.simplify().size != m.size and m.rank_value > 0
               for _, m in cases)
    for name, m in cases:
        circuits = m.circuits()
        assert sorted(circuits, key=sorted) == sorted(
            _brute_force_circuits(m), key=sorted), name
        assert circuits == sorted(
            circuits, key=lambda c: (len(c), sorted(map(str, c)))), name


def test_minor_witnesses_are_unchanged():
    """Witnesses recorded before the search lost its candidate pre-filters."""
    expected = {
        (1, 2): {"K33": ([5], [6, 9]), "K33_01": ([5], [9]),
                 "K33_02": None, "K33_11": None},
        (3, 8): {"K33": ([1], [2, 5]), "K33_01": ([1], [5]),
                 "K33_02": None, "K33_11": None},
    }
    for pair, by_target in expected.items():
        for name, want in by_target.items():
            target = cycle_matroid(catalog.build(name).graph)
            w = matroid_has_minor(r12(), target, required=pair)
            got = None if w is None else (sorted(w[0]), sorted(w[1]))
            assert got == want, (pair, name)
    k33m = cycle_matroid(catalog.build("K33").graph)
    assert matroid_has_minor(r10(), k33m, required=(1, 2)) == (
        frozenset(), frozenset({3}))


def test_every_r12_pair_witness_is_pinned():
    """A digest of all 66 first hits of the pair-coverage claim, recorded
    while isomorphisms were still validated by two tables of subset ranks."""
    witnesses = verify_r12_claims()["pair_coverage"]["witnesses"]
    assert len(witnesses) == 66
    digest = hashlib.sha256(
        json.dumps(witnesses, sort_keys=True).encode()).hexdigest()
    assert digest == (
        "765c6817b1089541be59a21276bdc5a5a95de82c661141e1c9f375ca7d9dc233")


def test_graphic_minor_search_skips_dependent_contractions(monkeypatch):
    """Contracting 3 of K33_11's 11 edges to reach a triangle's matroid
    meets contraction sets that hold one of its 6 triangles.  The search
    skips them, and it agrees with find_minor on every edge pair and every
    three edges at one vertex."""
    host = catalog.build("K33_11").graph
    triangle = complete_graph(3)
    m, target = cycle_matroid(host), cycle_matroid(triangle)
    dependent = []
    contract_many = BinaryMatroid.contract_many

    def spy(self, es):
        out = contract_many(self, es)
        if self is m and out.rank_value != target.rank_value:
            dependent.append(frozenset(es))
        return out

    monkeypatch.setattr(BinaryMatroid, "contract_many", spy)
    queries = [frozenset(pair) for pair in combinations(sorted(host.edges), 2)]
    queries += [frozenset(three) for v in host.sorted_vertices()
                for three in combinations(host.incident(v), 3)]
    verdicts = []
    for required in queries:
        witness = matroid_has_minor(m, target, required=required)
        model = minors.find_minor(host, triangle, required=required)
        assert (witness is None) == (model is None), sorted(required)
        verdicts.append(witness is not None)
        if witness is not None:
            cset, dset = witness
            assert not required & (cset | dset)
            minor = m.contract_many(cset).delete_many(dset)
            assert matroid_isomorphic(minor, target) is not None
    assert (verdicts.count(True), verdicts.count(False)) == (55, 18)
    assert len(dependent) == 42
    assert all(m.rank(cset) < 3 for cset in dependent)
