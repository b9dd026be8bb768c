"""Generators: exhaustive counts cross-checked two ways, orbit pruning,
random host sanity."""
import hashlib
import random
from itertools import combinations, permutations
from math import factorial

from rootedminors import catalog, generate, io, verification
from rootedminors.isomorphism import are_isomorphic, canonical_labeling
from rootedminors.minors import is_planar
from rootedminors.multigraph import (edge_additions, is_three_connected,
                                     three_connected_splits)

# classes of simple graphs on n vertices
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# 3-connected classes
THREE_CONNECTED_COUNTS = {4: 1, 5: 3, 6: 17, 7: 136}


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


def test_edge_addition_counts_match_orbit_counting():
    for n, expected in GRAPH_COUNTS.items():
        if n <= 6:
            assert len(generate.all_graphs(n)) == expected
        assert count_graphs_orbit(n) == expected


def test_edge_addition_counts_match_mask_brute_force():
    for n in range(1, 7):
        assert len(generate.all_graphs(n)) == count_graphs_masks(n)


def test_no_two_representatives_are_isomorphic():
    graphs = generate.all_graphs(5)
    for i, g in enumerate(graphs):
        for h in graphs[i + 1:]:
            assert are_isomorphic(g, h) is None


def _filtered(n):
    """The 3-connected classes on n vertices, by filtering all_graphs(n)."""
    return [g for g in generate.all_graphs(n) if is_three_connected(g)]


def test_three_connected_counts():
    for n, expected in THREE_CONNECTED_COUNTS.items():
        assert len(_filtered(n)) == expected


def test_wheel_closure_agrees_with_filtering():
    """Wheels closed under edge addition and vertex splitting give the same
    3-connected classes as filtering all_graphs, matched one-to-one up to
    isomorphism at every n <= 7.

    The exhaustive battery runs on the closure to n = 8.  Its 2388 classes
    at n = 8 (OEIS A006290) are pinned there: the K5 scan checks
    1 + 3 + 17 + 136 + 2388 - 1 = 2544 hosts, everything but K5 itself.
    """
    closure = generate.three_connected_by_wheels(7)
    for g in closure:
        assert g.is_simple() and is_three_connected(g)
    for n, expected in THREE_CONNECTED_COUNTS.items():
        ours = [g for g in closure if g.n == n]
        theirs = _filtered(n)
        assert len(ours) == len(theirs) == expected
        matched = set()
        for g in theirs:
            hits = [i for i, h in enumerate(ours)
                    if are_isomorphic(g, h) is not None]
            assert len(hits) == 1, (n, hits)
            matched.add(hits[0])
        assert len(matched) == expected


def test_closure_meets_the_same_representatives_in_order():
    """The closure's representatives, in order, as graph6: the digest was
    taken when classes were still found by pairwise isomorphism tests."""
    g6 = "\n".join(io.to_graph6(g)
                   for g in generate.three_connected_by_wheels(7))
    assert hashlib.sha256(g6.encode()).hexdigest() == (
        "4fd550bfe3d951c5aa70a2e12f0ef4ad2ee4b4cd4ab36966521b90df93c27989")


def _digest(graphs):
    """sha256 of each graph's graph6 and its edge ids with their ends."""
    text = "\n".join(io.to_graph6(g) + " " + repr(sorted(g.edges.items()))
                     for g in graphs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_orbit_pruning_keeps_the_representatives_and_their_edge_ids(
        monkeypatch):
    """Digests taken before the closure grew one child per orbit, when it
    labelled every child (10963 labellings for all_graphs(7), 1324 for the
    closure to 7): the same graphs in the same order, edge ids included.
    The closure to 8 is the one the exhaustive scan reads."""
    labelled = []
    label = generate.canonical_labeling
    monkeypatch.setattr(generate, "canonical_labeling",
                        lambda g: labelled.append(g) or label(g))
    generate.all_graphs.cache_clear()
    assert _digest(generate.all_graphs(7)) == (
        "32f9b8458d81dfe12cefe948ab67f75972f423a7b9bc67b17216505d1e9c73ca")
    assert len(labelled) == 6565
    labelled.clear()
    generate.three_connected_by_wheels(7)
    assert len(labelled) == 620
    assert _digest(verification.closure(8)) == (
        "7c36ecf6b2e003982a6ded28b3ab84ad4b79aa3d93d216350be0d138498560af")


def _check_skipped_siblings(children, kept):
    """`kept` is a subsequence of `children`, and every child skipped is
    isomorphic to a child kept before it."""
    codes, i = set(), 0
    for h in children:
        code = canonical_labeling(h)[0]
        if i < len(kept) and h == kept[i]:
            codes.add(code)
            i += 1
        else:
            assert code in codes
    assert i == len(kept)


def test_skipped_siblings_are_isomorphic_to_an_earlier_kept_one():
    for g in generate.all_graphs(6):
        autos = canonical_labeling(g)[2]
        _check_skipped_siblings([h for h, _, _ in edge_additions(g)],
                                [h for h, _, _ in edge_additions(g, autos)])
    skipped = 0
    for g in generate.three_connected_by_wheels(7):
        autos = canonical_labeling(g)[2]
        # the closure to 7 splits only graphs on fewer than 7 vertices
        for grow in (edge_additions, three_connected_splits)[:1 + (g.n < 7)]:
            children = [step[0] for step in grow(g)]
            kept = [step[0] for step in grow(g, autos)]
            _check_skipped_siblings(children, kept)
            skipped += len(children) - len(kept)
    assert skipped > 0


def test_wheels():
    w3 = generate.wheel(3)
    assert w3.n == 4 and w3.m == 6
    assert is_three_connected(generate.wheel(6))


def test_random_nonplanar_hosts():
    rng = random.Random(11)
    for _ in range(25):
        g = generate.random_nonplanar_host(rng)
        assert g.n <= 12
        assert g.is_simple()
        assert is_three_connected(g)
        assert not is_planar(g)
        assert are_isomorphic(g, catalog.build("K5").graph) is None
        assert g.n >= 6  # K5 is the only 3-connected non-planar 5-vertex graph


def test_random_hosts_are_reproducible():
    rng_a, rng_b = random.Random(3), random.Random(3)
    a = [generate.random_host(rng_a) for _ in range(5)]
    b = [generate.random_host(rng_b) for _ in range(5)]
    assert a == b
    assert all(g.m <= 12 for g in a)
