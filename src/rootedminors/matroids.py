"""Binary matroids over GF(2): minors, duality, isomorphism, and the R12 facts.

A matroid is held as its reduced row echelon matrix: each row is a bitmask
whose bit j is the j-th element, so rank, deletion and contraction all
work on the rows.  Labels, not positions, identify elements, so minors
keep stable names.  Everything here targets ground sets of at most 12
elements.
"""
from __future__ import annotations

import copy
from collections import Counter
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType

from . import catalog
from .isomorphism import canonical_labeling, orbit
from .multigraph import LabeledMultigraph, bits


class MatroidError(ValueError):
    pass


def _rref(rows):
    """Reduced row echelon form; bit j of a row is column j. Drops zero rows."""
    basis = {}
    for r in rows:
        while r:
            low = r & -r
            if low in basis:
                r ^= basis[low]
            else:
                basis[low] = r
                break
    for p in sorted(basis):
        for q in basis:
            if q != p and basis[q] & p:
                basis[q] ^= basis[p]
    return [basis[p] for p in sorted(basis)]


def _take(r, positions):
    """The bits of `r` at `positions`, packed in that order from bit 0."""
    return sum(((r >> p) & 1) << q for q, p in enumerate(positions))


class BinaryMatroid:
    """Immutable GF(2)-represented matroid with labeled elements.

    `rows` are bitmasks over element positions (bit j = the j-th element);
    they are reduced on construction, and their number is the rank.
    """

    def __init__(self, elements, rows):
        self.elements = tuple(elements)
        try:
            distinct = len(set(self.elements)) == len(self.elements)
        except TypeError:
            raise MatroidError("element labels must be hashable") from None
        if not distinct:
            raise MatroidError("duplicate element labels")
        self._rows = tuple(_rref(rows))
        self.rank_value = len(self._rows)

    @classmethod
    def from_rows(cls, rows, elements):
        """Build from a list of 0/1 row lists, one entry per element."""
        if not isinstance(elements, (list, tuple, range)):
            raise MatroidError("elements must be a list of labels")
        if not isinstance(rows, (list, tuple)):
            raise MatroidError("rows must be a list of 0/1 lists")
        masks = []
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != len(elements):
                raise MatroidError("each row must be a list of one 0/1 entry "
                                   "per element")
            if any(type(bit) is not int or bit not in (0, 1) for bit in row):
                raise MatroidError("row entries must be 0 or 1")
            masks.append(sum(bit << j for j, bit in enumerate(row)))
        matroid = cls(elements, masks)
        try:
            sorted(elements)
        except TypeError:
            raise MatroidError("element labels must be comparable") from None
        return matroid

    @property
    def size(self):
        return len(self.elements)

    @cached_property
    def columns(self):
        """Read-only view: each element's column as a bitmask (bit i = row i)."""
        return MappingProxyType({
            e: sum(((r >> j) & 1) << i for i, r in enumerate(self._rows))
            for j, e in enumerate(self.elements)
        })

    def _mask(self, es):
        """Bitmask of the positions of the labels in `es`."""
        mask = 0
        for e in es:
            try:
                mask |= 1 << self.elements.index(e)
            except ValueError:
                raise MatroidError("unknown element %r" % (e,)) from None
        return mask

    def rank(self, subset):
        mask = self._mask(subset)
        return len(_rref([r & mask for r in self._rows]))

    def to_json_dict(self):
        return {
            "elements": list(self.elements),
            "rows": [
                [(r >> j) & 1 for j in range(self.size)] for r in self._rows
            ],
        }

    def delete(self, e):
        return self.delete_many((e,))

    def contract(self, e):
        return self.contract_many((e,))

    def delete_many(self, es):
        """Delete every element of `es` at once: keep the other positions."""
        drop = self._mask(es)
        if not drop:
            return self
        keep = [j for j in range(self.size) if not (drop >> j) & 1]
        return BinaryMatroid([self.elements[j] for j in keep],
                             [_take(r, keep) for r in self._rows])

    def contract_many(self, es):
        """Contract every element of `es` at once, with one reduction: with
        their positions first, the reduced rows that vanish on them span the
        contraction's row space once restricted to the other elements."""
        drop = self._mask(es)
        if not drop:
            return self
        first = [j for j in range(self.size) if (drop >> j) & 1]
        keep = [j for j in range(self.size) if not (drop >> j) & 1]
        k = len(first)
        rows = _rref(_take(r, first + keep) for r in self._rows)
        return BinaryMatroid([self.elements[j] for j in keep],
                             [r >> k for r in rows if not r & ((1 << k) - 1)])

    @cached_property
    def _fundamental_circuits(self):
        """Bitmask of the fundamental circuit of each non-basis element:
        itself plus the pivots of the reduced rows that contain it."""
        pivots = 0
        for r in self._rows:
            pivots |= r & -r
        return tuple(
            (1 << pos) | sum(r & -r for r in self._rows if (r >> pos) & 1)
            for pos in range(self.size) if not (pivots >> pos) & 1
        )

    def dual(self):
        """The fundamental circuits span the cycle space, the dual's rows."""
        return BinaryMatroid(self.elements, self._fundamental_circuits)

    def parallel_classes(self):
        groups = {}
        for e in self.elements:
            c = self.columns[e]
            if c:
                groups.setdefault(c, []).append(e)
        return [sorted(v) for v in groups.values()]

    def simplify(self):
        """Drop loops (zero columns) and all but the smallest label per class."""
        keep = {min(cls) for cls in self.parallel_classes()}
        return self.delete_many([e for e in self.elements if e not in keep])

    def circuits(self):
        """All circuits as frozensets of labels, smallest first.

        Computed once per matroid; each call returns a fresh list.
        """
        out = [frozenset(self.elements[j] for j in bits(c))
               for c in sorted(self._circuits)]
        return sorted(out, key=lambda c: (len(c), sorted(map(str, c))))

    @cached_property
    def _circuits(self):
        """The circuits as position masks, smallest first.  The cycles
        (element sets whose columns sum to zero) are the GF(2) span of the
        fundamental circuits; the circuits are the minimal non-empty cycles."""
        fundamental = self._fundamental_circuits
        cycles = [0] * (1 << len(fundamental))
        for k in range(1, len(cycles)):
            low = k & -k
            cycles[k] = cycles[k ^ low] ^ fundamental[low.bit_length() - 1]
        minimal = []
        for c in sorted(cycles[1:], key=int.bit_count):
            if not any(d & c == d for d in minimal):
                minimal.append(c)
        return tuple(minimal)

    @cached_property
    def _small_circuits(self):
        """The numbers of circuits of sizes 1 to 4, counted from the columns
        without building the circuits.  A loop is a zero column and a
        parallel pair two equal ones.  A 3- or 4-circuit takes one element
        of each of three or four distinct non-zero column values that sum
        to zero.  Both are read off w(s), the total weight of the value
        pairs with sum s, a pair weighing the product of its values'
        multiplicities; each circuit is counted three times.  The sum of
        w(s) times the multiplicity of s counts a 3-circuit once per pair
        of its values, since each pair sums to the third.  A 4-circuit's
        values split in three ways into two pairs with one sum, and two
        distinct pairs with one sum share no value, so summing over s the
        products of two distinct pairs with sum s, (w(s)^2 less the
        squares of those pairs' weights) / 2, counts it once per split."""
        count = Counter(self.columns.values())
        loops = count.pop(0, 0)
        w = {}
        for (x, a), (y, b) in combinations(count.items(), 2):
            w[x ^ y] = w.get(x ^ y, 0) + a * b
        squares = [k * k for k in count.values()]
        pair_squares = (sum(squares) ** 2 - sum(q * q for q in squares)) // 2
        return (loops, sum(k * (k - 1) // 2 for k in count.values()),
                sum(ws * count.get(s, 0) for s, ws in w.items()) // 3,
                (sum(ws * ws for ws in w.values()) - pair_squares) // 6)

    @cached_property
    def _labelling(self):
        """(code, vertex order, generators) of the element-circuit incidence
        graph: vertex j is the j-th element, with one loop, and vertex
        size + i is the i-th circuit, joined to its elements.  A matroid is
        determined by its circuits (Whitney), so two matroids are isomorphic
        exactly when their codes are equal.  An automorphism of the graph
        keeps the looped vertices among themselves, so the generators, read
        on the element vertices, generate Aut(M)."""
        n = self.size
        ends = [(j, j) for j in range(n)]
        ends += [(j, n + i) for i, c in enumerate(self._circuits)
                 for j in bits(c)]
        return canonical_labeling(LabeledMultigraph(
            range(n + len(self._circuits)), dict(enumerate(ends))))

    def automorphism_generators(self):
        """Label maps that generate Aut(M): the labelling's generators on
        the element vertices."""
        return [{e: self.elements[p[j]] for j, e in enumerate(self.elements)}
                for p in self._labelling[2]]

    def __repr__(self):
        return "BinaryMatroid(rank=%d, elements=%r)" % (
            self.rank_value, list(self.elements)
        )


def cycle_matroid(g):
    """GF(2) vertex-edge incidence matroid of a multigraph; elements = edge ids."""
    elements = tuple(sorted(g.edges))
    rows = dict.fromkeys(g.vertices, 0)
    for j, e in enumerate(elements):
        a, b = g.endpoints(e)
        if a != b:
            rows[a] |= 1 << j
            rows[b] |= 1 << j
    return BinaryMatroid(elements, rows.values())


def validate_matroid_iso(m1, m2, mapping):
    """Whether `mapping` is a bijection of labels that carries m1 onto m2.

    Binary matroids are uniquely representable over GF(2): the row space is
    the orthogonal complement of the cycle space.  So the map preserves
    rank on every subset exactly when m1's rows, moved to m2's positions,
    reduce to m2's rows.
    """
    if mapping.keys() != set(m1.elements):
        return False
    source = {mapping[e]: j for j, e in enumerate(m1.elements)}
    if len(source) != m1.size or source.keys() != set(m2.elements):
        return False
    order = [source[f] for f in m2.elements]
    return tuple(_rref(_take(r, order) for r in m1._rows)) == m2._rows


def matroid_isomorphic(m1, m2):
    """A label bijection carrying m1 onto m2, or None.

    The screen runs in three steps, each only on the pairs the one before
    lets through:
    1. the numbers of loops, parallel pairs, 3- and 4-circuits, read from
       the columns without building the circuits;
    2. the sizes of all the circuits;
    3. one canonical labelling of each element-circuit incidence graph.
    The map zips the two vertex orders on the element vertices and is
    confirmed by `validate_matroid_iso`, one row reduction.
    """
    if (m1.size != m2.size or m1.rank_value != m2.rank_value
            or m1._small_circuits != m2._small_circuits
            or [c.bit_count() for c in m1._circuits]
            != [c.bit_count() for c in m2._circuits]):
        return None
    code1, order1, _ = m1._labelling
    code2, order2, _ = m2._labelling
    if code1 != code2:
        return None
    mapping = {m1.elements[a]: m2.elements[b]
               for a, b in zip(order1, order2) if a < m1.size}
    return mapping if validate_matroid_iso(m1, m2, mapping) else None


def matroid_has_minor(m, target, required=()):
    """Witness (contract set, delete set) for a `target`-minor keeping `required`.

    Exhaustive over independent contraction sets and deletion sets disjoint
    from `required`; intended for ground sets of at most 12 elements.
    """
    required = frozenset(required)
    for e in required:
        if e not in m.elements:
            raise MatroidError("required element %r not in ground set" % (e,))
    c_need = m.rank_value - target.rank_value
    d_need = m.size - c_need - target.size
    if c_need < 0 or d_need < 0:
        return None
    free = [e for e in m.elements if e not in required]
    for cset in combinations(free, c_need):
        after = m.contract_many(cset)
        if after.rank_value != target.rank_value:
            continue  # cset is dependent
        rest = [e for e in after.elements if e not in required]
        for dset in combinations(rest, d_need):
            if matroid_isomorphic(after.delete_many(dset), target) is not None:
                return frozenset(cset), frozenset(dset)
    return None


_R12_ROWS = [
    [1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1],
]

_R10_ROWS = [
    [1, 0, 0, 0, 0, 1, 1, 0, 0, 1],
    [0, 1, 0, 0, 0, 1, 1, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 1, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 0, 0, 1, 1],
]


def r12():
    return BinaryMatroid.from_rows(_R12_ROWS, range(1, 13))


def r10():
    """Rank-5 representation [I5 | D] with D the circulant of 1,1,0,0,1."""
    return BinaryMatroid.from_rows(_R10_ROWS, range(1, 11))


def si_r12_contraction_graph():
    """The 6-vertex 10-edge graph whose cycle matroid is R12/1 minus element 9.

    Vertices are named 2..7 after the z-rows of the contracted
    representation; edge labels are the surviving R12 elements.
    """
    edges = {
        2: (2, 7), 3: (3, 7), 4: (4, 7), 5: (5, 6), 6: (6, 7),
        7: (2, 3), 8: (2, 4), 10: (2, 6), 11: (3, 5), 12: (4, 5),
    }
    return LabeledMultigraph(range(2, 8), edges)


def _fc_targets():
    return [
        (name, cycle_matroid(catalog.build(name).graph))
        for name in ("K33", "K33_01", "K33_02", "K33_11")
    ]


def verify_r12_claims():
    """Machine-check every R12 fact the 2-roundedness argument leans on.

    Returns an ordered dict of named checks, each with a pass flag and a
    witness.  The simplified single-element contractions of R12 are the
    cycle matroid of the one-added-edge K3,3 extension (rank 5, 10
    elements; the 11-edge two-added-edge extension is ruled out by
    cardinality).  The checks run once per process; each caller gets its
    own copy of the report.
    """
    return copy.deepcopy(_r12_claims())


@lru_cache(maxsize=None)
def _r12_claims():
    m = r12()
    report = {}

    # (1) reversing the row order permutes columns by an automorphism, 1 -> 6
    rev = {}
    ok = True
    width = m.rank_value
    by_col = {}
    for e in m.elements:
        by_col.setdefault(m.columns[e], []).append(e)
    for e in m.elements:
        c = m.columns[e]
        flipped = sum(((c >> i) & 1) << (width - 1 - i) for i in range(width))
        match = by_col.get(flipped, [])
        if len(match) != 1:
            ok = False
            break
        rev[e] = match[0]
    ok = ok and sorted(rev.values()) == sorted(m.elements)
    ok = ok and validate_matroid_iso(m, m, rev)
    ok = ok and rev.get(1) == 6
    report["row_reversal_automorphism"] = {
        "pass": ok, "map": {str(k): v for k, v in rev.items()},
    }

    # (2) self-dual, with an isomorphism to the dual sending 1 to 7: phi onto
    # the dual after the alpha in Aut(R12) with phi(alpha(1)) = 7; the group
    # is the orbit of the identity arrangement under the generators
    gens = m.automorphism_generators()
    dual = m.dual()
    phi = matroid_isomorphic(m, dual)
    group = [dict(zip(m.elements, moved))
             for moved in sorted(orbit([m.elements], gens))]
    iso = next(({e: phi[a[e]] for e in a} for a in group
                if phi and phi[a[1]] == 7), None)
    report["self_dual_1_to_7"] = {
        "pass": iso is not None and validate_matroid_iso(m, dual, iso),
        "map": {str(k): v for k, v in iso.items()} if iso else None,
    }

    # (3) the automorphism orbit of element 1 is {1,2,5,6,9,10}; contracting
    # any of them and simplifying yields the 10-element rank-5 cycle matroid
    # of the one-added-edge K3,3 extension.  The other orbit's contractions
    # are simple, 11-element and non-graphic, so only this orbit feeds the
    # pair-coverage argument through a graphic minor.
    orbit_of_1 = sorted(orbit([1], gens))
    target = cycle_matroid(catalog.build("K33_01").graph)
    si_results = {}
    for x in orbit_of_1:
        si = m.contract(x).simplify()
        iso = matroid_isomorphic(si, target)
        si_results[str(x)] = {
            "rank": si.rank_value,
            "elements": si.size,
            "isomorphic_to_target": iso is not None,
        }
    report["si_contractions_graphic"] = {
        "pass": (
            orbit_of_1 == [1, 2, 5, 6, 9, 10]
            and all(
                r["rank"] == 5 and r["elements"] == 10
                and r["isomorphic_to_target"] for r in si_results.values()
            )
        ),
        "target": "M(K33_01)",
        "orbit_of_1": orbit_of_1,
        "per_element": si_results,
    }

    # (4) R12/1\9 = R12/1\5 = si(R12/1), and R12/1\9 is the cycle matroid of
    # the named graph under the identity element map
    c1 = m.contract(1)
    a9 = c1.delete(9)
    a5 = c1.delete(5)
    si1 = c1.simplify()
    graph_m = cycle_matroid(si_r12_contraction_graph())
    ident = {e: e for e in a9.elements}
    report["contraction_deletions_agree"] = {
        "pass": (
            matroid_isomorphic(a9, si1) is not None
            and matroid_isomorphic(a5, si1) is not None
            and tuple(graph_m.elements) == tuple(a9.elements)
            and validate_matroid_iso(a9, graph_m, ident)
        ),
        "elements": list(a9.elements),
    }

    # (5) every pair of R12 elements lies in the ground set of some minor
    # isomorphic to a cycle matroid of the K3,3 extension family
    targets = _fc_targets()
    pair_witnesses = {}
    covered = 0
    for e, f in combinations(m.elements, 2):
        hit = None
        for name, t in targets:
            w = matroid_has_minor(m, t, required=(e, f))
            if w is not None:
                hit = {"target": name,
                       "contract": sorted(w[0]), "delete": sorted(w[1])}
                break
        pair_witnesses["%d,%d" % (e, f)] = hit
        if hit is not None:
            covered += 1
    report["pair_coverage"] = {
        "pass": covered == 66, "covered": covered, "total": 66,
        "witnesses": pair_witnesses,
    }

    # (6) one-element extensions/coextensions of M(K5) have 11 elements, so
    # they are neither R10 nor large enough to hold an R12-minor
    k5_size = cycle_matroid(catalog.build("K5").graph).size
    report["k5_cardinality_exclusions"] = {
        "pass": k5_size + 1 != r10().size and k5_size + 1 < r12().size,
        "extension_size": k5_size + 1,
        "r10_size": r10().size,
        "r12_size": r12().size,
    }

    return report
