"""Canonical labelling of multigraphs by individualisation and refinement.

nauty's search (B. D. McKay and A. Piperno, *Practical graph isomorphism,
II*, J. Symbolic Comput. 60, 2014), cut down to small graphs: hosts and
patterns of up to about 12 vertices, and the element-circuit incidence
graphs of binary matroids (59 vertices for R12).  Vertex i is bit i of an
int mask, in sorted vertex order; bit j of row i in layer k is set when
more than k edges join i and j.

A search node refines its ordered partition of the vertices to an
equitable one, then individualises each vertex of its first smallest
non-singleton cell in turn; a node whose cells are all singletons is a
leaf, and its vertex order relabels the rows into its code.  Two leaves
with one code give an automorphism; as in nauty, those found generate
Aut(g), and canonical_labeling returns them with the code.  A node skips
a vertex that an automorphism fixing the node's individualised vertices
maps from one it has tried: it filters those automorphisms and grows the
orbit of its tried vertices only when a new one has been found since it
last looked.  A node whose one non-singleton cell is a pair {a, b} has two
leaves as children; when swapping a and b maps every row onto itself,
the second leaf has the first's code, and its automorphism is recorded
without building it.
"""
from __future__ import annotations


def _refine(layers, cells, pending):
    """Split the ordered cells (int masks) by their edge counts into a
    splitter cell from `pending` until they are equitable.  Pieces go in
    order of count, so no position depends on a label; they become
    splitters, but for the largest when the split cell has served.  The
    layers of a row are nested, so the counts into a one-vertex splitter
    x split a cell by the layers of x's row."""
    n = len(layers[0])
    single = layers[0] if len(layers) == 1 else None
    while pending and len(cells) < n:
        for w in cells:
            if w in pending:
                break
        pending.discard(w)
        x = w.bit_length() - 1
        one = w == 1 << x
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            if one:
                pieces, rest = [], cell
                for rows in layers:
                    hit = rest & rows[x]
                    if hit != rest:
                        pieces.append(rest ^ hit)
                    rest = hit
                if rest:
                    pieces.append(rest)
            else:
                groups = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    if single:
                        k = (single[v] & w).bit_count()
                    else:
                        k = 0
                        for rows in layers:
                            k += (rows[v] & w).bit_count()
                    groups[k] = groups.get(k, 0) | low
                pieces = [groups[k] for k in sorted(groups)]
            if len(pieces) > 1:
                out += pieces
                pending.update(pieces)
                pending.discard(cell if cell in pending
                                else max(pieces, key=int.bit_count))
            else:
                out.append(cell)
        cells = out
    return cells


def _search(layers, cells, fixed, leaves, autos):
    """Record in `leaves` (code -> vertex order) every leaf below this node
    and in `autos` the automorphisms they give, individualising each
    vertex of the first smallest non-singleton cell; return the code of a
    leaf below it, which a swap leaf of its parent shares."""
    n = len(layers[0])
    target, size = 0, n + 1
    for c in cells:
        if c & (c - 1) and c.bit_count() < size:
            target, size = c, c.bit_count()
    if not target:
        order = [c.bit_length() - 1 for c in cells]
        lift = [0] * n
        for p, v in enumerate(order):
            lift[v] = 1 << p
        code = 0
        for rows in layers:
            for v in order:
                row, img = rows[v], 0
                while row:
                    low = row & -row
                    img |= lift[low.bit_length() - 1]
                    row ^= low
                code = code << n | img
        first = leaves.setdefault(code, order)
        if first is not order:
            autos.append(dict(zip(first, order)))
        return code
    at = cells.index(target)
    a = (target & -target).bit_length() - 1
    tried, stab, seen, known = [], [], set(), 0
    rest = target
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        if tried:
            if len(autos) > known:
                fresh = [p for p in autos[known:]
                         if all(p[u] == u for u in fixed)]
                known = len(autos)
                if fresh:
                    stab += fresh
                    seen = orbit(tried, stab)
            if stab and tried[-1] not in seen:
                seen |= orbit(tried[-1:], stab)
            if v in seen:
                continue
        child = cells[:at] + [low, target ^ low] + cells[at + 1:]
        if len(child) < n:
            child = _refine(layers, child, {low})
        elif tried and all(
                not (rows[a] ^ rows[v]) & ~target
                and rows[a] >> a & 1 == rows[v] >> v & 1 for rows in layers):
            autos.append(dict(zip(leaves[code],
                                  [c.bit_length() - 1 for c in child])))
            break
        code = _search(layers, child, fixed + [v], leaves, autos)
        tried.append(v)
    return code


def orbit(start, gens):
    """The orbit of the items `start` under the group `gens` generates.
    The items share one shape, read once from the first: a vertex, or a
    tuple or frozenset of items."""
    found, stack = set(start), list(start)
    rename = _renamer(stack[0]) if stack and gens else None
    while stack:
        x = stack.pop()
        for p in gens:
            y = rename(p, x)
            if y not in found:
                found.add(y)
                stack.append(y)
    return found


def orbit_firsts(items, autos):
    """The items, in order, that no earlier item maps onto under the group
    that the vertex maps `autos` generate; an item is a vertex, or a tuple
    or frozenset of items."""
    seen, firsts = set(), []
    for item in items:
        if item not in seen:
            firsts.append(item)
            seen |= orbit([item], autos)
    return firsts


def _renamer(item):
    """A function (p, x) that renames the vertices of an item x shaped like
    `item` by the vertex map p; a tuple is read position by position, and
    a frozenset by the shape of one of its members."""
    if type(item) is int:
        return dict.__getitem__
    kind = type(item)
    if all(type(x) is int for x in item):
        return lambda p, x: kind(map(p.__getitem__, x))
    if kind is tuple:
        parts = [_renamer(x) for x in item]
        return lambda p, x: tuple(f(p, y) for f, y in zip(parts, x))
    part = _renamer(next(iter(item)))
    return lambda p, x: kind(part(p, y) for y in x)


def canonical_labeling(g):
    """(code, vertex order, generators): the int code is equal for two
    multigraphs exactly when they are isomorphic, the order lists g's
    vertices by canonical position, and the generators, dicts from vertex
    to vertex, generate Aut(g) (none when it is trivial).  Loop counts are
    the starting colours.  The code is n + 1 ones and a zero, then the
    largest leaf's rows, so no field of fixed width can overflow."""
    verts = g.sorted_vertices()
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    layers = [[0] * n]
    loops = [0] * n
    for a, b in g.edges.values():
        i, j = index[a], index[b]
        if i == j:
            loops[i] += 1
        k = 0
        while layers[k][i] >> j & 1:
            k += 1
            if k == len(layers):
                layers.append([0] * n)
        layers[k][i] |= 1 << j
        layers[k][j] |= 1 << i
    start = {}
    for i, count in enumerate(loops):
        start[count] = start.get(count, 0) | 1 << i
    cells = [start[count] for count in sorted(start)]
    leaves, autos = {}, []
    _search(layers, _refine(layers, cells, set(cells)), [], leaves, autos)
    rows = max(leaves)
    return (((2 << n) - 1) << 1 + n * n * len(layers) | rows,
            [verts[v] for v in leaves[rows]],
            [{verts[u]: verts[v] for u, v in p.items()} for p in autos])


def are_isomorphic(g1, g2):
    """A bijection V(g1) -> V(g2) inducing an isomorphism, or None."""
    if g1.n != g2.n or g1.m != g2.m:
        return None
    code1, order1, _ = canonical_labeling(g1)
    code2, order2, _ = canonical_labeling(g2)
    return dict(zip(order1, order2)) if code1 == code2 else None


def is_isomorphism(g1, g2, mapping):
    """Whether the vertex bijection `mapping` carries g1's endpoint pairs,
    loops and parallel edges counted, onto g2's."""
    if set(mapping) != g1.vertices:
        return False
    if sorted(mapping.values()) != g2.sorted_vertices():
        return False
    image = sorted(tuple(sorted((mapping[a], mapping[b])))
                   for a, b in g1.edges.values())
    return image == sorted(g2.edges.values())
