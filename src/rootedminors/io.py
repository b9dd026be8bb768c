"""Graph ingest/emit: JSON edge lists for multigraphs, graph6 for simple graphs."""
from __future__ import annotations

import json

from .multigraph import GraphError, LabeledMultigraph


def to_json_dict(g):
    return {
        "vertices": g.sorted_vertices(),
        "edges": [
            {"id": e, "a": a, "b": b} for e, (a, b) in sorted(g.edges.items())
        ],
    }


def to_json(g):
    return json.dumps(to_json_dict(g), sort_keys=True)


def from_json_dict(data):
    if not isinstance(data, dict):
        raise GraphError("graph JSON must be an object")
    vertices = data.get("vertices", [])
    if not isinstance(vertices, list) or not all(
            isinstance(v, int) for v in vertices):
        raise GraphError("vertices must be a list of integers")
    edges = {}
    for rec in data.get("edges", ()):
        if not isinstance(rec, dict) or not all(
                isinstance(rec.get(k), int) for k in ("id", "a", "b")):
            raise GraphError("edge record %r needs integer id, a and b"
                             % (rec,))
        if rec["id"] in edges:
            raise GraphError("duplicate edge id %r" % (rec["id"],))
        edges[rec["id"]] = (rec["a"], rec["b"])
    return LabeledMultigraph(vertices, edges)


def from_json(text):
    try:
        data = json.loads(text)
    except ValueError as err:
        raise GraphError("invalid graph JSON: %s" % err) from None
    return from_json_dict(data)


_G6_HEADER = ">>graph6<<"


def from_graph6(text):
    """Decode one graph6 line of a simple graph on at most 62 vertices."""
    text = text.strip()
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise GraphError("empty graph6 string")
    data = [ord(c) - 63 for c in text]
    if any(x < 0 or x > 63 for x in data):
        raise GraphError("invalid graph6 character")
    n, body = data[0], data[1:]
    if n == 63:
        raise GraphError("graph6 supports at most 62 vertices")
    bits = []
    for x in body:
        for k in range(5, -1, -1):
            bits.append((x >> k) & 1)
    need = n * (n - 1) // 2
    if len(bits) < need:
        raise GraphError("truncated graph6 body")
    edges = {}
    eid = 1
    i = 0
    for b in range(1, n):
        for a in range(b):
            if bits[i]:
                edges[eid] = (a, b)
                eid += 1
            i += 1
    return LabeledMultigraph(range(n), edges)


def to_graph6(g):
    """Encode a simple graph as graph6; vertices are renumbered 0..n-1."""
    if not g.is_simple():
        raise GraphError("graph6 requires a simple graph")
    order = g.sorted_vertices()
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    if n > 62:
        raise GraphError("graph6 supports at most 62 vertices")
    present = {(min(index[a], index[b]), max(index[a], index[b]))
               for a, b in g.edges.values()}
    bits = []
    for b in range(1, n):
        for a in range(b):
            bits.append(1 if (a, b) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        x = 0
        for bit in bits[i:i + 6]:
            x = (x << 1) | bit
        chars.append(chr(x + 63))
    return "".join(chars)


def load_graph(path):
    """Read a graph file: JSON if its text starts with "{", else graph6."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise GraphError("%s: not a UTF-8 text file" % path) from None
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_graph6(text)
