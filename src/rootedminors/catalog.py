"""Named ground-truth graphs with their published vertex labels.

The K3,3 extension family K33_ij carries i extra edges inside the u-class
and j inside the v-class; the extra edges form path prefixes u2-u3, u1-u2,
u1-u3 and v2-v3, v1-v2, v1-v3 respectively.  G1..G4 are the degree-4/5
vertex expansions arising in the roundedness case analysis, G5/G6 the
seven-vertex hosts of the triangle-preservation case analysis, FIG5_* the
subdivision-with-triangle hosts, and FIG2_* two unlabeled data-only graphs.
"""
from __future__ import annotations

from dataclasses import dataclass

from .multigraph import GraphError, LabeledMultigraph, complete_graph


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: LabeledMultigraph
    labels: dict

    def vertex(self, role):
        try:
            return self.labels[role]
        except KeyError:
            raise GraphError("entry %s has no role %r" % (self.name, role)) from None

    def edge(self, role_a, role_b):
        """The unique edge joining two labeled vertices."""
        ids = self.graph.edges_between(self.vertex(role_a), self.vertex(role_b))
        if len(ids) != 1:
            raise GraphError(
                "no unique %s%s edge in %s" % (role_a, role_b, self.name)
            )
        return ids[0]


_U = {"u1": 0, "u2": 1, "u3": 2}
_V = {"v1": 3, "v2": 4, "v3": 5}
_I_SIDE = [("u2", "u3"), ("u1", "u2"), ("u1", "u3")]
_J_SIDE = [("v2", "v3"), ("v1", "v2"), ("v1", "v3")]


def _from_role_edges(role_edges, labels):
    vertices = set(labels.values())
    edges = {}
    for eid, (ra, rb) in enumerate(role_edges, start=1):
        edges[eid] = (labels[ra], labels[rb])
    return LabeledMultigraph(vertices, edges)


def _k33_extension(i, j):
    labels = dict(_U, **_V)
    role_edges = [(u, v) for u in ("u1", "u2", "u3") for v in ("v1", "v2", "v3")]
    role_edges += _I_SIDE[:i]
    role_edges += _J_SIDE[:j]
    return _from_role_edges(role_edges, labels), labels


_G_LABELS = {"u1": 0, "u2": 1, "u3": 2, "v1": 3, "v3": 4, "w1": 5, "w2": 6}

_G1_EDGES = [
    ("u1", "v1"), ("u1", "v3"), ("u1", "w1"),
    ("u2", "v1"), ("u2", "v3"), ("u2", "w1"),
    ("u3", "v1"), ("u3", "v3"), ("u3", "w2"),
    ("v3", "w2"), ("w1", "w2"),
]
_G3_EDGES = [
    ("u1", "v1"), ("u1", "v3"), ("u1", "w1"),
    ("u2", "v1"), ("u2", "v3"), ("u2", "w1"),
    ("u3", "v1"), ("u3", "v3"), ("u3", "w1"),
    ("v1", "w2"), ("v3", "w2"), ("w1", "w2"),
]
_G4_EDGES = [
    ("u1", "v1"), ("u1", "v3"), ("u1", "w1"),
    ("u2", "v1"), ("u2", "v3"), ("u2", "w1"),
    ("u3", "v1"), ("u3", "v3"), ("u3", "w2"),
    ("v1", "w2"), ("v3", "w2"), ("w1", "w2"),
]
_FIG6_BASE = [
    ("u1", "v1"), ("u1", "v3"),
    ("u2", "u3"), ("u2", "v1"), ("u2", "v3"), ("u2", "w1"),
    ("u3", "v1"), ("u3", "v3"),
    ("v3", "w2"), ("w1", "w2"),
]
_G5_EDGES = _FIG6_BASE + [("u1", "w2"), ("u3", "w1")]
_G6_EDGES = _FIG6_BASE + [("u1", "w1"), ("u3", "w2")]

# FIG2_A/FIG2_B carry no role labels; vertices are plain integers.
_FIG2_A_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
    (0, 4), (1, 4), (3, 6), (2, 5),
]
_FIG2_B_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5), (2, 4),
    (4, 6), (3, 6), (3, 5), (0, 5), (0, 6), (1, 6),
]


def _plain(edge_list, n):
    edges = {eid: pair for eid, pair in enumerate(edge_list, start=1)}
    return LabeledMultigraph(range(n), edges), {}


def _fig5(extra_role_edges):
    base, labels = _k33_extension(1, 1)
    labels = dict(labels, v=6)
    g = base
    eid = base.m
    vertices = set(labels.values())
    edges = g.edges
    for ra, rb in extra_role_edges:
        eid += 1
        edges[eid] = (labels[ra], labels[rb])
    return LabeledMultigraph(vertices, edges), labels


def _build_all():
    out = {}
    for name, (i, j) in {
        "K33": (0, 0), "K33_01": (0, 1), "K33_02": (0, 2), "K33_11": (1, 1),
        "K33_12": (1, 2), "K33_22": (2, 2), "K33_03": (0, 3), "K33_13": (1, 3),
    }.items():
        g, labels = _k33_extension(i, j)
        out[name] = CatalogEntry(name, g, labels)
    out["K5"] = CatalogEntry("K5", complete_graph(5), {})
    for name, role_edges in (
        ("G1", _G1_EDGES),
        ("G2", _G1_EDGES + [("v1", "w1")]),
        ("G3", _G3_EDGES),
        ("G4", _G4_EDGES),
        ("G5", _G5_EDGES),
        ("G6", _G6_EDGES),
    ):
        out[name] = CatalogEntry(
            name, _from_role_edges(role_edges, _G_LABELS), dict(_G_LABELS)
        )
    g, labels = _plain(_FIG2_A_EDGES, 7)
    out["FIG2_A"] = CatalogEntry("FIG2_A", g, labels)
    g, labels = _plain(_FIG2_B_EDGES, 7)
    out["FIG2_B"] = CatalogEntry("FIG2_B", g, labels)
    for name, extra in (
        ("FIG5_1", [("u1", "v"), ("v", "v2")]),
        ("FIG5_2", [("v3", "v"), ("v", "v2")]),
        ("FIG5_3", [("u1", "v"), ("v", "v1")]),
    ):
        g, labels = _fig5(extra)
        out[name] = CatalogEntry(name, g, labels)
    return out


_ENTRIES = _build_all()

NAMES = tuple(_ENTRIES)


def list_names():
    return list(NAMES)


def build(name):
    try:
        return _ENTRIES[name]
    except KeyError:
        raise GraphError(
            "unknown catalog name %r; valid names: %s" % (name, ", ".join(NAMES))
        ) from None
