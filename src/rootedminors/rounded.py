"""2-roundedness verification via the extension/coextension criterion.

A family F of 3-connected simple graphs is 2-rounded when every 3-connected
single-element extension or coextension M of a member (with distinguished
element e, the added or split edge) has, for every other edge f, an F-minor
whose edge set contains both e and f.  Only simple 3-connected candidates
matter, so the enumerators filter to those.

An F-minor model keeps exactly the edges of its minor, so one model that
verify_model accepts answers every pair {e, f} inside its kept edges.  Each
candidate's pairs are taken in order of f, and only those that no earlier
verified model of the candidate answers are searched.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .io import to_json_dict
from .isomorphism import are_isomorphic
from .minors import (DEFAULT_NODE_CAP, FAMILY_A, FAMILY_B, Cover,
                     SearchBudgetExceeded, find_family_minor)
from .multigraph import (GraphError, VertexSplit, edge_additions,
                         is_three_connected, three_connected_splits)


@dataclass(frozen=True)
class Candidate:
    parent: str
    kind: str  # "extension" or "coextension"
    graph: object
    element: int  # added edge (extension) or new split edge (coextension)
    provenance: object  # vertex pair or VertexSplit

    def to_json_dict(self):
        if isinstance(self.provenance, VertexSplit):
            prov = {
                "vertex": self.provenance.vertex,
                "part_a": sorted(self.provenance.part_a),
                "part_b": sorted(self.provenance.part_b),
            }
        else:
            prov = {"pair": list(self.provenance)}
        return {
            "parent": self.parent,
            "kind": self.kind,
            "element": self.element,
            "provenance": prov,
            "graph": to_json_dict(self.graph),
        }


@dataclass
class RoundednessReport:
    family: tuple
    candidates: list
    failures: list  # (candidate index, e, f)
    overruns: list  # (candidate index, e, f) whose search hit the node cap
    rejected: list  # (candidate index, e, f, diagnostics) of rejected models
    searches: int  # pairs searched; the others a verified model answered
    note: str = ("candidates restricted to simple 3-connected graphs; "
                 "others are outside the 2-rounded criterion's scope")

    @property
    def verdict(self):
        if self.failures or self.rejected:
            return "fail"
        return "budget" if self.overruns else "pass"

    def to_json_dict(self):
        return {
            "family": list(self.family),
            "note": self.note,
            "candidates": [c.to_json_dict() for c in self.candidates],
            "failures": [
                {"candidate": i, "e": e, "f": f} for i, e, f in self.failures
            ],
            "overruns": [
                {"candidate": i, "e": e, "f": f} for i, e, f in self.overruns
            ],
            "rejected": [
                {"candidate": i, "e": e, "f": f, "diagnostics": d}
                for i, e, f, d in self.rejected
            ],
            "searches": self.searches,
            "verdict": self.verdict,
        }


def _dedup(cands):
    """One candidate per tag-preserving isomorphism class.

    Doubling the tagged edge makes it the unique parallel class, so a plain
    isomorphism of the doubled graphs is exactly a tag-preserving one; each
    candidate's doubled graph is built once.
    """
    kept = []  # (candidate, its doubled graph)
    for c in cands:
        g = c.graph
        doubled = g.with_edge(g.fresh_edge_id(), *g.endpoints(c.element))
        if all(are_isomorphic(doubled, other) is None for _, other in kept):
            kept.append((c, doubled))
    return [c for c, _ in kept]


def enumerate_extensions(name):
    """Simple 3-connected one-edge extensions, one per tagged-isomorphism class."""
    entry = catalog.build(name)
    return _dedup([
        Candidate(entry.name, "extension", h, eid, pair)
        for h, eid, pair in edge_additions(entry.graph)
        if is_three_connected(h)
    ])


def enumerate_coextensions(name):
    """Simple 3-connected vertex splits, one per tagged-isomorphism class."""
    entry = catalog.build(name)
    return _dedup([
        Candidate(entry.name, "coextension", h, split.new_edge_id, split)
        for h, split in three_connected_splits(entry.graph)
    ])


def verify_two_rounded(family, node_cap=DEFAULT_NODE_CAP):
    """Check the 2-rounded criterion for a family of catalog names.

    A pair is searched only when no earlier verified model of its candidate
    keeps both edges.  A search that hits the node cap is an overrun unless
    a later verified model answers its pair; the others are still decided.
    """
    family = tuple(family)
    if not family or len(set(family)) != len(family):
        raise GraphError("a family needs at least one member, each listed "
                         "once; got %r" % (family,))
    candidates = []
    for name in family:
        candidates.extend(enumerate_extensions(name))
        candidates.extend(enumerate_coextensions(name))
    failures, overruns, rejected = [], [], []
    searches = 0
    for i, cand in enumerate(candidates):
        e = cand.element
        cover, missed = Cover(), []
        for f in sorted(cand.graph.edges):
            pair = frozenset((e, f))
            if f == e or cover.answers(pair):
                continue
            searches += 1
            try:
                hit = find_family_minor(cand.graph, family, required=pair,
                                        node_cap=node_cap)
            except SearchBudgetExceeded:
                missed.append(f)
                continue
            if hit is None:
                failures.append((i, e, f))
            elif diagnostics := cover.admit(hit[1], pair):
                rejected.append((i, e, f, diagnostics))
        overruns.extend((i, e, f) for f in missed
                        if not cover.answers(frozenset((e, f))))
    return RoundednessReport(family, candidates, failures, overruns,
                             rejected, searches)


NAMED_FAMILIES = {"a": FAMILY_A, "b": FAMILY_B}
