"""Extension/coextension enumeration and the 2-roundedness verdicts."""
import json

import pytest

from rootedminors import catalog, minors, rounded
from rootedminors.isomorphism import are_isomorphic
from rootedminors.minors import FAMILY_A, FAMILY_B, find_family_minor
from rootedminors.multigraph import LabeledMultigraph, three_connected_splits


def _iso(g, name):
    return are_isomorphic(g, catalog.build(name).graph) is not None


def _subdivided(c):
    """The candidate's graph with its tagged edge subdivided; the new vertex
    is the only one of degree 2 in a 3-connected graph."""
    g = c.graph
    a, b = g.endpoints(c.element)
    w = g.fresh_vertex_id()
    edges = g.edges
    edges[c.element] = (a, w)
    edges[g.fresh_edge_id()] = (w, b)
    return LabeledMultigraph(g.vertices | {w}, edges)


def _tagged_isomorphic(c1, c2):
    """Tag-preserving isomorphism, found without doubling the tagged edge."""
    return are_isomorphic(_subdivided(c1), _subdivided(c2)) is not None


def test_k33_has_one_extension_class():
    cands = rounded.enumerate_extensions("K33")
    assert len(cands) == 1
    assert _iso(cands[0].graph, "K33_01")


def test_k5_has_no_extensions():
    assert rounded.enumerate_extensions("K5") == []


def test_k33_11_extensions_contain_k33_12():
    cands = rounded.enumerate_extensions("K33_11")
    assert any(_iso(c.graph, "K33_12") for c in cands)


def test_k33_has_no_coextensions():
    # all degrees are 3, and a valid split needs degree at least 4
    assert rounded.enumerate_coextensions("K33") == []


def test_k33_01_coextensions_are_exactly_g1():
    cands = rounded.enumerate_coextensions("K33_01")
    assert len(cands) == 1
    assert _iso(cands[0].graph, "G1")


def test_k5_coextensions_are_exactly_k33_11():
    cands = rounded.enumerate_coextensions("K5")
    assert len(cands) == 1
    assert _iso(cands[0].graph, "K33_11")


def test_candidates_restore_their_parent():
    for name in FAMILY_B:
        parent = catalog.build(name).graph
        for c in rounded.enumerate_extensions(name):
            rest = {e: p for e, p in c.graph.edges.items() if e != c.element}
            assert _iso(LabeledMultigraph(c.graph.vertices, rest), name)
        for c in rounded.enumerate_coextensions(name):
            back, _ = c.graph.contract_edge(c.element).simplify()
            assert are_isomorphic(back, parent) is not None


def test_dedup_is_sound_and_complete():
    for name in ("K33_02", "K33_11"):
        deduped = rounded.enumerate_coextensions(name)
        raw = [
            rounded.Candidate(name, "coextension", h, split.new_edge_id, split)
            for h, split in three_connected_splits(catalog.build(name).graph)
        ]
        # no two kept candidates are equivalent
        for i, a in enumerate(deduped):
            for b in deduped[i + 1:]:
                assert not _tagged_isomorphic(a, b)
        # every raw candidate is represented
        for c in raw:
            assert any(_tagged_isomorphic(c, k) for k in deduped)


def test_family_a_is_two_rounded():
    report = rounded.verify_two_rounded(FAMILY_A)
    assert report.verdict == "pass"
    assert not report.failures
    assert len(report.candidates) == 13


def test_family_b_is_two_rounded():
    report = rounded.verify_two_rounded(FAMILY_B)
    assert report.verdict == "pass"
    assert len(report.candidates) == 14


def test_k33_alone_is_not_two_rounded():
    # its one extension has no K3,3-minor through the added edge
    report = rounded.verify_two_rounded(("K33",))
    assert report.verdict == "fail"
    cand = report.candidates[0]
    assert any(i == 0 and e == cand.element for i, e, f in report.failures)


def test_report_is_reproducible_and_serializable():
    r1 = rounded.verify_two_rounded(FAMILY_A).to_json_dict()
    r2 = rounded.verify_two_rounded(FAMILY_A).to_json_dict()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["verdict"] == "pass"
    kinds = {c["kind"] for c in r1["candidates"]}
    assert kinds == {"extension", "coextension"}


def _questions(report):
    """Every candidate's (index, e, f) pairs, in the order they are taken."""
    return [(i, c.element, f) for i, c in enumerate(report.candidates)
            for f in sorted(c.graph.edges) if f != c.element]


@pytest.mark.parametrize("family, searches", [(FAMILY_A, 32),
                                              (FAMILY_B, 35)])
def test_verified_models_answer_most_pairs(family, searches):
    report = rounded.verify_two_rounded(family)
    assert len(_questions(report)) == {FAMILY_A: 138, FAMILY_B: 148}[family]
    assert report.searches == searches
    assert report.rejected == [] and report.overruns == []
    assert report.to_json_dict()["searches"] == searches


@pytest.mark.parametrize("family", [("K33",), FAMILY_A])
def test_failures_match_asking_every_pair_directly(family):
    report = rounded.verify_two_rounded(family)
    direct = [(i, e, f) for i, e, f in _questions(report)
              if find_family_minor(report.candidates[i].graph, family,
                                   required={e, f}) is None]
    assert report.failures == direct


def test_a_rejected_model_answers_nothing(monkeypatch):
    monkeypatch.setattr(minors, "verify_model",
                        lambda model: (False, ["rejected on purpose"]))
    report = rounded.verify_two_rounded(FAMILY_A)
    questions = _questions(report)
    assert report.searches == len(questions) == 138
    assert [(i, e, f) for i, e, f, _ in report.rejected] == questions
    assert {tuple(d) for *_, d in report.rejected} == {
        ("rejected on purpose",)}
    assert report.failures == [] and report.verdict == "fail"


def test_an_overrun_answered_by_a_later_model_is_not_listed(monkeypatch):
    """The first search of every candidate overruns; its pair would stay
    an overrun only if no later verified model of the candidate kept it."""
    search = rounded.find_family_minor
    seen = set()

    def first_overruns(host, family, **kwargs):
        if id(host) not in seen:
            seen.add(id(host))
            raise minors.SearchBudgetExceeded("forced")
        return search(host, family, **kwargs)

    monkeypatch.setattr(rounded, "find_family_minor", first_overruns)
    report = rounded.verify_two_rounded(FAMILY_A)
    # each of the 13 candidates makes one more search than unforced, and
    # a later model keeps every first pair
    assert report.searches == 32 + 13
    assert report.overruns == [] and report.failures == []
    assert report.verdict == "pass"
