"""tools/labelling_counts.py: the labelling's work counted on small closures."""
import importlib.util
import json
import os

from rootedminors import generate, isomorphism, matroids

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "labelling_counts.py")
_SPEC = importlib.util.spec_from_file_location("labelling_counts", _PATH)
labelling_counts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(labelling_counts)


def test_counts_at_five_vertices(capsys):
    search, orbit = isomorphism._search, isomorphism.orbit
    assert labelling_counts.main(["5"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["closure"], r["n"], r["classes"], r["labellings"])
            for r in lines] == [("all_graphs", 5, 34, 75),
                                ("three_connected_by_wheels", 5, 4, 4)]
    for r in lines:
        assert r["nodes"] >= r["leaves"] >= r["labellings"] > 0
        assert r["swap_leaves"] >= 0 and r["orbit_calls"] > 0
    assert isomorphism._search is search and isomorphism.orbit is orbit
    assert matroids.orbit is orbit
    assert len(generate.all_graphs(5)) == 34
