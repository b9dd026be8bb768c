"""Command-line interface: dispatch, exit codes, JSON output, certificates."""
import json

import pytest

from rootedminors import catalog, io
from rootedminors.cli import FAIL, INCONCLUSIVE, PASS, USAGE, dispatch
from rootedminors.multigraph import complete_graph


def _run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_list(capsys):
    code, out = _run(capsys, "catalog", "list")
    assert code == PASS
    assert "K33_11" in out


def test_catalog_dump_json(capsys):
    code, out = _run(capsys, "--json", "catalog", "dump", "K33_11")
    assert code == PASS
    data = json.loads(out)
    assert data["name"] == "K33_11"
    assert len(data["edges"]) == 11


def test_catalog_unknown_name_is_usage_error(capsys):
    code, _ = _run(capsys, "catalog", "dump", "K99")
    assert code == USAGE


def test_minor_find_absent(tmp_path, capsys):
    host = tmp_path / "k5.g6"
    host.write_text(io.to_graph6(catalog.build("K5").graph))
    code, _ = _run(capsys, "minor", "find", "--host", str(host),
                   "--pattern", "K33")
    assert code == FAIL


def test_node_cap_overrun_is_inconclusive(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(io.to_json(catalog.build("K33_13").graph))
    argv = ["--node-cap", "3", "minor", "find", "--host", str(host),
            "--pattern", "K5"]
    assert dispatch(argv) == INCONCLUSIVE
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("inconclusive:")
    assert dispatch(["--json"] + argv) == INCONCLUSIVE
    assert json.loads(capsys.readouterr().out) == {"found": None,
                                                   "outcome": "budget"}


def test_minor_find_with_certificate_round_trip(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(io.to_json(catalog.build("K33_11").graph))
    cert = tmp_path / "cert.json"
    code, _ = _run(capsys, "minor", "find", "--host", str(host),
                   "--pattern", "K5", "--certificate", str(cert))
    assert code == PASS
    code, out = _run(capsys, "--json", "minor", "verify", str(cert),
                     "--host", str(host))
    assert code == PASS
    assert json.loads(out)["valid"] is True


def test_certificate_for_a_pattern_file_round_trip(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(io.to_json(catalog.build("K33_11").graph))
    pattern = tmp_path / "k5.json"
    pattern.write_text(io.to_json(catalog.build("K5").graph))
    cert = tmp_path / "cert.json"
    code, out = _run(capsys, "minor", "find", "--host", str(host),
                     "--pattern", str(pattern), "--certificate", str(cert))
    assert code == PASS
    assert out.splitlines()[0] == "minor found: %s" % pattern
    assert json.loads(cert.read_text())["pattern"] == io.to_json_dict(
        catalog.build("K5").graph)
    code, out = _run(capsys, "minor", "verify", str(cert), "--host",
                     str(host))
    assert code == PASS
    assert out.splitlines() == ["valid"]


def test_minor_verify_rejects_corrupt_certificate(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(io.to_json(catalog.build("K33_11").graph))
    cert = tmp_path / "cert.json"
    _run(capsys, "minor", "find", "--host", str(host), "--pattern", "K5",
         "--certificate", str(cert))
    data = json.loads(cert.read_text())
    data["deleted"] = data["deleted"] + [1]
    cert.write_text(json.dumps(data))
    code, out = _run(capsys, "--json", "minor", "verify", str(cert),
                     "--host", str(host))
    assert code == FAIL
    assert json.loads(out)["valid"] is False


def test_minor_triangle(tmp_path, capsys):
    entry = catalog.build("K33_11")
    host = tmp_path / "host.json"
    host.write_text(io.to_json(entry.graph))
    tri = ",".join(str(e) for e in entry.graph.triangles()[0])
    code, out = _run(capsys, "--json", "minor", "triangle", "--host",
                     str(host), "--triangle", tri, "--target", "K5")
    assert code == PASS
    assert json.loads(out)["found"] is True


def test_planarity_check(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(io.to_json(catalog.build("K33_02").graph))
    code, out = _run(capsys, "--json", "planarity", "check", str(host))
    assert code == PASS
    data = json.loads(out)
    assert data["planar"] is False
    assert data["obstruction"]["pattern"] == "K33"


def test_rounded_verify_family_a(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out = _run(capsys, "--json", "--output", str(report), "rounded",
                     "verify", "--family", "a")
    assert code == PASS
    assert json.loads(out)["verdict"] == "pass"
    assert json.loads(report.read_text())["verdict"] == "pass"


def test_rounded_budget_overrun_keeps_the_report(capsys):
    code, out = _run(capsys, "--json", "--node-cap", "50", "rounded",
                     "verify", "--family", "a")
    assert code == INCONCLUSIVE
    data = json.loads(out)
    assert data["verdict"] == "budget"
    assert data["candidates"] and data["overruns"]
    assert data["failures"] == []


def test_verify_all_budget_overrun_keeps_the_report(capsys):
    """A battery that overruns the node cap is recorded as such and the
    others still run; exit 3 since none failed outright."""
    code, out = _run(capsys, "--json", "--node-cap", "50", "verify-all")
    assert code == INCONCLUSIVE
    data = json.loads(out)
    assert set(data) == {
        "catalog_identities", "roundedness_families",
        "k5_equivalence_exhaustive", "triangle_preservation_exhaustive",
        "family_minor_sample", "r12_suite", "oracle_equivalence",
        "wagner_consistency", "pass"}
    assert data["catalog_identities"]["pass"] and data["r12_suite"]["pass"]
    assert data["pass"] is False
    for key, report in data.items():
        if key != "pass" and not report["pass"]:
            assert report["outcome"] == "budget", key
    families = data["roundedness_families"]["families"]
    assert all(f["outcome"] == "budget" for f in families.values())


def test_rounded_verify_custom_family_fails(tmp_path, capsys):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(["K33"]))
    code, out = _run(capsys, "--json", "rounded", "verify", "--family",
                     str(fam))
    assert code == FAIL
    assert json.loads(out)["verdict"] == "fail"


def test_matroid_minor(capsys):
    code, out = _run(capsys, "--json", "matroid", "minor", "--host", "r12",
                     "--target", "K33", "--require", "3,8")
    assert code == PASS
    data = json.loads(out)
    assert data["found"] is True
    assert 3 not in data["contract"] + data["delete"]
    assert 8 not in data["contract"] + data["delete"]


def _string_labelled_matroids(tmp_path):
    host = tmp_path / "m.json"
    host.write_text(json.dumps({"elements": ["a", "b", "c", "d"],
                                "rows": [[1, 1, 0, 1], [0, 0, 1, 1]]}))
    target = tmp_path / "t.json"
    target.write_text(json.dumps({"elements": [0, 1, 2],
                                  "rows": [[1, 0, 1], [0, 1, 1]]}))
    return str(host), str(target)


def test_matroid_minor_requires_a_string_label(tmp_path, capsys):
    host, target = _string_labelled_matroids(tmp_path)
    code, out = _run(capsys, "--json", "matroid", "minor", "--host", host,
                     "--target", target, "--require", "a")
    assert code == PASS
    assert json.loads(out) == {"found": True, "contract": [], "delete": ["b"]}


@pytest.mark.parametrize("host, token", [
    ("labels", "z"), ("labels", "1"), ("r12", "13"), ("r12", "x3"),
])
def test_matroid_minor_names_an_unknown_required_element(tmp_path, capsys,
                                                         host, token):
    if host == "labels":
        host, target = _string_labelled_matroids(tmp_path)
    else:
        target = "K33"
    err = _usage_error(capsys, ["matroid", "minor", "--host", host,
                                "--target", target, "--require", token])
    assert repr(token) in err


def test_matroid_minor_reads_integer_labels_as_edge_ids(capsys):
    _, plain = _run(capsys, "--json", "matroid", "minor", "--host", "r12",
                    "--target", "K33", "--require", "3,8")
    _, prefixed = _run(capsys, "--json", "matroid", "minor", "--host", "r12",
                       "--target", "K33", "--require", "e3,e8")
    assert plain == prefixed


def test_matroid_minor_absent(capsys):
    code, _ = _run(capsys, "matroid", "minor", "--host", "r10",
                   "--target", "K33_11")
    assert code == FAIL


def test_json_output_is_byte_identical_across_runs(capsys):
    _, out1 = _run(capsys, "--json", "--seed", "4", "catalog", "dump", "G5")
    _, out2 = _run(capsys, "--json", "--seed", "4", "catalog", "dump", "G5")
    assert out1 == out2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_node_cap_must_be_positive(capsys, cap):
    with pytest.raises(SystemExit) as exc:
        dispatch(["--node-cap", cap, "catalog", "list"])
    assert exc.value.code == USAGE
    assert "--node-cap must be positive" in capsys.readouterr().err


def test_config_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        dispatch(["--config", "cfg.json", "catalog", "list"])
    assert exc.value.code == 2


def test_verbose_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        dispatch(["-v", "catalog", "list"])
    assert exc.value.code == 2


def test_output_path_mirrors_json(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _ = _run(capsys, "--output", str(out_path), "catalog", "dump", "K5")
    assert code == PASS
    assert len(json.loads(out_path.read_text())["edges"]) == 10


def test_rounded_report_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        dispatch(["rounded", "verify", "--family", "a", "--report", "r.json"])
    assert exc.value.code == 2


def _usage_error(capsys, argv):
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == USAGE
    assert "Traceback" not in err and err.strip()
    return err


def test_graph_edge_record_without_endpoint(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(json.dumps({"vertices": [0, 1],
                                "edges": [{"id": 1, "a": 0}]}))
    _usage_error(capsys, ["minor", "find", "--host", str(host),
                          "--pattern", "K5"])


def test_graph_file_with_invalid_json(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text('{"vertices": [0, 1], "edges": [')
    _usage_error(capsys, ["minor", "find", "--host", str(host),
                          "--pattern", "K5"])


def test_matroid_file_without_elements(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"rows": [[1, 0, 1]]}))
    err = _usage_error(capsys, ["matroid", "minor", "--host", str(mfile),
                                "--target", "K33"])
    assert "elements" in err


@pytest.mark.parametrize("data", [
    {"rows": 5, "elements": [1]},
    {"rows": [[1]], "elements": 3},
    {"rows": [[1, 0]], "elements": [1, [2]]},
    {"rows": [1.5], "elements": [1]},
    {"rows": [6], "elements": [1, 2]},
    {"rows": [[1, 1, 0, 0], [0, 0, 1, 1]], "elements": [1, "a", 3, "b"]},
], ids=["rows-not-a-list", "elements-not-a-list", "unhashable-label",
        "row-not-a-list", "row-as-bitmask", "mixed-labels"])
def test_malformed_matroid_file(tmp_path, capsys, data):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(data))
    _usage_error(capsys, ["matroid", "minor", "--host", str(mfile),
                          "--target", "K5"])


def test_certificate_without_iso(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(io.to_json(catalog.build("K5").graph))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"pattern": "K5", "contracted": [],
                                "deleted": []}))
    err = _usage_error(capsys, ["minor", "verify", str(cert),
                                "--host", str(host)])
    assert "iso" in err


@pytest.mark.parametrize(
    "text", ['["K33"', '[["K33"]]', '[]', '["K33_11", "K33_11"]'],
    ids=["invalid-json", "entry-not-a-name", "empty", "repeated-member"])
def test_malformed_family_file(tmp_path, capsys, text):
    fam = tmp_path / "family.json"
    fam.write_text(text)
    _usage_error(capsys, ["rounded", "verify", "--family", str(fam)])


def test_required_loop_answers_no(tmp_path, capsys):
    host = tmp_path / "host.json"
    host.write_text(io.to_json(catalog.build("K5").graph.with_edge(11, 0, 0)))
    code, out = _run(capsys, "--json", "minor", "find", "--host", str(host),
                     "--pattern", "K5", "--require", "11")
    assert code == FAIL
    assert json.loads(out) == {"found": False}


def test_required_parallel_pair_answers_no(tmp_path, capsys):
    g = catalog.build("K5").graph
    host = tmp_path / "host.json"
    host.write_text(io.to_json(g.with_edge(11, *g.endpoints(1))))
    code, out = _run(capsys, "--json", "minor", "find", "--host", str(host),
                     "--pattern", "K5", "--require", "1,11")
    assert code == FAIL
    assert json.loads(out) == {"found": False}
    code, _ = _run(capsys, "minor", "find", "--host", str(host),
                   "--pattern", "K5", "--require", "1")
    assert code == PASS


def test_pattern_with_a_parallel_edge_is_usage_error(tmp_path, capsys):
    host = tmp_path / "k5.json"
    host.write_text(io.to_json(catalog.build("K5").graph))
    k4 = complete_graph(4)
    pattern = tmp_path / "k4-parallel.json"
    pattern.write_text(io.to_json(k4.with_edge(7, *k4.endpoints(1))))
    cert = tmp_path / "c.json"
    err = _usage_error(capsys, ["minor", "find", "--host", str(host),
                                "--pattern", str(pattern),
                                "--certificate", str(cert)])
    assert "parallel" in err and not cert.exists()


def test_host_file_that_is_not_utf8(tmp_path, capsys):
    host = tmp_path / "bad.g6"
    host.write_bytes(b"\xff\xfe")
    err = _usage_error(capsys, ["minor", "find", "--host", str(host),
                                "--pattern", "K5"])
    assert "bad.g6" in err


@pytest.mark.parametrize("text", ["D~", "D~{!"],
                         ids=["truncated-body", "invalid-character"])
def test_malformed_graph6_host(tmp_path, capsys, text):
    host = tmp_path / "host.g6"
    host.write_text(text)
    _usage_error(capsys, ["minor", "find", "--host", str(host),
                          "--pattern", "K5"])


@pytest.mark.parametrize("change", [
    {"iso": {"0": 0, "1": "1", "2": 2, "3": 3, "4": 4}},
    {"pattern": ["K5"]},
    {"pattern": {"vertices": [0, 1], "edges": [{"id": 1, "a": 0}]}},
], ids=["iso-mixes-int-and-string", "pattern-is-a-list",
        "pattern-graph-with-bad-edge-record"])
def test_certificate_with_malformed_field(tmp_path, capsys, change):
    host = tmp_path / "host.json"
    host.write_text(io.to_json(catalog.build("K5").graph))
    cert = tmp_path / "cert.json"
    data = {"pattern": "K5", "contracted": [], "deleted": [],
            "iso": {str(v): v for v in range(5)}}
    data.update(change)
    cert.write_text(json.dumps(data))
    _usage_error(capsys, ["minor", "verify", str(cert), "--host", str(host)])
