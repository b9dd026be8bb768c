"""Command-line entry point.

Exit codes: 0 = success or verified pass, 1 = verified negative (a search
or verification ran fine and the answer is "no"), 2 = usage error,
3 = inconclusive (a search hit its node cap, so there is no answer).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import catalog, io, matroids, minors, rounded, verification
from .matroids import MatroidError
from .multigraph import GraphError

PASS, FAIL, USAGE, INCONCLUSIVE = 0, 1, 2, 3


def _read_json(path, error, kind=dict, keys=()):
    """Parse a JSON input file, raising `error` if it is not valid JSON of
    type `kind` with every key in `keys`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:
            raise error("%s: invalid JSON: %s" % (path, err)) from None
    if not isinstance(data, kind):
        raise error("%s: expected a JSON %s" % (path, kind.__name__))
    missing = [k for k in keys if k not in data]
    if missing:
        raise error("%s: missing key %s" % (path, ", ".join(missing)))
    return data


def _emit(args, payload, text_lines):
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text if args.json else "\n".join(text_lines))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_ids(text):
    if not text:
        return []
    try:
        return [int(tok.lstrip("e")) for tok in text.split(",") if tok]
    except ValueError:
        raise GraphError("expected comma-separated edge ids, got %r" % text)


def _parse_elements(text, m):
    """The elements of `m` that the comma-separated tokens of `text` name:
    a token spells a label, and an integer label may also be written as
    an edge id ("e3")."""
    labels = {str(e): e for e in m.elements}
    labels.update(("e%d" % e, e) for e in m.elements if isinstance(e, int))
    try:
        return [labels[tok] for tok in text.split(",") if tok]
    except KeyError as err:
        raise MatroidError("--require: unknown element %r"
                           % err.args[0]) from None


def _certificate(model, pattern=None):
    """The model as JSON; a pattern that is not a catalog name is written
    as its graph, so that `minor verify` can rebuild it."""
    data = model.to_json_dict()
    if pattern is not None:
        data["pattern"] = io.to_json_dict(pattern)
    return data


def _write_certificate(path, cert):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _cmd_catalog(args):
    if args.action == "list":
        names = catalog.list_names()
        _emit(args, {"names": names}, names)
        return PASS
    entry = catalog.build(args.name)
    payload = io.to_json_dict(entry.graph)
    payload["name"] = entry.name
    payload["labels"] = {k: v for k, v in sorted(entry.labels.items())}
    lines = ["%s: %d vertices, %d edges" % (entry.name, entry.graph.n,
                                            entry.graph.m)]
    lines += ["  e%d: %s-%s" % (e, a, b)
              for e, (a, b) in sorted(entry.graph.edges.items())]
    _emit(args, payload, lines)
    return PASS


def _pattern_arg(text):
    """(catalog name, None) for a catalog name, else ("", the file's graph)."""
    if text in catalog.list_names():
        return text, None
    return "", io.load_graph(text)


def _cmd_minor(args):
    if args.action == "verify":
        host = io.load_graph(args.host)
        cert = _read_json(args.certificate_in, GraphError,
                          keys=("contracted", "deleted", "pattern", "iso"))
        try:
            iso = {int(k): v for k, v in cert["iso"].items()}
            ids = [*iso.values(), *cert["contracted"], *cert["deleted"]]
        except (AttributeError, TypeError, ValueError):
            ids = None
        if (ids is None or not all(isinstance(x, int) for x in ids)
                or not isinstance(cert["pattern"], (str, dict))):
            raise GraphError("%s: malformed certificate: pattern must be a "
                             "name or a graph, and contracted, deleted and "
                             "iso must hold integers" % args.certificate_in)
        name, pattern = cert["pattern"], None
        if isinstance(name, dict):
            try:
                name, pattern = "", io.from_json_dict(name)
            except GraphError as err:
                raise GraphError("%s: malformed certificate pattern: %s"
                                 % (args.certificate_in, err)) from None
        model = minors.MinorModel(host, frozenset(cert["contracted"]),
                                  frozenset(cert["deleted"]), name, iso)
        ok, diagnostics = minors.verify_model(model, pattern)
        _emit(args, {"valid": ok, "diagnostics": diagnostics},
              ["valid" if ok else "invalid"] + diagnostics)
        return PASS if ok else FAIL

    host = io.load_graph(args.host)
    pattern = None
    if args.action == "find":
        name, pattern = _pattern_arg(args.pattern)
        model = minors.find_minor(host, name or pattern,
                                  required=_parse_ids(args.require),
                                  node_cap=args.node_cap)
    else:  # triangle
        tri = _parse_ids(args.triangle)
        if len(tri) != 3:
            raise GraphError("--triangle needs exactly three edge ids")
        fn = (minors.preserve_triangle_k5 if args.target == "K5"
              else minors.preserve_triangle_k331)
        model = fn(host, tri, node_cap=args.node_cap)
    if model is None:
        _emit(args, {"found": False}, ["no minor found"])
        return FAIL
    cert = _certificate(model, pattern)
    if args.certificate:
        _write_certificate(args.certificate, cert)
    _emit(args, dict(cert, found=True),
          ["minor found: %s" % (model.pattern_name or args.pattern),
           "contracted: %s" % sorted(model.contracted),
           "deleted: %s" % sorted(model.deleted)])
    return PASS


def _cmd_planarity(args):
    g = io.load_graph(args.graph)
    result = minors.obstruction(g, node_cap=args.node_cap)
    if result is None:
        _emit(args, {"planar": True}, ["planar"])
        return PASS
    name, model = result
    cert = _certificate(model)
    if args.certificate:
        _write_certificate(args.certificate, cert)
    payload = {"planar": False, "obstruction": dict(cert, found=True)}
    _emit(args, payload, ["non-planar: %s minor" % name])
    return PASS


def _cmd_rounded(args):
    if args.family in rounded.NAMED_FAMILIES:
        family = rounded.NAMED_FAMILIES[args.family]
    else:
        family = tuple(_read_json(args.family, GraphError, kind=list))
        if not all(isinstance(name, str) for name in family):
            raise GraphError("%s: family entries must be names" % args.family)
    report = rounded.verify_two_rounded(family, node_cap=args.node_cap)
    payload = report.to_json_dict()
    lines = ["family: %s" % ", ".join(family),
             "candidates: %d" % len(report.candidates),
             "failures: %d" % len(report.failures),
             "overruns: %d" % len(report.overruns),
             "verdict: %s" % report.verdict]
    _emit(args, payload, lines)
    if report.verdict == "budget":
        return INCONCLUSIVE
    return PASS if report.verdict == "pass" else FAIL


def _matroid_arg(text):
    if text == "r12":
        return matroids.r12()
    if text == "r10":
        return matroids.r10()
    if text in catalog.list_names():
        return matroids.cycle_matroid(catalog.build(text).graph)
    data = _read_json(text, MatroidError, keys=("rows", "elements"))
    return matroids.BinaryMatroid.from_rows(data["rows"], data["elements"])


def _cmd_matroid(args):
    if args.action == "r12":
        if not args.verify:
            m = matroids.r12()
            _emit(args, m.to_json_dict(),
                  ["rank %d, %d elements" % (m.rank_value, m.size)])
            return PASS
        report = matroids.verify_r12_claims()
        ok = all(v["pass"] for v in report.values())
        lines = ["%s: %s" % (k, "pass" if v["pass"] else "fail")
                 for k, v in report.items()]
        _emit(args, {"pass": ok, "checks": report}, lines)
        return PASS if ok else FAIL
    host = _matroid_arg(args.host)
    target = _matroid_arg(args.target)
    required = _parse_elements(args.require, host)
    witness = matroids.matroid_has_minor(host, target, required=required)
    if witness is None:
        _emit(args, {"found": False}, ["no minor found"])
        return FAIL
    cset, dset = witness
    payload = {"found": True, "contract": sorted(cset), "delete": sorted(dset)}
    _emit(args, payload,
          ["minor found", "contract: %s" % sorted(cset),
           "delete: %s" % sorted(dset)])
    return PASS


def _cmd_verify_all(args):
    report = verification.verify_all(seed=args.seed,
                                     node_cap=args.node_cap)
    outcomes = {k: "pass" if v["pass"] else v.get("outcome", "fail")
                for k, v in report.items() if k != "pass"}
    lines = ["%s: %s" % item for item in outcomes.items()]
    lines.append("overall: %s" % ("pass" if report["pass"] else "fail"))
    _emit(args, report, lines)
    if "fail" in outcomes.values():
        return FAIL
    return INCONCLUSIVE if "budget" in outcomes.values() else PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rootedminors",
        description="Rooted graph-minor search and verification toolkit",
    )
    parser.add_argument("--json", action="store_true",
                        help="emit JSON on stdout")
    parser.add_argument("--node-cap", type=int,
                        default=minors.DEFAULT_NODE_CAP,
                        help="search node-expansion cap")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification runs")
    parser.add_argument("--output", default=None,
                        help="also write JSON output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="named ground-truth graphs")
    ps = p.add_subparsers(dest="action", required=True)
    ps.add_parser("list")
    dump = ps.add_parser("dump")
    dump.add_argument("name")

    p = sub.add_parser("minor", help="minor search and certificates")
    ps = p.add_subparsers(dest="action", required=True)
    find = ps.add_parser("find")
    find.add_argument("--host", required=True)
    find.add_argument("--pattern", required=True,
                      help="catalog name or graph file")
    find.add_argument("--require", default="",
                      help="comma-separated edge ids to keep")
    find.add_argument("--certificate", help="write the model here")
    tri = ps.add_parser("triangle")
    tri.add_argument("--host", required=True)
    tri.add_argument("--triangle", required=True,
                     help="three comma-separated edge ids")
    tri.add_argument("--target", choices=("K5", "K33_11"), default="K33_11")
    tri.add_argument("--certificate", help="write the model here")
    ver = ps.add_parser("verify")
    ver.add_argument("certificate_in", metavar="certificate")
    ver.add_argument("--host", required=True)

    p = sub.add_parser("planarity", help="planarity with obstruction minors")
    ps = p.add_subparsers(dest="action", required=True)
    chk = ps.add_parser("check")
    chk.add_argument("graph")
    chk.add_argument("--certificate", help="write the obstruction model here")

    p = sub.add_parser("rounded", help="2-roundedness verification")
    ps = p.add_subparsers(dest="action", required=True)
    ver = ps.add_parser("verify")
    ver.add_argument("--family", required=True,
                     help="a, b, or a JSON file with catalog names")

    p = sub.add_parser("matroid", help="GF(2) matroid operations")
    ps = p.add_subparsers(dest="action", required=True)
    r12p = ps.add_parser("r12")
    r12p.add_argument("--verify", action="store_true")
    mm = ps.add_parser("minor")
    mm.add_argument("--host", required=True,
                    help="r12, r10, a catalog name, or a matrix file")
    mm.add_argument("--target", required=True)
    mm.add_argument("--require", default="",
                    help="comma-separated host element labels to keep")

    sub.add_parser("verify-all", help="run the full verification battery")
    return parser


_HANDLERS = {
    "catalog": _cmd_catalog,
    "minor": _cmd_minor,
    "planarity": _cmd_planarity,
    "rounded": _cmd_rounded,
    "matroid": _cmd_matroid,
    "verify-all": _cmd_verify_all,
}


def dispatch(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.node_cap <= 0:
        parser.error("--node-cap must be positive, got %d" % args.node_cap)
    try:
        return _HANDLERS[args.command](args)
    except (GraphError, MatroidError) as err:
        print("error: %s" % err, file=sys.stderr)
        return USAGE
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return USAGE
    except minors.SearchBudgetExceeded as err:
        print("inconclusive: %s (node cap %d)" % (err, args.node_cap),
              file=sys.stderr)
        if args.json:
            _emit(args, {"found": None, "outcome": "budget"}, [])
        return INCONCLUSIVE


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
