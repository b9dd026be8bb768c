"""Make, or check, the committed list of 3-connected 8-vertex hosts.

    python3 bench/make_hosts.py          # write bench/data/hosts8.g6 anew
    python3 bench/make_hosts.py --check  # check the committed file

Neither mode imports the program under test.  Every 3-connected graph on
8 vertices is a 2-connected 7-vertex graph plus a vertex of degree >= 3,
so the generator extends networkx's atlas of 7-vertex graphs and keeps one
graph per isomorphism class.  The check recomputes everything it asserts
with networkx: the class count from OEIS A006290, vertex connectivity
and pairwise non-isomorphism.
"""
from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations

import networkx as nx

from checks import isomorphism_classes, pairwise_non_isomorphic

HERE = os.path.dirname(os.path.abspath(__file__))
HOSTS_PATH = os.path.join(HERE, "data", "hosts8.g6")
A006290_8 = 2388  # 3-connected graphs on 8 vertices (OEIS A006290)


def generate_hosts():
    parents = [g for g in nx.graph_atlas_g()
               if g.number_of_nodes() == 7 and nx.is_biconnected(g)]
    candidates = []
    for p in parents:
        for k in range(3, 8):
            for nbrs in combinations(range(7), k):
                g = p.copy()
                g.add_edges_from((7, v) for v in nbrs)
                if min(d for _, d in g.degree()) >= 3:
                    candidates.append(g)
    classes = isomorphism_classes(candidates)
    return sorted(to_g6(g) for g in classes
                  if nx.node_connectivity(g) >= 3)


def to_g6(g):
    return nx.to_graph6_bytes(g, header=False).decode().strip()


def read_hosts(path=HOSTS_PATH):
    with open(path, encoding="ascii") as fh:
        return [line.strip() for line in fh if line.strip()]


def check_hosts(lines):
    """Problems found in a host list; empty when the list is right."""
    problems = []
    if len(lines) != A006290_8:
        problems.append("%d hosts, A006290 gives %d" % (len(lines), A006290_8))
    graphs = [nx.from_graph6_bytes(s.encode()) for s in lines]
    for s, g in zip(lines, graphs):
        if g.number_of_nodes() != 8 or nx.node_connectivity(g) < 3:
            problems.append("%s is not a 3-connected 8-vertex graph" % s)
    return problems + pairwise_non_isomorphic(graphs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="check the committed file instead of writing it")
    args = ap.parse_args(argv)
    if not args.check:
        lines = generate_hosts()
        with open(HOSTS_PATH, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    problems = check_hosts(read_hosts())
    for p in problems:
        print(p, file=sys.stderr)
    print("%s: %s" % (HOSTS_PATH, "ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
