"""Count the work of the canonical labelling behind the closures.

    python3 tools/labelling_counts.py [N ...]

For each N (default 7) it runs `generate.all_graphs(N)` from a cleared
cache and `generate.three_connected_by_wheels(N)`, and prints one JSON
line per closure with:

- `labellings`: searches started, one per `canonical_labeling` call;
- `nodes`: search nodes, leaves built included;
- `leaves`: leaves built, where the vertex order and code are computed;
- `swap_leaves`: leaves answered without being built, read as the
  automorphisms a node records itself rather than through a child;
- `orbit_calls`: calls of `isomorphism.orbit` from anywhere.

These counts do not depend on the machine.  As `bench/spans.py` does, the
tool replaces module attributes with counting wrappers while it runs and
restores them after, so the program is not edited.
"""
from __future__ import annotations

import functools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import rootedminors  # noqa: E402
from rootedminors import generate, isomorphism  # noqa: E402

FIELDS = ("labellings", "nodes", "leaves", "swap_leaves", "orbit_calls")


class Counts:
    """Installs the counting wrappers on enter and restores them on exit."""

    def __init__(self):
        self.counts = dict.fromkeys(FIELDS, 0)
        self._saved = []
        self._found = []  # automorphisms found below each open node

    def _search(self, fn):
        @functools.wraps(fn)
        def counted(layers, cells, fixed, leaves, autos):
            self.counts["nodes"] += 1
            self.counts["labellings"] += not fixed
            is_leaf = len(cells) == len(layers[0])
            self.counts["leaves"] += is_leaf
            before = len(autos)
            self._found.append(0)
            try:
                return fn(layers, cells, fixed, leaves, autos)
            finally:
                below = self._found.pop()
                found = len(autos) - before
                if not is_leaf:
                    self.counts["swap_leaves"] += found - below
                if self._found:
                    self._found[-1] += found
        return counted

    def _orbit(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["orbit_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def __enter__(self):
        wrapped = {id(fn): wrap(fn) for fn, wrap in (
            (isomorphism._search, self._search),
            (isomorphism.orbit, self._orbit))}
        for mod in vars(rootedminors).values():
            if type(mod) is type(rootedminors):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped[id(value)])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        return False


def count(closure, n):
    """The counts of one closure run at n, with the closure's class count."""
    generate.all_graphs.cache_clear()
    with Counts() as counter:
        classes = len(getattr(generate, closure)(n))
    return {"closure": closure, "n": n, "classes": classes, **counter.counts}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    for n in [int(a) for a in args] or [7]:
        for closure in ("all_graphs", "three_connected_by_wheels"):
            print(json.dumps(count(closure, n)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
