"""Spans around the program's calls at its module boundaries.

The tracer replaces module attributes with timing wrappers, so it sees
every call that goes through a module-level name: the benchmark's own
calls, a name one module imports from another (`generate.are_isomorphic`),
and a call from one function to another of the same module
(`find_family_minor` calling `find_minor`).  The program itself is not
edited.  Spans stay in memory; metrics are computed when the run ends.
"""
from __future__ import annotations

import functools
import time

# (module the attribute lives in, attribute name, defining module)
BOUNDARIES = (
    ("generate", "all_graphs", "generate"),
    ("generate", "three_connected_by_wheels", "generate"),
    ("generate", "are_isomorphic", "isomorphism"),
    ("generate", "is_three_connected", "multigraph"),
    ("multigraph", "is_three_connected", "multigraph"),
    ("minors", "are_isomorphic", "isomorphism"),
    ("minors", "find_minor", "minors"),
    ("minors", "find_family_minor", "minors"),
    ("minors", "preserve_triangle_k331", "minors"),
    ("minors", "preserve_triangle_k5", "minors"),
    ("rounded", "are_isomorphic", "isomorphism"),
    ("rounded", "is_three_connected", "multigraph"),
    ("rounded", "find_family_minor", "minors"),
    ("rounded", "verify_two_rounded", "rounded"),
    ("matroids", "matroid_has_minor", "matroids"),
    ("matroids", "matroid_isomorphic", "matroids"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "result")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children = []
        self.result = None
        self.start = self.end = 0.0

    @property
    def module(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def foreign_time(self):
        """Time covered by the nearest descendant spans of other modules."""
        return sum(c.duration if c.module != self.module else c.foreign_time()
                   for c in self.children)

    def layer_time(self):
        """Duration minus the time spent in other modules' spans."""
        return self.duration - self.foreign_time()


class Tracer:
    """Installs wrappers on enter and restores the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            if span.parent is not None:
                span.parent.children.append(span)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def __enter__(self):
        for mod_name, attr, owner in BOUNDARIES:
            mod = getattr(self.package, mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap("%s.%s" % (owner, attr), fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def named(self, name):
        return [s for s in self.spans if s.name == name]


def within(span, name):
    """Spans of `name` at or below `span`."""
    out = [span] if span.name == name else []
    for c in span.children:
        out.extend(within(c, name))
    return out
