"""Call latencies scaled to a reference speed.

The speed of a core on a shared virtual machine drifts: by up to 1.6x in
spells of seconds to minutes, a spell can cover a whole run, and within
a tenth of a second the speed can flip between two levels.  Process CPU
time drifts with wall time, so it does not help.  Two different
pure-Python loops run in alternation drift together: over 90 s their
times moved by 1.6x while the ratio of the two stayed within 7%.

So while calls are timed, a timer signal runs a short, fixed pure-Python
loop (`reference`) every `INTERVAL` seconds and records how long it
took.  The handler's time is taken out of the call it interrupted, and
each call's time is multiplied by `NOMINAL` over the mean time of the
samples taken during the call, the last one before it and the first one
after it.  The result is seconds at the speed at which the reference
loop takes `NOMINAL` seconds: a change to the program moves it, a change
in the machine's speed that slows the program and the loop alike does
not.  The signal interrupts only the benchmark's own process.

Of the references tried on the same recorded runs of `pairs` and
`decide_8` (this loop, networkx's isomorphism test on the Petersen
graph, 1500 dict inserts, and the sum of the three), this loop left the
smallest spreads between runs overall and dict inserts the largest.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

# Seconds the reference loop takes at the reference speed: about its
# time on the 2-core machine of the README's figures, so that scaled
# figures read close to that machine's wall times.
NOMINAL = 0.0002
INTERVAL = 0.04  # seconds between two reference samples


def reference():
    """A fixed mix of what the program does most: small dicts, sets,
    tuples, sorting and function calls.  It never touches the program."""
    seen = {}
    out = set()
    for i in range(160):
        key = (i * 7919) % 97
        seen[key] = seen.get(key, 0) + 1
        out.add(tuple(sorted((key, i % 13, seen[key]))))
    return len(out)


class Recorder:
    """Times calls, and samples the reference loop while entered."""

    def __init__(self):
        self.times = []  # perf_counter at each reference sample
        self.refs = []  # the sample's reference time
        self.paused = 0.0  # total time spent taking samples
        self.calls = []  # (start, end, seconds less sampling, answered yes)

    def sample(self, *_):
        t = time.perf_counter()
        reference()
        u = time.perf_counter()
        self.times.append(t)
        self.refs.append(u - t)
        self.paused += time.perf_counter() - t

    def __enter__(self):
        """Start sampling: one sample now, then one every INTERVAL."""
        self.sample()
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.sample()
        return False

    def call(self, fn, *args, **kwargs):
        """Call fn, record it, and return its result."""
        p = self.paused
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        u = time.perf_counter()
        self.calls.append((t, u, u - t - (self.paused - p),
                           out is not None and out is not False))
        return out

    def scaled(self, start, end, net):
        """`net` seconds of work from `start` to `end`, at the reference
        speed: scaled by the mean of the samples taken during the call and
        the last one before it and the first one after it."""
        i = max(bisect.bisect_right(self.times, start) - 1, 0)
        j = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return net * NOMINAL / statistics.fmean(self.refs[i:j + 1])

    def records(self):
        """(scaled latency in seconds, answered yes) for every call."""
        return [(self.scaled(t, u, net), yes) for t, u, net, yes in self.calls]
