"""Reference kernels that scale every timing to one fixed machine speed.

The benchmark shares a few cores of a host with other tenants, and the
host's speed for the same pure-Python code drifts by a factor of up to
two, in phases that last from seconds to minutes.  A run of 25 s cannot
average that out, so raw times of the same code spread by 20–45 %
between runs.

So every timed phase also times two small pure-Python kernels every
EVERY_S seconds, with the garbage collector off, and multiplies each
latency by (REF_S / c) ** ALPHA, where c is the kernels' time around
it.  One kernel reads an 8 MB table at scattered places, as the
program's own pointer chasing through its heap does; the other builds
and sorts small tuples.  The kernels use nothing from rmlsat, so a
change to the program does not move them.  REF_S is their median time
on a 2-vCPU Xeon VM with Python 3.11, the machine the benchmark was
written on.  The kernels react more to the host's load than the
program: across 29 runs there, the log of the program's raw median
latency followed the log of the kernels' median time with a slope of
0.53-0.56, hence ALPHA.  Raw times are still reported in the detail
line.

This module imports only the standard library, so it can run before
anything else is imported.
"""

import gc
import itertools
import statistics
from array import array
from time import perf_counter

REF_S = 2.4e-3  # median time of one sample (both kernels) on the reference machine
TABLE_SLOTS = 1 << 20  # 8 MB of int64, four times a core's L2
READS = 4000  # scattered reads per sample
ALPHA = 0.5  # elasticity of the workloads' time to the kernels' time
EVERY_S = 0.1  # seconds of operations between samples in a timed phase
HALF = 2  # a sample is smoothed with the median of HALF samples on each side


_TABLE = array("q", [0]) * TABLE_SLOTS
_PLACES = [i * 2654435761 % TABLE_SLOTS for i in range(READS)]


def _scattered_reads():
    total = 0
    for i in _PLACES:
        total += _TABLE[i]
    return total


def canonical_models(max_states):
    """One representative per isomorphism class of pointed models with
    1..max_states states over a single atom, in a canonical order.  Each is
    (state count, edges, bitmask of states with the atom, point) over
    state indices.  It builds check-grid's models and, at two states, is
    one of the reference kernels."""
    found = {}
    for n in range(1, max_states + 1):
        states = range(n)
        edges = list(itertools.product(states, states))
        perms = list(itertools.permutations(states))
        for emask in range(2 ** len(edges)):
            es = [e for k, e in enumerate(edges) if emask >> k & 1]
            for vmask in range(2**n):
                for pt in states:
                    key = (n,) + min(
                        (
                            tuple(sorted((pm[a], pm[b]) for a, b in es)),
                            tuple(sorted(pm[s] for s in states if vmask >> s & 1)),
                            pm[pt],
                        )
                        for pm in perms
                    )
                    found.setdefault(key, (n, es, vmask, pt))
    return [found[k] for k in sorted(found)]


def sample():
    """Seconds for one run of both kernels: READS scattered reads of the
    table, and the enumeration of 2-state pointed models."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _scattered_reads()
        canonical_models(2)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(reference):
    """The scale for a time taken while one sample took `reference` s."""
    return (REF_S / reference) ** ALPHA


class Track:
    """Samples taken between the operations of a timed phase.

    ``take(k)`` records a sample just before operation k.  ``scale``
    then scales each latency: an operation between samples j and j+1 by
    the factor for the mean of their smoothed values.
    """

    def __init__(self):
        self.samples = []
        self.marks = []

    def take(self, k):
        self.samples.append(sample())
        self.marks.append(k)

    def smoothed(self):
        s = self.samples
        return [statistics.median(s[max(0, j - HALF) : j + HALF + 1]) for j in range(len(s))]

    def factor_after(self, j):
        """The factor for a time taken between samples j and j+1."""
        sm = self.smoothed()
        return factor((sm[j] + sm[j + 1]) / 2)

    def scale(self, latencies):
        """Scaled copy of latencies; the first and last sample must
        bracket them (marks 0 and len(latencies))."""
        sm = self.smoothed()
        out = array("d", latencies)
        for j in range(len(sm) - 1):
            f = factor((sm[j] + sm[j + 1]) / 2)
            for i in range(self.marks[j], self.marks[j + 1]):
                out[i] *= f
        return out
