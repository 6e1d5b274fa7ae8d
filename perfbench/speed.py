"""Speed probe: a fixed pure-Python kernel timed between measurements.

The benchmark's host runs at a speed that drifts: on a shared 2-vCPU
machine the same pure-Python loop takes anywhere from 1x to 2x its
fastest time, switching within a second and with a share of slow time
that changes from one half-minute to the next. A run's median wall time
follows that share, so two runs of one program can differ by more than
a regression bound.

The speed is a property of each CPU, not of the machine: its two CPUs
are often in different states. The harness therefore pins itself and
its children to one CPU, runs this probe after each child it times, for
a fixed share of the child's time, and scales each measured time by
``(REF_PROBE_S / mean probe time) ** ELASTICITY`` of the probes taken
next to it: the time the program would have taken at the speed where
the probe takes ``REF_PROBE_S``. The probe is the same kind of work the program does
(set and tuple operations walking connected node sets of a graph) but
does not import it, so a change to the program moves the measured times
and never the probe.
"""

from __future__ import annotations

import os
import statistics
import time

# The probe's time on an otherwise idle core of the machine the benchmark
# was written on (Intel Xeon at 2.1 GHz, CPython 3.11).
REF_PROBE_S = 0.008

# How much the program slows down when the probe slows down: the slope of
# log(wall time) against log(probe time) over pinned runs of one workload
# at different speeds, measured at 0.74 to 0.92 on the workloads here.
# Process start-up and numpy code suffer less from a slow CPU than the
# probe's pure-Python loop does.
ELASTICITY = 0.8

# Share of the measured time spent probing after each timed child.
PROBE_SHARE = 0.2

_N, _REACH, _K = 60, 3, 4


def _ring() -> dict[int, frozenset[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(_N)}
    for i in range(_N):
        for d in range(1, _REACH + 1):
            j = (i + d) % _N
            adj[i].add(j)
            adj[j].add(i)
    return {i: frozenset(nbrs) for i, nbrs in adj.items()}


_ADJ = _ring()


def kernel() -> int:
    """Connected _K-node sets of a ring lattice, each counted once."""
    count = 0
    for v in range(_N):
        stack = [((v,), frozenset(w for w in _ADJ[v] if w > v))]
        while stack:
            nodes, ext = stack.pop()
            if len(nodes) == _K:
                count += 1
                continue
            rest = set(ext)
            while rest:
                w = rest.pop()
                new = rest | {x for x in _ADJ[w]
                              if x > v and x not in nodes and all(x not in _ADJ[u] for u in nodes)}
                stack.append((nodes + (w,), frozenset(new)))
    return count


def probe(measured_s: float) -> list[float]:
    """Probe samples (seconds) for PROBE_SHARE of ``measured_s``, at least one."""
    samples: list[float] = []
    while not samples or sum(samples) < PROBE_SHARE * measured_s:
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return samples


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured next to ``samples`` into reference-speed time."""
    return (REF_PROBE_S / statistics.fmean(samples)) ** ELASTICITY


def pin() -> int:
    """Keep this process and its children on one CPU, so that the probe
    measures the CPU the children ran on; return that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
