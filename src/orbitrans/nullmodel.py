"""Degree-preserving random ensembles for motif significance testing.

A replica is produced by repeated double-edge swaps: pick two edges
(a,b) and (c,d), rewire to (a,d) and (c,b). Swaps that would create a
self-loop or a duplicate edge are rejected, so every replica is a simple
graph with exactly the original degree sequence. Ensemble class
frequencies are the mean graphlet-class counts over many replicas. The
ensemble's settings (replicates, swaps per edge, seed) are plain
arguments of ``randomized_replicates`` and ``ensemble_frequencies``.

The proposals (two edge positions and an orientation) come from one
per-``(seed, r)`` stream, drawn ``_PROPOSAL_CHUNK`` attempts at a time
with one ``rng.integers`` call per chunk. Against an array of bounds,
numpy draws each element with the bounded-integer routine a scalar call
uses, one element after another from the bit generator, so the chunked
draws are the numbers three scalar calls per attempt would give, in the
same order, and leave the generator in the same state: a seed gives the
same replica either way.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator

import numpy as np

from .census import graphlet_class_frequencies
from .graph_core import StaticGraph

# Swap attempts drawn per ``rng.integers`` call: amortises the call over
# many attempts while the (chunk, 3) array of proposals stays small.
_PROPOSAL_CHUNK = 4096


def degree_preserving_randomize(
    g: StaticGraph,
    rng: np.random.Generator | int,
    swaps_per_edge: int = 10,
) -> StaticGraph:
    """One randomized replica of ``g`` with the same degree sequence.

    Attempts ``swaps_per_edge * |E|`` double-edge swaps, at least one per
    edge; invalid swaps are skipped without retry. ``rng`` may be a seed
    or a Generator (advanced in place, so a shared Generator yields a
    different replica per call).
    """
    if swaps_per_edge < 1:
        raise ValueError("swaps_per_edge must be >= 1")
    if g.edge_count < 2:
        raise ValueError("randomization needs at least 2 edges")
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    edges = list(g.edges())
    edge_set = set(edges)
    m = len(edges)
    bounds = np.array([m, m, 2])
    attempts = swaps_per_edge * m
    for start in range(0, attempts, _PROPOSAL_CHUNK):
        size = min(_PROPOSAL_CHUNK, attempts - start)
        for i, j, flip in rng.integers(0, bounds, size=(size, 3)).tolist():
            if i == j:
                continue
            a, b = edges[i]
            c, d = edges[j]
            if flip:
                c, d = d, c
            # proposed rewiring: (a,b),(c,d) -> (a,d),(c,b)
            if a == d or c == b:
                continue
            new1 = (a, d) if a < d else (d, a)
            new2 = (c, b) if c < b else (b, c)
            if new1 in edge_set or new2 in edge_set:
                continue
            edge_set.remove(edges[i])
            edge_set.remove(edges[j])
            edge_set.add(new1)
            edge_set.add(new2)
            edges[i] = new1
            edges[j] = new2
    return StaticGraph(g.n, edges)


def randomized_replicates(
    g: StaticGraph, replicates: int = 100, swaps_per_edge: int = 10, seed: int = 0
) -> Iterator[StaticGraph]:
    """The ensemble's ``replicates`` replicas, in replicate order.

    Replica r draws from a stream seeded by (seed, r), so any subset can
    be regenerated independently and the full set never depends on
    generation order. ``replicates < 1`` and ``seed < 0`` are rejected
    before any replica is drawn; ``swaps_per_edge < 1`` when the first one is.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return (degree_preserving_randomize(g, np.random.default_rng([seed, r]), swaps_per_edge)
            for r in range(replicates))


def ensemble_frequencies(
    g: StaticGraph, k: int = 4, replicates: int = 100, swaps_per_edge: int = 10, seed: int = 0
) -> dict[str, float]:
    """Mean graphlet-class counts over ``randomized_replicates``, canonical order."""
    totals: Counter[str] = Counter()
    for replica in randomized_replicates(g, replicates, swaps_per_edge, seed):
        totals.update(graphlet_class_frequencies(replica, k))
    return {name: total / replicates for name, total in totals.items()}
