"""Orbit transitions of node groups between consecutive snapshots.

For every k-node set that induces a connected subgraph in a snapshot, the
same nodes are followed into the next snapshot: either they are still
connected (each member node moves from its old orbit to a new one) or the
group fell apart (counted per source orbit as dissolved). Accumulating
over all consecutive snapshot pairs yields a transition-count matrix per
network, which is then row-normalized and optionally discretized into a
coarse Rare/Common/Frequent fingerprint.

A pair's tally bins each enumerated k-set by its (source mask, target
mask); no k-set's node row is built. A set holding no changed pair, none
of the symmetric difference D of the two edge sets, keeps its orbits. The
full path enumerates every set connected in the source; the delta path
only those holding a pair of D, and takes the rest from the source's
per-orbit totals (edge-local counting after Schiller et al., "StreaM",
AlCoB 2015). Each pair takes the cheaper (``_takes_delta_path``); both
give the same counts. Along a series the delta path's tally also gives
the target's totals, so only a chain's first pair takes them from a
closed-form census.
"""

from __future__ import annotations

import numpy as np

from .census import GRAPHLET_CLASSES, _orbit_counts, _orbit_slots, _pair_blocks, orbit_count
from .graph_core import SnapshotSeries, StaticGraph
from .metrics import row_normalize  # noqa: F401  (one copy, for the products and OTA alike)

FINGERPRINT_LABELS = ("Rare", "Common", "Frequent")

_LOW = 1.0 / 3.0
_HIGH = 2.0 / 3.0


class OrbitTransitionMatrix:
    """Accumulated orbit-transition counts.

    ``counts[a-1, b-1]`` is the number of node-transitions from orbit a
    to orbit b; ``dissolved[a-1]`` counts node-transitions out of orbit a
    whose group was no longer connected in the next snapshot. Every
    surviving or dissolving group contributes exactly k node-transitions.
    ``formed[b-1]``, the mirror of ``dissolved``, counts the nodes in orbit
    b of groups connected only in the next snapshot; a pair's tally holds
    it on the delta path only, else it is None.
    """

    __slots__ = ("k", "counts", "dissolved", "pairs_processed", "formed")

    def __init__(self, k: int, counts: np.ndarray, dissolved: np.ndarray, pairs_processed: int,
                 formed: np.ndarray | None = None):
        # counts: (m, m) int64; dissolved and formed: (m,) int64
        self.k, self.counts, self.dissolved = k, counts, dissolved
        self.pairs_processed, self.formed = pairs_processed, formed

    def total_node_transitions(self) -> int:
        return int(self.counts.sum() + self.dissolved.sum())


def enumerate_transitions(s_from: StaticGraph, s_to: StaticGraph, k: int, *,
                          totals: np.ndarray | None = None) -> OrbitTransitionMatrix:
    """Transition counts for one ordered snapshot pair.

    Only groups connected in ``s_from`` contribute (newly formed groups
    have no source orbit); groups that lose connectivity in ``s_to`` land
    in the dissolved counters. ``totals``, if given, are ``s_from``'s
    per-orbit totals, which the delta path then takes instead of a census.
    """
    orbit_count(k)  # rejects any other k
    if s_from.n != s_to.n:
        raise ValueError(f"snapshots disagree on node universe ({s_from.n} vs {s_to.n} nodes)")
    u, tags = _union(s_from, s_to)
    if _takes_delta_path(u, tags, k):
        return _delta_path(s_from, u, tags, k, totals)
    return _tally(u, tags, k, seeded=False)


def _union(s_from: StaticGraph, s_to: StaticGraph) -> tuple[StaticGraph, np.ndarray]:
    """The union of two graphs on one node set, and its CSR entries' tags
    (``_pair_blocks``): the two graphs' sorted keys merged, each tagged by
    the graphs that hold it."""
    keys = np.concatenate((s_from.keys, s_to.keys))
    order = keys.argsort(kind="stable")  # merges the two sorted runs
    keys, tags = keys[order], np.where(order < len(s_from.keys), 1, 2)
    both = np.flatnonzero(keys[1:] == keys[:-1])  # a source key, then the same target key
    tags[both] = 3
    return StaticGraph.from_keys(s_from.n, np.delete(keys, both + 1)), np.delete(tags, both + 1)


# per k, about where the two paths cost the same on pairs of growing
# turnover, the delta pair given its source totals: k = 3 pairs crossed at
# 0.37-0.44, k = 4 pairs at 0.29-0.41, and at about 0.26 on a dense
# aggregate series (BENCH_23_count_only_tally.json)
_DELTA_BELOW = {3: 0.4, 4: 0.3}


def _takes_delta_path(u: StaticGraph, tags: np.ndarray, k: int) -> bool:
    """Whether the changed pairs of ``u`` reach few k-sets against the source's
    edges: an edge {a, b} lies in about (d(a) + d(b)) ** (k - 2), by degree in ``u``."""
    degree = np.diff(u.indptr)
    reach = (np.repeat(degree, degree) + degree[u.indices]).astype(np.float64) ** (k - 2)
    return bool(reach[tags != 3].sum() < _DELTA_BELOW[k] * reach[tags & 1 == 1].sum())


def _tally(u: StaticGraph, tags: np.ndarray, k: int, seeded: bool) -> OrbitTransitionMatrix:
    """Counts over the sets of ``_pair_blocks(u, tags, k, seeded)``: unless
    ``seeded``, the full path. A set disconnected in the source counts
    nowhere but, if ``seeded``, in ``formed``."""
    slots = _orbit_slots(k)  # [mask, position]: orbit id - 1, or m if the mask is disconnected
    n_masks, m = len(slots), orbit_count(k)
    # one bin per (mask in the source, mask in the target) of the same k-set
    per_pair = np.zeros(n_masks * n_masks, dtype=np.int64)
    for _sets, (source, target) in _pair_blocks(u, tags, k, seeded, rows=False):
        per_pair += np.bincount(source * n_masks + target, minlength=n_masks**2)
    # each filled bin's node-transitions, a disconnected mask's in row or column m
    bins = np.flatnonzero(per_pair)
    moves = np.zeros((m + 1, m + 1), dtype=np.int64)
    np.add.at(moves, (slots[bins // n_masks], slots[bins % n_masks]), per_pair[bins, None])
    return OrbitTransitionMatrix(k, moves[:m, :m], moves[:m, m], 1, moves[m, :m] if seeded else None)


def _delta_path(s_from: StaticGraph, u: StaticGraph, tags: np.ndarray, k: int,
                totals: np.ndarray | None = None) -> OrbitTransitionMatrix:
    """Counts over the changed sets, plus the others, which keep their orbits:
    ``s_from``'s per-orbit ``totals``, from its closed-form census unless given,
    less the changed sets' source orbits."""
    t = _tally(u, tags, k, seeded=True)
    if totals is None:
        totals = _orbit_counts(s_from, k).sum(axis=0)
    t.counts[np.diag_indices_from(t.counts)] += totals - t.counts.sum(axis=1) - t.dissolved
    return t


def accumulate_series(series: SnapshotSeries, k: int) -> OrbitTransitionMatrix:
    """Sum of pairwise transition counts over all consecutive snapshots.

    A delta-path pair gives its target's per-orbit totals, its column sums
    plus ``formed``, and the next pair takes them instead of a census. Each
    chain of carried totals is checked where it ends: against a full-path
    pair's source totals, its row sums plus ``dissolved``, or against the
    last snapshot's closed-form census. A mismatch raises RuntimeError
    naming the pair.
    """
    if len(series) < 2:
        raise ValueError("need at least 2 snapshots to track transitions")
    m, last = orbit_count(k), len(series) - 1
    counts, dissolved = np.zeros((m, m), dtype=np.int64), np.zeros(m, dtype=np.int64)
    totals, start = None, 0  # snapshot i's totals, carried from snapshot start
    for i in range(last):
        p = enumerate_transitions(series[i], series[i + 1], k, totals=totals)
        counts += p.counts
        dissolved += p.dissolved
        if p.formed is not None:
            if totals is None:
                start = i
            totals = p.counts.sum(axis=0) + p.formed
        elif totals is not None:
            _check_carried(totals, p.counts.sum(axis=1) + p.dissolved, start, i, i,
                           "its full-path tally")
            totals = None
    if totals is not None:
        _check_carried(totals, _orbit_counts(series[last], k).sum(axis=0), start, last - 1, last,
                       "its closed-form census")
    return OrbitTransitionMatrix(k, counts, dissolved, pairs_processed=last)


def _check_carried(carried: np.ndarray, found: np.ndarray, start: int, pair: int, at: int,
                   what: str) -> None:
    if not np.array_equal(carried, found):
        raise RuntimeError(
            f"snapshot pair {pair}->{pair + 1}: the orbit totals of snapshot {at}, carried "
            f"from snapshot {start}, disagree with {what} ({carried.tolist()} vs {found.tolist()})")


def discretize(values: np.ndarray) -> tuple[tuple[str, ...], ...]:
    """Each cell's label from ``FINGERPRINT_LABELS``, as a tuple of row tuples:
    Rare [0,1/3], Common (1/3,2/3] or Frequent (2/3,1].

    A cell outside [0, 1], NaN included, is rejected.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {values.shape}")
    outside = ~((values >= 0.0) & (values <= 1.0))
    if outside.any():
        bad = values[outside][0]
        raise ValueError(f"cell value {bad} outside [0, 1]; normalize or rescale first")
    if all(orbit_count(k) != len(values) for k in GRAPHLET_CLASSES):
        shapes = " or ".join(f"{orbit_count(k)}x{orbit_count(k)} (k={k})" for k in GRAPHLET_CLASSES)
        raise ValueError(f"expected a {shapes} matrix, got shape {values.shape}")
    bins = (values > _LOW).astype(np.int8) + (values > _HIGH).astype(np.int8)
    return tuple(tuple(FINGERPRINT_LABELS[b] for b in row) for row in bins)
