"""Orbit transitions of node groups between consecutive snapshots.

For every k-node set that induces a connected subgraph in a snapshot, the
same nodes are followed into the next snapshot: either they are still
connected (each member node moves from its old orbit to a new one) or the
group fell apart (counted per source orbit as dissolved). Accumulating
over all consecutive snapshot pairs yields a transition-count matrix per
network, which is then row-normalized and optionally discretized into a
coarse Rare/Common/Frequent fingerprint.

A set holding no changed pair, none of the symmetric difference D of the
two edge sets, keeps its orbits. The full path enumerates every set
connected in the source; the delta path only those holding a pair of D,
and takes the rest from the source's closed-form census (edge-local
counting after Schiller et al., "StreaM", AlCoB 2015). Each pair takes
the cheaper (``_takes_delta_path``); both give the same counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .census import GRAPHLET_CLASSES, _orbit_counts, _orbit_onehot, _pair_blocks, orbit_count
from .graph_core import SnapshotSeries, StaticGraph

FINGERPRINT_LABELS = ("Rare", "Common", "Frequent")

_LOW = 1.0 / 3.0
_HIGH = 2.0 / 3.0


@dataclass(frozen=True)
class OrbitTransitionMatrix:
    """Accumulated orbit-transition counts.

    ``counts[a-1, b-1]`` is the number of node-transitions from orbit a
    to orbit b; ``dissolved[a-1]`` counts node-transitions out of orbit a
    whose group was no longer connected in the next snapshot. Every
    surviving or dissolving group contributes exactly k node-transitions.
    """

    k: int
    counts: np.ndarray  # (m, m) int64
    dissolved: np.ndarray  # (m,) int64
    pairs_processed: int

    def total_node_transitions(self) -> int:
        return int(self.counts.sum() + self.dissolved.sum())


def enumerate_transitions(s_from: StaticGraph, s_to: StaticGraph, k: int) -> OrbitTransitionMatrix:
    """Transition counts for one ordered snapshot pair.

    Only groups connected in ``s_from`` contribute (newly formed groups
    have no source orbit); groups that lose connectivity in ``s_to`` land
    in the dissolved counters.
    """
    if s_from.n != s_to.n:
        raise ValueError(f"snapshots disagree on node universe ({s_from.n} vs {s_to.n} nodes)")
    u, tags = _union(s_from, s_to)
    if _takes_delta_path(u, tags, k):
        return _delta_path(s_from, u, tags, k)
    return _tally(u, tags, k, seeded=False)


def _union(s_from: StaticGraph, s_to: StaticGraph) -> tuple[StaticGraph, np.ndarray]:
    """The union of two graphs on one node set, and its CSR entries' tags (``_pair_blocks``)."""
    u = StaticGraph(s_from.n, np.concatenate((s_from.edge_array(), s_to.edge_array())))
    in_from, in_to = (np.isin(u.keys, g.keys, assume_unique=True) for g in (s_from, s_to))
    return u, in_from | in_to.astype(np.int64) << 1


# where the two paths cost the same, on pairs of growing turnover (CHANGES.md)
_DELTA_BELOW = 0.3


def _takes_delta_path(u: StaticGraph, tags: np.ndarray, k: int) -> bool:
    """Whether the changed pairs of ``u`` reach few k-sets against the source's
    edges: an edge {a, b} lies in about (d(a) + d(b)) ** (k - 2), by degree in ``u``."""
    degree = np.diff(u.indptr)
    reach = (np.repeat(degree, degree) + degree[u.indices]).astype(np.float64) ** (k - 2)
    return bool(reach[tags != 3].sum() < _DELTA_BELOW * reach[tags & 1 == 1].sum())


def _tally(u: StaticGraph, tags: np.ndarray, k: int, seeded: bool) -> OrbitTransitionMatrix:
    """Counts over the sets of ``_pair_blocks(u, tags, k, seeded)``: unless
    ``seeded``, the full path. A set disconnected in the source counts nowhere."""
    onehot = _orbit_onehot(k)  # [position, mask, orbit - 1], rows of disconnected masks zero
    n_masks = onehot.shape[1]
    # one bin per (mask in the source, mask in the target) of the same k-set
    per_pair = np.zeros(n_masks * n_masks, dtype=np.int64)
    for _sets, masks in _pair_blocks(u, tags, k, seeded):
        per_pair += np.bincount(masks[:, 0] * n_masks + masks[:, 1], minlength=n_masks**2)
    per_pair = per_pair.reshape(n_masks, n_masks)
    counts = sum(at.T @ per_pair @ at for at in onehot)
    dissolved = per_pair[:, ~onehot[0].any(axis=1)].sum(axis=1) @ onehot.sum(axis=0)
    return OrbitTransitionMatrix(k=k, counts=counts, dissolved=dissolved, pairs_processed=1)


def _delta_path(s_from: StaticGraph, u: StaticGraph, tags: np.ndarray,
                k: int) -> OrbitTransitionMatrix:
    """Counts over the changed sets, plus the others, which keep their orbits."""
    t = _tally(u, tags, k, seeded=True)
    stay = _orbit_counts(s_from, k).sum(axis=0) - t.counts.sum(axis=1) - t.dissolved
    t.counts[np.diag_indices_from(t.counts)] += stay
    return t


def accumulate_series(series: SnapshotSeries, k: int) -> OrbitTransitionMatrix:
    """Sum of pairwise transition counts over all consecutive snapshots."""
    if len(series) < 2:
        raise ValueError("need at least 2 snapshots to track transitions")
    pairs = [enumerate_transitions(series[i], series[i + 1], k) for i in range(len(series) - 1)]
    counts, dissolved = sum(p.counts for p in pairs), sum(p.dissolved for p in pairs)
    return OrbitTransitionMatrix(k, counts, dissolved, pairs_processed=len(pairs))


def row_normalize(t: OrbitTransitionMatrix) -> np.ndarray:
    """The (m, m) float64 row-stochastic matrix: each row divided by its sum,
    rows of an unseen source orbit staying zero.

    Dissolved counts do not enter the denominator — they live outside the
    matrix.
    """
    sums = t.counts.sum(axis=1, keepdims=True)
    return np.divide(t.counts, sums, out=np.zeros_like(t.counts, dtype=np.float64), where=sums > 0)


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
