"""Pairwise network comparison metrics and hierarchical grouping.

Three comparison routes ship here:

* GDA — agreement between graphlet-degree distributions, one score per
  orbit averaged into a single value in [0, 1];
* OTA — agreement between orbit-transition matrices, after per-cell
  rescaling relative to the whole network set;
* motif-fingerprint distance — Euclidean distance between normalized
  over/under-representation scores of the graphlet classes versus a
  degree-preserving random ensemble.

Each all-pairs builder checks its input and fills the matrix through
``_all_pairs``, which scores every pair i <= j once and mirrors it, so the
matrix is exactly symmetric and its diagonal is a network's score against
itself. A matrix, agreement or distance, can be turned into a merge tree
with a small deterministic agglomerative clusterer, which tells the two
apart by the diagonal: 0 for a distance, positive for an agreement.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .census import GRAPHLET_CLASSES
from .transitions import OrbitTransitionMatrix, row_normalize

OtaScaling = Literal["normalized", "per_orbit"]
Linkage = Literal["average", "single", "complete"]


def gda_orbit_scores(
    gdd_a: Sequence[Mapping[int, float]], gdd_b: Sequence[Mapping[int, float]]
) -> list[float]:
    """Per-orbit agreement between two networks' normalized degree
    distributions, one mapping per orbit (``compute_gdd(...)[1]``).

    Each score is 1 - sqrt(sum of squared differences)/sqrt(2); two
    distributions with disjoint support score 0, identical ones score 1.
    Orbits untouched in both networks agree perfectly (empty = empty).
    """
    if len(gdd_a) != len(gdd_b):
        raise ValueError(f"orbit sets differ ({len(gdd_a)} vs {len(gdd_b)} orbits)")
    scores = []
    for dist_a, dist_b in zip(gdd_a, gdd_b):
        sq = 0.0
        for d in dist_a.keys() | dist_b.keys():
            diff = dist_a.get(d, 0.0) - dist_b.get(d, 0.0)
            sq += diff * diff
        scores.append(1.0 - math.sqrt(sq) / math.sqrt(2.0))
    return scores


def _all_pairs(
    names: Sequence[str], items: Sequence, what: str,
    score: Callable[[object, object], float], prepare: Callable[[list], list] = list,
) -> np.ndarray:
    """The (N, N) ``score`` over every pair of ``prepare(items)``, one item per name.

    Each pair i <= j is scored once and mirrored; the diagonal is an
    item's score against itself.
    """
    if len(names) != len(items):
        raise ValueError(f"one {what} required per network name")
    if len(names) < 2:
        raise ValueError("need at least 2 networks to compare")
    items = prepare(items)
    n = len(names)
    values = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            values[i, j] = values[j, i] = score(items[i], items[j])
    return values


def gda_matrix(names: Sequence[str], gdds: Sequence[Sequence[Sequence[Mapping[int, float]]]]) -> np.ndarray:
    """All-pairs GDA over a network set.

    ``gdds[i]`` holds one or more normalized degree distributions for
    network i (e.g. the 4-node orbits alone, or 3- and 4-node together);
    per-orbit scores are pooled across them before averaging.
    """

    def pooled(bundle_a, bundle_b) -> float:
        scores = [s for a, b in zip(bundle_a, bundle_b) for s in gda_orbit_scores(a, b)]
        return sum(scores) / len(scores)

    return _all_pairs(names, gdds, "GDD bundle", pooled)


def relative_rescale(matrices: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Rescale each cell to [0, 1] relative to its spread across the set.

    Cells with no spread (identical in every network) map to 0 — they
    carry no discriminative signal.
    """
    if len(matrices) < 2:
        raise ValueError("need at least 2 networks to rescale")
    stack = np.stack([np.asarray(m, dtype=np.float64) for m in matrices])
    lo = stack.min(axis=0)
    span = stack.max(axis=0) - lo
    out = np.divide(stack - lo, span, out=np.zeros_like(stack), where=span > 0)
    return [out[i] for i in range(len(matrices))]


def ota_pair(m1: np.ndarray, m2: np.ndarray, ota_scaling: OtaScaling = "normalized") -> float:
    """Orbit-transition agreement between two (rescaled) matrices.

    The sum of 1 - |m1 - m2| over the |O| x |O| cells is divided by |O|^2
    under ``"normalized"``, so identical matrices score 1, and by |O| under
    ``"per_orbit"``, so identical 11x11 matrices score 11.
    """
    if ota_scaling not in ("normalized", "per_orbit"):
        raise ValueError(f"unknown ota_scaling {ota_scaling!r}: expected 'normalized' or 'per_orbit'")
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if m1.shape != m2.shape:
        raise ValueError(f"matrix shapes differ: {m1.shape} vs {m2.shape}")
    total = np.sum(1.0 - np.abs(m1 - m2))
    n_orbits = m1.shape[0]
    if ota_scaling == "per_orbit":
        return float(total / n_orbits)
    return float(total / n_orbits**2)


def ota_matrix(
    names: Sequence[str],
    transition_matrices: Sequence[OrbitTransitionMatrix],
    ota_scaling: OtaScaling = "normalized",
    rescale: bool = True,
) -> np.ndarray:
    """All-pairs OTA: row-normalize, rescale each cell across the set if
    ``rescale``, compare under ``ota_scaling`` (``ota_pair``)."""

    def prepare(ts: list[OrbitTransitionMatrix]) -> list[np.ndarray]:
        normalized = [row_normalize(t) for t in ts]
        return relative_rescale(normalized) if rescale else normalized

    return _all_pairs(names, transition_matrices, "transition matrix",
                      lambda a, b: ota_pair(a, b, ota_scaling), prepare)


def motif_scores_from_counts(
    real_counts: Sequence[int],
    ensemble_means: Sequence[float],
    k: int = 4,
) -> np.ndarray:
    """The motif fingerprint: over/under-representation of each graphlet
    class versus an ensemble, a float64 array in canonical class order.

    ``real_counts`` and ``ensemble_means`` are in canonical class order.
    Each raw score is (observed - expected)/(observed + expected), zero
    when both are zero; the vector is then scaled to unit Euclidean norm
    (skipped if every score is zero).
    """
    classes = GRAPHLET_CLASSES[k]
    if len(real_counts) != len(classes) or len(ensemble_means) != len(classes):
        raise ValueError(f"expected {len(classes)} class entries for k={k}")
    deltas = np.zeros(len(classes))
    for i, (fr, mean) in enumerate(zip(real_counts, ensemble_means)):
        denom = fr + mean
        if denom > 0:
            deltas[i] = (fr - mean) / denom
    norm = np.linalg.norm(deltas)
    if norm > 0:
        deltas /= norm
    return deltas


def fingerprint_distance(f1: np.ndarray, f2: np.ndarray) -> float:
    """Euclidean distance between two motif fingerprints.

    Each k has its own number of classes (2 for k=3, 6 for k=4), so two
    fingerprints of different shape cover different class sets.
    """
    if np.shape(f1) != np.shape(f2):
        raise ValueError("fingerprints cover different class sets")
    return float(np.linalg.norm(np.subtract(f1, f2)))


def motif_distance_matrix(names: Sequence[str], fingerprints: Sequence[np.ndarray]) -> np.ndarray:
    """All-pairs Euclidean distances between motif fingerprints."""
    return _all_pairs(names, fingerprints, "fingerprint", fingerprint_distance)


def hierarchical_cluster(names: Sequence[str], values: np.ndarray,
                         linkage: Linkage = "average") -> list[dict]:
    """Agglomerative merge sequence for the (N, N) matrix ``values`` over ``names``.

    Each merge is a record ``{"left": [...], "right": [...], "height": h}``
    of the two merged clusters' member names (sorted; ``left`` holds the
    smallest name), as a ``*.tree.json`` file lists them.

    A matrix whose diagonal is all zero holds distances, used as they are;
    one whose diagonal is all positive holds agreements (OTA, GDA), each
    converted to the distance 1 - value. Any other diagonal, a non-finite
    cell or a matrix that is not exactly symmetric is a ``ValueError``.
    Cluster distances are computed from the pairwise matrix (average,
    single or complete linkage). Ties are broken by the lexicographic pair
    of smallest member labels, so the tree is deterministic.
    """
    if linkage not in ("average", "single", "complete"):
        raise ValueError(f"unknown linkage {linkage!r}")
    n = len(names)
    if n < 2:
        raise ValueError("need at least 2 networks to cluster")
    dist = np.asarray(values, dtype=np.float64)
    if dist.shape != (n, n):
        raise ValueError(f"a matrix of shape {dist.shape} does not pair {n} names")
    diagonal = np.diagonal(dist)
    agreement = (diagonal > 0).all()
    if not agreement and (diagonal != 0).any():
        cells = ", ".join(f"{name} {value:.12g}" for name, value in zip(names, diagonal))
        raise ValueError(f"the diagonal is neither all zero (distances) nor all positive "
                         f"(agreements): {cells}")
    bad = np.argwhere(~np.isfinite(dist))
    if len(bad):
        i, j = bad[0].tolist()
        raise ValueError(f"row {names[i]!r}, column {names[j]!r}: {format(dist[i, j], '.12g')!r} "
                         "is not finite")
    # argwhere is in row-major order, so the first unequal pair has i < j
    unequal = np.argwhere(dist != dist.T)
    if len(unequal):
        i, j = unequal[0].tolist()
        raise ValueError(f"matrix is not symmetric: row {names[i]!r}, column {names[j]!r} is "
                         f"{dist[i, j]:.12g}, but row {names[j]!r}, column {names[i]!r} "
                         f"is {dist[j, i]:.12g}")
    if agreement:
        dist = 1.0 - dist

    clusters: list[set[int]] = [{i} for i in range(n)]
    merges: list[dict] = []

    def cluster_distance(a: set[int], b: set[int]) -> float:
        cross = dist[np.ix_(sorted(a), sorted(b))]
        if linkage == "single":
            return float(cross.min())
        if linkage == "complete":
            return float(cross.max())
        return float(cross.mean())

    def min_label(c: set[int]) -> str:
        return min(names[i] for i in c)

    while len(clusters) > 1:
        # least (distance, smaller label, larger label); of equals, the first in (i, j) order
        height, *_labels, i, j = min(
            (cluster_distance(a, b), *sorted((min_label(a), min_label(b))), i, j)
            for i, a in enumerate(clusters) for j, b in enumerate(clusters) if i < j
        )
        a, b = clusters[i], clusters[j]
        left, right = sorted(sorted(names[x] for x in c) for c in (a, b))
        merges.append({"left": left, "right": right, "height": height})
        clusters = [c for idx, c in enumerate(clusters) if idx not in (i, j)]
        clusters.append(a | b)
    return merges


def cut_clusters(names: Sequence[str], merges: Sequence[dict], n_clusters: int) -> list[tuple[str, ...]]:
    """Partition obtained by replaying merges until ``n_clusters`` remain.

    Returns sorted member tuples, sorted by first member.
    """
    if not 1 <= n_clusters <= len(names):
        raise ValueError(f"cannot cut {len(names)} items into {n_clusters} clusters")
    parts: list[set[str]] = [{name} for name in names]
    for step in merges:
        if len(parts) == n_clusters:
            break
        merged = {*step["left"], *step["right"]}
        parts = [p for p in parts if not p & merged]
        parts.append(merged)
    return sorted(tuple(sorted(p)) for p in parts)
