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
with the deterministic agglomerative clusterer of ``tree``
(``hierarchical_cluster``, re-exported here), which tells the two apart
by the diagonal: 0 for a distance, positive for an agreement.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .catalogue import GRAPHLET_CLASSES
from .transitions import OrbitTransitionMatrix, row_normalize
# the clusterer lives in the stdlib-only tree module; compare reaches it here
from .tree import cut_clusters, hierarchical_cluster  # noqa: F401

OtaScaling = Literal["normalized", "per_orbit"]


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
