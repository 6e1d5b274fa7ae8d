"""Pairwise network comparison metrics and hierarchical grouping.

Three comparison routes ship here: GDA, the agreement between
graphlet-degree distributions (per-orbit scores averaged, in [0, 1]);
OTA, the agreement between orbit-transition matrices rescaled cell by cell
across the network set; and motif distance, the Euclidean distance between
the graphlet classes' normalized over/under-representation scores versus a
degree-preserving random ensemble.

Each all-pairs builder fills its matrix, a list of N rows, through
``_all_pairs``, which scores every pair i <= j once and mirrors it, so the
matrix is exactly symmetric and its diagonal is a network's score against
itself. ``hierarchical_cluster`` turns such a matrix (lists or an array)
into the merge records a ``*.tree.json`` file holds, and ``cut_clusters``
replays them into a partition.

The module needs only the standard library, so ``cluster``, and
``compare --metric ota``, ``gda`` or ``motif`` on stored records, run without
numpy. Their values are numpy's bit for bit: a count divides as
``float(c) / float(s)``; ``ota_pair`` and an average-linkage distance sum in
numpy's pairwise order (``_pairwise_sum``), as ``np.sum`` and
``dist[np.ix_(a, b)].mean()`` do; and a fingerprint's norm is the fused fold
of ``_norm``, as ``np.linalg.norm`` of a short vector is. Other float sums
are left folds in input order, never builtin ``sum()``, which is compensated
from Python 3.12 on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Literal, Mapping, Sequence

from .catalogue import GRAPHLET_CLASSES, row_normalize

if TYPE_CHECKING:
    from .transitions import OrbitTransitionMatrix

Matrix = list[list[float]]
OtaScaling = Literal["normalized", "per_orbit"]
Linkage = Literal["average", "single", "complete"]


def _shape(values) -> tuple[int, ...]:
    """The shape numpy gives ``values``: the lengths along the first item of
    each nested list or tuple, then the shape of an array met on the way."""
    shape = []
    while not hasattr(values, "shape") and isinstance(values, (list, tuple)):
        shape.append(len(values))
        if not values:
            return tuple(shape)
        values = values[0]
    return (*shape, *getattr(values, "shape", ()))


def _pairwise_sum(cells: list[float], start: int, n: int) -> float:
    """Sum of ``cells[start:start + n]`` in numpy's pairwise order: a left
    fold below 8 terms, 8 interleaved accumulators up to 128, and the sums
    of two halves (the first a multiple of 8 long) above that."""
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += cells[i]
        return total
    if n <= 128:
        acc = cells[start:start + 8]
        stop = start + n - n % 8
        for block in range(start + 8, stop, 8):
            for lane in range(8):
                acc[lane] += cells[block + lane]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for i in range(stop, start + n):
            total += cells[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(cells, start, half) + _pairwise_sum(cells, start + half, n - half)


def _norm(values: Sequence[float]) -> float:
    """The Euclidean norm as ``np.linalg.norm`` gives it for fewer than 16 entries on
    OpenBLAS with FMA, bit for bit: ``ddot`` folds left, ``total = x*x + total`` rounded
    once, here exact from integer ratios (int division rounds correctly, subnormals too)."""
    total = 0.0
    for x in map(float, values):
        if not (math.isfinite(x) and math.isfinite(total)):
            total = x * x + total  # inf or nan, as the fused step gives
            continue
        (a, b), (c, d) = x.as_integer_ratio(), total.as_integer_ratio()
        try:
            total = (a * a * d + c * b * b) / (b * b * d)
        except OverflowError:  # the exact sum rounds past the largest float
            total = math.inf
    return math.sqrt(total)


def gda_orbit_scores(gdd_a: Sequence[Mapping[int, float]],
                     gdd_b: Sequence[Mapping[int, float]]) -> list[float]:
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


def _all_pairs(names: Sequence[str], items: Sequence, what: str, score: Callable[[object, object], float],
               prepare: Callable[[list], list] = list) -> Matrix:
    """The N rows of ``score`` over every pair of ``prepare(items)``, one item per name.

    Each pair i <= j is scored once and mirrored; the diagonal is an
    item's score against itself.
    """
    if len(names) != len(items):
        raise ValueError(f"one {what} required per network name")
    if len(names) < 2:
        raise ValueError("need at least 2 networks to compare")
    items = prepare(items)
    n = len(names)
    values = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            values[i][j] = values[j][i] = score(items[i], items[j])
    return values


def gda_matrix(names: Sequence[str], gdds: Sequence[Sequence[Sequence[Mapping[int, float]]]]) -> Matrix:
    """All-pairs GDA over a network set.

    ``gdds[i]`` holds one or more normalized degree distributions for
    network i (e.g. the 4-node orbits alone, or 3- and 4-node together);
    per-orbit scores are pooled across them before averaging.
    """

    def pooled(bundle_a, bundle_b) -> float:
        total, count = 0.0, 0
        for a, b in zip(bundle_a, bundle_b):
            for score in gda_orbit_scores(a, b):
                total += score
                count += 1
        return total / count

    return _all_pairs(names, gdds, "GDD bundle", pooled)


def _common_shape(matrices: Sequence) -> tuple[int, ...]:
    """The shape all of ``matrices`` have; a ValueError names the first that differs."""
    shape = _shape(matrices[0])
    for m in matrices[1:]:
        if _shape(m) != shape:
            raise ValueError(f"matrix shapes differ: {shape} vs {_shape(m)}")
    return shape


def relative_rescale(matrices: Sequence) -> list[Matrix]:
    """Rescale each cell of the (m, m) matrices to [0, 1] relative to its spread across the set.

    Cells with no spread (identical in every network) map to 0 — they
    carry no discriminative signal.
    """
    if len(matrices) < 2:
        raise ValueError("need at least 2 networks to rescale")
    width = _common_shape(matrices)[-1]
    columns = []  # one per cell, across the set
    for cell in zip(*([float(x) for row in m for x in row] for m in matrices)):
        lo, span = min(cell), max(cell) - min(cell)
        columns.append([(x - lo) / span for x in cell] if span > 0 else [0.0] * len(cell))
    return [[list(flat[i:i + width]) for i in range(0, len(flat), width)] for flat in zip(*columns)]


def ota_pair(m1, m2, ota_scaling: OtaScaling = "normalized") -> float:
    """Orbit-transition agreement between two (rescaled) matrices.

    The sum of 1 - |m1 - m2| over the |O| x |O| cells is divided by |O|^2
    under ``"normalized"``, so identical matrices score 1, and by |O| under
    ``"per_orbit"``, so identical 11x11 matrices score 11.
    """
    if ota_scaling not in ("normalized", "per_orbit"):
        raise ValueError(f"unknown ota_scaling {ota_scaling!r}: expected 'normalized' or 'per_orbit'")
    _common_shape((m1, m2))
    cells = [1.0 - abs(float(a) - float(b)) for r1, r2 in zip(m1, m2) for a, b in zip(r1, r2)]
    scale = len(m1) if ota_scaling == "per_orbit" else len(m1) ** 2
    return _pairwise_sum(cells, 0, len(cells)) / scale


def ota_matrix(names: Sequence[str], transition_matrices: Sequence[OrbitTransitionMatrix | Sequence],
               ota_scaling: OtaScaling = "normalized", rescale: bool = True) -> Matrix:
    """All-pairs OTA over transition matrices or their counts: row-normalize,
    rescale each cell across the set if ``rescale``, compare under
    ``ota_scaling`` (``ota_pair``). Matrices of two shapes (k = 3 and
    k = 4) are a ValueError naming both, rescaled or not."""

    def prepare(ts: list) -> list[Matrix]:
        normalized = [row_normalize(t) for t in ts]
        _common_shape(normalized)
        return relative_rescale(normalized) if rescale else normalized

    return _all_pairs(names, transition_matrices, "transition matrix",
                      lambda a, b: ota_pair(a, b, ota_scaling), prepare)


def motif_scores_from_counts(real_counts: Sequence[int], ensemble_means: Sequence[float],
                             k: int = 4) -> list[float]:
    """The motif fingerprint: over/under-representation of each graphlet
    class versus an ensemble, a list of floats in canonical class order.

    ``real_counts`` and ``ensemble_means`` are in canonical class order.
    Each raw score is (observed - expected)/(observed + expected), zero
    when both are zero; the vector is then scaled to unit Euclidean norm
    (skipped if every score is zero).
    """
    classes = GRAPHLET_CLASSES[k]
    if len(real_counts) != len(classes) or len(ensemble_means) != len(classes):
        raise ValueError(f"expected {len(classes)} class entries for k={k}")
    deltas = [float((fr - mean) / (fr + mean)) if fr + mean > 0 else 0.0
              for fr, mean in zip(real_counts, ensemble_means)]
    norm = _norm(deltas)
    return [delta / norm for delta in deltas] if norm > 0 else deltas


def fingerprint_distance(f1: Sequence[float], f2: Sequence[float]) -> float:
    """Euclidean distance between two motif fingerprints (lists or arrays).

    Each k has its own number of classes (2 for k=3, 6 for k=4), so two
    fingerprints of different shape cover different class sets.
    """
    if _shape(f1) != _shape(f2):
        raise ValueError("fingerprints cover different class sets")
    return _norm([float(a) - float(b) for a, b in zip(f1, f2)])


def motif_distance_matrix(names: Sequence[str], fingerprints: Sequence[Sequence[float]]) -> Matrix:
    """All-pairs Euclidean distances between motif fingerprints."""
    return _all_pairs(names, fingerprints, "fingerprint", fingerprint_distance)


def hierarchical_cluster(names: Sequence[str], values, linkage: Linkage = "average") -> list[dict]:
    """Agglomerative merge sequence for the (N, N) matrix ``values`` over ``names``.

    ``values`` is a sequence of N rows of N numbers, or an array. Each merge
    is a record ``{"left": [...], "right": [...], "height": h}`` of the two
    merged clusters' member names (sorted; ``left`` holds the smallest
    name), as a ``*.tree.json`` file lists them.

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
    shape = _shape(values)
    if shape != (n, n):
        raise ValueError(f"a matrix of shape {shape} does not pair {n} names")
    dist = [[float(x) for x in row] for row in values]
    if any(len(row) != n for row in dist):
        raise ValueError(f"the rows of the matrix differ in length, so it does not pair {n} names")
    diagonal = [dist[i][i] for i in range(n)]
    agreement = all(value > 0 for value in diagonal)
    if not agreement and any(value != 0 for value in diagonal):
        cells = ", ".join(f"{name} {value:.12g}" for name, value in zip(names, diagonal))
        raise ValueError(f"the diagonal is neither all zero (distances) nor all positive "
                         f"(agreements): {cells}")
    for i, row in enumerate(dist):
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise ValueError(f"row {names[i]!r}, column {names[j]!r}: {format(value, '.12g')!r} "
                                 "is not finite")
    # the first unequal pair in row-major order has i < j
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                raise ValueError(f"matrix is not symmetric: row {names[i]!r}, column {names[j]!r} is "
                                 f"{dist[i][j]:.12g}, but row {names[j]!r}, column {names[i]!r} "
                                 f"is {dist[j][i]:.12g}")
    if agreement:
        dist = [[1.0 - value for value in row] for row in dist]

    # each cluster's member indices, ascending
    clusters: list[list[int]] = [[i] for i in range(n)]
    merges: list[dict] = []

    def cluster_distance(a: list[int], b: list[int]) -> float:
        cross = [dist[i][j] for i in a for j in b]
        if linkage == "single":
            return min(cross)
        if linkage == "complete":
            return max(cross)
        # numpy's sum starts from its identity, 0.0, which turns a -0.0 total into 0.0
        return (0.0 + _pairwise_sum(cross, 0, len(cross))) / len(cross)

    def min_label(c: list[int]) -> str:
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
        clusters.append(sorted(a + b))
    return merges


def cut_clusters(names: Sequence[str], merges: Sequence[dict], n_clusters: int) -> list[tuple[str, ...]]:
    """Partition obtained by replaying merges until ``n_clusters`` remain.

    Each merge replayed must join two distinct current clusters of
    ``names``; a merge that names any other member or set, or merges that
    run out before ``n_clusters`` remain, are a ``ValueError``.
    Returns sorted member tuples, sorted by first member.
    """
    if not 1 <= n_clusters <= len(names):
        raise ValueError(f"cannot cut {len(names)} items into {n_clusters} clusters")
    parts: list[frozenset[str]] = [frozenset((name,)) for name in names]
    known = set(names)
    for at, step in enumerate(merges, 1):
        if len(parts) == n_clusters:
            break
        for name in (*step["left"], *step["right"]):
            if name not in known:
                raise ValueError(f"merge {at}: {name!r} is not one of the names")
        left, right = frozenset(step["left"]), frozenset(step["right"])
        if left == right or left not in parts or right not in parts:
            raise ValueError(f"merge {at}: left {sorted(left)} and right {sorted(right)} are not "
                             "two current clusters")
        parts = [p for p in parts if p not in (left, right)]
        parts.append(left | right)
    if len(parts) != n_clusters:
        raise ValueError(f"the merges run out at {len(parts)} clusters, before {n_clusters} remain")
    return sorted(tuple(sorted(p)) for p in parts)
