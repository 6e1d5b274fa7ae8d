"""Merge trees: deterministic agglomerative clustering of a comparison matrix.

``hierarchical_cluster`` turns an (N, N) agreement or distance matrix
into the merge records a ``*.tree.json`` file holds, and ``cut_clusters``
replays them into a partition. Both work on plain lists with the
standard library only, so ``orbitrans cluster`` runs without numpy; a
numpy array is accepted as input all the same. An average-linkage
distance sums its cross block in the order numpy's pairwise summation
uses (``_pairwise_sum``), so its heights are the ones
``dist[np.ix_(a, b)].mean()`` gives, bit for bit.
"""

from __future__ import annotations

import math
from typing import Literal, Sequence

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
