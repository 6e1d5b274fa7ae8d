"""Independent brute-force reference implementations used by the tests.

Everything here deliberately avoids the production code paths: subgraphs
are classified by isomorphism search against hand-written reference
shapes (not degree rules), shortest paths use Floyd-Warshall or a plain
per-source BFS (not the bit-parallel search), the census walks every
C(n, k) node subset (not the set-growth enumeration; ``kset_orbit_tally``,
the reference for graphs too large for that walk, tallies the connected
k-sets the package enumerates, but classifies each by isomorphism search
and not by the orbit table), clustering tests
every pair of a node's neighbours (not the orbit census), adjacency
comes from neighbour sets built from ``g.edges()`` (not the CSR
lookups), null-model swaps draw each proposal with three scalar calls
(not in chunks), and edge lists are parsed and binned one line and one
event at a time in Python (not by numpy tokenizing and binning).
Agreement formulas are re-implemented directly, the merge tree by the
package's earlier numpy clusterer and OTA by its earlier numpy
arithmetic (not the lists of metrics.py).
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from orbitrans.census import _kset_blocks
from orbitrans.graph_core import EdgeListParseError, SnapshotPolicy, StaticGraph

# Reference shapes: (name, edge set on nodes 0..k-1, orbit id per node).
# Orbit ids follow the package's canonical numbering; the per-node
# assignments were written down by inspecting each shape's symmetries.
REFERENCE_GRAPHLETS = {
    3: (
        ("chain", frozenset({frozenset({0, 1}), frozenset({1, 2})}), (1, 2, 1)),
        (
            "triangle",
            frozenset({frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})}),
            (3, 3, 3),
        ),
    ),
    4: (
        (
            "star",
            frozenset({frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})}),
            (2, 1, 1, 1),
        ),
        (
            "path",
            frozenset({frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})}),
            (3, 4, 4, 3),
        ),
        (
            "cycle",
            frozenset(
                {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3})}
            ),
            (5, 5, 5, 5),
        ),
        (
            "paw",
            frozenset(
                {frozenset({0, 1}), frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
            ),
            (6, 7, 8, 8),
        ),
        (
            "diamond",
            frozenset(
                {
                    frozenset({0, 1}),
                    frozenset({0, 2}),
                    frozenset({1, 2}),
                    frozenset({1, 3}),
                    frozenset({2, 3}),
                }
            ),
            (9, 10, 10, 9),
        ),
        (
            "clique",
            frozenset(frozenset(p) for p in combinations(range(4), 2)),
            (11, 11, 11, 11),
        ),
    ),
}

ORACLE_ORBITS = {3: 3, 4: 11}


def _oracle_pairs(k: int):
    return tuple(combinations(range(k), 2))


@lru_cache(maxsize=None)
def classify_mask(k: int, mask: int):
    """(class name, per-position orbits) via isomorphism search, or None.

    The reference list contains every connected k-node shape, so a mask
    with no isomorphic reference is disconnected.
    """
    edge_set = frozenset(
        frozenset(pair) for bit, pair in enumerate(_oracle_pairs(k)) if mask >> bit & 1
    )
    for name, ref_edges, ref_orbits in REFERENCE_GRAPHLETS[k]:
        if len(edge_set) != len(ref_edges):
            continue
        for perm in permutations(range(k)):
            mapped = frozenset(frozenset(perm[x] for x in e) for e in edge_set)
            if mapped == ref_edges:
                return name, tuple(ref_orbits[perm[p]] for p in range(k))
    return None


def neighbour_sets(g: StaticGraph) -> list[set[int]]:
    """Neighbour set of every node, built from ``g.edges()`` alone."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def subset_mask(nbrs: list[set[int]], nodes: tuple[int, ...]) -> int:
    """Adjacency bit mask of the subgraph induced on ``nodes``, one bit per
    pair of positions in ``combinations(range(k), 2)`` order."""
    mask = 0
    for bit, (i, j) in enumerate(_oracle_pairs(len(nodes))):
        if nodes[j] in nbrs[nodes[i]]:
            mask |= 1 << bit
    return mask


def exhaustive_census(g: StaticGraph, k: int):
    """(orbit counts matrix, class Counter) over all C(n, k) subsets."""
    counts = np.zeros((g.n, ORACLE_ORBITS[k]), dtype=np.int64)
    classes: Counter[str] = Counter()
    nbrs = neighbour_sets(g)
    for nodes in combinations(range(g.n), k):
        result = classify_mask(k, subset_mask(nbrs, nodes))
        if result is None:
            continue
        name, orbits = result
        classes[name] += 1
        for v, orbit in zip(nodes, orbits):
            counts[v, orbit - 1] += 1
    return counts, classes


def kset_orbit_tally(g: StaticGraph, k: int) -> np.ndarray:
    """Orbit counts matrix tallied over the connected k-sets of ``_kset_blocks``.

    The mid-size reference: the enumerator it reuses is checked against
    ``exhaustive_occurrences``, and each set's orbits come from
    ``classify_mask``, so it runs on a few hundred nodes where the C(n, k)
    walk cannot.
    """
    m = ORACLE_ORBITS[k]
    columns = np.zeros((1 << len(_oracle_pairs(k)), k), dtype=np.int64)  # [mask, position]
    for mask in range(len(columns)):
        found = classify_mask(k, mask)
        if found is not None:
            columns[mask] = [orbit - 1 for orbit in found[1]]
    counts = np.zeros(g.n * m, dtype=np.int64)
    for sets, masks in _kset_blocks(g, k):
        counts += np.bincount((sets * m + columns[masks]).ravel(), minlength=g.n * m)
    return counts.reshape(g.n, m)


def exhaustive_occurrences(g: StaticGraph, k: int) -> set[tuple[int, ...]]:
    """Node sets of every connected induced k-subgraph."""
    found = set()
    nbrs = neighbour_sets(g)
    for nodes in combinations(range(g.n), k):
        if classify_mask(k, subset_mask(nbrs, nodes)) is not None:
            found.add(nodes)
    return found


def exhaustive_transitions(s_from: StaticGraph, s_to: StaticGraph, k: int):
    """(counts, dissolved) by evaluating every subset in both snapshots."""
    m = ORACLE_ORBITS[k]
    counts = np.zeros((m, m), dtype=np.int64)
    dissolved = np.zeros(m, dtype=np.int64)
    nbrs_from, nbrs_to = neighbour_sets(s_from), neighbour_sets(s_to)
    for nodes in combinations(range(s_from.n), k):
        src = classify_mask(k, subset_mask(nbrs_from, nodes))
        if src is None:
            continue
        dst = classify_mask(k, subset_mask(nbrs_to, nodes))
        if dst is None:
            for a in src[1]:
                dissolved[a - 1] += 1
        else:
            for a, b in zip(src[1], dst[1]):
                counts[a - 1, b - 1] += 1
    return counts, dissolved


def scalar_randomize(
    g: StaticGraph,
    rng: np.random.Generator | int,
    swaps_per_edge: int = 10,
) -> StaticGraph:
    """Degree-preserving double-edge swaps, three scalar draws per attempt.

    The reference for ``degree_preserving_randomize``, which draws the
    same proposals in chunks: same law, same stream, same replica.
    """
    if g.edge_count < 2:
        raise ValueError("randomization needs at least 2 edges")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    edges = list(g.edges())
    edge_set = set(edges)
    m = len(edges)
    for _ in range(swaps_per_edge * m):
        i = int(rng.integers(m))
        j = int(rng.integers(m))
        flip = int(rng.integers(2))
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


# ---------------------------------------------------------------------------
# edge-list and snapshot oracles


def loop_parse_edge_list(text: str, sep: str = "ws"):
    """(labels, events as (u, v, t) tuples, dropped self-loops), line by line.

    Raises the same located ``EdgeListParseError`` messages as the parser,
    except that it takes timestamps of any size.
    """
    raw_events: list[tuple[str, str, int]] = []
    dropped = 0
    saw_data = False
    line_no = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split() if sep == "ws" else [f.strip() for f in stripped.split(",")]
        if len(fields) != 3:
            raise EdgeListParseError(f"expected 3 fields, got {len(fields)}", line_no)
        try:
            # the format's [+-]digits: int() alone also takes "1_000" and "３"
            if not fields[2].isascii() or "_" in fields[2]:
                raise ValueError
            t = int(fields[2])
        except ValueError:
            raise EdgeListParseError(
                f"timestamp {fields[2]!r} is not an integer", line_no
            ) from None
        saw_data = True
        if fields[0] == fields[1]:
            dropped += 1
            continue
        raw_events.append((fields[0], fields[1], t))
    if not saw_data:
        raise EdgeListParseError("no edge events in input", max(line_no, 1))

    raw_events.sort(key=lambda e: e[2])  # stable: ties keep input order
    ids: dict[str, int] = {}
    events = []
    for a, b, t in raw_events:
        u = ids.setdefault(a, len(ids))
        v = ids.setdefault(b, len(ids))
        events.append((u, v, t))
    labels = tuple(sorted(ids, key=ids.get))
    return labels, tuple(events), dropped


def set_build_snapshots(events, n: int, policy: SnapshotPolicy):
    """(edge set of each snapshot, events discarded), one event at a time.

    ``events`` are (u, v, t) tuples sorted by t; ``policy.origin`` must be set.
    """
    origin, width, count = policy.origin, policy.width, policy.count
    end = origin + width * count
    discarded = 0
    if policy.mode == "active":
        buckets: list[set[tuple[int, int]]] = [set() for _ in range(count)]
        for u, v, t in events:
            if t < origin or t >= end:
                discarded += 1
                continue
            buckets[(t - origin) // width].add((u, v) if u < v else (v, u))
        return buckets, discarded
    first_bucket: dict[tuple[int, int], int] = {}
    for u, v, t in events:
        if t >= end:
            discarded += 1
            continue
        b = 0 if t < origin else (t - origin) // width
        key = (u, v) if u < v else (v, u)
        if b < first_bucket.get(key, count):
            first_bucket[key] = b
    snaps = [{key for key, b in first_bucket.items() if b <= i} for i in range(count)]
    return snaps, discarded


# ---------------------------------------------------------------------------
# small-graph metric oracles


def bfs_cpl(g: StaticGraph) -> float:
    """Characteristic path length by one queue-based BFS per source."""
    total = 0
    pairs = 0
    nbrs = neighbour_sets(g)
    for src in range(g.n):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    total += dist[w]
                    pairs += 1
                    queue.append(w)
    return total / pairs


def floyd_warshall_cpl(g: StaticGraph) -> float:
    inf = float("inf")
    n = g.n
    dist = [[inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0.0
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1.0
    for w in range(n):
        for u in range(n):
            duw = dist[u][w]
            if duw == inf:
                continue
            for v in range(n):
                if duw + dist[w][v] < dist[u][v]:
                    dist[u][v] = duw + dist[w][v]
    total = 0.0
    pairs = 0
    for u in range(n):
        for v in range(n):
            if u != v and dist[u][v] < inf:
                total += dist[u][v]
                pairs += 1
    return total / pairs


def _triangles_and_degree(nbrs: list[set[int]], v: int) -> tuple[int, int]:
    """(adjacent pairs among v's neighbours, v's degree)."""
    around = sorted(nbrs[v])
    d = len(around)
    triangles = 0
    for i in range(d):
        for j in range(i + 1, d):
            if around[j] in nbrs[around[i]]:
                triangles += 1
    return triangles, d


def triple_loop_clustering(g: StaticGraph) -> float:
    """Mean local clustering over nodes of degree >= 2, pair by pair."""
    nbrs = neighbour_sets(g)
    total = 0.0
    eligible = 0
    for v in range(g.n):
        triangles, d = _triangles_and_degree(nbrs, v)
        if d < 2:
            continue
        eligible += 1
        total += triangles / (d * (d - 1) / 2)
    return total / eligible if eligible else 0.0


# ---------------------------------------------------------------------------
# agreement formula oracles


def formula_gdd(column: np.ndarray, scaling: str = "inverse_k") -> dict[int, float]:
    """Normalized degree distribution of one orbit column, from scratch."""
    tally = Counter(int(x) for x in column if x >= 1)
    if not tally:
        return {}
    if scaling == "inverse_k":
        scaled = {d: c / d for d, c in tally.items()}
    else:
        scaled = {d: float(c) for d, c in tally.items()}
    total = sum(scaled.values())
    return {d: s / total for d, s in scaled.items()}


def formula_gda(fr_a: np.ndarray, fr_b: np.ndarray, scaling: str = "inverse_k") -> float:
    """GDA straight from its definition, over two orbit-count matrices."""
    import math

    m = fr_a.shape[1]
    scores = []
    for j in range(m):
        na = formula_gdd(fr_a[:, j], scaling)
        nb = formula_gdd(fr_b[:, j], scaling)
        sq = 0.0
        for d in set(na) | set(nb):
            diff = na.get(d, 0.0) - nb.get(d, 0.0)
            sq += diff * diff
        scores.append(1.0 - (1.0 / math.sqrt(2.0)) * math.sqrt(sq))
    return sum(scores) / m


def formula_ota(m1: np.ndarray, m2: np.ndarray, per_cell: bool = True) -> float:
    total = 0.0
    n = m1.shape[0]
    for a in range(n):
        for b in range(n):
            total += 1.0 - abs(m1[a, b] - m2[a, b])
    return total / (n * n if per_cell else n)


def scipy_merges(dist: np.ndarray, names, method: str):
    """Reference agglomeration: list of (set, set, height) per merge."""
    from scipy.cluster.hierarchy import linkage
    from scipy.spatial.distance import squareform

    condensed = squareform(np.asarray(dist, dtype=float), checks=False)
    z = linkage(condensed, method=method)
    members = {i: frozenset([names[i]]) for i in range(len(names))}
    merges = []
    for step, row in enumerate(z):
        a, b, height = int(row[0]), int(row[1]), float(row[2])
        merges.append((members[a], members[b], height))
        members[len(names) + step] = members[a] | members[b]
    return merges


# the merge-tree reference: numpy np.ix_ blocks and reductions, not metrics.py's lists
def numpy_hierarchical_cluster(names, values: np.ndarray, linkage: str = "average") -> list[dict]:
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


# the OTA reference: the package's earlier numpy path, not metrics.py's lists
def numpy_row_normalize(t) -> np.ndarray:
    """The (m, m) float64 row-stochastic matrix: each row divided by its sum,
    rows of an unseen source orbit staying zero.

    Dissolved counts do not enter the denominator — they live outside the
    matrix.
    """
    sums = t.counts.sum(axis=1, keepdims=True)
    return np.divide(t.counts, sums, out=np.zeros_like(t.counts, dtype=np.float64), where=sums > 0)


def numpy_relative_rescale(matrices) -> list[np.ndarray]:
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


def numpy_ota_pair(m1: np.ndarray, m2: np.ndarray, ota_scaling: str = "normalized") -> float:
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


def numpy_ota_matrix(names, transition_matrices, ota_scaling: str = "normalized",
                     rescale: bool = True) -> np.ndarray:
    """All-pairs OTA: row-normalize, rescale each cell across the set if
    ``rescale``, compare under ``ota_scaling`` (``numpy_ota_pair``)."""
    normalized = [numpy_row_normalize(t) for t in transition_matrices]
    items = numpy_relative_rescale(normalized) if rescale else normalized
    n = len(names)
    values = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            values[i, j] = values[j, i] = numpy_ota_pair(items[i], items[j], ota_scaling)
    return values


# ---------------------------------------------------------------------------
# graph and edge-list builders


def complete_graph(n: int) -> StaticGraph:
    return StaticGraph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> StaticGraph:
    return StaticGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> StaticGraph:
    return StaticGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite_graph(a: int, b: int) -> StaticGraph:
    """Sides 0..a-1 and a..a+b-1, every cross pair joined."""
    return StaticGraph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def star_graph(n: int) -> StaticGraph:
    """Hub 0 plus n-1 leaves."""
    return StaticGraph(n, [(0, i) for i in range(1, n)])


def ring_lattice_with_chords(
    rng: np.random.Generator, n: int, reach: int, chords: int
) -> StaticGraph:
    """Each node joined to the ``reach`` nodes after it on a ring, plus random chords."""
    ring = [(i, (i + j) % n) for i in range(n) for j in range(1, reach + 1)]
    ends = rng.integers(0, n, size=(chords, 2)).tolist()
    return StaticGraph(n, ring + [(u, v) for u, v in ends if u != v])


def gnp_graph(rng: np.random.Generator, n: int, p: float) -> StaticGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return StaticGraph(n, edges)


def gnm_graph(rng: np.random.Generator, n: int, m: int) -> StaticGraph:
    all_pairs = list(combinations(range(n), 2))
    chosen = rng.choice(len(all_pairs), size=min(m, len(all_pairs)), replace=False)
    return StaticGraph(n, [all_pairs[i] for i in chosen])


def relabeled(g: StaticGraph, perm) -> StaticGraph:
    """Copy of ``g`` with node v renamed to perm[v]."""
    return StaticGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_event_text(rng: np.random.Generator, n: int, events: int, t_max: int) -> str:
    lines = []
    for _ in range(events):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        while v == u:
            v = int(rng.integers(n))
        lines.append(f"v{u} v{v} {int(rng.integers(t_max))}")
    return "\n".join(lines) + "\n"
