"""Connected-subgraph census: graphlet classes, node orbits, frequencies.

Works on induced subgraphs of 3 or 4 nodes. Every connected shape on k
nodes is a *graphlet class* (k=3: chain, triangle; k=4: star, path,
cycle, paw, diamond, clique, ordered by edge count) and every
structurally distinct node position within a class is an *orbit*,
numbered 1..3 for k=3 and 1..11 for k=4. A census of a graph counts, for
each node, how often it occupies each orbit across all connected induced
k-subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator

import numpy as np

from .graph_core import StaticGraph

# Node-pair positions, one bit each, in this fixed order. For k=3 only
# the first three pairs exist.
PAIR_POSITIONS: dict[int, tuple[tuple[int, int], ...]] = {
    3: ((0, 1), (0, 2), (1, 2)),
    4: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}

ORBIT_COUNTS = {3: 3, 4: 11}


def orbit_count(k: int) -> int:
    if k not in ORBIT_COUNTS:
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    return ORBIT_COUNTS[k]


@dataclass(frozen=True)
class GraphletClass:
    """One connected k-node shape, with the orbits its nodes can occupy."""

    k: int
    index: int  # 1-based rank within its k, by increasing edge count
    name: str
    edge_count: int
    orbits: tuple[int, ...]


# Classes in canonical order. Degree multisets identify them uniquely
# among connected k-node graphs, and within a class a node's degree
# determines its orbit (verified against automorphisms at table build).
GRAPHLET_CLASSES: dict[int, tuple[GraphletClass, ...]] = {
    3: (
        GraphletClass(3, 1, "chain", 2, (1, 2)),
        GraphletClass(3, 2, "triangle", 3, (3,)),
    ),
    4: (
        GraphletClass(4, 1, "star", 3, (1, 2)),
        GraphletClass(4, 2, "path", 3, (3, 4)),
        GraphletClass(4, 3, "cycle", 4, (5,)),
        GraphletClass(4, 4, "paw", 4, (6, 7, 8)),
        GraphletClass(4, 5, "diamond", 5, (9, 10)),
        GraphletClass(4, 6, "clique", 6, (11,)),
    ),
}

# (sorted degree tuple) -> (class position in GRAPHLET_CLASSES[k], degree -> orbit id)
_DEGREE_RULES: dict[int, dict[tuple[int, ...], tuple[int, dict[int, int]]]] = {
    3: {
        (1, 1, 2): (0, {1: 1, 2: 2}),
        (2, 2, 2): (1, {2: 3}),
    },
    4: {
        (1, 1, 1, 3): (0, {1: 1, 3: 2}),
        (1, 1, 2, 2): (1, {1: 3, 2: 4}),
        (2, 2, 2, 2): (2, {2: 5}),
        (1, 2, 2, 3): (3, {1: 6, 3: 7, 2: 8}),
        (2, 2, 3, 3): (4, {2: 9, 3: 10}),
        (3, 3, 3, 3): (5, {3: 11}),
    },
}


@dataclass(frozen=True)
class ClassificationTable:
    """Induced-adjacency-mask lookup for one subgraph size.

    ``class_of[mask]`` is the position of the graphlet class in
    ``classes`` (or -1 for a disconnected mask); ``orbits_of[mask]`` maps
    each of the k node positions to its orbit id (None if disconnected).
    """

    k: int
    classes: tuple[GraphletClass, ...]
    class_of: tuple[int, ...]
    orbits_of: tuple[tuple[int, ...] | None, ...]

    def is_connected(self, mask: int) -> bool:
        return self.class_of[mask] >= 0


def _mask_edges(mask: int, pairs: tuple[tuple[int, int], ...]) -> list[tuple[int, int]]:
    return [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]


def _mask_is_connected(mask: int, k: int, pairs) -> bool:
    adj: list[set[int]] = [set() for _ in range(k)]
    for i, j in _mask_edges(mask, pairs):
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == k


def _automorphism_orbits(mask: int, k: int, pairs) -> list[int]:
    """Partition positions by graph automorphism; returns a class label per position."""
    has_edge = [mask >> bit & 1 for bit in range(len(pairs))]
    bit_of = {pair: bit for bit, pair in enumerate(pairs)}

    def edge(a: int, b: int) -> int:
        return has_edge[bit_of[(a, b) if a < b else (b, a)]]

    same = [[i == j for j in range(k)] for i in range(k)]
    for perm in permutations(range(k)):
        if all(edge(i, j) == edge(perm[i], perm[j]) for i, j in pairs):
            for i in range(k):
                same[i][perm[i]] = True
    labels = [min(j for j in range(k) if same[i][j]) for i in range(k)]
    return labels


@lru_cache(maxsize=None)
def build_classification_table(k: int) -> ClassificationTable:
    """Build (and self-verify) the mask -> class/orbit lookup for size ``k``.

    Verification is exhaustive: for every connected mask the degree-based
    orbit assignment must coincide with the automorphism partition of the
    induced graph, and must be consistent under every relabeling of the
    node positions.
    """
    if k not in PAIR_POSITIONS:
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    pairs = PAIR_POSITIONS[k]
    rules = _DEGREE_RULES[k]
    n_masks = 1 << len(pairs)

    class_of = []
    orbits_of: list[tuple[int, ...] | None] = []
    for mask in range(n_masks):
        if not _mask_is_connected(mask, k, pairs):
            class_of.append(-1)
            orbits_of.append(None)
            continue
        degrees = [0] * k
        for i, j in _mask_edges(mask, pairs):
            degrees[i] += 1
            degrees[j] += 1
        class_pos, orbit_by_degree = rules[tuple(sorted(degrees))]
        class_of.append(class_pos)
        orbits_of.append(tuple(orbit_by_degree[d] for d in degrees))

    table = ClassificationTable(
        k=k,
        classes=GRAPHLET_CLASSES[k],
        class_of=tuple(class_of),
        orbits_of=tuple(orbits_of),
    )
    _verify_table(table, pairs)
    return table


def _verify_table(table: ClassificationTable, pairs) -> None:
    k = table.k
    for mask, orbits in enumerate(table.orbits_of):
        if orbits is None:
            continue
        auto = _automorphism_orbits(mask, k, pairs)
        for i in range(k):
            for j in range(k):
                if (orbits[i] == orbits[j]) != (auto[i] == auto[j]):
                    raise RuntimeError(
                        f"orbit table k={k} mask={mask:#x}: degree rule "
                        f"disagrees with automorphism partition at positions {i},{j}"
                    )
        # relabeling node positions must relabel orbits the same way
        bit_of = {pair: bit for bit, pair in enumerate(pairs)}
        for perm in permutations(range(k)):
            permuted = 0
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    a, b = perm[i], perm[j]
                    permuted |= 1 << bit_of[(a, b) if a < b else (b, a)]
            p_orbits = table.orbits_of[permuted]
            assert p_orbits is not None
            if any(orbits[i] != p_orbits[perm[i]] for i in range(k)):
                raise RuntimeError(
                    f"orbit table k={k} mask={mask:#x}: inconsistent under relabeling {perm}"
                )


def induced_mask(g: StaticGraph, nodes: tuple[int, ...]) -> int:
    """Adjacency bit mask of the subgraph induced on ``nodes`` (sorted)."""
    adj = g.adj
    mask = 0
    for bit, (i, j) in enumerate(PAIR_POSITIONS[len(nodes)]):
        if nodes[j] in adj[nodes[i]]:
            mask |= 1 << bit
    return mask


def connected_subgraphs(g: StaticGraph, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield every connected induced k-subgraph of ``g`` exactly once.

    Each item is ``(nodes, mask)`` with ``nodes`` sorted ascending. Uses
    set-growth recursion: subgraphs are grown from a root node by adding
    exclusive neighbors with ids above the root, which makes every k-set
    reachable along exactly one growth path.
    """
    if k not in PAIR_POSITIONS:
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    adj = g.adj

    def extend(sub: list[int], ext: list[int], closed: frozenset[int], root: int):
        if len(sub) == k - 1:
            for w in ext:
                nodes = tuple(sorted(sub + [w]))
                yield nodes, induced_mask(g, nodes)
            return
        for pos, w in enumerate(ext):
            fresh = sorted(u for u in adj[w] if u > root and u not in closed)
            sub.append(w)
            yield from extend(sub, ext[pos + 1 :] + fresh, closed | adj[w], root)
            sub.pop()

    for root in range(g.n):
        ext = sorted(u for u in adj[root] if u > root)
        if ext:
            yield from extend([root], ext, adj[root] | {root}, root)


@dataclass(frozen=True)
class OrbitFrequencyMatrix:
    """Per-node orbit appearance counts: row v, column j-1 = orbit j."""

    k: int
    counts: np.ndarray  # shape (n, m), int64

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def m(self) -> int:
        return self.counts.shape[1]


def compute_orbit_frequencies(g: StaticGraph, k: int) -> OrbitFrequencyMatrix:
    """Count, per node, its appearances in every orbit of size ``k``."""
    table = build_classification_table(k)
    counts = np.zeros((g.n, orbit_count(k)), dtype=np.int64)
    orbits_of = table.orbits_of
    for nodes, mask in connected_subgraphs(g, k):
        orbits = orbits_of[mask]
        for node, orbit in zip(nodes, orbits):
            counts[node, orbit - 1] += 1
    return OrbitFrequencyMatrix(k=k, counts=counts)


def class_counts(fr: OrbitFrequencyMatrix) -> dict[str, int]:
    """Occurrence count of each connected k-node class, from an orbit census.

    Every occurrence of a class puts its k nodes into that class's orbits,
    so the class's orbit columns sum to k times its count.
    """
    totals = fr.counts.sum(axis=0)
    return {
        cls.name: int(totals[[j - 1 for j in cls.orbits]].sum()) // fr.k
        for cls in GRAPHLET_CLASSES[fr.k]
    }


def graphlet_class_frequencies(g: StaticGraph, k: int) -> dict[str, int]:
    """Occurrence count of each connected k-node class, canonical order."""
    table = build_classification_table(k)
    tallies = [0] * len(table.classes)
    class_of = table.class_of
    for _nodes, mask in connected_subgraphs(g, k):
        tallies[class_of[mask]] += 1
    return {cls.name: tallies[i] for i, cls in enumerate(table.classes)}


@dataclass(frozen=True)
class GraphletDegreeDistribution:
    """Distribution, per orbit, of how many subgraph appearances nodes have.

    ``raw[j-1][d]`` counts nodes appearing in orbit j exactly d times
    (including d=0, so each raw distribution sums to n).
    ``normalized[j-1]`` covers d >= 1 and sums to 1 for touched orbits;
    untouched orbits get an empty mapping and are listed in ``untouched``.
    """

    k: int
    raw: tuple[dict[int, int], ...]
    normalized: tuple[dict[int, float], ...]
    untouched: tuple[int, ...]
    scaling: str


def compute_gdd(fr: OrbitFrequencyMatrix, scaling: str = "inverse_k") -> GraphletDegreeDistribution:
    """Degree distribution of each orbit of an orbit-frequency matrix.

    ``inverse_k`` scaling (the default) divides each degree count d(t) by
    its degree value t before normalizing, damping the weight of
    low-degree nodes; ``plain`` normalizes the counts directly.
    """
    if scaling not in ("inverse_k", "plain"):
        raise ValueError(f"unknown scaling {scaling!r}")
    raw: list[dict[int, int]] = []
    normalized: list[dict[int, float]] = []
    untouched: list[int] = []
    for col in range(fr.m):
        values, counts = np.unique(fr.counts[:, col], return_counts=True)
        dist = {int(v): int(c) for v, c in zip(values, counts)}
        raw.append(dist)
        positive = {d: c for d, c in dist.items() if d >= 1}
        if not positive:
            normalized.append({})
            untouched.append(col + 1)
            continue
        if scaling == "inverse_k":
            scaled = {d: c / d for d, c in positive.items()}
        else:
            scaled = {d: float(c) for d, c in positive.items()}
        total = sum(scaled.values())
        normalized.append({d: s / total for d, s in scaled.items()})
    return GraphletDegreeDistribution(
        k=fr.k,
        raw=tuple(raw),
        normalized=tuple(normalized),
        untouched=tuple(untouched),
        scaling=scaling,
    )
