"""Connected-subgraph census: graphlet classes, node orbits, frequencies.

Works on induced subgraphs of 3 or 4 nodes. Every connected shape on k
nodes is a *graphlet class* (k=3: chain, triangle; k=4: star, path,
cycle, paw, diamond, clique, ordered by edge count) and every
structurally distinct node position within a class is an *orbit*,
numbered 1..3 for k=3 and 1..11 for k=4. A census of a graph counts, for
each node, how often it occupies each orbit across all connected induced
k-subgraphs.

Class counts are closed-form: ``graphlet_class_frequencies`` counts the
non-induced 3-stars, 3-paths, tailed triangles, 4-cycles, diamonds and
4-cliques from degrees, triangles and common-neighbour counts, and
inverts their overlaps into induced class counts, as in Hočevar and
Demšar's ORCA ("A combinatorial approach to graphlet counting",
Bioinformatics 2014) and Ahmed et al. ("Efficient Graphlet Counting for
Large Networks", ICDM 2015). Their wedges are grouped by the top-ranked
node, ranking nodes by degree, so a hub costs no more than its edges.

Orbits and transitions need every set, so they enumerate. The connected
k-sets of a graph are enumerated with numpy, in blocks.
Sets grow from the edges (the connected 2-sets) one neighbour at a time,
and a grown set T is kept only when it came from its canonical parent:
T without its largest non-cut vertex. The neighbours a set's members
propose are sorted so that each new node is examined once per set, its
adjacency to the set read off the members that proposed it. Every
connected k-set thus appears exactly once, in no specified order. Each
block of sets is extended from at most a fixed number of (set,
neighbour) candidates, or from one set alone if it has more, so memory
stays bounded whatever the graph's size. Orbit and transition tallies
are ``np.bincount`` sums over the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb
from typing import Iterable, Iterator

import numpy as np

from .graph_core import StaticGraph, _group

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
    orbit_count(k)  # rejects any other k
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


# Most candidates one block examines: (set, neighbour) pairs in
# ``_kset_blocks``, wedges or clique corners in the class counts. It
# bounds the block's temporary arrays whatever the graph's size; a set
# (or node, or triangle) whose own candidates exceed it forms a block by
# itself.
_BLOCK_CANDIDATES = 4096


@lru_cache(maxsize=None)
def _extension_table(j: int) -> np.ndarray:
    """Mask of T = S + w, or -1 where S is not T's canonical parent.

    S is a connected j-set and w a node. The flat index is
    ``(S mask << j+1 | bits) * (j+1) + ins``: bit q < j of ``bits`` says w
    is adjacent to S's member at position q, bit j that w is a member, and
    ``ins`` is w's position in T. S is T's canonical parent when w is the
    largest non-cut vertex of T; since T - w = S is connected, that means
    every member of T above w is a cut vertex. Entries for a member, or
    for a w adjacent to no member, are -1.
    """
    s_pairs = tuple(combinations(range(j), 2))
    t_pairs = tuple(combinations(range(j + 1), 2))
    table = np.full((1 << len(s_pairs) + j + 1) * (j + 1), -1, dtype=np.int64)
    for s_mask in range(1 << len(s_pairs)):
        if not _mask_is_connected(s_mask, j, s_pairs):
            continue
        for bits in range(1, 1 << j):
            for ins in range(j + 1):
                at = [q + (q >= ins) for q in range(j)]
                t_edges = [(at[a], at[b]) for a, b in _mask_edges(s_mask, s_pairs)]
                t_edges += [tuple(sorted((at[q], ins))) for q in range(j) if bits >> q & 1]
                t_mask = sum(1 << t_pairs.index(edge) for edge in t_edges)
                if all(_is_cut_vertex(t_mask, j + 1, t_pairs, i) for i in range(ins + 1, j + 1)):
                    table[(s_mask << j + 1 | bits) * (j + 1) + ins] = t_mask
    return table


def _is_cut_vertex(mask: int, k: int, pairs, i: int) -> bool:
    """Whether removing position ``i`` disconnects the k-node ``mask``."""
    keep = [q for q in range(k) if q != i]
    rest = tuple(combinations(range(k - 1), 2))
    sub = 0
    for bit, (a, b) in enumerate(rest):
        if mask >> pairs.index((keep[a], keep[b])) & 1:
            sub |= 1 << bit
    return not _mask_is_connected(sub, k - 1, rest)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` for each pair, concatenated."""
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(len(offsets))


def _induced_masks(g: StaticGraph, sets: np.ndarray) -> np.ndarray:
    """Adjacency masks of the subgraphs ``g`` induces on each row of ``sets``."""
    first, second = np.array(PAIR_POSITIONS[sets.shape[1]]).T
    query = (sets[:, first] * g.n + sets[:, second]).ravel()
    hits = np.zeros(len(query), dtype=np.int64)
    if len(g.keys):
        # sorted queries make searchsorted several times faster than random ones
        order = np.argsort(query)
        query = query[order]
        hits[order] = g.keys.take(np.searchsorted(g.keys, query), mode="clip") == query
    return hits.reshape(len(sets), len(first)) @ (1 << np.arange(len(first)))


def _extend(g: StaticGraph, sets: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The connected (j+1)-sets whose canonical parent is a row of ``sets``."""
    b, j = sets.shape
    shift = max(g.n - 1, 1).bit_length()
    members = sets.ravel()
    degrees = g.indptr[members + 1] - g.indptr[members]
    w = g.indices[_ranges(g.indptr[members], degrees)]
    # Code (row, node, tag) with tag q < j for a neighbour of the member at
    # position q and tag j for the member itself (2 bits, as j <= 3).
    # Sorting gathers each (row, node): its tags give the node's adjacency
    # to the row's members and say whether it is one of them.
    row_code = np.arange(b).repeat(j) << shift + 2
    code = np.concatenate((row_code | members << 2 | j,
                           np.repeat(row_code | np.tile(np.arange(j), b), degrees) | w << 2))
    code.sort()
    node = code >> 2
    first = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    bits = np.bitwise_or.reduceat(1 << (code & 3), first)
    node = node[first]
    row = node >> shift
    # each row has j member groups, so the running count of them, less
    # j per earlier row, counts the row's members up to this node
    ins = np.cumsum(bits >> j) - row * j
    t_masks = _extension_table(j)[(masks[row] << j + 1 | bits) * (j + 1) + ins]
    keep = np.flatnonzero(t_masks >= 0)
    grown = np.column_stack((sets[row[keep]], node[keep] & (1 << shift) - 1))
    grown.sort(axis=1)
    return grown, t_masks[keep]


def _block_bounds(costs: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive ``[start, stop)`` row ranges costing at most the block bound each."""
    ends = np.cumsum(costs)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, base + _BLOCK_CANDIDATES, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop


def _grow(
    g: StaticGraph, sets: np.ndarray, masks: np.ndarray, k: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    costs = (g.indptr[sets + 1] - g.indptr[sets]).sum(axis=1)
    for start, stop in _block_bounds(costs):
        grown, grown_masks = _extend(g, sets[start:stop], masks[start:stop])
        if grown.shape[1] < k:
            yield from _grow(g, grown, grown_masks, k)
        elif len(grown):
            yield grown, grown_masks


def _kset_blocks(g: StaticGraph, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every connected k-set of ``g`` once, in ``(sets, masks)`` blocks.

    ``sets`` is a ``(b, k)`` array of node ids sorted within each row and
    ``masks`` the ``(b,)`` induced-adjacency masks. Sets grow from the
    edges one node at a time, and each connected set T is kept only when
    grown from its canonical parent T - w, w being T's largest non-cut
    vertex (see ``_extension_table``). The sets of one level are extended
    in blocks of at most ``_BLOCK_CANDIDATES`` (set, neighbour) candidates,
    or one set if it alone has more, and the next level is grown from
    each block before the following one, so memory stays bounded.
    """
    orbit_count(k)  # rejects any other k
    edges = g.edge_array()
    yield from _grow(g, edges, np.ones(len(edges), dtype=np.int64), k)


def connected_subgraphs(g: StaticGraph, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield every connected induced k-subgraph of ``g`` exactly once.

    Each item is ``(nodes, mask)`` with ``nodes`` sorted ascending and
    ``mask`` its induced-adjacency mask: bit b is set when the pair at
    ``PAIR_POSITIONS[k][b]`` of ``nodes`` is an edge. The order
    of the items is unspecified. Sets are grown from the edges one node at
    a time, and every connected set is reached from exactly one parent:
    itself without its largest non-cut vertex. The work runs in numpy
    blocks of bounded size, so memory stays bounded whatever the graph.
    """
    for sets, masks in _kset_blocks(g, k):
        yield from zip(map(tuple, sets.tolist()), masks.tolist())


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


def _bincount_blocks(blocks: Iterable[np.ndarray], size: int) -> np.ndarray:
    """Sum of ``np.bincount`` over index arrays with values below ``size``.

    Blocks are concatenated until they hold ``size`` indices, so a large
    ``size`` (one bin per node and orbit) costs each bin one pass per
    ``size`` indices rather than one per block.
    """
    total = np.zeros(size, dtype=np.int64)
    pending: list[np.ndarray] = []
    held = 0
    for block in blocks:
        pending.append(block)
        held += block.size
        if held >= size:
            total += np.bincount(np.concatenate(pending), minlength=size)
            pending, held = [], 0
    if pending:
        total += np.bincount(np.concatenate(pending), minlength=size)
    return total


@lru_cache(maxsize=None)
def _orbit_onehot(k: int) -> np.ndarray:
    """``[position, mask, orbit id - 1]`` = 1 where the orbit table puts it."""
    table = build_classification_table(k)
    onehot = np.zeros((k, len(table.orbits_of), orbit_count(k)), dtype=np.int64)
    for mask, orbits in enumerate(table.orbits_of):
        for position, orbit in enumerate(orbits or ()):
            onehot[position, mask, orbit - 1] = 1
    return onehot


def compute_orbit_frequencies(g: StaticGraph, k: int) -> OrbitFrequencyMatrix:
    """Count, per node, its appearances in every orbit of size ``k``."""
    m = orbit_count(k)
    columns = _orbit_onehot(k).argmax(axis=2).T  # [mask, position] -> orbit id - 1
    cells = ((sets * m + columns[masks]).ravel() for sets, masks in _kset_blocks(g, k))
    counts = _bincount_blocks(cells, g.n * m).reshape(g.n, m)
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


class _Ranked:
    """``g`` with its nodes ranked by (degree, id) and its edges pointed down.

    ``rows[e]`` is the first node of CSR entry e (its second is
    ``g.indices[e]``). ``down`` holds, in CSR order, the entries (v, x)
    whose x ranks below v, and v's run of them is
    ``down[first[v]:first[v + 1]]``.
    """

    def __init__(self, g: StaticGraph):
        self.g = g
        self.degree = np.diff(g.indptr)
        self.rank = np.empty(g.n, dtype=np.int64)
        self.rank[np.argsort(self.degree, kind="stable")] = np.arange(g.n)
        self.rows = np.repeat(np.arange(g.n), self.degree)
        self.down = np.flatnonzero(self.rank[g.indices] < self.rank[self.rows])
        self.first = np.searchsorted(self.rows[self.down], np.arange(g.n + 1))

    def find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(CSR entry, whether it is an edge) of each ``u*n + v`` of ``keys``."""
        at = np.searchsorted(self.g.keys, keys)
        return at, self.g.keys.take(at, mode="clip") == keys


def _wedge_blocks(r: _Ranked) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Common-neighbour counts and triangles, from the wedges below each node.

    A wedge a-c-b lies below a when c and b both rank below a. Each block
    takes the wedges below a run of nodes a, and at most
    ``_BLOCK_CANDIDATES`` of them, or one node's if it alone has more.
    It yields:

    - for each pair (a, b) with a wedge below a, the number of centres
      c of such wedges. A 4-cycle's top node a and the node b opposite it
      have the cycle's two other nodes as centres, and no other pair
      does, so the sum of C(count, 2) counts every 4-cycle once (Chiba and
      Nishizeki, "Arboricity and subgraph listing algorithms", 1985);
    - every triangle a > c > b (by rank) once, as the CSR entries of
      (a, c), (a, b) and (c, b) in the rows of a ``(t, 3)`` array: the
      wedge a-c-b closed by an edge (a, b).
    """
    g, rank, rows = r.g, r.rank, r.rows
    spread = r.degree[g.indices[r.down]]  # wedges each entry (a, c) of down opens
    ends = np.concatenate(([0], np.cumsum(spread)))
    for start, stop in _block_bounds(ends[r.first[1:]] - ends[r.first[:-1]]):
        ac = r.down[r.first[start] : r.first[stop]]
        c = g.indices[ac]
        cb = _ranges(g.indptr[c], r.degree[c])
        ac = np.repeat(ac, r.degree[c])
        a, c, b = rows[ac], g.indices[ac], g.indices[cb]
        below = rank[b] < rank[a]
        ac, cb, pair = ac[below], cb[below], a[below] * g.n + b[below]
        _, pair_id = _group(pair[:, None])
        # of a triangle's two wedges below a, take the one whose centre ranks higher
        higher = rank[c[below]] > rank[b[below]]
        ac, cb, pair = ac[higher], cb[higher], pair[higher]
        ab, closed = r.find(pair)
        yield np.bincount(pair_id), np.column_stack((ac[closed], ab[closed], cb[closed]))


def _cliques_below(r: _Ranked, a: np.ndarray, c: np.ndarray, b: np.ndarray) -> int:
    """4-cliques whose three top-ranked nodes are a triangle a > c > b.

    The fourth node is a neighbour of b that ranks below b and is
    adjacent to a and c.
    """
    g = r.g
    spread = r.first[b + 1] - r.first[b]
    found = 0
    for start, stop in _block_bounds(spread):
        d = g.indices[r.down[_ranges(r.first[b[start:stop]], spread[start:stop])]]
        top = np.repeat(a[start:stop], spread[start:stop]) * g.n + d
        mid = np.repeat(c[start:stop], spread[start:stop]) * g.n + d
        found += int(np.count_nonzero(r.find(top)[1] & r.find(mid)[1]))
    return found


def graphlet_class_frequencies(g: StaticGraph, k: int) -> dict[str, int]:
    """Occurrence count of each connected k-node class, canonical order.

    Counted in closed form, without enumerating a set. For k=3, a
    triangle is three of the C(deg, 2) neighbour pairs summed over the
    nodes, and a chain any other. For k=4, the subgraphs (not necessarily
    induced) of each shape are counted:

    - 3-stars, sum of C(deg v, 3);
    - 3-paths, sum over edges (u, v) of (deg u - 1)(deg v - 1), less
      three per triangle;
    - tailed triangles, sum of t_v (deg v - 2), t_v the triangles at v;
    - diamonds, sum over edges of C(t_e, 2), t_e the triangles on e;
    - 4-cycles and 4-cliques, from ``_wedge_blocks``.

    Each induced class holds a fixed number of copies of every sparser
    shape (a clique 6 diamonds, 12 tailed triangles, 3 cycles, 12 paths
    and 4 stars), so the induced counts follow from the densest class
    down.
    """
    orbit_count(k)  # rejects any other k
    r = _Ranked(g)
    degree = r.degree
    per_entry = np.zeros(len(g.keys), dtype=np.int64)  # triangles on each edge
    triangles = tailed = cycles = cliques = 0
    for shared, tri in _wedge_blocks(r):
        triangles += len(tri)
        if k == 3:
            continue
        cycles += int((shared * (shared - 1) // 2).sum())
        nodes = (r.rows[tri[:, 0]], g.indices[tri[:, 0]], g.indices[tri[:, 1]])
        tailed += sum(int(degree[v].sum()) for v in nodes) - 6 * len(tri)
        entries, entry_id = _group(tri.reshape(-1, 1))
        per_entry[entries[:, 0]] += np.bincount(entry_id)
        cliques += _cliques_below(r, *nodes)
    if k == 3:
        chains = int((degree * (degree - 1) // 2).sum()) - 3 * triangles
        return {"chain": chains, "triangle": triangles}
    # per distinct degree, in Python integers: d**3 passes 2**63 at d = 2**21
    per_degree = np.bincount(degree)
    present = np.flatnonzero(per_degree).tolist()
    stars = sum(comb(d, 3) * int(per_degree[d]) for d in present)
    # every edge is two CSR entries, so the sum counts each path twice
    paths = int(((degree[r.rows] - 1) * (degree[g.indices] - 1)).sum()) // 2 - 3 * triangles
    diamonds = int((per_entry * (per_entry - 1) // 2).sum())
    diamond = diamonds - 6 * cliques
    paw = tailed - 4 * diamond - 12 * cliques
    cycle = cycles - diamond - 3 * cliques
    return {
        "star": stars - paw - 2 * diamond - 4 * cliques,
        "path": paths - 2 * paw - 4 * cycle - 6 * diamond - 12 * cliques,
        "cycle": cycle,
        "paw": paw,
        "diamond": diamond,
        "clique": cliques,
    }


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
