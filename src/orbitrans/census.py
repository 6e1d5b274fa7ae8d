"""Connected-subgraph census: graphlet classes, node orbits, frequencies.

Works on induced subgraphs of 3 or 4 nodes. Every connected shape on k
nodes is a *graphlet class* (k=3: chain, triangle; k=4: star, path,
cycle, paw, diamond, clique, ordered by edge count) and every
structurally distinct node position within a class is an *orbit*,
numbered 1..3 for k=3 and 1..11 for k=4. A census of a graph counts, for
each node, how often it occupies each orbit across all connected induced
k-subgraphs.

The census is closed-form. ``compute_orbit_frequencies`` counts each
node's copies of each orbit's shape, induced or not, from degrees,
triangles per edge and per node, and the 4-cycles and 4-cliques at each
node, then subtracts the copies each denser orbit holds, densest first,
as in Hočevar and Demšar's ORCA ("A combinatorial approach to graphlet
counting", Bioinformatics 2014). ``graphlet_class_frequencies`` is the
census's column sums divided by k. Wedges are grouped by their
top-ranked node, ranking nodes by degree, so a hub costs no more than its
edges (Chiba and Nishizeki, "Arboricity and subgraph listing
algorithms", 1985).

Transitions need every set, so they enumerate, as does
``connected_subgraphs``. The connected k-sets of a graph are enumerated
with numpy, in blocks.
Sets grow from the edges (the connected 2-sets) one neighbour at a time,
and a grown set T is kept only when it came from its canonical parent:
T without its largest non-cut vertex. The neighbours a set's members
propose are sorted so that each new node is examined once per set, its
adjacency to the set read off the members that proposed it. Every
connected k-set thus appears exactly once, in no specified order. Each
block of sets is extended from at most a fixed number of (set,
neighbour) candidates, or from one set alone if it has more, so memory
stays bounded whatever the graph's size. Transition tallies are
``np.bincount`` sums over the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
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
# ``_kset_blocks``, wedges or clique corners in the orbit census, and
# the triangles that census keeps for its second pass. It bounds the
# block's temporary arrays whatever the graph's size; a set (or node, or
# triangle) whose own candidates exceed it forms a block by itself.
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
    ``size`` costs each bin one pass per ``size`` indices rather than one
    per block.
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
    """The wedges below each node, in blocks, as CSR entries (a, c) and (c, b).

    A wedge a-c-b lies below a when c and b both rank below a. Each block
    takes the wedges below a run of nodes a, and at most
    ``_BLOCK_CANDIDATES`` of them, or one node's if it alone has more.
    """
    g, rank = r.g, r.rank
    spread = r.degree[g.indices[r.down]]  # wedges each entry (a, c) of down opens
    ends = np.concatenate(([0], np.cumsum(spread)))
    for start, stop in _block_bounds(ends[r.first[1:]] - ends[r.first[:-1]]):
        ac = r.down[r.first[start] : r.first[stop]]
        c = g.indices[ac]
        cb = _ranges(g.indptr[c], r.degree[c])
        ac = np.repeat(ac, r.degree[c])
        below = rank[g.indices[cb]] < rank[r.rows[ac]]
        yield ac[below], cb[below]


def _cycles_through(r: _Ranked, ac: np.ndarray, cb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-cycles through each node, from a block of wedges, as (node, count) pairs.

    A 4-cycle's top node a and the node b opposite it have the cycle's
    two other nodes as centres of wedges below a, and no other pair does
    (Chiba and Nishizeki, "Arboricity and subgraph listing algorithms",
    1985). So a pair (a, b) with s such centres closes C(s, 2) 4-cycles,
    each through a, b and two of the centres: every cycle is counted
    once, and each centre is in s - 1 of them.
    """
    g = r.g
    pairs, pair_id = _group((r.rows[ac] * g.n + g.indices[cb])[:, None])
    shared = np.bincount(pair_id)
    closed = shared * (shared - 1) // 2
    nodes = np.concatenate((pairs[:, 0] // g.n, pairs[:, 0] % g.n, g.indices[ac]))
    return nodes, np.concatenate((closed, closed, (shared - 1)[pair_id]))


def _triangles(r: _Ranked, ac: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Every triangle a > c > b (by rank) of a block of wedges, once.

    Rows of the ``(t, 3)`` result are the CSR entries of (a, c), (a, b)
    and (c, b): of a triangle's two wedges below a, the one whose centre
    ranks higher, closed by the edge (a, b).
    """
    g = r.g
    higher = r.rank[g.indices[ac]] > r.rank[g.indices[cb]]
    ac, cb = ac[higher], cb[higher]
    ab, closed = r.find(r.rows[ac] * g.n + g.indices[cb])
    return np.column_stack((ac[closed], ab[closed], cb[closed]))


def _cliques_below(r: _Ranked, tri: np.ndarray) -> Iterator[np.ndarray]:
    """The nodes of each 4-clique whose three top-ranked nodes are a triangle of ``tri``.

    The fourth node is a neighbour of the triangle's lowest node b that
    ranks below b and is adjacent to a and c. Each block of at most
    ``_BLOCK_CANDIDATES`` such neighbours yields the four nodes of every
    clique it finds.
    """
    g = r.g
    a, c, b = r.rows[tri[:, 0]], g.indices[tri[:, 0]], g.indices[tri[:, 2]]
    spread = r.first[b + 1] - r.first[b]
    for start, stop in _block_bounds(spread):
        d = g.indices[r.down[_ranges(r.first[b[start:stop]], spread[start:stop])]]
        corners = [np.repeat(x[start:stop], spread[start:stop]) for x in (a, c, b)]
        found = r.find(corners[0] * g.n + d)[1] & r.find(corners[1] * g.n + d)[1]
        yield np.concatenate([x[found] for x in corners] + [d[found]])


@lru_cache(maxsize=None)
def _overlaps(k: int) -> np.ndarray:
    """``[i, j]``: the copies of orbit i + 1 that a node in orbit j + 1 is in.

    A copy is a connected subgraph, not necessarily induced, on the
    node's k-set; the node's orbit in it is read off the orbit table.
    Classes are ordered by edge count and none holds another class of
    its own edge count, so the matrix is unit upper triangular.
    """
    table = build_classification_table(k)
    m = orbit_count(k)
    overlaps = np.zeros((m, m), dtype=np.int64)
    for j in range(1, m + 1):
        mask, at = next((mask, orbits.index(j)) for mask, orbits in enumerate(table.orbits_of)
                        if orbits and j in orbits)
        for sub in range(mask + 1):
            if sub & mask == sub and table.orbits_of[sub]:
                overlaps[table.orbits_of[sub][at] - 1, j - 1] += 1
    if not np.array_equal(np.tril(overlaps), np.eye(m, dtype=np.int64)):
        raise RuntimeError(f"orbit overlaps k={k} are not unit upper triangular")
    overlaps.setflags(write=False)
    return overlaps


# Largest degree whose cube fits in int64. A node v's count of any orbit,
# and every product on the way to it, is at most deg v times the largest
# degree squared.
_MAX_DEGREE = 2_097_151


def _row_sums(g: StaticGraph, values: np.ndarray) -> np.ndarray:
    """Sum of ``values`` over each node's CSR entries.

    An int64 cumulative sum wraps modulo 2**64, so each difference is
    exact whenever the row's own sum fits in int64.
    """
    ends = np.concatenate(([0], np.cumsum(values)))
    return ends[g.indptr[1:]] - ends[g.indptr[:-1]]


def _orbit_counts(g: StaticGraph, k: int) -> np.ndarray:
    """Per-node orbit counts, ``(n, m)`` int64, in closed form.

    Each node's copies of each orbit's shape, not necessarily induced,
    are counted from the degrees d, the triangles t_uv on each edge and
    t_v at each node, and the 4-cycles and 4-cliques at each node (the
    columns below; S_v is the sum of d_u - 1 over v's neighbours u). An
    induced k-set in orbit j holds a fixed number of copies of each
    sparser orbit (``_overlaps``), so the induced counts follow from the
    densest orbit down, as in Hočevar and Demšar's ORCA. Triangles,
    cycles and cliques come from ``_wedge_blocks``. Column 9 needs every
    t_uv first, so it takes the triangles in a second pass, or from the
    first if they fit in one block: no pass holds more than a block.
    """
    m = orbit_count(k)
    r = _Ranked(g)
    d = r.degree
    if g.n and int(d.max()) > _MAX_DEGREE:
        raise OverflowError(
            f"a node of degree {int(d.max())} can have orbit counts past int64; "
            f"the census supports degrees up to {_MAX_DEGREE}"
        )
    tri_down = np.zeros(len(g.keys), dtype=np.int64)  # t_uv at the edge's down entry
    cycles = np.zeros(g.n, dtype=np.int64)
    cliques = np.zeros(g.n, dtype=np.int64)
    held: list[np.ndarray] = []  # the triangles, while they fit in one block
    held_rows = 0
    for ac, cb in _wedge_blocks(r):
        tri = _triangles(r, ac, cb)
        np.add.at(tri_down, tri.ravel(), 1)
        held_rows += len(tri)
        if len(tri) and held_rows <= _BLOCK_CANDIDATES:
            held.append(tri)
        if k == 4:
            np.add.at(cycles, *_cycles_through(r, ac, cb))
            for found in _cliques_below(r, tri):
                np.add.at(cliques, found, 1)
    u = g.indices  # the other node of each CSR entry
    t_uv = tri_down + tri_down[np.searchsorted(g.keys, u * g.n + r.rows)]
    t = _row_sums(g, t_uv) // 2
    s = _row_sums(g, d[u] - 1)
    if k == 3:
        free = np.column_stack((s, d * (d - 1) // 2, t))
    else:
        # the triangles on the edge opposite each triangle's node, less that triangle
        diamond_ends = np.zeros(g.n, dtype=np.int64)
        triangles = held if held_rows <= _BLOCK_CANDIDATES else (
            _triangles(r, *wedges) for wedges in _wedge_blocks(r))
        for tri in triangles:
            nodes = np.concatenate((r.rows[tri[:, 0]], u[tri[:, 0]], u[tri[:, 2]]))
            np.add.at(diamond_ends, nodes, tri_down[tri[:, ::-1]].T.ravel() - 1)
        du = d[u]
        free = np.column_stack((
            _row_sums(g, (du - 1) * (du - 2) // 2),  # 1 star leaf
            d * (d - 1) * (d - 2) // 6,  # 2 star centre
            _row_sums(g, s[u]) - d * (d - 1) - 2 * t,  # 3 path end
            (d - 1) * s - 2 * t,  # 4 path middle
            cycles,  # 5 cycle
            _row_sums(g, t[u] - t_uv),  # 6 paw tail
            t * (d - 2),  # 7 paw centre
            _row_sums(g, t_uv * (du - 2)),  # 8 paw degree-2 node
            diamond_ends,  # 9 diamond degree-2 node
            _row_sums(g, t_uv * (t_uv - 1) // 2),  # 10 diamond degree-3 node
            cliques,  # 11 clique
        ))
    overlaps = _overlaps(k)
    for j in range(m - 2, -1, -1):
        free[:, j] -= free[:, j + 1 :] @ overlaps[j, j + 1 :]
    return free


def compute_orbit_frequencies(g: StaticGraph, k: int) -> OrbitFrequencyMatrix:
    """Count, per node, its appearances in every orbit of size ``k``.

    Counted in closed form (see ``_orbit_counts``), without enumerating a set.
    """
    return OrbitFrequencyMatrix(k=k, counts=_orbit_counts(g, k))


def _class_totals(counts: np.ndarray, k: int) -> dict[str, int]:
    """Occurrence count of each connected k-node class from orbit ``counts``.

    Every occurrence of a class puts its k nodes into that class's orbits,
    so the class's orbit columns sum to k times its count. The sums are
    taken in two 32-bit halves, each of which fits in int64 below 2**31
    nodes, and joined as Python integers, so they never wrap.
    """
    high = (counts >> 32).sum(axis=0).tolist()
    low = (counts & 0xFFFFFFFF).sum(axis=0).tolist()
    totals = [(h << 32) + lo for h, lo in zip(high, low)]
    return {cls.name: sum(totals[j - 1] for j in cls.orbits) // k for cls in GRAPHLET_CLASSES[k]}


def class_counts(fr: OrbitFrequencyMatrix) -> dict[str, int]:
    """Occurrence count of each connected k-node class, from an orbit census."""
    return _class_totals(fr.counts, fr.k)


def graphlet_class_frequencies(g: StaticGraph, k: int) -> dict[str, int]:
    """Occurrence count of each connected k-node class, canonical order.

    The closed-form orbit census's column sums, divided by k, without
    enumerating a set.
    """
    # perfbench's tracer wraps the public census functions, so this one
    # calls none of them: a nested call would be counted twice
    return _class_totals(_orbit_counts(g, k), k)


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
