"""Connected-subgraph census: graphlet classes, node orbits, frequencies.

Works on induced subgraphs of 3 or 4 nodes. Every connected shape on k
nodes is a *graphlet class* and every structurally distinct node position
within a class is an *orbit*, numbered 1..3 for k=3 and 1..11 for k=4.
``GRAPHLET_CLASSES`` states this catalogue once, with the degree a node
in each orbit has within its shape; the orbit counts, the table from an
induced-adjacency mask to its class and orbits, and every product indexed
by class or orbit derive from it. A census of a graph counts, for each
node, how often it occupies each orbit across all connected induced
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
``connected_subgraphs``: with numpy, in bounded blocks (``_pair_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

import numpy as np

from .graph_core import StaticGraph, _group


@dataclass(frozen=True)
class GraphletClass:
    """One connected k-node shape, with the orbits its nodes can occupy.

    ``degrees[i]`` is the degree, within the shape, of a node in orbit
    ``orbits[i]``.
    """

    k: int
    name: str
    edge_count: int
    orbits: tuple[int, ...]
    degrees: tuple[int, ...]


# Classes in canonical order, by edge count. Among connected graphs of at
# most 4 nodes the set of node degrees identifies the class, and within a
# class a node's degree identifies its orbit (tests check every mask
# against an isomorphism oracle).
GRAPHLET_CLASSES: dict[int, tuple[GraphletClass, ...]] = {
    3: (
        GraphletClass(3, "chain", 2, (1, 2), (1, 2)),
        GraphletClass(3, "triangle", 3, (3,), (2,)),
    ),
    4: (
        GraphletClass(4, "star", 3, (1, 2), (1, 3)),
        GraphletClass(4, "path", 3, (3, 4), (1, 2)),
        GraphletClass(4, "cycle", 4, (5,), (2,)),
        GraphletClass(4, "paw", 4, (6, 7, 8), (1, 3, 2)),
        GraphletClass(4, "diamond", 5, (9, 10), (2, 3)),
        GraphletClass(4, "clique", 6, (11,), (3,)),
    ),
}

# Node-pair positions of a j-node set, one bit each, in this fixed order:
# for each class size, and for the smaller sets the enumeration grows.
PAIR_POSITIONS = {j: tuple(combinations(range(j), 2)) for j in range(2, max(GRAPHLET_CLASSES) + 1)}


def orbit_count(k: int) -> int:
    if k not in GRAPHLET_CLASSES:
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    return sum(len(cls.orbits) for cls in GRAPHLET_CLASSES[k])


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


def _mask_edges(mask: int, k: int) -> list[tuple[int, int]]:
    return [pair for bit, pair in enumerate(PAIR_POSITIONS[k]) if mask >> bit & 1]


def _mask_is_connected(mask: int, k: int) -> bool:
    adj: list[set[int]] = [set() for _ in range(k)]
    for i, j in _mask_edges(mask, k):
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


@lru_cache(maxsize=None)
def build_classification_table(k: int) -> ClassificationTable:
    """Build the mask -> class/orbit lookup for size ``k`` from ``GRAPHLET_CLASSES``.

    A connected mask belongs to the class whose orbit degrees are the set
    of its node degrees, and each node to that class's orbit of its degree.
    """
    orbit_count(k)  # rejects any other k
    rules = {frozenset(cls.degrees): (pos, dict(zip(cls.degrees, cls.orbits)))
             for pos, cls in enumerate(GRAPHLET_CLASSES[k])}
    class_of = []
    orbits_of: list[tuple[int, ...] | None] = []
    for mask in range(1 << len(PAIR_POSITIONS[k])):
        if not _mask_is_connected(mask, k):
            class_of.append(-1)
            orbits_of.append(None)
            continue
        degrees = [sum(q in pair for pair in _mask_edges(mask, k)) for q in range(k)]
        class_pos, orbit_by_degree = rules[frozenset(degrees)]
        class_of.append(class_pos)
        orbits_of.append(tuple(orbit_by_degree[d] for d in degrees))

    return ClassificationTable(
        k=k,
        classes=GRAPHLET_CLASSES[k],
        class_of=tuple(class_of),
        orbits_of=tuple(orbits_of),
    )


# Most candidates one block examines: (set, neighbour) pairs in
# ``_pair_blocks``, wedges or clique corners in the orbit census, and
# the triangles that census keeps for its second pass. It bounds the
# block's temporary arrays whatever the graph's size; a set (or node, or
# triangle) whose own candidates exceed it forms a block by itself.
_BLOCK_CANDIDATES = 4096


@lru_cache(maxsize=None)
def _insertion_table(j: int) -> np.ndarray:
    """Mask of T = S + w for every j-node mask S, at flat index
    ``(S mask << j+1 | bits) * (j+1) + ins``: bit q < j of ``bits`` says w is
    adjacent to S's member at position q, bit j that w is a member (entry
    -1), and ``ins`` is w's position in T."""
    pairs, s_masks = PAIR_POSITIONS[j + 1], 1 << len(PAIR_POSITIONS[j])
    table = np.full((s_masks << j + 1) * (j + 1), -1, dtype=np.int64)
    for s_mask, bits, ins in product(range(s_masks), range(1 << j), range(j + 1)):
        at = [q + (q >= ins) for q in range(j)]
        edges = [(at[a], at[b]) for a, b in _mask_edges(s_mask, j)]
        edges += [tuple(sorted((at[q], ins))) for q in range(j) if bits >> q & 1]
        table[(s_mask << j + 1 | bits) * (j + 1) + ins] = sum(1 << pairs.index(e) for e in edges)
    return table


@lru_cache(maxsize=None)
def _extension_table(j: int) -> np.ndarray:
    """``_insertion_table(j)`` where S is T's canonical parent, else -1: S is
    connected, w adjacent to it and T's largest non-cut vertex, the largest
    position at which a connected j-set grows into T."""
    table = _insertion_table(j)
    slot, ins = np.divmod(np.arange(len(table)), j + 1)
    s_mask, bits = slot >> j + 1, slot & (1 << j + 1) - 1
    connected = np.array([_mask_is_connected(mask, j) for mask in range(s_mask[-1] + 1)])
    grows = connected[s_mask] & (bits > 0) & (bits >> j == 0)
    top = np.full(1 << len(PAIR_POSITIONS[j + 1]), -1)
    np.maximum.at(top, table[grows], ins[grows])
    return np.where(grows & (ins == top[table]), table, -1)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` for each pair, concatenated."""
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return offsets + np.arange(len(offsets))


def _extend(
    g: StaticGraph, tags: np.ndarray, sets: np.ndarray, masks: np.ndarray, seeded: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The (j+1)-sets whose canonical parent is a row of ``sets``, and their
    masks, in the union ``g`` of a source and a target (see ``_pair_blocks``).
    A seeded row's first two members are its seed."""
    b, j = sets.shape
    seeds = 2 if seeded else 0
    shift = max(g.n - 1, 1).bit_length()
    members = sets.ravel()
    degrees = g.indptr[members + 1] - g.indptr[members]
    entries = _ranges(g.indptr[members], degrees)
    # Code (row, node, tag): tag q << 2 | e for a neighbour of the member at
    # position q through an entry tagged e, 0 for a member ranked by id and
    # 4 for a seed member. Sorting gathers each (row, node), whose tags give
    # bit q (source) and 4 + q (target) of its adjacency to the row, bits j
    # and 4 + j if it is a member, and bit 8 if one ranked by id.
    row_code = np.arange(b).repeat(j) << shift + 4
    neighbours = np.repeat(row_code | np.tile(np.arange(j), b) << 2, degrees)
    code = np.concatenate((row_code | members << 4 | np.tile(np.arange(j) < seeds, b) * 4,
                           neighbours | g.indices[entries] << 4 | tags[entries]))
    code.sort()
    node = code >> 4
    first = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    q, e = np.arange(16) >> 2, np.arange(16) & 3
    tag_bits = np.where(e > 0, (e & 1) << q | (e >> 1) << q + 4, 0x11 << j | np.where(q, 0, 256))
    bits = np.bitwise_or.reduceat(tag_bits[code & 15], first)
    node = node[first]
    row = node >> shift
    # w's position in T follows the seed and the members ranked below it:
    # their running count, less the j - seeds of each earlier row
    ins = np.cumsum(bits >> 8) - row * (j - seeds) + seeds
    source, target = bits & 15, bits >> 4 & 15
    # a set grows through the source's edges, or if seeded the union's
    grow_mask, grow_bits = masks[row, 0] | masks[row, 1] * seeded, source | target * seeded
    t_masks = _extension_table(j)[(grow_mask << j + 1 | grow_bits) * (j + 1) + ins]
    keep = np.flatnonzero(t_masks >= 0)
    row, ins, source, target, t_masks = (x[keep] for x in (row, ins, source, target, t_masks))
    grown = np.column_stack((sets[row], node[keep] & (1 << shift) - 1))
    if seeded:
        # a set counts at its smallest changed pair (in one graph only), so
        # one holding a changed pair below its seed goes, as its supersets would
        w, seed_key = grown[:, -1:], grown[:, :1] * g.n + grown[:, 1:2]
        pair_key = np.minimum(grown[:, :-1], w) * g.n + np.maximum(grown[:, :-1], w)
        changed = (source ^ target)[:, None] >> np.arange(j) & 1 == 1
        keep = np.flatnonzero(~(changed & (pair_key < seed_key)).any(axis=1))
        row, ins, source, target, grown = (x[keep] for x in (row, ins, source, target, grown))
        t_masks = _insertion_table(j)[(masks[row, 0] << j + 1 | source) * (j + 1) + ins]
    grown[:, seeds:].sort(axis=1)
    to_masks = _insertion_table(j)[(masks[row, 1] << j + 1 | target) * (j + 1) + ins]
    return grown, np.column_stack((t_masks, to_masks))


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


def _grow(g: StaticGraph, tags: np.ndarray, sets: np.ndarray, masks: np.ndarray, k: int,
          seeded: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    costs = (g.indptr[sets + 1] - g.indptr[sets]).sum(axis=1)
    for start, stop in _block_bounds(costs):
        grown, grown_masks = _extend(g, tags, sets[start:stop], masks[start:stop], seeded)
        if grown.shape[1] < k:
            yield from _grow(g, tags, grown, grown_masks, k, seeded)
        elif len(grown):
            yield grown, grown_masks


def _pair_blocks(u: StaticGraph, tags: np.ndarray, k: int,
                 seeded: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """k-sets of the union ``u`` of a source and a target, in ``(sets, masks)`` blocks.

    ``tags[e]`` says which graph has CSR entry e (bit 0 the source, bit 1
    the target), and ``masks[i]`` holds the masks both induce on
    ``sets[i]``. Sets grow from edges one node at a time, each kept only
    when grown from its canonical parent (``_extension_table``): unless
    ``seeded``, the source's connected k-sets from its edges; if
    ``seeded``, the union's connected k-sets holding a changed pair from
    each such pair, ranked below every other node (a connected set holding
    an edge has a non-cut vertex outside it), and kept at the smallest.
    Each set appears once. Rows are extended depth first, in blocks of at
    most ``_BLOCK_CANDIDATES`` (set, neighbour) candidates or of one row,
    so memory stays bounded.
    """
    orbit_count(k)  # rejects any other k
    edge_tags = tags[u.keys // max(u.n, 1) < u.indices]  # the tags of edge_array's rows
    pick = edge_tags != 3 if seeded else edge_tags & 1 == 1
    masks = np.column_stack((edge_tags & 1, edge_tags >> 1))
    yield from _grow(u, tags, u.edge_array()[pick], masks[pick], k, seeded)


def _kset_blocks(g: StaticGraph, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every connected k-set of ``g`` once, in ``(sets, masks)`` blocks: a
    ``(b, k)`` array of node ids, sorted within each row, and the ``(b,)``
    induced-adjacency masks (see ``_pair_blocks``)."""
    for sets, masks in _pair_blocks(g, np.ones(len(g.keys), dtype=np.int64), k, False):
        yield sets, masks[:, 0]


def connected_subgraphs(g: StaticGraph, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield every connected induced k-subgraph of ``g`` exactly once, in no
    specified order, as ``(nodes, mask)``: ``nodes`` ascending, and bit b of
    ``mask`` set when the pair ``PAIR_POSITIONS[k][b]`` of ``nodes`` is an edge."""
    for sets, masks in _kset_blocks(g, k):
        yield from zip(map(tuple, sets.tolist()), masks.tolist())


@dataclass(frozen=True)
class OrbitFrequencyMatrix:
    """Per-node orbit appearance counts: row v, column j-1 = orbit j."""

    k: int
    counts: np.ndarray  # shape (n, m), int64

    @property
    def m(self) -> int:
        return self.counts.shape[1]


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


def class_counts(fr: OrbitFrequencyMatrix) -> dict[str, int]:
    """Occurrence count of each connected k-node class, canonical order,
    from an orbit census.

    Every occurrence of a class puts its k nodes into that class's orbits,
    so the class's orbit columns sum to k times its count. The sums are
    taken in two 32-bit halves, each of which fits in int64 below 2**31
    nodes, and joined as Python integers, so they never wrap.
    """
    high = (fr.counts >> 32).sum(axis=0).tolist()
    low = (fr.counts & 0xFFFFFFFF).sum(axis=0).tolist()
    totals = [(h << 32) + lo for h, lo in zip(high, low)]
    return {cls.name: sum(totals[j - 1] for j in cls.orbits) // fr.k
            for cls in GRAPHLET_CLASSES[fr.k]}


def graphlet_class_frequencies(g: StaticGraph, k: int) -> dict[str, int]:
    """Occurrence count of each connected k-node class, canonical order.

    The closed-form orbit census's column sums, divided by k, without
    enumerating a set.
    """
    # perfbench's tracer wraps compute_orbit_frequencies, so this calls
    # _orbit_counts directly: a nested call would be counted twice
    return class_counts(OrbitFrequencyMatrix(k, _orbit_counts(g, k)))


@dataclass(frozen=True)
class GraphletDegreeDistribution:
    """Distribution, per orbit, of how many subgraph appearances nodes have.

    ``raw[j-1][d]`` counts nodes appearing in orbit j exactly d times
    (including d=0, so each raw distribution sums to n).
    ``normalized[j-1]`` covers d >= 1 and sums to 1 for touched orbits;
    an orbit no node occupies gets an empty mapping.
    """

    k: int
    raw: tuple[dict[int, int], ...]
    normalized: tuple[dict[int, float], ...]


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
    for col in range(fr.m):
        values, counts = np.unique(fr.counts[:, col], return_counts=True)
        dist = {int(v): int(c) for v, c in zip(values, counts)}
        raw.append(dist)
        positive = {d: c for d, c in dist.items() if d >= 1}  # empty for an untouched orbit
        if scaling == "inverse_k":
            scaled = {d: c / d for d, c in positive.items()}
        else:
            scaled = {d: float(c) for d, c in positive.items()}
        total = sum(scaled.values())
        normalized.append({d: s / total for d, s in scaled.items()})
    return GraphletDegreeDistribution(k=fr.k, raw=tuple(raw), normalized=tuple(normalized))
