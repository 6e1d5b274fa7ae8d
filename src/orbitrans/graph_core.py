"""Temporal edge lists, snapshot series and global graph metrics.

The input format is a plain-text edge list with one timestamped event per
line (``u v t``). A temporal network is turned into an ordered sequence of
static snapshots by binning events into fixed-width, half-open time
intervals. Two snapshot semantics are supported: ``active`` (an edge is
present only in intervals where one of its events falls) and ``aggregate``
(an edge stays present in every later snapshot once it has appeared).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Literal

import numpy as np

PolicyMode = Literal["active", "aggregate"]

POLICY_MODES = ("active", "aggregate")


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StaticGraph:
    """Immutable undirected simple graph on dense node ids ``0..n-1``.

    Self-loops and duplicate edges are rejected at construction. Adjacency
    is exposed as per-node frozensets (``adj``, for O(1) membership) and
    as CSR arrays built once with numpy: ``indices[indptr[v]:indptr[v+1]]``
    are the neighbours of v in ascending order, and ``keys`` holds
    ``u*n + v`` for every ordered adjacent pair in the same order, so it is
    sorted and an adjacency test is a ``searchsorted`` lookup in it.
    """

    __slots__ = ("n", "adj", "edge_count", "indptr", "indices", "keys")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("node count must be non-negative")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{u}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside node range 0..{n - 1}")
            if v not in neighbor_sets[u]:
                neighbor_sets[u].add(v)
                neighbor_sets[v].add(u)
                m += 1
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in neighbor_sets)
        self.edge_count = m
        degrees = np.fromiter(map(len, neighbor_sets), dtype=np.int64, count=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.indptr[1:])
        row_base = np.repeat(np.arange(n, dtype=np.int64) * n, degrees)
        targets = np.fromiter(chain.from_iterable(neighbor_sets), dtype=np.int64, count=2 * m)
        # a row's keys lie in [u*n, u*n + n), so sorting them sorts each row
        self.keys = np.sort(row_base + targets)
        self.indices = self.keys - row_base
        for array in (self.indptr, self.indices, self.keys):
            array.setflags(write=False)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.indices[self.indptr[v] : self.indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return map(tuple, self.edge_array().tolist())

    def edge_array(self) -> np.ndarray:
        """All edges as rows (u, v) of an (m, 2) array, u < v, in lexicographic order."""
        u = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = u < self.indices
        return np.column_stack((u[upper], self.indices[upper]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaticGraph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"StaticGraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class TemporalEdgeList:
    """Timestamped undirected edge events, sorted by time.

    ``labels[i]`` is the original token of node id ``i``; ids are assigned
    by first appearance in time-sorted order, which makes the text round
    trip exact. Duplicate events are preserved; self-loop events are
    dropped at parse time and only counted.
    """

    labels: tuple[str, ...]
    events: tuple[tuple[int, int, int], ...]
    dropped_self_loops: int = 0

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def origin(self) -> int:
        """Earliest event timestamp."""
        if not self.events:
            raise ValueError("edge list has no events")
        return self.events[0][2]

    def label_to_id(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def to_text(self, sep: str = "ws") -> str:
        joiner = " " if sep == "ws" else ","
        lines = [
            joiner.join((self.labels[u], self.labels[v], str(t)))
            for u, v, t in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def parse_edge_list(source: Iterable[str] | str, sep: str = "ws") -> TemporalEdgeList:
    """Parse a timestamped edge list.

    Lines hold ``u v t`` (whitespace- or comma-separated); ``#`` starts a
    comment line; ``t`` must be an integer. Raises
    :class:`EdgeListParseError` on malformed lines and on input with no
    data lines at all.
    """
    if sep not in ("ws", "comma"):
        raise ValueError(f"unknown separator {sep!r}")
    lines = source.splitlines() if isinstance(source, str) else source
    raw_events: list[tuple[str, str, int]] = []
    dropped = 0
    saw_data = False
    line_no = 0
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = stripped.split() if sep == "ws" else [f.strip() for f in stripped.split(",")]
        if len(fields) != 3:
            raise EdgeListParseError(
                f"expected 3 fields, got {len(fields)}", line_no
            )
        try:
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
    return TemporalEdgeList(labels=labels, events=tuple(events), dropped_self_loops=dropped)


@dataclass(frozen=True)
class SnapshotPolicy:
    """How to bin events into snapshots.

    Snapshot ``i`` covers the half-open interval
    ``[origin + width*i, origin + width*(i+1))``. ``origin`` defaults to
    the earliest event timestamp when left as None.
    """

    mode: PolicyMode
    width: int
    count: int
    origin: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise ValueError(f"mode must be one of {POLICY_MODES}, got {self.mode!r}")
        if self.width <= 0:
            raise ValueError("snapshot width must be positive")
        if self.count < 2:
            raise ValueError("need at least 2 snapshots for transitions")


@dataclass(frozen=True)
class SnapshotSeries:
    """Ordered static snapshots over one shared node universe.

    Every snapshot has the same node count; a node absent from a snapshot
    simply has no incident edges there. ``events_discarded`` counts events
    that fell outside every snapshot interval.
    """

    snapshots: tuple[StaticGraph, ...]
    policy: SnapshotPolicy
    labels: tuple[str, ...]
    events_discarded: int = 0

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, i: int) -> StaticGraph:
        return self.snapshots[i]


def build_snapshots(edges: TemporalEdgeList, policy: SnapshotPolicy) -> SnapshotSeries:
    """Materialize the snapshot series of a temporal edge list.

    Active mode: edge (u,v) is in snapshot i iff some event (u,v,t) has
    ``origin + width*i <= t < origin + width*(i+1)``. Aggregate mode: the
    edge is present from the first such snapshot onward (events before the
    origin count from snapshot 0). Events at or past the end of the last
    interval are discarded and counted.
    """
    origin = policy.origin if policy.origin is not None else edges.origin
    width, count = policy.width, policy.count
    end = origin + width * count
    n = edges.n
    discarded = 0

    if policy.mode == "active":
        buckets: list[set[tuple[int, int]]] = [set() for _ in range(count)]
        for u, v, t in edges.events:
            if t < origin or t >= end:
                discarded += 1
                continue
            key = (u, v) if u < v else (v, u)
            buckets[(t - origin) // width].add(key)
        graphs = tuple(StaticGraph(n, b) for b in buckets)
    else:
        first_bucket: dict[tuple[int, int], int] = {}
        for u, v, t in edges.events:
            if t >= end:
                discarded += 1
                continue
            b = 0 if t < origin else (t - origin) // width
            key = (u, v) if u < v else (v, u)
            if b < first_bucket.get(key, count):
                first_bucket[key] = b
        added: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for key, b in first_bucket.items():
            added[b].append(key)
        current: set[tuple[int, int]] = set()
        snaps = []
        for i in range(count):
            current.update(added[i])
            snaps.append(StaticGraph(n, current))
        graphs = tuple(snaps)

    return SnapshotSeries(
        snapshots=graphs, policy=policy, labels=edges.labels, events_discarded=discarded
    )


def final_aggregate_graph(edges: TemporalEdgeList) -> StaticGraph:
    """Static graph of every node pair that ever shared an event."""
    pairs = {(u, v) if u < v else (v, u) for u, v, _t in edges.events}
    return StaticGraph(edges.n, pairs)


def present_nodes(g: StaticGraph) -> int:
    """Number of non-isolated nodes (the observable size of a snapshot)."""
    return sum(1 for s in g.adj if s)


def average_degree(g: StaticGraph) -> float:
    """Mean degree over non-isolated nodes; 0.0 for an edgeless graph."""
    if g.n == 0:
        raise ValueError("graph has no nodes")
    present = present_nodes(g)
    if present == 0:
        return 0.0
    return 2.0 * g.edge_count / present


def _triangles_at(g: StaticGraph, v: int) -> int:
    nbrs = g.neighbors(v)
    count = 0
    for i, a in enumerate(nbrs):
        adj_a = g.adj[a]
        for b in nbrs[i + 1 :]:
            if b in adj_a:
                count += 1
    return count


def clustering_coefficient(g: StaticGraph, method: str = "average") -> float:
    """Clustering coefficient of ``g``.

    ``average`` (default) is the mean local coefficient over nodes with
    degree >= 2; ``global`` is the transitivity ratio
    3*triangles / wedges. Both return 0.0 when undefined.
    """
    if g.n == 0:
        raise ValueError("graph has no nodes")
    if method == "average":
        total = 0.0
        eligible = 0
        for v in range(g.n):
            d = g.degree(v)
            if d < 2:
                continue
            eligible += 1
            total += _triangles_at(g, v) / (d * (d - 1) / 2)
        return total / eligible if eligible else 0.0
    if method == "global":
        triangles3 = sum(_triangles_at(g, v) for v in range(g.n))  # 3 * #triangles
        wedges = sum(d * (d - 1) // 2 for d in map(g.degree, range(g.n)))
        return triangles3 / wedges if wedges else 0.0
    raise ValueError(f"unknown method {method!r}")


def characteristic_path_length(g: StaticGraph) -> float:
    """Mean shortest-path length over ordered reachable pairs (u != v).

    Unreachable pairs are excluded, so disconnected graphs still get a
    finite value. Raises on a graph with no edges.
    """
    if g.n == 0:
        raise ValueError("graph has no nodes")
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    total = 0
    pairs = 0
    dist = [0] * g.n
    for src in range(g.n):
        if not g.adj[src]:
            continue
        for i in range(g.n):
            dist[i] = -1
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    total += du + 1
                    pairs += 1
                    queue.append(w)
    return total / pairs


def relative_size_series(series: SnapshotSeries) -> list[float]:
    """Non-isolated node count of each snapshot, scaled by the series maximum."""
    counts = [present_nodes(g) for g in series.snapshots]
    peak = max(counts, default=0)
    if peak == 0:
        raise ValueError("every snapshot is empty")
    return [c / peak for c in counts]


def snapshot_stats(series: SnapshotSeries) -> list[dict[str, float]]:
    """Per-snapshot summary rows: nodes, edges, avg_degree, clustering, cpl.

    ``cpl`` is NaN for edgeless snapshots (the metric is undefined there).
    """
    rows = []
    for i, g in enumerate(series.snapshots):
        cpl = characteristic_path_length(g) if g.edge_count else math.nan
        rows.append(
            {
                "snapshot": i,
                "nodes": present_nodes(g),
                "edges": g.edge_count,
                "avg_degree": average_degree(g),
                "clustering": clustering_coefficient(g),
                "cpl": cpl,
            }
        )
    return rows
