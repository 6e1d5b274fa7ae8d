"""Temporal edge lists, snapshot series and global graph metrics.

The input format is a plain-text edge list with one timestamped event per
line (``u v t``). A temporal network is turned into an ordered sequence of
static snapshots by binning events into fixed-width, half-open time
intervals. Two snapshot semantics are supported: ``active`` (an edge is
present only in intervals where one of its events falls) and ``aggregate``
(an edge stays present in every later snapshot once it has appeared).

The layer works on integer arrays from end to end:

- ``parse_edge_list`` reads its input in blocks of ``_BLOCK_BYTES`` cut
  at line breaks and tokenizes each block with numpy, so its memory
  beyond the final ``(N, 3)`` int64 event array is bounded by the block
  size, not by the size of the text;
- that array is sorted by time, so ``build_snapshots`` cuts it into one
  slice per snapshot and sorts only each slice's undirected edge keys
  ``min(u,v)*n + max(u,v)``, with no loop over events;
- a ``StaticGraph`` is a set of sorted CSR arrays and nothing else;
- ``characteristic_path_length`` is a bit-parallel breadth-first search
  over those arrays; ``clustering_coefficient`` reads the 3-node census.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

PolicyMode = Literal["active", "aggregate"]

POLICY_MODES = ("active", "aggregate")

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _firsts(ranked: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal values (or rows) in ``ranked``."""
    fresh = np.ones(len(ranked), dtype=bool)
    differ = ranked[1:] != ranked[:-1]
    fresh[1:] = differ if differ.ndim == 1 else differ.any(axis=1)
    return fresh


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an int array.

    Same result as ``np.unique(values)``, which on recent numpy imports
    ``numpy.ma`` on its first call: about 30 ms and 1.5 MB more per process.
    """
    ranked = np.sort(values)
    return ranked[_firsts(ranked)]


def _group(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows, ascending; index of each row among them) of a 2-D int64 array."""
    order = np.argsort(rows[:, 0]) if rows.shape[1] == 1 else np.lexsort(rows.T[::-1])
    ranked = rows[order]
    fresh = _firsts(ranked)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(fresh, dtype=np.int64) - 1
    return ranked[fresh], inverse


class StaticGraph:
    """Immutable undirected simple graph on dense node ids ``0..n-1``.

    Self-loops are rejected at construction and duplicate edges collapse.
    The graph is held as CSR arrays built with numpy:
    ``indices[indptr[v]:indptr[v+1]]`` are the neighbours of v in
    ascending order, and ``keys`` holds ``u*n + v`` for every ordered
    adjacent pair in the same order, so it is sorted and an adjacency test
    is a ``searchsorted`` lookup in it. These arrays are the whole graph.
    """

    __slots__ = ("n", "edge_count", "indptr", "indices", "keys")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray):
        if n < 0:
            raise ValueError("node count must be non-negative")
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        elif pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        u, v = pairs[:, 0], pairs[:, 1]
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
        if bad.any():
            a, b = pairs[int(np.argmax(bad))].tolist()
            if a == b:
                raise ValueError(f"self-loop ({a},{a}) not allowed")
            raise ValueError(f"edge ({a},{b}) outside node range 0..{n - 1}")
        self.n = n
        # a row's keys lie in [u*n, u*n + n), so sorting them sorts each row
        self.keys = _distinct(np.concatenate((u * n + v, v * n + u)))
        rows = self.keys // max(n, 1)
        self.indices = self.keys - rows * n
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.edge_count = len(self.keys) // 2
        for array in (self.indptr, self.indices, self.keys):
            array.setflags(write=False)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self.indices[self.indptr[v] : self.indptr[v + 1]].tolist())

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

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
        return self.n == other.n and np.array_equal(self.keys, other.keys)

    def __repr__(self) -> str:
        return f"StaticGraph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True, eq=False)
class TemporalEdgeList:
    """Timestamped undirected edge events, sorted by time.

    ``events`` is a read-only ``(N, 3)`` int64 array of rows ``(u, v, t)``.
    ``labels[i]`` is the original token of node id ``i``; ids are assigned
    by first appearance in time-sorted order, which makes the text round
    trip exact. Duplicate events are preserved; self-loop events are
    dropped at parse time and only counted.
    """

    labels: tuple[str, ...]
    events: np.ndarray
    dropped_self_loops: int = 0

    def __post_init__(self) -> None:
        # build_snapshots slices the events by time, trusting this order
        events = self.events
        if getattr(events, "dtype", None) != np.int64 or np.shape(events)[1:] != (3,):
            raise ValueError("events must be an (N, 3) int64 array")
        if np.any(events[1:, 2] < events[:-1, 2]):
            raise ValueError("events must be sorted by time")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def origin(self) -> int:
        """Earliest event timestamp."""
        if not len(self.events):
            raise ValueError("edge list has no events")
        return int(self.events[0, 2])

    def to_text(self, sep: str = "ws") -> str:
        joiner = " " if sep == "ws" else ","
        lines = [
            joiner.join((self.labels[u], self.labels[v], str(t)))
            for u, v, t in self.events.tolist()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalEdgeList):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.dropped_self_loops == other.dropped_self_loops
            and np.array_equal(self.events, other.events)
        )


# ---------------------------------------------------------------------------
# parsing

# Bytes of input tokenized at a time. A block is cut after its last line
# break, so it holds whole lines, and the block, not the input, sets the
# size of the tokenizer's temporaries.
_BLOCK_BYTES = 1 << 18

# Bytes the vectorized tokenizer handles: printable ASCII, tab, CR, LF. A
# block holding any other byte (a non-ASCII label, a control character that
# str.splitlines() treats as a line break) is parsed line by line.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n\r"


def _byte_chunks(source: Iterable[str] | str | bytes) -> Iterator[bytes]:
    """The source's text as UTF-8 byte chunks of any size."""
    if isinstance(source, str):
        yield source.encode("utf-8", "surrogatepass")
    elif isinstance(source, (bytes, bytearray)):
        yield bytes(source)
    elif hasattr(source, "read"):
        while chunk := source.read(_BLOCK_BYTES):
            yield chunk.encode("utf-8", "surrogatepass") if isinstance(chunk, str) else chunk
    else:  # an iterable of lines, joined first
        text = "".join(line if line.endswith("\n") else line + "\n" for line in source)
        yield text.encode("utf-8", "surrogatepass")


def _line_blocks(chunks: Iterator[bytes]) -> Iterator[bytes]:
    """Blocks of at most about ``_BLOCK_BYTES``, each ending at a line break.

    A block grows past the bound only to finish a line longer than it; the
    last block may end without a line break.
    """
    carry = b""
    for chunk in chunks:
        for lo in range(0, len(chunk), _BLOCK_BYTES):
            data = carry + chunk[lo : lo + _BLOCK_BYTES]
            cut = data.rfind(b"\n") + 1
            if cut:
                yield data[:cut]
            carry = data[cut:]
    if carry:
        yield carry


def _strip(ws: np.ndarray, start: np.ndarray, end: np.ndarray) -> None:
    """Move each ``[start, end)`` span inward past whitespace, in place."""
    live = np.flatnonzero(start < end)
    while live.size:
        live = live[start[live] < end[live]]
        live = live[ws[start[live]]]
        start[live] += 1
    live = np.flatnonzero(start < end)
    while live.size:
        live = live[start[live] < end[live]]
        live = live[ws[end[live] - 1]]
        end[live] -= 1


def _fields(buf: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, end, line) of the fields of a block's non-blank lines.

    Whitespace mode splits on runs of blanks; comma mode splits on commas
    and strips each field, which may be empty. ``line`` is the 0-based
    line within the block.
    """
    newline = buf == 0x0A
    ws = (buf == 0x20) | (buf == 0x09) | (buf == 0x0D)
    if sep == "ws":
        gap = np.concatenate(([True], ws | newline, [True]))
        opens, closes = gap[:-1] & ~gap[1:], ~gap[:-1] & gap[1:]
        start, end = np.flatnonzero(opens), np.flatnonzero(closes)
        # line breaks and field starts in position order: a field's line is
        # the number of breaks before it
        marks = np.flatnonzero(newline | opens[:-1])
        is_break = newline[marks]
        return start, end, np.cumsum(is_break)[~is_break]
    cuts = np.flatnonzero(newline | (buf == 0x2C))
    start = np.concatenate(([0], cuts + 1))
    end = np.concatenate((cuts, [len(buf)]))
    line = np.concatenate(([0], np.cumsum(newline[cuts])))
    _strip(ws, start, end)
    # a line without a comma whose one field is empty is blank
    alone = np.ones(len(line), dtype=bool)
    alone[1:] &= line[1:] != line[:-1]
    alone[:-1] &= line[:-1] != line[1:]
    keep = ~(alone & (start == end))
    return start[keep], end[keep], line[keep]


def _ascii_ints(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """Values of ``[+-]digits`` fields of at most 18 digits; None if any is not one."""
    if not len(start):
        return np.zeros(0, dtype=np.int64)
    if np.any(end <= start):
        return None
    first = buf[start]
    digits_at = start + ((first == 0x2B) | (first == 0x2D))
    length = end - digits_at
    if length.min() < 1 or length.max() > 18:  # 18 digits always fit int64
        return None
    value = np.zeros(len(start), dtype=np.int64)
    for j in range(int(length.max())):
        live = j < length
        digit = buf[np.where(live, digits_at + j, 0)].astype(np.int64) - 0x30
        if np.any(live & ((digit < 0) | (digit > 9))):
            return None
        value = np.where(live, value * 10 + digit, value)
    return np.where(first == 0x2D, -value, value)


def _labels(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """(index of each field's text in the list, the distinct field texts).

    Each field's bytes are packed big-endian into as many int64 words as
    the longest field needs, zero-padded: field bytes are ASCII and never
    zero, so words are non-negative, equal rows mean equal texts, and a
    row's bytes give its text back.
    """
    length = end - start
    longest = int(length.max()) if len(length) else 0
    packed = np.zeros((len(start), max(1, -(-longest // 8))), dtype=np.int64)
    for j in range(longest):
        live = j < length
        byte = buf[np.where(live, start + j, 0)].astype(np.int64) * live
        packed[:, j // 8] |= byte << (56 - 8 * (j % 8))
    distinct, group = _group(packed)
    raw, width = distinct.astype(">i8").tobytes(), 8 * distinct.shape[1]
    names = [raw[i : i + width].rstrip(b"\0").decode("ascii") for i in range(0, len(raw), width)]
    return group, names


class _EventReader:
    """Accumulates the events of successive line blocks.

    Node labels get provisional ids as the blocks bring them in;
    ``finish`` sorts the events by time and renumbers the nodes by first
    appearance in that order.
    """

    def __init__(self, sep: str):
        self.sep = sep
        self.ids: dict[str, int] = {}
        self.u: list[np.ndarray] = []
        self.v: list[np.ndarray] = []
        self.t: list[np.ndarray] = []
        self.lines = 0
        self.data_lines = 0
        self.dropped = 0

    def _intern(self, names: Iterable[str]) -> np.ndarray:
        ids = self.ids
        return np.array([ids.setdefault(name, len(ids)) for name in names], dtype=np.int64)

    def _add(self, u: np.ndarray, v: np.ndarray, t: np.ndarray) -> None:
        self.data_lines += len(t)
        loop = u == v
        self.dropped += int(np.count_nonzero(loop))
        keep = ~loop
        self.u.append(u[keep].astype(np.int32))
        self.v.append(v[keep].astype(np.int32))
        self.t.append(t[keep])

    def add_block(self, block: bytes) -> None:
        returns = block.count(b"\r")
        plain = not block.translate(None, _PLAIN)
        plain = plain and (not returns or returns == block.count(b"\r\n"))
        if plain and self._add_plain(block):
            self.lines += block.count(b"\n") + (not block.endswith(b"\n"))
        else:
            self._add_lines(block)

    def _add_plain(self, block: bytes) -> bool:
        """Tokenize a block with numpy; False (adding nothing) if any line is off."""
        buf = np.frombuffer(block, dtype=np.uint8)
        start, end, line = _fields(buf, self.sep)
        if b"#" in block:  # a comment line starts with one
            first = np.concatenate(([True], line[1:] != line[:-1]))
            comment = first & (end > start) & (buf[np.minimum(start, len(buf) - 1)] == 0x23)
            keep = ~np.isin(line, line[comment])
            start, end, line = start[keep], end[keep], line[keep]
        # every remaining line holds exactly three fields
        if len(line) % 3:
            return False
        head = line[0::3]
        if not (np.array_equal(head, line[1::3]) and np.array_equal(head, line[2::3])
                and np.all(head[1:] > head[:-1])):
            return False
        t = _ascii_ints(buf, start[2::3], end[2::3])
        if t is None:
            return False
        group, names = _labels(
            buf, np.concatenate((start[0::3], start[1::3])), np.concatenate((end[0::3], end[1::3]))
        )
        ids = self._intern(names)[group]
        self._add(ids[: len(t)], ids[len(t) :], t)
        return True

    def _add_lines(self, block: bytes) -> None:
        """Parse a block line by line, raising on the first malformed line."""
        try:
            lines = block.decode("utf-8", "surrogatepass").splitlines()
        except UnicodeDecodeError as e:
            # the text before the bad byte, plus a stand-in for it, ends
            # on the bad byte's line
            head = block[: e.start].decode("utf-8", "surrogatepass") + "?"
            raise EdgeListParseError(
                "input is not valid UTF-8", self.lines + len(head.splitlines())
            ) from None
        names: list[str] = []
        times: list[int] = []
        for line_no, line in enumerate(lines, start=self.lines + 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if self.sep == "ws":
                fields = stripped.split()
            else:
                fields = [f.strip() for f in stripped.split(",")]
            if len(fields) != 3:
                raise EdgeListParseError(f"expected 3 fields, got {len(fields)}", line_no)
            # int() would also take underscores and non-ASCII digits
            digits = fields[2][1:] if fields[2][:1] in ("+", "-") else fields[2]
            if not (digits.isascii() and digits.isdigit()):
                raise EdgeListParseError(f"timestamp {fields[2]!r} is not an integer", line_no)
            t = int(fields[2])
            if not _INT64_MIN <= t <= _INT64_MAX:
                raise EdgeListParseError(
                    f"timestamp {fields[2]!r} does not fit in a signed 64-bit integer", line_no
                )
            names += fields[:2]
            times.append(t)
        ids = self._intern(names)
        self._add(ids[0::2], ids[1::2], np.array(times, dtype=np.int64))
        self.lines += len(lines)

    def finish(self) -> TemporalEdgeList:
        if not self.data_lines:
            raise EdgeListParseError("no edge events in input", max(self.lines, 1))
        events = np.empty((self.data_lines - self.dropped, 3), dtype=np.int64)
        # each list is released once joined, to keep the peak low
        events[:, 2] = np.concatenate(self.t)
        self.t.clear()
        u = np.concatenate(self.u)
        self.u.clear()
        v = np.concatenate(self.v)
        self.v.clear()
        t = events[:, 2]
        if np.any(t[1:] < t[:-1]):
            order = np.argsort(t, kind="stable")  # ties keep input order
            t[:] = t[order]
            u, v = u[order], v[order]
            del order
        appearance = _first_appearance(u, v, len(self.ids))
        renumber = np.zeros(len(self.ids), dtype=np.int64)
        renumber[appearance] = np.arange(len(appearance))
        events[:, 0] = renumber[u]
        events[:, 1] = renumber[v]
        events.setflags(write=False)
        names = list(self.ids)
        labels = tuple(names[i] for i in appearance.tolist())
        return TemporalEdgeList(labels=labels, events=events, dropped_self_loops=self.dropped)


def _first_appearance(u: np.ndarray, v: np.ndarray, ids: int) -> np.ndarray:
    """Ids in order of first appearance in ``u[0], v[0], u[1], v[1], ...``."""
    seen = np.zeros(ids, dtype=bool)
    found = [np.zeros(0, dtype=np.int64)]
    # passes double up to 1 << 16 rows (bounding the temporaries) and stop when all ids are found
    lo, step = 0, 1 << 10
    while lo < len(u) and sum(map(len, found)) < ids:
        run = np.column_stack((u[lo : lo + step], v[lo : lo + step])).reshape(-1)
        run = run[~seen[run]]
        present, first = np.unique(run, return_index=True)
        found.append(present[np.argsort(first)].astype(np.int64))
        seen[present] = True
        lo, step = lo + step, min(2 * step, 1 << 16)
    return np.concatenate(found)


def parse_edge_list(source: Iterable[str] | str | bytes, sep: str = "ws") -> TemporalEdgeList:
    """Parse a timestamped edge list.

    ``source`` is the text itself (``str`` or UTF-8 ``bytes``), a file
    object opened in text or binary mode (read in blocks), or an iterable
    of lines (joined first). Lines
    hold ``u v t`` (whitespace- or comma-separated); ``#`` starts a
    comment line; ``t`` must be an integer that fits in a signed 64-bit
    integer. Lines end where ``str.splitlines`` ends them. Raises
    :class:`EdgeListParseError` on malformed lines and on input with no
    data lines at all.

    The input is read and tokenized in blocks of ``_BLOCK_BYTES``; a
    block with any byte other than printable ASCII, tab, CR or LF, or with
    a malformed line, is parsed line by line instead, which gives the same
    result or the same located error.
    """
    if sep not in ("ws", "comma"):
        raise ValueError(f"unknown separator {sep!r}")
    reader = _EventReader(sep)
    for block in _line_blocks(_byte_chunks(source)):
        reader.add_block(block)
    return reader.finish()


# ---------------------------------------------------------------------------
# snapshots


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
    events_discarded: int = 0

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, i: int) -> StaticGraph:
        return self.snapshots[i]


def _edge_keys(events: np.ndarray, n: int) -> np.ndarray:
    """Key ``min(u,v)*n + max(u,v)`` of each event's node pair."""
    u, v = events[:, 0], events[:, 1]
    return np.minimum(u, v) * n + np.maximum(u, v)


def _key_graph(n: int, keys: np.ndarray) -> StaticGraph:
    return StaticGraph(n, np.column_stack((keys // n, keys % n)))


def build_snapshots(edges: TemporalEdgeList, policy: SnapshotPolicy) -> SnapshotSeries:
    """Materialize the snapshot series of a temporal edge list.

    Active mode: edge (u,v) is in snapshot i iff some event (u,v,t) has
    ``origin + width*i <= t < origin + width*(i+1)``. Aggregate mode: the
    edge is present from the first such snapshot onward (events before the
    origin count from snapshot 0). Events at or past the end of the last
    interval are discarded and counted.

    Snapshot i's events are the slice ``[cuts[i], cuts[i+1])`` of the
    time-sorted events. The bounds are exact Python integers, and those
    outside the int64 range are counted rather than compared with ``t``.
    """
    origin = policy.origin if policy.origin is not None else edges.origin
    count, n, t = policy.count, edges.n, edges.events[:, 2]
    bounds = [int(origin) + int(policy.width) * i for i in range(count + 1)]
    below = sum(b < _INT64_MIN for b in bounds)
    inside = np.array([b for b in bounds if _INT64_MIN <= b <= _INT64_MAX], dtype=np.int64)
    cuts = [0] * below + np.searchsorted(t, inside).tolist()
    cuts += [len(t)] * (count + 1 - len(cuts))
    if policy.mode == "aggregate":
        cuts[0] = 0
    held, graphs = np.zeros(0, dtype=np.int64), []
    for a, b in zip(cuts, cuts[1:]):
        keys = _edge_keys(edges.events[a:b], n)
        if policy.mode == "active":
            held = _distinct(keys)
        else:  # the previous snapshot's edges carry forward
            held = _distinct(np.concatenate((held, keys)))
        graphs.append(_key_graph(n, held))
    discarded = len(t) - (cuts[-1] - cuts[0])
    return SnapshotSeries(snapshots=tuple(graphs), events_discarded=discarded)


def final_aggregate_graph(edges: TemporalEdgeList) -> StaticGraph:
    """Static graph of every node pair that ever shared an event."""
    return _key_graph(edges.n, _distinct(_edge_keys(edges.events, edges.n)))


# ---------------------------------------------------------------------------
# metrics


def present_nodes(g: StaticGraph) -> int:
    """Number of non-isolated nodes (the observable size of a snapshot)."""
    return int(np.count_nonzero(np.diff(g.indptr)))
def average_degree(g: StaticGraph) -> float:
    """Mean degree over non-isolated nodes; 0.0 for an edgeless graph."""
    if g.n == 0:
        raise ValueError("graph has no nodes")
    present = present_nodes(g)
    if present == 0:
        return 0.0
    return 2.0 * g.edge_count / present


def clustering_coefficient(g: StaticGraph, method: str = "average") -> float:
    """Clustering coefficient of ``g``.

    ``average`` (default) is the mean local coefficient over nodes with
    degree >= 2; ``global`` is the transitivity ratio
    3*triangles / wedges. Both return 0.0 when undefined.

    Both are read off the 3-node orbit census: the triangles at v are
    v's orbit-3 count (triangle), and its C(deg v, 2) neighbour pairs are
    orbit 2 (chain centre) plus orbit 3, as every pair of v's neighbours
    either is or is not adjacent.
    """
    # census imports this module, so it is imported here, at call time
    from .census import compute_orbit_frequencies

    if g.n == 0:
        raise ValueError("graph has no nodes")
    if method not in ("average", "global"):
        raise ValueError(f"unknown method {method!r}")
    counts = compute_orbit_frequencies(g, 3).counts
    triangles = counts[:, 2].tolist()
    pairs = (counts[:, 1] + counts[:, 2]).tolist()
    if method == "global":
        return sum(triangles) / sum(pairs) if any(pairs) else 0.0
    # a running float total in node order; builtin sum() of floats is
    # compensated from Python 3.12 on and would change the last bits
    total = 0.0
    eligible = 0
    for t, p in zip(triangles, pairs):
        if p:
            eligible += 1
            total += t / p
    return total / eligible if eligible else 0.0


# Sources one pass of the bit-parallel search carries, one bit each in the
# uint64 words of a node's reach row; bounds its (n, words) arrays and the
# (2m, words) rows it gathers along edges.
_CPL_SOURCES = 256

_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def characteristic_path_length(g: StaticGraph) -> float:
    """Mean shortest-path length over ordered reachable pairs (u != v).

    Unreachable pairs are excluded, so disconnected graphs still get a
    finite value. Raises on a graph with no edges.

    Computed by bit-parallel breadth-first search (Akiba, Iwata & Yoshida,
    SIGMOD 2013): the non-isolated sources are taken ``_CPL_SOURCES`` at a
    time, each node holds a packed-uint64 row with one bit per source, and
    one sweep per distance level ORs the frontier rows of each node's CSR
    neighbours. The bits new at level d are the pairs at distance d; the
    distance total and pair count are exact integers, so the result is
    the exact ratio, rounded once.
    """
    if g.n == 0:
        raise ValueError("graph has no nodes")
    if g.edge_count == 0:
        raise ValueError("graph has no edges")
    rows = np.flatnonzero(np.diff(g.indptr))
    starts = g.indptr[rows]
    total = pairs = 0
    for lo in range(0, len(rows), _CPL_SOURCES):
        sources = rows[lo : lo + _CPL_SOURCES]
        bit = np.arange(len(sources))
        frontier = np.zeros((g.n, (len(sources) + 63) // 64), dtype=np.uint64)
        frontier[sources, bit // 64] = np.uint64(1) << (bit % 64).astype(np.uint64)
        seen = frontier[rows]
        distance = 0
        while True:
            distance += 1
            reached = np.bitwise_or.reduceat(frontier[g.indices], starts, axis=0)
            reached &= ~seen
            found = int(_POPCOUNT[reached.view(np.uint8)].sum())
            if not found:
                break
            total += distance * found
            pairs += found
            seen |= reached
            frontier[rows] = reached
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
