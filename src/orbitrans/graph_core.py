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
  size, not by the size of the text. It reads a block eight bytes at a
  time through a big-endian uint64 view, one gather per 8 bytes of the
  longest field: a label of up to 8 bytes is one word, and a block's
  labels are grouped by one sort; timestamps are read eight digits per
  word. So the passes over a block do not grow with its fields' length;
- that array is sorted by time, so ``build_snapshots`` cuts it into one
  slice per snapshot and sorts only each slice's undirected edge keys
  ``min(u,v)*n + max(u,v)``, with no loop over events. It bins those keys
  first, so ``series_from_bins`` rebuilds a stored series without events;
- a ``StaticGraph`` is a set of sorted CSR arrays and nothing else;
- ``characteristic_path_length`` is a bit-parallel breadth-first search
  over those arrays; ``clustering_coefficient`` reads the 3-node census.
"""

from __future__ import annotations

import io
import math
from typing import Iterable, Iterator, Literal, Sequence

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
    """(distinct rows, ascending; index of each row among them) of a 2-D int64 array.

    One column of non-negative values with room for the row positions below them is grouped
    by one sort of ``value << b | position``, other rows by ``lexsort``."""
    count = len(rows)
    bits = max(count - 1, 0).bit_length()
    if rows.shape[1] == 1 and count and rows.min() >= 0 and rows.max() >> (63 - bits) == 0:
        packed = np.sort(rows[:, 0] << bits | np.arange(count))
        order, ranked = packed & ((1 << bits) - 1), (packed >> bits)[:, None]
    else:
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
    heads = np.flatnonzero(_firsts(ranked))
    inverse = np.empty(count, dtype=np.int64)
    # a cumsum of the bool mask would cast it to int64 first: slower than repeat
    inverse[order] = np.repeat(np.arange(len(heads)), np.diff(heads, append=count))
    return ranked[heads], inverse


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
        # a row's keys lie in [u*n, u*n + n), so sorting them sorts each row
        self._hold(n, _distinct(np.concatenate((u * n + v, v * n + u))))

    @classmethod
    def from_keys(cls, n: int, keys: np.ndarray) -> StaticGraph:
        """The graph of ``keys``, unchecked: ``u*n + v`` and ``v*n + u`` of each edge, sorted."""
        g = cls.__new__(cls)
        g._hold(n, keys)
        return g

    def _hold(self, n: int, keys: np.ndarray) -> None:
        self.n, self.keys = n, keys
        rows = self.keys // max(n, 1)
        self.indices = self.keys - rows * n
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.edge_count = len(self.keys) // 2
        for array in (self.indptr, self.indices, self.keys):
            array.setflags(write=False)

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


class TemporalEdgeList:
    """Timestamped undirected edge events, sorted by time.

    ``events`` is a read-only ``(N, 3)`` int64 array of rows ``(u, v, t)``.
    ``labels[i]`` is the original token of node id ``i``; ids are assigned
    by first appearance in time-sorted order, which makes the text round
    trip exact. Duplicate events are preserved; self-loop events are
    dropped at parse time and only counted.
    """

    __slots__ = ("labels", "events", "dropped_self_loops")

    def __init__(self, labels: tuple[str, ...], events: np.ndarray, dropped_self_loops: int = 0):
        self.labels, self.events, self.dropped_self_loops = labels, events, dropped_self_loops
        # build_snapshots slices the events by time, trusting this order
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
            read = self.dropped_self_loops  # every event read was a self-loop
            raise ValueError(f"edge list has no events: {read} events read, {read} self-loops dropped")
        return int(self.events[0, 2])

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

# Bytes of input tokenized at a time. A block is cut after its last line break, so it holds
# whole lines, and the block, not the input, sets the size of the tokenizer's temporaries.
# A text-mode file is read in characters, so its blocks can reach 4x the bound in bytes.
_BLOCK_BYTES = 1 << 18

# Bytes the vectorized tokenizer handles: printable ASCII, tab, LF, and CR
# before LF. A block holding any other byte (a non-ASCII label, a control
# character that str.splitlines() treats as a line break, a lone CR) is
# parsed line by line; only a block with a CR counts its CRLFs.
_PLAIN = bytes(range(0x20, 0x7F)) + b"\t\n"


def _line_blocks(source: Iterable[str] | str | bytes) -> Iterator[bytes]:
    """The source's UTF-8 text in blocks of about ``_BLOCK_BYTES`` that end at line breaks.

    A block grows past the bound only to finish a line longer than it; the
    last block may end without a line break.
    """
    if not hasattr(source, "read"):
        if not isinstance(source, (str, bytes, bytearray)):  # an iterable of lines
            source = "".join(line if line.endswith("\n") else line + "\n" for line in source)
        if isinstance(source, str):  # encoded whole: a StringIO would hold 4 bytes a character
            source = source.encode("utf-8", "surrogatepass")
        source = io.BytesIO(source)
    carry = b""
    while chunk := source.read(_BLOCK_BYTES):
        data = carry + (chunk.encode("utf-8", "surrogatepass") if isinstance(chunk, str) else chunk)
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        carry = data[cut:]
    if carry:
        yield carry


# Big-endian word constants (SWAR, "SIMD within a register"): the mask of a word's last r
# bytes, '0' in every byte, the digit check's bytes, and per fold the (multiplier, shift,
# mask) that joins adjacent 1-, 2- and 4-byte lanes of digits into their value.
_LAST = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_ZEROS = np.uint64(0x3030303030303030)
_TENS = np.uint64(0x7676767676767676)  # 0x76 + a byte above 9 sets its high bit
_HIGH_BITS = np.uint64(0x8080808080808080)
_FOLDS = tuple(
    (np.uint64(10**lane + (1 << 8 * lane)), np.uint64(8 * lane), np.uint64(mask))
    for lane, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF))
)


def _words(block: bytes) -> np.ndarray:
    """Read-only big-endian uint64 view of a block: entry i holds the 8 bytes before byte i,
    zero before the block, so ``words[end] & _LAST[r]`` gathers every field's last r bytes."""
    return np.ndarray(len(block) + 1, ">u8", bytes(8) + block, strides=(1,))


def _word(words: np.ndarray, start: np.ndarray, end: np.ndarray, k: int) -> tuple:
    """(each field's k-th 8 bytes from its end, right-aligned; the mask of those in the field)."""
    inside = _LAST[np.clip(end - start - 8 * k, 0, 8)]
    return words[np.maximum(end - 8 * k, start)] & inside, inside


def _fields(buf: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, end, line break positions) of the fields of a block's non-blank lines.

    In a plain block the bytes up to 0x20 are exactly the blanks and line
    breaks. Whitespace mode takes each run of the other bytes as a field;
    comma mode splits on commas and strips each field, which may be
    empty.
    """
    newline = buf == 0x0A
    breaks = np.flatnonzero(newline)
    if sep == "ws":
        gap = np.concatenate(([True], buf <= 0x20, [True]))
        start, end = np.flatnonzero(gap[1:] != gap[:-1]).reshape(-1, 2).T
        return start, end, breaks
    cuts = np.flatnonzero(newline | (buf == 0x2C))
    start = np.concatenate(([0], cuts + 1))
    end = np.concatenate((cuts, [len(buf)]))
    line = np.concatenate(([0], np.cumsum(newline[cuts])))
    # each span shrinks to its first and last byte above 0x20; commas are
    # such bytes, but lie outside every span
    solid = np.flatnonzero(np.append(buf > 0x20, True))
    lo, hi = np.searchsorted(solid, start), np.searchsorted(solid, end)
    full = lo < hi
    start, end = np.where(full, solid[lo], end), np.where(full, solid[hi - 1] + 1, end)
    # a line without a comma whose one field is empty is blank
    alone = np.ones(len(line), dtype=bool)
    alone[1:] &= line[1:] != line[:-1]
    alone[:-1] &= line[:-1] != line[1:]
    keep = ~(alone & (start == end))
    return start[keep], end[keep], breaks


def _ascii_ints(words: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """Values of ``[+-]digits`` fields of at most 19 digits in int64's range; None if any is not one.

    The digits are read eight to a ``_words`` word, from the last (after Lemire, "Number
    Parsing at a Gigabyte per Second", 2021): '0' is subtracted from each byte, which must
    leave 0 to 9 with no borrow, and three multiply-adds join the bytes into the value.
    """
    if not len(start):
        return np.zeros(0, dtype=np.int64)
    if np.any(end <= start):
        return None
    first = words[start + 1] & np.uint64(0xFF)
    digits_at = start + ((first == 0x2B) | (first == 0x2D))
    length = end - digits_at
    if length.min() < 1 or length.max() > 19:  # 19 digits always fit uint64
        return None
    value = np.zeros(len(start), dtype=np.uint64)
    for k in range(-(-int(length.max()) // 8)):
        word, inside = _word(words, digits_at, end, k)
        word -= _ZEROS & inside
        if np.any((word | (word + _TENS)) & _HIGH_BITS):
            return None
        for multiplier, lane, mask in _FOLDS:
            word = ((word * multiplier) >> lane) & mask
        value += word * np.uint64(10 ** (8 * k))
    if np.any(value > np.uint64(_INT64_MAX) + (first == 0x2D).astype(np.uint64)):  # past int64
        return None
    return np.where(first == 0x2D, -value, value).astype(np.int64)


def _labels(words: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """(index of each field's text in the list, the distinct field texts).

    Column j of a field's row is its j-th 8 bytes from the end, read from
    ``words`` (a ``_words`` view) with one gather per 8 bytes of the longest
    field, so a field of up to 8 bytes is one right-aligned word. Field
    bytes are ASCII and never zero, so the words are non-negative, equal
    rows mean equal texts, and a row's bytes, last column first, less
    their zeros give its text back.
    """
    longest = int((end - start).max(initial=0))
    packed = np.empty((len(start), max(1, -(-longest // 8))), dtype=np.int64)
    for j in range(packed.shape[1]):
        packed[:, j] = _word(words, start, end, j)[0]
    distinct, group = _group(packed)
    raw, width = distinct[:, ::-1].astype(">i8").tobytes(), 8 * distinct.shape[1]
    names = [raw[i : i + width].replace(b"\0", b"").decode() for i in range(0, len(raw), width)]
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
        rest = block.translate(None, _PLAIN)
        plain = not rest or rest.count(b"\r") == len(rest) == block.count(b"\r\n")
        breaks = self._add_plain(block) if plain else None
        if breaks is None:
            self._add_lines(block)
        else:
            self.lines += breaks + (not block.endswith(b"\n"))

    def _add_plain(self, block: bytes) -> int | None:
        """Tokenize a block with numpy: its line breaks, or None (adding nothing) if one is off."""
        buf = np.frombuffer(block, dtype=np.uint8)
        start, end, breaks = _fields(buf, self.sep)
        if b"#" in block:  # a comment line starts with one
            line = np.searchsorted(breaks, start)
            first = np.concatenate(([True], line[1:] != line[:-1]))
            comment = first & (end > start) & (buf[np.minimum(start, len(buf) - 1)] == 0x23)
            keep = ~np.isin(line, line[comment])
            start, end = start[keep], end[keep]
        # every line holds three fields or none
        fields = np.diff(np.searchsorted(start, breaks, "right"), prepend=0, append=len(start))
        if np.any((fields != 0) & (fields != 3)):
            return None
        words = _words(block)
        t = _ascii_ints(words, start[2::3], end[2::3])
        if t is None:
            return None
        ends = np.concatenate((end[0::3], end[1::3]))
        group, names = _labels(words, np.concatenate((start[0::3], start[1::3])), ends)
        ids = self._intern(names)[group]
        self._add(ids[: len(t)], ids[len(t) :], t)
        return len(breaks)

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
    for block in _line_blocks(source):
        reader.add_block(block)
    return reader.finish()


# ---------------------------------------------------------------------------
# snapshots


class SnapshotPolicy:
    """How to bin events into snapshots.

    Snapshot ``i`` covers the half-open interval
    ``[origin + width*i, origin + width*(i+1))``. ``origin`` defaults to
    the earliest event timestamp when left as None.
    """

    __slots__ = ("mode", "width", "count", "origin")

    def __init__(self, mode: PolicyMode, width: int, count: int, origin: int | None = None):
        self.mode, self.width, self.count, self.origin = mode, width, count, origin
        if self.mode not in POLICY_MODES:
            raise ValueError(f"mode must be one of {POLICY_MODES}, got {self.mode!r}")
        if self.width <= 0:
            raise ValueError("snapshot width must be positive")
        if self.count < 2:
            raise ValueError("need at least 2 snapshots for transitions")


class SnapshotSeries:
    """Ordered static snapshots over one shared node universe.

    Every snapshot has the same node count; a node absent from a snapshot
    simply has no incident edges there. ``events_discarded`` counts events
    that fell outside every snapshot interval; ``bins`` are those of ``build_snapshots``.
    """

    __slots__ = ("snapshots", "events_discarded", "bins")

    def __init__(self, snapshots: tuple[StaticGraph, ...], events_discarded: int = 0,
                 bins: tuple[np.ndarray, ...] = ()):
        self.snapshots, self.events_discarded, self.bins = snapshots, events_discarded, bins

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, i: int) -> StaticGraph:
        return self.snapshots[i]

    def final_graph(self) -> StaticGraph:
        """The graph of every key in ``bins``: each node pair that ever shared an event."""
        return _key_graph(self.snapshots[0].n, _distinct(np.concatenate(self.bins)))


def _edge_keys(events: np.ndarray, n: int) -> np.ndarray:
    """Key ``min(u,v)*n + max(u,v)`` of each event's node pair."""
    u, v = events[:, 0], events[:, 1]
    return np.minimum(u, v) * n + np.maximum(u, v)


def _key_graph(n: int, keys: np.ndarray) -> StaticGraph:
    return StaticGraph(n, np.column_stack((keys // n, keys % n)))


def _new(held: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The ``keys`` not in the sorted array ``held``; ``np.isin`` would import ``numpy.ma``."""
    at = np.searchsorted(held, keys)
    return keys[np.append(held, -1)[at] != keys]


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
    The keys are binned first: bin i < count holds snapshot i's distinct
    keys under ``active``, and the keys first seen in snapshot i under
    ``aggregate``; bin ``count`` holds the keys seen only outside the
    window, so the bins together hold every key of the events.
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
    held, bins = np.zeros(0, dtype=np.int64), []
    for a, b in zip(cuts, cuts[1:]):
        keys = _distinct(_edge_keys(edges.events[a:b], n))
        if policy.mode == "aggregate":
            keys = _new(held, keys)
            held = np.sort(np.concatenate((held, keys)), kind="stable")  # merges two sorted runs
        bins.append(keys)
    outside = [_edge_keys(edges.events[a:b], n) for a, b in ((0, cuts[0]), (cuts[-1], len(t)))]
    bins.append(_new(_distinct(np.concatenate(bins)), _distinct(np.concatenate(outside))))
    discarded = len(t) - (cuts[-1] - cuts[0])
    return series_from_bins(n, bins, policy.mode, discarded)


def series_from_bins(n: int, bins: Sequence[Sequence[int]], mode: PolicyMode,
                     events_discarded: int = 0) -> SnapshotSeries:
    """The series of ``build_snapshots``' ``count + 1`` key bins (arrays or lists) under ``mode``,
    built unchecked: a bin must hold ascending keys ``u*n + v`` with u < v < n, as the CLI checks."""
    bins = tuple(np.asarray(keys, dtype=np.int64) for keys in bins)
    held, graphs = np.zeros(0, dtype=np.int64), []
    for keys in bins[:-1]:
        # an aggregate bin holds only the keys new to its snapshot
        held = keys if mode == "active" else np.sort(np.concatenate((held, keys)), kind="stable")
        graphs.append(StaticGraph.from_keys(n, np.sort(np.concatenate((held, held % n * n + held // n)))))
    return SnapshotSeries(tuple(graphs), events_discarded, bins)


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


def clustering_coefficient(g: StaticGraph) -> float:
    """Clustering coefficient of ``g``: the mean local coefficient over
    nodes with degree >= 2, or 0.0 when there are none.

    It is read off the 3-node orbit census: the triangles at v are
    v's orbit-3 count (triangle), and its C(deg v, 2) neighbour pairs are
    orbit 2 (chain centre) plus orbit 3, as every pair of v's neighbours
    either is or is not adjacent.
    """
    # census imports this module, so it is imported here, at call time
    from .census import compute_orbit_frequencies

    if g.n == 0:
        raise ValueError("graph has no nodes")
    counts = compute_orbit_frequencies(g, 3).counts
    triangles = counts[:, 2].tolist()
    pairs = (counts[:, 1] + counts[:, 2]).tolist()
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


STATS_HEADER = ("snapshot", "nodes", "edges", "avg_degree", "clustering", "cpl")


def snapshot_stats(series: SnapshotSeries) -> list[tuple]:
    """Per-snapshot summary rows, one tuple per snapshot in ``STATS_HEADER`` order.

    ``cpl`` is NaN for edgeless snapshots (the metric is undefined there).
    """
    return [
        (i, present_nodes(g), g.edge_count, average_degree(g), clustering_coefficient(g),
         characteristic_path_length(g) if g.edge_count else math.nan)
        for i, g in enumerate(series.snapshots)
    ]
