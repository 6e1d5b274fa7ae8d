import contextlib
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrans import graph_core
from orbitrans.graph_core import (
    POLICY_MODES,
    STATS_HEADER,
    EdgeListParseError,
    SnapshotPolicy,
    StaticGraph,
    TemporalEdgeList,
    average_degree,
    build_snapshots,
    characteristic_path_length,
    clustering_coefficient,
    final_aggregate_graph,
    parse_edge_list,
    series_from_bins,
    snapshot_stats,
)
from oracles import (
    bfs_cpl,
    complete_graph,
    floyd_warshall_cpl,
    gnp_graph,
    loop_parse_edge_list,
    neighbour_sets,
    path_graph,
    random_event_text,
    set_build_snapshots,
    star_graph,
    triple_loop_clustering,
)


class TestStaticGraph:
    def test_duplicate_edges_collapse(self):
        g = StaticGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert g.indices[g.indptr[0] : g.indptr[1]].tolist() == [1]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            StaticGraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StaticGraph(2, [(0, 5)])

    def test_edge_count_is_half_degree_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = gnp_graph(rng, 12, 0.3)
            assert 2 * g.edge_count == g.indptr[-1]

    def test_neighbors_sorted(self):
        g = StaticGraph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.indices[g.indptr[2] : g.indptr[3]].tolist() == [0, 1, 3]

    def test_csr_arrays_match_adjacency(self):
        rng = np.random.default_rng(12)
        for n, p in ((0, 0.0), (1, 0.0), (6, 0.0), (12, 0.3), (15, 0.6)):
            g = gnp_graph(rng, n, p)
            nbrs = neighbour_sets(g)
            assert len(g.indptr) == n + 1 and len(g.indices) == 2 * g.edge_count
            for v in range(n):
                row = g.indices[g.indptr[v] : g.indptr[v + 1]]
                assert row.tolist() == sorted(nbrs[v])
                assert np.array_equal(g.keys[g.indptr[v] : g.indptr[v + 1]], v * n + row)
            assert np.all(np.diff(g.keys) > 0)
            assert g.edge_array().tolist() == [list(e) for e in g.edges()]
            assert len(list(g.edges())) == g.edge_count

    def test_array_edges_match_tuple_edges(self):
        pairs = [(3, 1), (0, 2), (1, 3), (2, 4)]
        g = StaticGraph(5, np.array(pairs))
        assert g == StaticGraph(5, pairs) == StaticGraph(5, iter(pairs))
        assert g.edge_count == 3 and g.indices[g.indptr[1] : g.indptr[2]].tolist() == [3]
        assert 2 in g.indices[g.indptr[4] : g.indptr[5]]
        assert StaticGraph(5, np.zeros((0, 2), dtype=np.int64)).edge_count == 0
        with pytest.raises(ValueError, match="pairs"):
            StaticGraph(5, [(0, 1, 2)])

    def test_equality(self):
        a = StaticGraph(3, [(0, 1), (1, 2)])
        b = StaticGraph(3, [(1, 2), (0, 1)])
        assert a == b
        assert a != StaticGraph(3, [(0, 1)])


class TestParse:
    def test_basic(self):
        tel = parse_edge_list("a b 5\nb c 7")
        assert tel.n == 3
        assert len(tel.events) == 2
        assert tel.origin == 5

    def test_self_loop_dropped_and_counted(self):
        tel = parse_edge_list("a a 5")
        assert tel.events.tolist() == []
        assert tel.dropped_self_loops == 1

    def test_out_of_order_events_sorted(self):
        tel = parse_edge_list("x y 9\nx z 2")
        # ids follow first appearance in time order: x=0, z=1, y=2
        assert tel.labels == ("x", "z", "y")
        assert tel.events.tolist() == [[0, 1, 2], [0, 2, 9]]

    def test_comments_and_blanks_ignored(self):
        tel = parse_edge_list("# header\n\na b 1\n  # trailing comment line\n")
        assert len(tel.events) == 1

    def test_comma_separator(self):
        tel = parse_edge_list("a, b, 3\nb,c,4", sep="comma")
        assert tel.n == 3
        assert tel.events[0][2] == 3

    def test_wrong_field_count(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("a b 1\na b")

    def test_bad_timestamp(self):
        with pytest.raises(EdgeListParseError, match="not an integer"):
            parse_edge_list("a b xyz")

    @pytest.mark.parametrize("bad", ["1_000", "３", "١٢", "+-2", "+"])
    def test_timestamp_is_ascii_sign_and_digits(self, bad):
        # int() takes underscores and non-ASCII digits; the format does not
        text = f"a b 1\nb c {bad}\n"
        for parse in (parse_edge_list, loop_parse_edge_list):
            with pytest.raises(EdgeListParseError) as err:
                parse(text)
            assert str(err.value) == f"line 2: timestamp {bad!r} is not an integer"

    def test_empty_input_rejected(self):
        with pytest.raises(EdgeListParseError, match="no edge events"):
            parse_edge_list("")
        with pytest.raises(EdgeListParseError):
            parse_edge_list("# only a comment\n")

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            text = random_event_text(rng, n=8, events=30, t_max=50)
            first = parse_edge_list(text)
            labels, events = first.labels, first.events.tolist()
            again = parse_edge_list("".join(f"{labels[u]} {labels[v]} {t}\n" for u, v, t in events))
            assert again == first

    def test_negative_timestamps_allowed(self):
        tel = parse_edge_list("a b -5\nb c 0")
        assert tel.origin == -5

    def test_events_are_a_read_only_int64_array(self):
        tel = parse_edge_list("a b 2\nb c 1\n")
        assert tel.events.dtype == np.int64 and tel.events.shape == (2, 3)
        with pytest.raises(ValueError):
            tel.events[0, 0] = 5

    def test_timestamps_must_fit_int64(self):
        lo, hi = -(2**63), 2**63 - 1
        tel = parse_edge_list(f"a b {hi}\nb c {lo}\nc d +0009\nd e {'0' * 25}7\n")
        assert tel.events[:, 2].tolist() == [lo, 7, 9, hi]
        for bad in (str(hi + 1), str(lo - 1), "1" + "0" * 30):
            with pytest.raises(EdgeListParseError, match="does not fit") as err:
                parse_edge_list(f"a b 1\nb c {bad}\nc d 2\n")
            assert err.value.line_no == 2
            assert str(err.value) == (
                f"line 2: timestamp {bad!r} does not fit in a signed 64-bit integer"
            )

    def test_padded_comma_fields_and_data_shaped_comments(self):
        tel = parse_edge_list("#a,b,5\n  \t\n x y ,\tz  ,7\n", sep="comma")
        assert tel.labels == ("x y", "z") and tel.events.tolist() == [[0, 1, 7]]
        tel = parse_edge_list("# a b 5\n\tp  q\t+08 \r\n")
        assert tel.labels == ("p", "q") and tel.events.tolist() == [[0, 1, 8]]

    def test_plain_ascii_input_never_falls_back_to_lines(self):
        # the vectorized path handles every well-formed ASCII line shape,
        # including a '#' that does not start a line
        texts = [
            ("ws", "# c 1 2\r\n\r\n  a\tb  +05 \r\nb b -3\r\n\t\r\nc a 2"),
            ("comma", "#a,b,1\n \t\n a , b c,\t5\n,x,3\nb c,b c,07\n"),
            ("ws", "a#1 b 3\nb# a#1 4\n"),
            ("comma", "a, #b,3\n#c,a, 1\n a#,a,5\n"),
        ]
        with mock.patch.object(graph_core._EventReader, "_add_lines", side_effect=AssertionError):
            for sep, text in texts:
                assert len(parse_edge_list(text, sep).events) == 2
        assert parse_edge_list(texts[2][1]).labels == ("a#1", "b", "b#")

    @pytest.mark.parametrize("block", [None, 9])
    def test_only_a_block_with_a_lone_cr_or_another_byte_goes_line_by_line(self, block):
        # one translate leaves a block's CRs and other bytes; only a block with a CR counts its CRLFs
        lf = "".join(f"n{i} n{i + 3} {i}\n" for i in range(40))
        for text in (lf, lf.replace("\n", "\r\n"), lf[:60] + lf[60:].replace("\n", "\r\n")):
            _parses_as_oracle(text, block)  # plain: _add_lines raises
        for text in ("a b 1\rc d 2\n", "a b 1\r\nc d 2\r\r\n", "a b 1\r\nc\u00e9 d 2\r\n", "a\x0bb c 1\n"):
            _parses_as_oracle(text, block, plain=False)
            with mock.patch.object(graph_core._EventReader, "_add_lines", side_effect=AssertionError):
                with pytest.raises(AssertionError):
                    parse_edge_list(text)

    @pytest.mark.parametrize("late", [False, True])
    def test_label_order_across_first_appearance_passes(self, late):
        # 70,000 events, more than _first_appearance's largest pass of
        # 65,536 rows. With late, two nodes are first seen after that many
        # rows and one occurs only in a self-loop, so the walk runs to the
        # end; without, the first short pass sees every node and ends it
        rng = np.random.default_rng(21)
        count = 70_000
        u = rng.integers(0, 50, count)
        v = (u + 1 + rng.integers(0, 49, count)) % 50
        t = np.arange(count) // 3
        if late:
            u[[67_000, 68_500]] = [50, 51]
        lines = [f"n{a} n{b} {c}\n" for a, b, c in zip(u.tolist(), v.tolist(), t.tolist())]
        lines += ["n52 n52 5\n"] if late else []
        text = "".join(rng.permutation(lines))
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            tel = parse_edge_list(text)
        assert _outcome(lambda: tel) == _outcome(lambda: loop_parse_edge_list(text))
        if late:
            assert tel.labels[-2:] == ("n50", "n51")
        else:
            assert unique.call_count == 1

    def test_edge_list_requires_time_sorted_int64_rows(self):
        tel = parse_edge_list("a b 2\nb c 1\nc a 2\n")
        assert TemporalEdgeList(tel.labels, tel.events) == tel
        unsorted = tel.events[::-1].copy()
        with pytest.raises(ValueError, match="sorted by time"):
            TemporalEdgeList(tel.labels, unsorted)
        for events in (tel.events.astype(np.int32), tel.events[:, :2], tel.events.tolist()):
            with pytest.raises(ValueError, match=r"\(N, 3\) int64"):
                TemporalEdgeList(tel.labels, events)

    def test_memory_stays_within_a_multiple_of_the_events(self):
        # 200k unsorted events with distinct-enough labels; the old
        # tuple-per-event parser peaked at about 15x the final array here
        rng = np.random.default_rng(3)
        count = 200_000
        u = rng.integers(0, 5000, count)
        v = (u + 1 + rng.integers(0, 4999, count)) % 5000
        t = rng.integers(0, 10**9, count)
        rows = zip(u.tolist(), v.tolist(), t.tolist())
        source = io.BytesIO("".join(f"n{a} n{b} {c}\n" for a, b, c in rows).encode())
        tracemalloc.start()
        try:
            tel = parse_edge_list(source)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tel.events) == count and tel.n == 5000
        assert peak < 3 * tel.events.nbytes

    def test_invalid_utf8_is_located(self):
        with pytest.raises(EdgeListParseError, match="line 3: input is not valid UTF-8"):
            parse_edge_list(io.BytesIO(b"a b 1\n# x\n\xff c 2\n"))

    def test_sources_agree(self, tmp_path):
        text = "# header\r\na b 3\nb c 1\n"
        path = tmp_path / "events.txt"
        path.write_text(text)
        expected = parse_edge_list(text)
        with open(path) as text_file, open(path, "rb") as binary_file:
            assert parse_edge_list(text_file) == expected
            assert parse_edge_list(binary_file) == expected
        assert parse_edge_list(text.encode()) == expected
        assert parse_edge_list(text.splitlines()) == expected


WS_LABELS = (
    "a", "b", "v7", "007", "x-y.z", "exactly8", "nine-byte", "longer-than-8", "node_0000000001",
    "é", "日本", "naïve-node-label",
)
BAD_TIMESTAMPS = ("1.5", "x", "1e3", "--1", "+-2", "0x10", "1_000", "", "３", "١٢")
# comments, some shaped like data lines in one format or the other
COMMENTS = ("# note, 1 2 3", "#a b 5", "# a b 5", "#a,b,5", "# x, y, 7")


def _timestamp(draw) -> str:
    t = draw(st.integers(-(10**6), 10**6) | st.integers(-(2**63), 2**63 - 1))
    sign = "-" if t < 0 else draw(st.sampled_from(("", "+")))
    return sign + "0" * draw(st.integers(0, 3)) + str(abs(t))


@st.composite
def edge_list_texts(draw):
    """(text, sep): data, comment, blank and malformed lines in either format."""
    sep = draw(st.sampled_from(("ws", "comma")))
    labels = WS_LABELS + (("two words",) if sep == "comma" else ())
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("data",) * 8 + ("comment", "blank", "short", "long", "bad_t")))
        if kind == "comment":
            lines.append(draw(st.sampled_from(("", " ", "\t"))) + draw(st.sampled_from(COMMENTS)))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", " ", "\t ", "  "))))
            continue
        fields = [draw(st.sampled_from(labels)), draw(st.sampled_from(labels)), _timestamp(draw)]
        if kind == "short":
            fields = fields[:2]
        elif kind == "long":
            fields.append("extra")
        elif kind == "bad_t":
            fields[2] = draw(st.sampled_from(BAD_TIMESTAMPS))
        if sep == "ws":
            gap = draw(st.sampled_from((" ", "  ", "\t", " \t")))
            line = gap.join(fields)
        else:
            pad = st.sampled_from(("", "", " ", "  ", "\t"))
            line = ",".join(draw(pad) + f + draw(pad) for f in fields)
        edge = st.sampled_from(("", "", " ", "\t"))
        lines.append(draw(edge) + line + draw(edge))
    # one line break for the whole text, or a mix with breaks that only
    # str.splitlines honours: blocks are cut at LF alone and must still
    # number the lines the same way
    if draw(st.booleans()):
        ends = [draw(st.sampled_from(("\n", "\r\n")))] * len(lines)
    else:
        ends = [draw(st.sampled_from(("\n", "\r\n", "\r", "\x0b", "\u2028"))) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)), sep


def _outcome(parse):
    """Parse result as (labels, event tuples, dropped), or the located error."""
    try:
        result = parse()
    except EdgeListParseError as e:
        return ("error", str(e), e.line_no)
    if isinstance(result, tuple):
        return result
    return result.labels, tuple(map(tuple, result.events.tolist())), result.dropped_self_loops


class TestParseMatchesLoopOracle:
    # a few-byte block makes lines and tokens straddle read boundaries, so
    # every block is cut at a line break out of several reads
    @pytest.mark.parametrize("block", [None, 1, 5, 23])
    @settings(max_examples=120, deadline=None)
    @given(case=edge_list_texts())
    def test_same_labels_events_and_errors(self, block, case):
        text, sep = case
        expected = _outcome(lambda: loop_parse_edge_list(text, sep))
        with mock.patch.object(graph_core, "_BLOCK_BYTES", block or graph_core._BLOCK_BYTES):
            assert _outcome(lambda: parse_edge_list(text, sep)) == expected
            source = io.BytesIO(text.encode("utf-8"))
            assert _outcome(lambda: parse_edge_list(source, sep)) == expected
            # a text-mode file is read in characters; a list of lines is joined first
            source = io.StringIO(text, newline="")
            assert _outcome(lambda: parse_edge_list(source, sep)) == expected
            assert _outcome(lambda: parse_edge_list(text.splitlines(), sep)) == expected


def _parses_as_oracle(text: str, block: int | None, sep: str = "ws", plain: bool = True):
    """Parse ``text`` with ``_BLOCK_BYTES = block`` (None: the default) and
    check it against the loop oracle; with ``plain``, no block may fall
    back to the line path. Returns the outcome."""
    expected = _outcome(lambda: loop_parse_edge_list(text, sep))
    fallback = mock.patch.object(graph_core._EventReader, "_add_lines", side_effect=AssertionError)
    with mock.patch.object(graph_core, "_BLOCK_BYTES", block or graph_core._BLOCK_BYTES):
        with fallback if plain else contextlib.nullcontext():
            assert _outcome(lambda: parse_edge_list(text, sep)) == expected
    return expected


class TestWordBoundaries:
    # the tokenizer reads fields eight bytes to a word, from the end: fields
    # one byte short of, on, and one byte past a word's end, in blocks of a
    # few bytes (each cut at a line break) and of the default size

    @pytest.mark.parametrize("block", [5, 23, None])
    @pytest.mark.parametrize("size", [7, 8, 9, 16, 17])
    @pytest.mark.parametrize("sep", ["ws", "comma"])
    def test_label_lengths(self, block, size, sep):
        base = "0123456789abcdefghij"[:size]
        # labels that differ only in their first or last byte, and a short one
        names = [base, base[:-1] + "Z", "Y" + base[1:], "s"]
        pairs = [(a, b) for a in names for b in names]
        gap = " " if sep == "ws" else ","
        text = "".join(f"{a}{gap}{b}{gap}{t}\n" for t, (a, b) in enumerate(pairs))
        labels, events, dropped = _parses_as_oracle(text, block, sep)
        assert sorted(labels) == sorted(names) and dropped == len(names)

    @pytest.mark.parametrize("block", [5, 23, None])
    @pytest.mark.parametrize("digits", [8, 9, 16, 17, 18])
    def test_timestamp_lengths(self, block, digits):
        values = ["9" * digits, "1" + "0" * (digits - 1), "0" * (digits - 1) + "7",
                  "123456789012345678"[:digits]]
        # short timestamps beside long ones leave the long ones' extra words empty
        stamps = [sign + v for v in values for sign in ("", "+", "-")] + ["5", "-3", "+04"]
        text = "".join(f"a{i % 3} b {t}\n" for i, t in enumerate(stamps))
        _, events, _ = _parses_as_oracle(text, block)
        assert sorted(t for *_, t in events) == sorted(int(t) for t in stamps)

    @pytest.mark.parametrize("block", [5, 23, None])
    def test_nineteen_digit_timestamps_take_the_line_path(self, block):
        # 19 digits may not fit int64, so the word reader declines them and the
        # line path parses those that do fit
        padded = "0" * 17 + "42"
        stamps = ["1234567890123456789", "-9223372036854775808", padded, "+" + padded]
        text = "".join(f"a b {t}\nb c 1\n" for t in stamps)
        _, events, _ = _parses_as_oracle(text, block, plain=False)
        assert sorted({t for *_, t in events}) == sorted({1, *map(int, stamps)})

    @pytest.mark.parametrize("block", [5, 23, None])
    @pytest.mark.parametrize(
        "last", ["c d 12345678", "c d -123456789012345678", "c dddddddddddddddd 7", "c 1234567890"]
    )
    def test_last_field_ends_on_the_final_byte(self, block, last):
        for sep in ("ws", "comma"):
            text = "a b 1\n" + last
            if sep == "comma":
                text = text.replace(" ", ",")
            # "c 1234567890" has two fields and must fail on its line
            _parses_as_oracle(text, block, sep, plain=last.count(" ") == 2)

    def test_ingest_shaped_blocks_never_fall_back_to_lines(self):
        # integer labels and 6-digit times, about 1% of events late, over
        # three or more blocks of the default size
        rng = np.random.default_rng(29)
        count = 60_000
        u = rng.integers(0, 300, count)
        v = (u + 1 + rng.integers(0, 299, count)) % 300
        t = 100_000 + np.arange(count) // 5
        late = rng.random(count) < 0.01
        t[late] -= rng.integers(1, 5_000, int(late.sum()))
        text = "".join(f"{a} {b} {c}\n" for a, b, c in zip(u.tolist(), v.tolist(), t.tolist()))
        assert len(list(graph_core._line_blocks(text))) >= 3
        labels, events, _ = _parses_as_oracle(text, None)
        assert len(events) == count and len(labels) == 300

    @pytest.mark.parametrize("size, packed", [(3, True), (8, False)])
    def test_label_grouping_branches(self, size, packed):
        # words of short labels leave room for their positions beside them and
        # are grouped by one sort; 8-byte words do not, and take lexsort
        rng = np.random.default_rng(size)
        names = [f"{i:0{size}d}" for i in range(0, 10**size, 10**size // 500)][:500]
        picks = rng.integers(0, len(names), (2000, 2))
        text = "".join(f"{names[a]} {names[b]} {i}\n" for i, (a, b) in enumerate(picks.tolist()))
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            _parses_as_oracle(text, None)
        assert lexsort.called != packed

    @pytest.mark.parametrize("rows", [
        [[5], [3], [5], [0], [3]],
        [[-1], [2], [-1]],
        # four rows take 2 position bits: the largest value that fits, and the next
        [[(1 << 61) - 1], [0], [(1 << 61) - 1], [1]],
        [[1 << 61], [0], [1 << 61], [1]],
        [[7]],
        [[2, 1], [1, 9], [2, 1]],
    ])
    def test_group_matches_unique(self, rows):
        rows = np.array(rows, dtype=np.int64)
        distinct, inverse = graph_core._group(rows)
        expected, expected_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert distinct.tolist() == expected.tolist()
        assert inverse.tolist() == expected_inverse.reshape(-1).tolist()


class TestSnapshots:
    def test_active_mode(self):
        tel = parse_edge_list("a b 0\nb c 10")
        series = build_snapshots(tel, SnapshotPolicy("active", width=10, count=2))
        assert list(series[0].edges()) == [(0, 1)]
        assert list(series[1].edges()) == [(1, 2)]

    def test_aggregate_mode(self):
        tel = parse_edge_list("a b 0\nb c 10")
        series = build_snapshots(tel, SnapshotPolicy("aggregate", width=10, count=2))
        assert list(series[0].edges()) == [(0, 1)]
        assert list(series[1].edges()) == [(0, 1), (1, 2)]

    def test_boundary_event_goes_to_later_snapshot(self):
        tel = parse_edge_list("a b 0\na c 10")
        series = build_snapshots(tel, SnapshotPolicy("active", width=10, count=2))
        assert (0, 2) not in set(series[0].edges())
        assert (0, 2) in set(series[1].edges())

    def test_events_past_end_discarded(self):
        tel = parse_edge_list("a b 0\nb c 5\na c 99")
        series = build_snapshots(tel, SnapshotPolicy("active", width=10, count=1 + 1))
        assert series.events_discarded == 1

    def test_origin_override(self):
        tel = parse_edge_list("a b 7\nb c 12")
        series = build_snapshots(tel, SnapshotPolicy("active", width=10, count=2, origin=0))
        assert set(series[0].edges()) == {(0, 1)}
        assert set(series[1].edges()) == {(1, 2)}

    def test_aggregate_event_before_origin_visible_from_start(self):
        tel = parse_edge_list("a b 0\nb c 20")
        series = build_snapshots(
            tel, SnapshotPolicy("aggregate", width=10, count=2, origin=15)
        )
        assert (0, 1) in set(series[0].edges())

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SnapshotPolicy("active", width=0, count=2)
        with pytest.raises(ValueError):
            SnapshotPolicy("active", width=10, count=1)
        with pytest.raises(ValueError):
            SnapshotPolicy("sometimes", width=10, count=2)

    def test_aggregate_monotone_and_active_union(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            text = random_event_text(rng, n=10, events=60, t_max=50)
            tel = parse_edge_list(text)
            policy_a = SnapshotPolicy("aggregate", width=10, count=5, origin=0)
            agg = build_snapshots(tel, policy_a)
            for i in range(4):
                assert set(agg[i].edges()) <= set(agg[i + 1].edges())
            act = build_snapshots(tel, SnapshotPolicy("active", width=10, count=5, origin=0))
            union = set()
            for snap in act.snapshots:
                union |= set(snap.edges())
            expected = {(u, v) if u < v else (v, u) for u, v, _ in tel.events}
            assert union == expected

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_set_oracle(self, data):
        n = data.draw(st.integers(2, 7))
        node = st.integers(0, n - 1)
        event = st.tuples(node, node, st.integers(-60, 60))
        events = data.draw(st.lists(event, min_size=1, max_size=40))
        tel = parse_edge_list("".join(f"v{u} v{v} {t}\n" for u, v, t in events))
        policy = SnapshotPolicy(
            data.draw(st.sampled_from(POLICY_MODES)),
            width=data.draw(st.integers(1, 25)),
            count=data.draw(st.integers(2, 6)),
            # before, inside and after the events, so some fall before the
            # origin and some at or past the window end
            origin=data.draw(st.integers(-80, 70)),
        )
        series = build_snapshots(tel, policy)
        snaps, discarded = set_build_snapshots(tel.events.tolist(), tel.n, policy)
        assert series.events_discarded == discarded
        assert [set(g.edges()) for g in series.snapshots] == snaps
        assert all(g.n == tel.n for g in series.snapshots)
        # the bins: each snapshot's pairs (active) or the pairs new to it (aggregate), then the
        # pairs seen only outside the window; rebuilt from them as lists, the series is the same
        pairs = [{divmod(key, tel.n) for key in keys.tolist()} for keys in series.bins]
        every = {(min(u, v), max(u, v)) for u, v, _t in tel.events.tolist()}
        earlier = [set(), *snaps[:-1]] if policy.mode == "aggregate" else [set()] * len(snaps)
        assert pairs == [snap - before for snap, before in zip(snaps, earlier)] + [every - set().union(*snaps)]
        assert all(np.all(np.diff(keys) > 0) for keys in series.bins)
        again = series_from_bins(tel.n, [keys.tolist() for keys in series.bins], policy.mode, discarded)
        assert [set(g.edges()) for g in again.snapshots] == snaps and again.events_discarded == discarded
        assert series.final_graph() == final_aggregate_graph(tel)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_graphs_from_bins_match_the_checked_constructor(self, data):
        # series_from_bins builds each graph unchecked, from keys the bins are trusted to hold
        n, count = data.draw(st.integers(1, 9)), data.draw(st.integers(2, 5))
        mode = data.draw(st.sampled_from(POLICY_MODES))
        keys = [u * n + v for u in range(n) for v in range(u + 1, n)]
        if mode == "active":
            bins = [sorted(data.draw(st.sets(st.sampled_from(keys)))) if keys else []
                    for _ in range(count + 1)]
        else:  # each key new to at most one bin
            at = data.draw(st.lists(st.integers(-1, count), min_size=len(keys), max_size=len(keys)))
            bins = [[key for key, i in zip(keys, at) if i == j] for j in range(count + 1)]
        held = set()
        for keys_i, g in zip(bins, series_from_bins(n, bins, mode).snapshots):
            held = set(keys_i) if mode == "active" else held | set(keys_i)
            want = StaticGraph(n, [divmod(key, n) for key in sorted(held)])
            assert (g.n, g.edge_count) == (want.n, want.edge_count)
            for name in ("indptr", "indices", "keys"):
                assert np.array_equal(getattr(g, name), getattr(want, name)), name

    @pytest.mark.parametrize("mode", POLICY_MODES)
    def test_bucket_arithmetic_at_int64_limits(self, mode):
        lo, hi = -(2**63), 2**63 - 1
        tel = parse_edge_list(f"a b {lo}\nb c {lo + 1}\nc d -1\nd e 0\ne a {hi - 1}\na c {hi}\n")
        windows = [
            (lo, 2**62, 4), (lo, 2**64, 2), (lo - 10, 7, 3), (hi, 1, 2), (hi - 1, 1, 2),
            (0, hi, 3), (-5, 2**70, 2), (lo + 1, 2**63, 2), (-(2**80), 2**79, 3),
        ]
        for origin, width, count in windows:
            policy = SnapshotPolicy(mode, width=width, count=count, origin=origin)
            series = build_snapshots(tel, policy)
            snaps, discarded = set_build_snapshots(tel.events.tolist(), tel.n, policy)
            assert series.events_discarded == discarded, (origin, width, count)
            assert [set(g.edges()) for g in series.snapshots] == snaps, (origin, width, count)

    @pytest.mark.parametrize("mode", POLICY_MODES)
    def test_memory_scales_with_a_snapshot_not_the_events(self, mode):
        # 400k events over at most 1,300 edges in 12 snapshots: binning
        # slices the time-sorted events, so its temporaries are one
        # snapshot's keys (a twelfth of the events) and the graphs are
        # small. A binning that sorts all the events peaks at 2.4x the
        # event array here.
        rng = np.random.default_rng(17)
        count, n = 400_000, 300
        u = rng.integers(0, n, 1300)
        v = (u + 1 + rng.integers(0, n - 1, 1300)) % n
        pick = rng.integers(0, 1300, count)
        t = np.sort(rng.integers(0, 12_000, count))
        tel = TemporalEdgeList(tuple(map(str, range(n))), np.column_stack((u[pick], v[pick], t)))
        tracemalloc.start()
        try:
            series = build_snapshots(tel, SnapshotPolicy(mode, width=1000, count=12, origin=0))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series.events_discarded == 0 and series[11].edge_count > 1000
        assert peak < tel.events.nbytes / 2

    def test_final_aggregate_graph_is_event_union(self):
        tel = parse_edge_list("a b 0\nb c 5\na b 9\nc a 40")
        g = final_aggregate_graph(tel)
        assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}


class TestMetrics:
    def test_average_degree_closed_forms(self):
        assert average_degree(StaticGraph(3, [(0, 1), (0, 2), (1, 2)])) == 2.0
        assert average_degree(StaticGraph(2, [(0, 1)])) == 1.0
        assert average_degree(star_graph(5)) == pytest.approx(1.6)

    def test_average_degree_ignores_isolated_nodes(self):
        g = StaticGraph(10, [(0, 1)])
        assert average_degree(g) == 1.0

    def test_average_degree_edgeless(self):
        assert average_degree(StaticGraph(4, [])) == 0.0
        with pytest.raises(ValueError):
            average_degree(StaticGraph(0, []))

    def test_clustering_closed_forms(self):
        assert clustering_coefficient(StaticGraph(3, [(0, 1), (0, 2), (1, 2)])) == 1.0
        assert clustering_coefficient(star_graph(5)) == 0.0

    def test_clustering_triangle_with_tail(self):
        # triangle a-b-c plus pendant edge c-d
        g = StaticGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        # a and b close their one wedge; c closes 1 of 3; d has degree 1
        assert clustering_coefficient(g) == pytest.approx((1 + 1 + 1 / 3) / 3)

    def test_clustering_matches_triple_loop(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            g = gnp_graph(rng, 8, rng.uniform(0.2, 0.7))
            assert clustering_coefficient(g) == pytest.approx(triple_loop_clustering(g))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_clustering_equals_triple_loop_oracles(self, data):
        # exact equality: the census gives the same integer counts, and
        # both sides divide and add them in the same order
        # up to 12 nodes, with isolated nodes and edgeless graphs
        n = data.draw(st.integers(1, 12))
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=40))
        g = StaticGraph(n, [(u, v) for u, v in pairs if u != v])
        assert clustering_coefficient(g) == triple_loop_clustering(g)

    def test_cpl_closed_forms(self):
        assert characteristic_path_length(path_graph(3)) == pytest.approx(4 / 3)
        assert characteristic_path_length(complete_graph(4)) == 1.0
        # two disjoint edges: unreachable pairs are excluded
        assert characteristic_path_length(StaticGraph(4, [(0, 1), (2, 3)])) == 1.0

    def test_cpl_requires_edges(self):
        with pytest.raises(ValueError):
            characteristic_path_length(StaticGraph(3, []))

    def test_cpl_matches_floyd_warshall(self):
        rng = np.random.default_rng(78)
        checked = 0
        while checked < 25:
            g = gnp_graph(rng, 8, rng.uniform(0.2, 0.6))
            if g.edge_count == 0:
                continue
            assert characteristic_path_length(g) == pytest.approx(floyd_warshall_cpl(g))
            checked += 1

    @pytest.mark.parametrize("sources", [None, 1, 5, 64])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cpl_matches_bfs_oracle(self, sources, data):
        # up to 150 nodes: several uint64 words per reach row, isolated
        # nodes and several components
        n = data.draw(st.integers(2, 150))
        node = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=2 * n))
        pairs = [(u, v) for u, v in pairs if u != v] or [(0, 1)]
        g = StaticGraph(n, pairs)
        with mock.patch.object(graph_core, "_CPL_SOURCES", sources or graph_core._CPL_SOURCES):
            assert characteristic_path_length(g) == bfs_cpl(g)

    def test_cpl_long_paths_and_isolated_nodes(self):
        # two paths of 90 and 70 nodes, 40 isolated nodes between them
        edges = [(i, i + 1) for i in range(89)] + [(i, i + 1) for i in range(130, 199)]
        g = StaticGraph(200, edges)
        assert characteristic_path_length(g) == bfs_cpl(g)
        total = sum(d * (90 - d) for d in range(1, 90)) + sum(d * (70 - d) for d in range(1, 70))
        assert characteristic_path_length(g) == 2 * total / (90 * 89 + 70 * 69)

    def test_snapshot_stats_rows(self):
        tel = parse_edge_list("a b 0\nb c 0\na c 10")
        series = build_snapshots(tel, SnapshotPolicy("aggregate", width=10, count=3))
        rows = [dict(zip(STATS_HEADER, row, strict=True)) for row in snapshot_stats(series)]
        assert [r["snapshot"] for r in rows] == [0, 1, 2]
        assert rows[0]["edges"] == 2
        assert rows[1]["clustering"] == 1.0
        # snapshots 1 and 2 hold the same graph
        assert {k: v for k, v in rows[2].items() if k != "snapshot"} == {
            k: v for k, v in rows[1].items() if k != "snapshot"
        }

    def test_snapshot_stats_edgeless_has_nan_cpl(self):
        tel = parse_edge_list("a b 25")
        series = build_snapshots(tel, SnapshotPolicy("active", width=10, count=3, origin=0))
        rows = [dict(zip(STATS_HEADER, row, strict=True)) for row in snapshot_stats(series)]
        assert math.isnan(rows[0]["cpl"])
        assert rows[0]["avg_degree"] == 0.0
        assert not math.isnan(rows[2]["cpl"])
