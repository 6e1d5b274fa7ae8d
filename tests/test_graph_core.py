import math

import numpy as np
import pytest

from orbitrans.graph_core import (
    EdgeListParseError,
    SnapshotPolicy,
    StaticGraph,
    average_degree,
    build_snapshots,
    characteristic_path_length,
    clustering_coefficient,
    final_aggregate_graph,
    parse_edge_list,
    relative_size_series,
    snapshot_stats,
)
from oracles import (
    complete_graph,
    floyd_warshall_cpl,
    gnp_graph,
    path_graph,
    random_event_text,
    star_graph,
    triple_loop_clustering,
)


class TestStaticGraph:
    def test_duplicate_edges_collapse(self):
        g = StaticGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert g.adj[0] == frozenset({1})

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
            assert 2 * g.edge_count == sum(len(s) for s in g.adj)

    def test_neighbors_sorted(self):
        g = StaticGraph(4, [(2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2) == (0, 1, 3)

    def test_csr_arrays_match_adjacency(self):
        rng = np.random.default_rng(12)
        for n, p in ((0, 0.0), (1, 0.0), (6, 0.0), (12, 0.3), (15, 0.6)):
            g = gnp_graph(rng, n, p)
            assert len(g.indptr) == n + 1 and len(g.indices) == 2 * g.edge_count
            for v in range(n):
                row = g.indices[g.indptr[v] : g.indptr[v + 1]]
                assert row.tolist() == sorted(g.adj[v]) == list(g.neighbors(v))
                assert np.array_equal(g.keys[g.indptr[v] : g.indptr[v + 1]], v * n + row)
            assert np.all(np.diff(g.keys) > 0)
            assert g.edge_array().tolist() == [list(e) for e in g.edges()]
            assert len(list(g.edges())) == g.edge_count

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
        assert tel.events == ()
        assert tel.dropped_self_loops == 1

    def test_out_of_order_events_sorted(self):
        tel = parse_edge_list("x y 9\nx z 2")
        # ids follow first appearance in time order: x=0, z=1, y=2
        assert tel.labels == ("x", "z", "y")
        assert tel.events == ((0, 1, 2), (0, 2, 9))

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
            again = parse_edge_list(first.to_text())
            assert again == first

    def test_negative_timestamps_allowed(self):
        tel = parse_edge_list("a b -5\nb c 0")
        assert tel.origin == -5


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

    def test_global_transitivity_flag(self):
        # one triangle sharing node 2 with a star of wedges
        g = StaticGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4)])
        wedges = sum(d * (d - 1) // 2 for d in (2, 2, 4, 1, 1))
        assert clustering_coefficient(g, method="global") == pytest.approx(3 / wedges)
        with pytest.raises(ValueError):
            clustering_coefficient(g, method="median")

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

    def test_relative_size_series(self):
        tel = parse_edge_list(
            "\n".join(
                # 5 active nodes in snapshot 0, 10 in snapshots 1 and 2
                [f"a{i} b{i} 0" for i in range(2)]
                + [f"c{i} d{i} 10" for i in range(5)]
                + [f"c{i} d{i} 20" for i in range(5)]
            )
        )
        series = build_snapshots(tel, SnapshotPolicy("active", width=10, count=3))
        assert relative_size_series(series) == [0.4, 1.0, 1.0]

    def test_relative_size_all_empty(self):
        tel = parse_edge_list("a b 0")
        series = build_snapshots(tel, SnapshotPolicy("active", width=5, count=2, origin=100))
        with pytest.raises(ValueError):
            relative_size_series(series)

    def test_snapshot_stats_rows(self):
        tel = parse_edge_list("a b 0\nb c 0\na c 10")
        series = build_snapshots(tel, SnapshotPolicy("aggregate", width=10, count=3))
        rows = snapshot_stats(series)
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
        rows = snapshot_stats(series)
        assert math.isnan(rows[0]["cpl"])
        assert rows[0]["avg_degree"] == 0.0
        assert not math.isnan(rows[2]["cpl"])
