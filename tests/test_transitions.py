import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrans.graph_core import SnapshotPolicy, StaticGraph, build_snapshots, parse_edge_list
from orbitrans.transitions import (
    NormalizedTransitionMatrix,
    accumulate_series,
    discretize,
    enumerate_transitions,
    row_normalize,
)
from orbitrans.census import GRAPHLET_CLASSES
from oracles import (
    complete_graph,
    cycle_graph,
    exhaustive_occurrences,
    exhaustive_transitions,
    gnp_graph,
    path_graph,
    random_event_text,
    relabeled,
)


@st.composite
def snapshot_pairs(draw):
    """Two graphs on one node set: independent, identical, or one edgeless."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def edges():
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return [pair for pair, present in zip(pairs, keep) if present]

    a = edges()
    b = {"independent": edges, "identical": lambda: a, "edgeless": lambda: []}[
        draw(st.sampled_from(("independent", "identical", "edgeless")))
    ]()
    a, b = draw(st.permutations((a, b)))
    return StaticGraph(n, a), StaticGraph(n, b)


def triangle():
    return StaticGraph(3, [(0, 1), (1, 2), (0, 2)])


class TestPairEnumeration:
    def test_triangle_to_chain(self):
        t = enumerate_transitions(triangle(), path_graph(3), 3)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[2, 1] = 1  # center of the chain was in the triangle orbit
        expected[2, 0] = 2  # both chain ends too
        assert np.array_equal(t.counts, expected)
        assert t.dissolved.sum() == 0

    def test_identical_snapshots_k4(self):
        k4 = complete_graph(4)
        t = enumerate_transitions(k4, k4, 4)
        assert t.counts[10, 10] == 4
        assert t.counts.sum() == 4

    def test_group_dissolution(self):
        # the square loses two opposite edges: both 4-sets' nodes dissolve
        square = cycle_graph(4)
        broken = StaticGraph(4, [(0, 1), (2, 3)])
        t = enumerate_transitions(square, broken, 4)
        assert t.counts.sum() == 0
        assert t.dissolved[4] == 4  # all four nodes left the cycle orbit

    def test_mismatched_universe(self):
        with pytest.raises(ValueError, match="node universe"):
            enumerate_transitions(triangle(), path_graph(4), 3)

    def test_newly_born_groups_ignored(self):
        # nothing connected in the source: empty matrix even though the
        # target is full of subgraphs
        empty = StaticGraph(5, [])
        t = enumerate_transitions(empty, complete_graph(5), 4)
        assert t.counts.sum() == 0 and t.dissolved.sum() == 0

    def test_matches_two_snapshot_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            a = gnp_graph(rng, 12, rng.uniform(0.15, 0.35))
            b = gnp_graph(rng, 12, rng.uniform(0.15, 0.35))
            for k in (3, 4):
                t = enumerate_transitions(a, b, k)
                counts, dissolved = exhaustive_transitions(a, b, k)
                assert np.array_equal(t.counts, counts)
                assert np.array_equal(t.dissolved, dissolved)

    @settings(max_examples=80, deadline=None)
    @given(pair=snapshot_pairs(), k=st.sampled_from((3, 4)))
    def test_matches_oracle_on_random_pairs(self, pair, k):
        a, b = pair
        t = enumerate_transitions(a, b, k)
        counts, dissolved = exhaustive_transitions(a, b, k)
        assert np.array_equal(t.counts, counts)
        assert np.array_equal(t.dissolved, dissolved)

    def test_conservation(self):
        rng = np.random.default_rng(22)
        for _ in range(6):
            a = gnp_graph(rng, 11, 0.3)
            b = gnp_graph(rng, 11, 0.25)
            t = enumerate_transitions(a, b, 4)
            assert t.total_node_transitions() == 4 * len(exhaustive_occurrences(a, 4))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(23)
        a = gnp_graph(rng, 10, 0.3)
        b = gnp_graph(rng, 10, 0.3)
        perm = rng.permutation(10)
        t1 = enumerate_transitions(a, b, 4)
        t2 = enumerate_transitions(relabeled(a, perm), relabeled(b, perm), 4)
        assert np.array_equal(t1.counts, t2.counts)
        assert np.array_equal(t1.dissolved, t2.dissolved)


class TestSeriesAccumulation:
    def test_three_identical_k4_snapshots(self):
        tel = parse_edge_list(
            "\n".join(f"n{u} n{v} 0" for u in range(4) for v in range(u + 1, 4))
        )
        series = build_snapshots(tel, SnapshotPolicy("aggregate", width=1, count=3))
        t = accumulate_series(series, 4)
        assert t.counts[10, 10] == 8
        assert t.counts.sum() == 8
        assert t.pairs_processed == 2

    def test_sum_of_pairs(self):
        rng = np.random.default_rng(24)
        text = random_event_text(rng, n=10, events=80, t_max=40)
        series = build_snapshots(
            parse_edge_list(text), SnapshotPolicy("active", width=10, count=4, origin=0)
        )
        total = accumulate_series(series, 4)
        summed = np.zeros_like(total.counts)
        dissolved = np.zeros_like(total.dissolved)
        for i in range(3):
            pair = enumerate_transitions(series[i], series[i + 1], 4)
            summed += pair.counts
            dissolved += pair.dissolved
        assert np.array_equal(total.counts, summed)
        assert np.array_equal(total.dissolved, dissolved)

    def test_requires_two_snapshots(self):
        tel = parse_edge_list("a b 0")
        series = build_snapshots(tel, SnapshotPolicy("active", width=10, count=2))
        short = type(series)(
            snapshots=series.snapshots[:1], policy=series.policy, labels=series.labels
        )
        with pytest.raises(ValueError):
            accumulate_series(short, 4)

    def test_aggregate_never_loses_edges_pattern(self):
        # matrix cells whose target class has fewer edges than the source
        # class must stay empty when edges only accumulate
        rng = np.random.default_rng(25)
        edge_count = {o: cls.edge_count for cls in GRAPHLET_CLASSES[4] for o in cls.orbits}
        for _ in range(5):
            text = random_event_text(rng, n=12, events=90, t_max=50)
            series = build_snapshots(
                parse_edge_list(text),
                SnapshotPolicy("aggregate", width=10, count=5, origin=0),
            )
            t = accumulate_series(series, 4)
            assert t.dissolved.sum() == 0
            for a in range(1, 12):
                for b in range(1, 12):
                    if edge_count[b] < edge_count[a]:
                        assert t.counts[a - 1, b - 1] == 0


class TestNormalization:
    def test_row_division(self):
        from orbitrans.transitions import OrbitTransitionMatrix

        counts = np.zeros((11, 11), dtype=np.int64)
        counts[0, :4] = [2, 1, 1, 0]
        t = OrbitTransitionMatrix(
            k=4, counts=counts, dissolved=np.zeros(11, dtype=np.int64), pairs_processed=1
        )
        nt = row_normalize(t)
        assert nt.values[0, :4] == pytest.approx([0.5, 0.25, 0.25, 0.0])
        assert nt.values[1:].sum() == 0.0

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            text = random_event_text(rng, n=12, events=70, t_max=40)
            series = build_snapshots(
                parse_edge_list(text), SnapshotPolicy("active", width=10, count=4, origin=0)
            )
            nt = row_normalize(accumulate_series(series, 4))
            sums = nt.values.sum(axis=1)
            for s in sums:
                assert s == pytest.approx(0.0, abs=1e-12) or s == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_dissolved_not_in_denominator(self):
        square = cycle_graph(4)
        half = StaticGraph(4, [(0, 1), (1, 2), (2, 3)])  # still connected: path
        gone = StaticGraph(4, [(0, 1), (2, 3)])
        survived = enumerate_transitions(square, half, 4)
        dissolved = enumerate_transitions(square, gone, 4)
        nt_s = row_normalize(survived)
        nt_d = row_normalize(dissolved)
        assert nt_s.values[4].sum() == pytest.approx(1.0)
        # every group dissolved: the row stays zero instead of normalizing
        assert nt_d.values[4].sum() == 0.0


class TestDiscretize:
    def test_boundaries(self):
        values = np.array(
            [
                [0.0, 1 / 3, 1 / 3 + 1e-9],
                [0.5, 2 / 3, 2 / 3 + 1e-9],
                [0.9, 1.0, 0.2],
            ]
        )
        fp = discretize(values)
        assert fp.labels == (
            ("Rare", "Rare", "Common"),
            ("Common", "Common", "Frequent"),
            ("Frequent", "Frequent", "Rare"),
        )

    def test_half_way_value(self):
        assert discretize(np.full((3, 3), 0.5)).labels == (("Common",) * 3,) * 3

    def test_accepts_normalized_matrix(self):
        nt = NormalizedTransitionMatrix(k=4, values=np.zeros((11, 11)))
        fp = discretize(nt)
        assert fp.k == 4
        assert all(label == "Rare" for row in fp.labels for label in row)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            discretize(np.array([[1.2]]))
        with pytest.raises(ValueError, match="outside"):
            discretize(np.array([[-0.1]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            discretize(np.zeros((2, 3)))

    @pytest.mark.parametrize("size", [1, 2, 4, 10, 12])
    def test_square_of_no_orbit_count_rejected(self, size):
        # only 3x3 (k=3) and 11x11 (k=4) matrices have a subgraph size
        with pytest.raises(ValueError, match="3x3"):
            discretize(np.zeros((size, size)))
