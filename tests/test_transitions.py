import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrans import census, transitions
from orbitrans.graph_core import SnapshotPolicy, StaticGraph, build_snapshots, parse_edge_list
from orbitrans.transitions import (
    _union,
    accumulate_series,
    discretize,
    enumerate_transitions,
    row_normalize,
)
from orbitrans.census import GRAPHLET_CLASSES, graphlet_class_frequencies
from oracles import (
    complete_graph,
    cycle_graph,
    exhaustive_occurrences,
    exhaustive_transitions,
    gnm_graph,
    gnp_graph,
    path_graph,
    random_event_text,
    relabeled,
    ring_lattice_with_chords,
)


@st.composite
def snapshot_pairs(draw):
    """Two graphs on one node set: independent, identical, one edgeless, the
    target a subset or a superset of the source, or a few pairs changed."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def flags():
        return draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))

    a = flags()
    kind = draw(st.sampled_from(("independent", "identical", "edgeless", "subset", "superset", "few")))
    if kind == "few":
        flip = draw(st.sets(st.integers(0, max(len(pairs) - 1, 0)), max_size=3)) if pairs else set()
        b = [x != (i in flip) for i, x in enumerate(a)]
    else:
        other = flags()
        b = {"independent": other, "identical": a, "edgeless": [False] * len(pairs),
             "subset": [x and y for x, y in zip(a, other)],
             "superset": [x or y for x, y in zip(a, other)]}[kind]
    if kind == "edgeless" and draw(st.booleans()):
        a, b = b, a
    return tuple(StaticGraph(n, [p for p, x in zip(pairs, keep) if x]) for keep in (a, b))


# each path of enumerate_transitions, called directly
PATHS = {
    "full": lambda a, b, k: transitions._tally(*_union(a, b), k, seeded=False),
    "delta": lambda a, b, k: transitions._delta_path(a, *_union(a, b), k),
}


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


def churn_pair(rng, n=200, live=0.6):
    """Two active snapshots of a ring lattice (reach 4), each edge live in
    each with probability ``live``: about 0.57 of the union changes."""
    ring = np.array([(i, (i + j) % n) for i in range(n) for j in range(1, 5)])
    return tuple(StaticGraph(n, ring[rng.random(len(ring)) < live]) for _ in range(2))


def growth_pair(rng, n=250, new=0.06):
    """Aggregate snapshots: a ring lattice (reach 4) with 50 chords, then
    the same graph with a ``new`` share more random edges."""
    a = ring_lattice_with_chords(rng, n, reach=4, chords=50)
    extra = rng.integers(0, n, size=(int(new * a.edge_count), 2))
    return a, StaticGraph(n, np.concatenate((a.edge_array(), extra[extra[:, 0] != extra[:, 1]])))


def active_pair(rng, n=300, m=1300, swap=0.02):
    """Active snapshots of a random graph: a ``swap`` share of its edges
    gone in the target, and as many new ones."""
    a = gnm_graph(rng, n, m)
    edges = a.edge_array()
    gone = rng.random(len(edges)) < swap
    extra = rng.integers(0, n, size=(int(gone.sum()), 2))
    return a, StaticGraph(n, np.concatenate((edges[~gone], extra[extra[:, 0] != extra[:, 1]])))


class TestPaths:
    """The full and the delta path, each against the oracle and each other."""

    @pytest.mark.parametrize("block", [None, 2])
    @pytest.mark.parametrize("path", PATHS)
    @settings(max_examples=60, deadline=None)
    @given(pair=snapshot_pairs(), k=st.sampled_from((3, 4)))
    def test_matches_oracle(self, block, path, pair, k):
        # a bound of 2 puts every row of every level in a block of its own
        a, b = pair
        with pytest.MonkeyPatch.context() as patch:
            if block:
                patch.setattr(census, "_BLOCK_CANDIDATES", block)
            t = PATHS[path](a, b, k)
        counts, dissolved = exhaustive_transitions(a, b, k)
        assert np.array_equal(t.counts, counts)
        assert np.array_equal(t.dissolved, dissolved)

    @pytest.mark.parametrize("make", [churn_pair, growth_pair, active_pair])
    @pytest.mark.parametrize("k", [3, 4])
    def test_paths_agree_at_workload_size(self, make, k):
        a, b = make(np.random.default_rng(51))
        full, delta = (PATHS[path](a, b, k) for path in ("full", "delta"))
        assert np.array_equal(full.counts, delta.counts)
        assert np.array_equal(full.dissolved, delta.dissolved)
        assert full.total_node_transitions() == k * sum(graphlet_class_frequencies(a, k).values())
        if make is growth_pair:
            assert delta.dissolved.sum() == 0

    def test_pair_picks_its_path(self):
        rng = np.random.default_rng(52)
        takes_delta = {name: [transitions._takes_delta_path(*_union(*make(rng)), k) for _ in range(3)]
                       for name, make, k in (("churn", churn_pair, 4), ("growth", growth_pair, 4),
                                             ("active", active_pair, 3))}
        assert takes_delta == {"churn": [False] * 3, "growth": [True] * 3, "active": [True] * 3}

    def test_enumerate_transitions_takes_the_picked_path(self, monkeypatch):
        # both paths tally through _tally: the full path every source set,
        # the delta path (seeded) the changed ones
        calls = []
        tally = transitions._tally

        def spy(u, tags, k, seeded):
            calls.append(seeded)
            return tally(u, tags, k, seeded)

        monkeypatch.setattr(transitions, "_tally", spy)
        rng = np.random.default_rng(53)
        enumerate_transitions(*churn_pair(rng), 4)
        enumerate_transitions(*growth_pair(rng), 4)
        assert calls == [False, True]

    def test_delta_memory_does_not_grow_with_changes(self):
        # 4000 of a ring lattice's (reach 3) edges gone: the delta path
        # counts about 97,000 changed 4-sets, 4.4 MB of rows and masks if
        # held at once; grown in blocks, the peak stays that of the graph's
        # own arrays and the census, about 3 MB, as with 500 gone
        n = 6000
        g = StaticGraph(n, [(i, (i + j) % n) for i in range(n) for j in range(1, 4)])
        edges = g.edge_array()
        peaks = []
        for changed in (500, 4000):
            gone = np.random.default_rng(54).choice(len(edges), size=changed, replace=False)
            s_to = StaticGraph(n, np.delete(edges, gone, axis=0))
            u, tags = _union(g, s_to)
            tracemalloc.start()
            try:
                transitions._delta_path(g, u, tags, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks
        assert peaks[1] < 4 * 2**20, peaks


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
        short = type(series)(snapshots=series.snapshots[:1])
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
        assert nt[0, :4] == pytest.approx([0.5, 0.25, 0.25, 0.0])
        assert nt[1:].sum() == 0.0

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            text = random_event_text(rng, n=12, events=70, t_max=40)
            series = build_snapshots(
                parse_edge_list(text), SnapshotPolicy("active", width=10, count=4, origin=0)
            )
            nt = row_normalize(accumulate_series(series, 4))
            sums = nt.sum(axis=1)
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
        assert nt_s[4].sum() == pytest.approx(1.0)
        # every group dissolved: the row stays zero instead of normalizing
        assert nt_d[4].sum() == 0.0


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
        assert fp == (
            ("Rare", "Rare", "Common"),
            ("Common", "Common", "Frequent"),
            ("Frequent", "Frequent", "Rare"),
        )

    def test_half_way_value(self):
        assert discretize(np.full((3, 3), 0.5)) == (("Common",) * 3,) * 3

    def test_accepts_normalized_matrix(self):
        fp = discretize(np.zeros((11, 11)))
        assert len(fp) == 11 and all(len(row) == 11 for row in fp)  # k = 4
        assert all(label == "Rare" for row in fp for label in row)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            discretize(np.array([[1.2]]))
        with pytest.raises(ValueError, match="outside"):
            discretize(np.array([[-0.1]]))
        # NaN is neither below 0 nor above 1, yet no label fits it
        with pytest.raises(ValueError, match="outside"):
            discretize(np.full((3, 3), np.nan))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            discretize(np.zeros((2, 3)))

    @pytest.mark.parametrize("size", [1, 2, 4, 10, 12])
    def test_square_of_no_orbit_count_rejected(self, size):
        # only 3x3 (k=3) and 11x11 (k=4) matrices have a subgraph size
        with pytest.raises(ValueError, match="3x3"):
            discretize(np.zeros((size, size)))
