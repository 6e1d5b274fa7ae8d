import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrans import census, transitions
from orbitrans.graph_core import (
    SnapshotPolicy,
    SnapshotSeries,
    StaticGraph,
    build_snapshots,
    parse_edge_list,
)
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
    neighbour_sets,
    path_graph,
    random_event_text,
    relabeled,
    ring_lattice_with_chords,
    subset_mask,
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


@st.composite
def changing_series(draw):
    """Snapshots on one node set, each the last with a few random pairs
    flipped, or under ``aggregate`` only added; and a path for each pair,
    True for the delta path."""
    n = draw(st.integers(min_value=0, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    aggregate = draw(st.booleans())
    length = draw(st.integers(min_value=2, max_value=5))
    live = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    snapshots = [live]
    for _ in range(length - 1):
        flips = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
        snapshots.append(snapshots[-1] | flips if aggregate else snapshots[-1] ^ flips)
    delta = draw(st.lists(st.booleans(), min_size=length - 1, max_size=length - 1))
    return [StaticGraph(n, sorted(s)) for s in snapshots], aggregate, delta


def forced_series(series, k, delta, patch):
    """``accumulate_series(series, k)`` with pair i on the delta path if
    ``delta[i]``, set through ``_DELTA_BELOW``; and each pair's result."""
    pairs, picks = [], iter(delta)

    def forced(s_from, s_to, k, **kwargs):
        # no pair's changed pairs reach 1e9 times what its source's edges do
        patch.setattr(transitions, "_DELTA_BELOW", dict.fromkeys((3, 4), 1e9 if next(picks) else 0.0))
        pairs.append(enumerate_transitions(s_from, s_to, k, **kwargs))
        return pairs[-1]

    patch.setattr(transitions, "enumerate_transitions", forced)
    return accumulate_series(series, k), pairs


def drop_first_seeded_block(patch):
    """Make ``_tally`` lose the first block of its first seeded enumeration."""
    dropped = []

    def dropping(u, tags, k, seeded, rows):
        blocks = census._pair_blocks(u, tags, k, seeded, rows)
        if seeded and not dropped:
            dropped.append(next(blocks))
        return blocks

    patch.setattr(transitions, "_pair_blocks", dropping)


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

    @pytest.mark.parametrize("k", [2, 5])
    def test_rejects_other_sizes(self, k):
        with pytest.raises(ValueError, match=f"^subgraph size must be 3 or 4, got {k}$"):
            enumerate_transitions(triangle(), triangle(), k)

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

    def test_full_memory_does_not_grow_with_sets(self):
        # two pairs of about 6,000-edge sources and 11,500-edge unions: a
        # ring lattice of reach 2 holds 24,000 connected 4-sets, one of
        # reach 24 with each edge kept at 1/12 about 113,000, 5.4 MB of
        # rows and masks if held at once; grown in blocks, the full path's
        # peak stays that of the pair's own arrays and one block's, about
        # 1.5 MB
        n = 3000
        rng = np.random.default_rng(56)

        def lattice(reach, live):
            ring = np.array([(i, (i + j) % n) for i in range(n) for j in range(1, reach + 1)])
            return StaticGraph(n, ring[rng.random(len(ring)) < live])

        wide = [lattice(24, 1 / 12) for _ in range(3)]
        peaks = []
        for s_from, s_to in ((lattice(2, 1.0), wide[0]), (wide[1], wide[2])):
            u, tags = _union(s_from, s_to)
            tracemalloc.start()
            try:
                transitions._tally(u, tags, 4, seeded=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks
        assert peaks[1] < 2 * 2**20, peaks


class TestKernelRows:
    """The row contract of ``census._pair_blocks`` on graphs with permuted ids."""

    @pytest.mark.parametrize("block", [None, 2])
    @pytest.mark.parametrize("k", [3, 4])
    def test_rows_on_relabeled_graphs(self, monkeypatch, block, k):
        # the full path skips neighbours below a row's first member and puts
        # each new node in place, so both read node ids: permuted ids give
        # rows in every order
        if block:
            monkeypatch.setattr(census, "_BLOCK_CANDIDATES", block)
        rng = np.random.default_rng(57)
        pairs = [(gnp_graph(rng, 12, rng.uniform(0.15, 0.5)), gnp_graph(rng, 12, rng.uniform(0.15, 0.5)))
                 for _ in range(4)] + [churn_pair(rng, n=13)]
        for a, b in pairs:
            perm = rng.permutation(a.n)
            a, b = relabeled(a, perm), relabeled(b, perm)
            u, tags = _union(a, b)
            nbrs = neighbour_sets(a), neighbour_sets(b)
            changed = set(a.edges()) ^ set(b.edges())
            seeded = []
            for nodes in exhaustive_occurrences(u, k):
                pairs_changed = [p for p in combinations(nodes, 2) if p in changed]
                if pairs_changed:
                    seed = min(pairs_changed)
                    seeded.append(seed + tuple(sorted(set(nodes) - set(seed))))
            expected = {False: sorted(exhaustive_occurrences(a, k)), True: sorted(seeded)}
            for is_seeded, rows in expected.items():
                got = []
                for sets, (from_masks, to_masks) in census._pair_blocks(u, tags, k, is_seeded, rows=True):
                    for row, from_mask, to_mask in zip(map(tuple, sets.tolist()), from_masks.tolist(),
                                                       to_masks.tolist()):
                        assert from_mask == subset_mask(nbrs[0], row)
                        assert to_mask == subset_mask(nbrs[1], row)
                        got.append(row)
                assert sorted(got) == rows
                if not is_seeded:
                    assert all(row == tuple(sorted(set(row))) for row in got)

    @pytest.mark.parametrize("block", [None, 2, 8])
    @settings(max_examples=40, deadline=None)
    @given(pair=snapshot_pairs(), k=st.sampled_from((3, 4)), seeded=st.booleans(), data=st.data())
    def test_tally_bins_match_rows_and_oracle(self, block, pair, k, seeded, data):
        # the tally reads only the last level's (source, target) masks: their
        # bins are those of the rows the kernel yields, masked by the oracle,
        # and those of every set the oracle finds, a seeded one ordered as
        # its row is, its smallest changed pair first
        perm = data.draw(st.permutations(range(pair[0].n)))
        a, b = (relabeled(g, perm) for g in pair)
        u, tags = _union(a, b)
        nbrs = neighbour_sets(a), neighbour_sets(b)

        def bins(sets):
            return Counter((subset_mask(nbrs[0], row), subset_mask(nbrs[1], row)) for row in sets)

        with pytest.MonkeyPatch.context() as patch:
            if block:
                patch.setattr(census, "_BLOCK_CANDIDATES", block)
            tallied = Counter()
            for sets, (from_masks, to_masks) in census._pair_blocks(u, tags, k, seeded, rows=False):
                assert sets is None
                tallied.update(zip(from_masks.tolist(), to_masks.tolist()))
            yielded = Counter()
            for sets, _masks in census._pair_blocks(u, tags, k, seeded, rows=True):
                yielded.update(bins(map(tuple, sets.tolist())))
        changed = set(a.edges()) ^ set(b.edges())
        found = exhaustive_occurrences(u if seeded else a, k)
        if seeded:
            seeds = ((nodes, changed.intersection(combinations(nodes, 2))) for nodes in found)
            found = [min(pairs) + tuple(sorted(set(nodes) - set(min(pairs)))) for nodes, pairs in seeds if pairs]
        assert tallied == yielded == bins(found)


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

    @settings(max_examples=80, deadline=None)
    @given(drawn=changing_series(), k=st.sampled_from((3, 4)))
    def test_paths_in_any_order_match_oracle(self, drawn, k):
        # a delta pair takes its source totals from the pair before if that
        # was a delta pair too, else from a census; every chain is checked
        snapshots, aggregate, delta = drawn
        with pytest.MonkeyPatch.context() as patch:
            total, pairs = forced_series(SnapshotSeries(tuple(snapshots)), k, delta, patch)
        # an edgeless source gives the delta path no weight to pick it by
        assert [p.formed is not None for p in pairs] == [
            d and a.edge_count > 0 for d, a in zip(delta, snapshots)]
        for a, b, p in zip(snapshots, snapshots[1:], pairs):
            counts, dissolved = exhaustive_transitions(a, b, k)
            assert np.array_equal(p.counts, counts)
            assert np.array_equal(p.dissolved, dissolved)
            assert p.total_node_transitions() == k * len(exhaustive_occurrences(a, k))
            if aggregate:
                assert p.dissolved.sum() == 0
        assert np.array_equal(total.counts, sum(p.counts for p in pairs))
        assert np.array_equal(total.dissolved, sum(p.dissolved for p in pairs))
        assert total.pairs_processed == len(pairs)

    @pytest.mark.parametrize("ends_at, check", [
        ("full", "pair 2->3: the orbit totals of snapshot 2, carried from snapshot 0, "
                 "disagree with its full-path tally"),
        ("delta", "pair 2->3: the orbit totals of snapshot 3, carried from snapshot 0, "
                  "disagree with its closed-form census"),
    ])
    def test_lost_block_fails_the_chain_check(self, monkeypatch, ends_at, check):
        # pairs 0->1 and 1->2 carry the totals on; the check where the chain
        # ends finds the block that pair 0->1 lost
        monkeypatch.setattr(census, "_BLOCK_CANDIDATES", 2)  # a block per row
        rng = np.random.default_rng(58)
        snapshots = [gnm_graph(rng, 14, 20)]
        for _ in range(3):
            snapshots.append(StaticGraph(14, np.concatenate((snapshots[-1].edge_array(),
                                                             gnm_graph(rng, 14, 3).edge_array()))))
        series = SnapshotSeries(tuple(snapshots))
        delta = [True, True, ends_at == "delta"]
        with pytest.MonkeyPatch.context() as patch:
            forced_series(series, 4, delta, patch)  # intact, the checks pass
            drop_first_seeded_block(patch)
            with pytest.raises(RuntimeError, match=f"^snapshot {check} "):
                forced_series(series, 4, delta, patch)

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
        nt = np.asarray(row_normalize(t))
        assert nt[0, :4] == pytest.approx([0.5, 0.25, 0.25, 0.0])
        assert nt[1:].sum() == 0.0

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            text = random_event_text(rng, n=12, events=70, t_max=40)
            series = build_snapshots(
                parse_edge_list(text), SnapshotPolicy("active", width=10, count=4, origin=0)
            )
            nt = np.asarray(row_normalize(accumulate_series(series, 4)))
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
        nt_s = np.asarray(row_normalize(survived))
        nt_d = np.asarray(row_normalize(dissolved))
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
