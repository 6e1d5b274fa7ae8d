import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrans import census
from orbitrans.census import (
    GRAPHLET_CLASSES,
    OrbitFrequencyMatrix,
    build_classification_table,
    class_counts,
    compute_gdd,
    compute_orbit_frequencies,
    connected_subgraphs,
    graphlet_class_frequencies,
    orbit_count,
)
from orbitrans.graph_core import StaticGraph
from orbitrans.transitions import enumerate_transitions
from oracles import (
    classify_mask,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    exhaustive_census,
    exhaustive_occurrences,
    exhaustive_transitions,
    gnp_graph,
    kset_orbit_tally,
    neighbour_sets,
    path_graph,
    relabeled,
    ring_lattice_with_chords,
    star_graph,
    subset_mask,
)


def class_of_orbit(k: int) -> dict[int, str]:
    """Orbit id -> name of the graphlet class holding it."""
    return {orbit: cls.name for cls in GRAPHLET_CLASSES[k] for orbit in cls.orbits}


class TestClassificationTable:
    def test_connected_mask_counts(self):
        # known counts of connected labeled graphs: 4 of 8 for k=3, 38 of 64 for k=4
        for k, n_masks, connected in ((3, 8, 4), (4, 64, 38)):
            table = build_classification_table(k)
            assert len(table) == n_masks
            assert sum(orbits is not None for orbits in table) == connected

    def test_full_mask_is_clique(self):
        table = build_classification_table(4)
        assert table[0b111111] == (11, 11, 11, 11)
        assert class_of_orbit(4)[table[0b111111][0]] == "clique"

    def test_star_mask_orbits(self):
        # edges (0,1),(0,2),(0,3) occupy bits 0..2
        table = build_classification_table(4)
        assert table[0b000111] == (2, 1, 1, 1)

    def test_k3_chain_mask(self):
        # edges (0,1),(1,2) -> bits 0 and 2
        table = build_classification_table(3)
        assert table[0b101] == (1, 2, 1)

    def test_disconnected_masks_unclassified(self):
        table = build_classification_table(4)
        assert table[0] is None
        # triangle on 0,1,2 leaves node 3 isolated: edges (0,1),(0,2),(1,2)
        assert table[0b001011] is None

    def test_agrees_with_isomorphism_oracle(self):
        for k, n_masks in ((3, 8), (4, 64)):
            table = build_classification_table(k)
            for mask in range(n_masks):
                oracle = classify_mask(k, mask)
                if oracle is None:
                    assert table[mask] is None
                else:
                    name, orbits = oracle
                    assert table[mask] == orbits
                    assert {class_of_orbit(k)[orbit] for orbit in orbits} == {name}

    def test_orbit_degrees(self):
        # each position's degree in a connected mask is the one GRAPHLET_CLASSES
        # gives the orbit the isomorphism oracle puts it in
        for k in (3, 4):
            degree_of = {o: d for cls in GRAPHLET_CLASSES[k] for o, d in zip(cls.orbits, cls.degrees)}
            pairs = list(combinations(range(k), 2))
            for mask in range(1 << len(pairs)):
                found = classify_mask(k, mask)
                if found is None:
                    continue
                edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
                for position, orbit in enumerate(found[1]):
                    degree = sum(position in edge for edge in edges)
                    assert degree == degree_of[orbit], (k, mask, position)

    def test_class_orbit_partition(self):
        # the orbits listed per class cover 1..m exactly once
        for k, m in ((3, 3), (4, 11)):
            pooled = [o for cls in GRAPHLET_CLASSES[k] for o in cls.orbits]
            assert sorted(pooled) == list(range(1, m + 1))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            build_classification_table(5)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return StaticGraph(n, [pair for pair, keep in zip(pairs, present) if keep])


class TestEnumeration:
    def test_complete_graph_counts(self):
        occ = list(connected_subgraphs(complete_graph(5), 4))
        assert len(occ) == 5
        assert all(mask == 0b111111 for _nodes, mask in occ)

    def test_path_graph_single_occurrence(self):
        occ = list(connected_subgraphs(path_graph(4), 4))
        assert len(occ) == 1
        nodes, mask = occ[0]
        assert nodes == (0, 1, 2, 3)
        assert classify_mask(4, mask)[0] == "path"

    def test_each_occurrence_once(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = gnp_graph(rng, 12, 0.3)
            for k in (3, 4):
                occ = [nodes for nodes, _ in connected_subgraphs(g, k)]
                assert len(occ) == len(set(occ))

    def test_matches_subset_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            g = gnp_graph(rng, 15, 0.25)
            for k in (3, 4):
                mine = {nodes for nodes, _ in connected_subgraphs(g, k)}
                assert mine == exhaustive_occurrences(g, k)

    def test_masks_match_induced_subgraph(self):
        rng = np.random.default_rng(9)
        g = gnp_graph(rng, 10, 0.4)
        nbrs = neighbour_sets(g)
        for nodes, mask in connected_subgraphs(g, 4):
            assert mask == subset_mask(nbrs, nodes)

    @settings(max_examples=80, deadline=None)
    @given(g=small_graphs(), k=st.sampled_from((3, 4)))
    def test_yields_exactly_the_oracle_occurrences(self, g, k):
        occ = list(connected_subgraphs(g, k))
        assert sorted(nodes for nodes, _ in occ) == sorted(exhaustive_occurrences(g, k))
        nbrs = neighbour_sets(g)
        assert all(mask == subset_mask(nbrs, nodes) for nodes, mask in occ)


class TestBlockBoundaries:
    """Graphs whose k-sets span many blocks, with closed-form counts."""

    CASES = {
        # two vertices per side make a 4-cycle, three on one side a star
        "K20,20": (complete_bipartite_graph(20, 20),
                   {"cycle": comb(20, 2) ** 2, "star": 2 * comb(20, 3) * 20}),
        "K30": (complete_graph(30), {"clique": comb(30, 4)}),
        "star120": (star_graph(121), {"star": comb(120, 3)}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_closed_form_counts(self, name):
        g, expected = self.CASES[name]
        assert graphlet_class_frequencies(g, 4) == {
            cls.name: expected.get(cls.name, 0) for cls in GRAPHLET_CLASSES[4]
        }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_transitions_to_itself_and_to_nothing(self, name):
        g, expected = self.CASES[name]
        node_transitions = 4 * sum(expected.values())
        same = enumerate_transitions(g, g, 4)
        assert np.count_nonzero(same.counts - np.diag(np.diag(same.counts))) == 0
        assert same.counts.trace() == node_transitions
        assert same.dissolved.sum() == 0
        gone = enumerate_transitions(g, StaticGraph(g.n, []), 4)
        assert gone.counts.sum() == 0
        assert gone.dissolved.sum() == node_transitions

    def test_tiny_blocks_match_oracles(self, monkeypatch):
        # a bound of 8 candidates splits every level into many blocks: in
        # sparse graphs of several sets each, in dense ones mostly of
        # single sets over the bound
        monkeypatch.setattr(census, "_BLOCK_CANDIDATES", 8)
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = gnp_graph(rng, 11, rng.uniform(0.1, 0.6))
            b = gnp_graph(rng, 11, rng.uniform(0.1, 0.6))
            for k in (3, 4):
                occ = list(connected_subgraphs(a, k))
                assert sorted(nodes for nodes, _ in occ) == sorted(exhaustive_occurrences(a, k))
                nbrs = neighbour_sets(a)
                assert all(mask == subset_mask(nbrs, nodes) for nodes, mask in occ)
                oracle_counts, _ = exhaustive_census(a, k)
                assert np.array_equal(compute_orbit_frequencies(a, k).counts, oracle_counts)
                t = enumerate_transitions(a, b, k)
                counts, dissolved = exhaustive_transitions(a, b, k)
                assert np.array_equal(t.counts, counts)
                assert np.array_equal(t.dissolved, dissolved)


class TestOrbitFrequencies:
    def test_k7_every_node_in_twenty_cliques(self):
        fr = compute_orbit_frequencies(complete_graph(7), 4)
        assert np.array_equal(fr.counts[:, 10], np.full(7, 20))
        assert fr.counts[:, :10].sum() == 0

    def test_square_all_in_cycle_orbit(self):
        fr = compute_orbit_frequencies(cycle_graph(4), 4)
        expected = np.zeros((4, 11), dtype=np.int64)
        expected[:, 4] = 1
        assert np.array_equal(fr.counts, expected)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(6):
            g = gnp_graph(rng, 14, rng.uniform(0.15, 0.35))
            for k in (3, 4):
                oracle_counts, _ = exhaustive_census(g, k)
                assert np.array_equal(compute_orbit_frequencies(g, k).counts, oracle_counts)

    def test_column_sum_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = gnp_graph(rng, 13, 0.3)
            for k in (3, 4):
                fr = compute_orbit_frequencies(g, k)
                classes = graphlet_class_frequencies(g, k)
                for cls in GRAPHLET_CLASSES[k]:
                    cols = [o - 1 for o in cls.orbits]
                    assert fr.counts[:, cols].sum() == k * classes[cls.name]

    def test_relabeling_permutes_rows(self):
        rng = np.random.default_rng(14)
        g = gnp_graph(rng, 10, 0.3)
        perm = rng.permutation(10)
        h = relabeled(g, perm)
        fr_g = compute_orbit_frequencies(g, 4)
        fr_h = compute_orbit_frequencies(h, 4)
        for v in range(10):
            assert np.array_equal(fr_g.counts[v], fr_h.counts[perm[v]])
        assert graphlet_class_frequencies(g, 4) == graphlet_class_frequencies(h, 4)


class TestClassFrequencies:
    def test_single_shapes(self):
        assert graphlet_class_frequencies(complete_graph(4), 4) == {
            "star": 0, "path": 0, "cycle": 0, "paw": 0, "diamond": 0, "clique": 1,
        }
        assert graphlet_class_frequencies(star_graph(4), 4)["star"] == 1

    def test_totals_match_occurrences(self):
        rng = np.random.default_rng(15)
        g = gnp_graph(rng, 15, 0.25)
        counts = graphlet_class_frequencies(g, 4)
        assert sum(counts.values()) == len(exhaustive_occurrences(g, 4))

    def test_matches_oracle(self):
        rng = np.random.default_rng(16)
        g = gnp_graph(rng, 14, 0.3)
        _, oracle_classes = exhaustive_census(g, 4)
        assert graphlet_class_frequencies(g, 4) == {
            cls.name: oracle_classes.get(cls.name, 0) for cls in GRAPHLET_CLASSES[4]
        }


def mask_tally(g: StaticGraph, k: int) -> dict[str, int]:
    """Class counts tallied from the enumerated k-sets' masks."""
    table, class_of = build_classification_table(k), class_of_orbit(k)
    tallies = dict.fromkeys((cls.name for cls in GRAPHLET_CLASSES[k]), 0)
    for _sets, masks in census._kset_blocks(g, k):
        for mask in masks.tolist():
            tallies[class_of[table[mask][0]]] += 1
    return tallies


class TestClosedFormClassCounts:
    """``graphlet_class_frequencies`` counts without enumerating."""

    @settings(max_examples=120, deadline=None)
    @given(g=small_graphs(), k=st.sampled_from((3, 4)))
    def test_matches_enumeration_and_oracle(self, g, k):
        _, oracle_classes = exhaustive_census(g, k)
        got = graphlet_class_frequencies(g, k)
        assert got == mask_tally(g, k)
        assert got == {cls.name: oracle_classes[cls.name] for cls in GRAPHLET_CLASSES[k]}

    def test_tiny_blocks_match_enumeration(self, monkeypatch):
        # splits the wedges and the clique candidates into many blocks,
        # most of one top node or one triangle over the bound
        monkeypatch.setattr(census, "_BLOCK_CANDIDATES", 8)
        rng = np.random.default_rng(32)
        for _ in range(10):
            g = gnp_graph(rng, 16, rng.uniform(0.1, 0.8))
            for k in (3, 4):
                assert graphlet_class_frequencies(g, k) == mask_tally(g, k)

    def test_hubs_sharing_leaves(self):
        # K2,N: any two leaves close a 4-cycle through the two hubs
        leaves = 3000
        assert graphlet_class_frequencies(complete_bipartite_graph(2, leaves), 4) == {
            "star": 2 * comb(leaves, 3), "path": 0, "cycle": comb(leaves, 2),
            "paw": 0, "diamond": 0, "clique": 0,
        }

    def test_star_memory_bounded(self):
        # 5e7 leaf pairs share the hub and 1.7e11 stars are counted: held
        # at once, each int64 array over those wedges would take 400 MB
        leaves = 10_000
        g = star_graph(leaves + 1)
        tracemalloc.start()
        try:
            counts = graphlet_class_frequencies(g, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == {cls.name: 0 for cls in GRAPHLET_CLASSES[4]} | {"star": comb(leaves, 3)}
        assert peak < 8 * 2**20


@st.composite
def graphs_with_isolated_nodes(draw):
    """Up to 12 nodes, up to 3 of them on no edge; edgeless graphs included."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = list(combinations(range(n), 2))
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    isolated = draw(st.integers(min_value=0, max_value=3))
    name = draw(st.permutations(range(n + isolated)))
    return StaticGraph(
        n + isolated, [(name[u], name[v]) for (u, v), keep in zip(pairs, present) if keep]
    )


def per_node(n: int, *columns: tuple[slice | int, int, int]) -> np.ndarray:
    """An (n, 11) orbit counts matrix: value at (rows, orbit) for each column."""
    counts = np.zeros((n, 11), dtype=np.int64)
    for rows, orbit, value in columns:
        counts[rows, orbit - 1] = value
    return counts


class TestClosedFormOrbitCounts:
    """``compute_orbit_frequencies`` counts each node's orbits without enumerating."""

    @pytest.mark.parametrize("block", [None, 8])
    @settings(max_examples=120, deadline=None)
    @given(g=graphs_with_isolated_nodes(), k=st.sampled_from((3, 4)))
    def test_matches_oracles(self, block, g, k):
        # a bound of 8 splits the wedges, triangles and clique candidates
        # into many blocks and makes the diamond pass recount the triangles
        with pytest.MonkeyPatch.context() as patch:
            if block:
                patch.setattr(census, "_BLOCK_CANDIDATES", block)
            got = compute_orbit_frequencies(g, k).counts
        assert got.shape == (g.n, orbit_count(k))
        assert np.array_equal(got, exhaustive_census(g, k)[0])
        assert np.array_equal(got, kset_orbit_tally(g, k))

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_edgeless(self, n):
        for k in (3, 4):
            assert np.array_equal(
                compute_orbit_frequencies(StaticGraph(n, []), k).counts,
                np.zeros((n, orbit_count(k)), dtype=np.int64),
            )
            assert set(graphlet_class_frequencies(StaticGraph(n, []), k).values()) == {0}

    @pytest.mark.parametrize("block", [None, 8])
    @pytest.mark.parametrize("k", [3, 4])
    def test_ring_lattice_with_chords(self, monkeypatch, block, k):
        if block:
            monkeypatch.setattr(census, "_BLOCK_CANDIDATES", block)
        g = ring_lattice_with_chords(np.random.default_rng(41), 250, reach=4, chords=50)
        assert np.array_equal(compute_orbit_frequencies(g, k).counts, kset_orbit_tally(g, k))

    def test_tiny_blocks_dense_graphs(self, monkeypatch):
        monkeypatch.setattr(census, "_BLOCK_CANDIDATES", 8)
        rng = np.random.default_rng(33)
        for _ in range(10):
            g = gnp_graph(rng, 16, rng.uniform(0.1, 0.8))
            for k in (3, 4):
                got = compute_orbit_frequencies(g, k).counts
                assert np.array_equal(got, kset_orbit_tally(g, k))

    def test_never_enumerates(self, monkeypatch):
        def refuse(g, k):
            raise AssertionError("the orbit census enumerated k-sets")

        rng = np.random.default_rng(34)
        g = gnp_graph(rng, 13, 0.4)
        expected = [exhaustive_census(g, k) for k in (3, 4)]
        monkeypatch.setattr(census, "_kset_blocks", refuse)
        for k, (counts, classes) in zip((3, 4), expected):
            assert np.array_equal(compute_orbit_frequencies(g, k).counts, counts)
            assert graphlet_class_frequencies(g, k) == {
                cls.name: classes[cls.name] for cls in GRAPHLET_CLASSES[k]
            }

    CASES = {
        # a node of K20,20 is a star leaf under each of the 20 nodes across
        # with two of its 19 partners, a star centre over three of those 20,
        # and on a 4-cycle with any partner and any two nodes across
        "K20,20": (complete_bipartite_graph(20, 20),
                   per_node(40, (slice(None), 1, 20 * comb(19, 2)),
                            (slice(None), 2, comb(20, 3)), (slice(None), 5, 19 * comb(20, 2)))),
        "K30": (complete_graph(30), per_node(30, (slice(None), 11, comb(29, 3)))),
        "star120": (star_graph(121),
                    per_node(121, (0, 2, comb(120, 3)), (slice(1, None), 1, comb(119, 2)))),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_closed_form_per_node(self, name):
        g, expected = self.CASES[name]
        assert np.array_equal(compute_orbit_frequencies(g, 4).counts, expected)

    def test_star_memory_bounded(self):
        # the census never holds the star's 1.7e11 connected 4-sets, nor
        # an array over its 5e7 leaf pairs
        leaves = 10_000
        g = star_graph(leaves + 1)
        tracemalloc.start()
        try:
            counts = compute_orbit_frequencies(g, 4).counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = per_node(leaves + 1, (0, 2, comb(leaves, 3)),
                            (slice(1, None), 1, comb(leaves - 1, 2)))
        assert np.array_equal(counts, expected)
        assert peak < 8 * 2**20

    def test_degree_guard_raises(self, monkeypatch):
        # every count, and every product on the way to it, is at most the
        # largest degree cubed: the guard keeps that in int64
        assert census._MAX_DEGREE**3 < 2**63 <= (census._MAX_DEGREE + 1) ** 3
        monkeypatch.setattr(census, "_MAX_DEGREE", 99)
        assert compute_orbit_frequencies(star_graph(100), 4).counts[0, 1] == comb(99, 3)
        for k in (3, 4):
            with pytest.raises(OverflowError, match="degree 100"):
                compute_orbit_frequencies(star_graph(101), k)
            with pytest.raises(OverflowError, match="degree 100"):
                graphlet_class_frequencies(star_graph(101), k)

    def test_class_totals_exact_past_int64(self):
        # column sums are joined from 32-bit halves, so they never wrap
        big = np.full((4, 11), 2**62, dtype=np.int64)
        totals = class_counts(OrbitFrequencyMatrix(k=4, counts=big))
        assert totals["clique"] == 4 * 2**62 // 4
        assert totals["paw"] == 3 * 4 * 2**62 // 4


class TestClassCountsFromOrbitCensus:
    @settings(max_examples=60, deadline=None)
    @given(g=small_graphs(), k=st.sampled_from((3, 4)))
    def test_matches_class_tally_and_oracle(self, g, k):
        got = class_counts(compute_orbit_frequencies(g, k))
        _, oracle_classes = exhaustive_census(g, k)
        assert got == graphlet_class_frequencies(g, k)
        assert got == {cls.name: oracle_classes[cls.name] for cls in GRAPHLET_CLASSES[k]}


class TestGdd:
    def test_uniform_column(self):
        counts = np.zeros((6, 3), dtype=np.int64)
        counts[:, 1] = 2
        raw, normalized = compute_gdd(OrbitFrequencyMatrix(k=3, counts=counts))
        assert raw[1] == {2: 6}
        assert normalized[1] == {2: 1.0}

    def test_inverse_k_scaling_example(self):
        # degree counts {1: 2, 2: 1} scale to {1: 2, 2: 0.5} -> {1: 0.8, 2: 0.2}
        counts = np.array([[1], [1], [2]], dtype=np.int64)
        _raw, normalized = compute_gdd(OrbitFrequencyMatrix(k=3, counts=counts))
        assert normalized[0] == pytest.approx({1: 0.8, 2: 0.2})

    def test_plain_scaling(self):
        counts = np.array([[1], [1], [2]], dtype=np.int64)
        _raw, normalized = compute_gdd(OrbitFrequencyMatrix(k=3, counts=counts), scaling="plain")
        assert normalized[0] == pytest.approx({1: 2 / 3, 2: 1 / 3})
        with pytest.raises(ValueError):
            compute_gdd(OrbitFrequencyMatrix(k=3, counts=counts), scaling="other")

    def test_untouched_orbits_flagged(self):
        fr = compute_orbit_frequencies(star_graph(6), 4)
        _raw, normalized = compute_gdd(fr)
        assert normalized[10] == {}  # orbit 11, untouched
        assert normalized[0] != {}  # orbit 1, touched

    def test_raw_includes_zero_bucket(self):
        fr = compute_orbit_frequencies(star_graph(6), 4)
        raw, _normalized = compute_gdd(fr)
        for dist in raw:
            assert sum(dist.values()) == 6

    def test_k5_clique_orbit_from_oracle(self):
        g = complete_graph(5)
        oracle_counts, _ = exhaustive_census(g, 4)
        expected_degree = int(oracle_counts[0, 10])  # C(4,3) appearances per node
        assert expected_degree == 4
        raw, normalized = compute_gdd(compute_orbit_frequencies(g, 4))
        assert raw[10] == {expected_degree: 5}
        assert normalized[10] == {expected_degree: 1.0}
