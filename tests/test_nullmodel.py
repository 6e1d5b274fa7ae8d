import numpy as np
import pytest

from orbitrans import nullmodel
from orbitrans.graph_core import StaticGraph
from orbitrans.nullmodel import (
    degree_preserving_randomize,
    ensemble_frequencies,
    randomized_replicates,
)
from orbitrans.census import graphlet_class_frequencies
from oracles import exhaustive_census, gnm_graph, gnp_graph, scalar_randomize, star_graph


def degree_multiset(g: StaticGraph):
    return sorted(np.diff(g.indptr).tolist())


class TestRandomize:
    def test_triangle_unchanged(self):
        tri = StaticGraph(3, [(0, 1), (1, 2), (0, 2)])
        out = degree_preserving_randomize(tri, 1)
        assert set(out.edges()) == set(tri.edges())

    def test_star_stays_a_star(self):
        # every degree-preserving rewiring of a star is the same star
        star = star_graph(6)
        out = degree_preserving_randomize(star, 2)
        assert set(out.edges()) == set(star.edges())

    def test_degrees_preserved_and_simple(self):
        rng = np.random.default_rng(51)
        for trial in range(10):
            g = gnp_graph(rng, 30, 0.15)
            if g.edge_count < 2:
                continue
            out = degree_preserving_randomize(g, int(rng.integers(1 << 30)))
            assert degree_multiset(out) == degree_multiset(g)
            assert out.edge_count == g.edge_count
            # StaticGraph construction enforces simplicity; double-check
            # the edge list has no repeats either way around
            edges = list(out.edges())
            assert len(edges) == len({frozenset(e) for e in edges})

    def test_actually_rewires_dense_enough_graphs(self):
        rng = np.random.default_rng(52)
        g = gnm_graph(rng, 20, 40)
        out = degree_preserving_randomize(g, 7)
        assert set(out.edges()) != set(g.edges())

    def test_same_seed_same_result(self):
        rng = np.random.default_rng(53)
        g = gnm_graph(rng, 15, 25)
        a = degree_preserving_randomize(g, 99)
        b = degree_preserving_randomize(g, 99)
        assert list(a.edges()) == list(b.edges())

    def test_generator_advances_between_calls(self):
        rng = np.random.default_rng(54)
        g = gnm_graph(rng, 15, 25)
        shared = np.random.default_rng(5)
        a = degree_preserving_randomize(g, shared)
        b = degree_preserving_randomize(g, shared)
        assert list(a.edges()) != list(b.edges())

    def test_too_few_edges(self):
        with pytest.raises(ValueError):
            degree_preserving_randomize(StaticGraph(2, [(0, 1)]), 0)

    @pytest.mark.parametrize("swaps", [0, -1])
    def test_fewer_than_one_swap_per_edge_rejected(self, swaps):
        # the unrandomized copy it would return is no replica
        g = gnm_graph(np.random.default_rng(58), 10, 15)
        with pytest.raises(ValueError, match="swaps_per_edge must be >= 1"):
            degree_preserving_randomize(g, 0, swaps)


class TestChunkedProposals:
    """The chunked draws replay the scalar reference's proposal stream."""

    @pytest.fixture(autouse=True)
    def tiny_chunks(self, monkeypatch):
        # 7 attempts per chunk: every run crosses many chunk boundaries,
        # and the last chunk is a partial one
        monkeypatch.setattr(nullmodel, "_PROPOSAL_CHUNK", 7)

    def test_same_replica_as_scalar_draws(self):
        rng = np.random.default_rng(59)
        for trial in range(12):
            if trial % 2:
                g = gnm_graph(rng, int(rng.integers(6, 30)), int(rng.integers(2, 60)))
            else:
                g = gnp_graph(rng, int(rng.integers(6, 30)), rng.uniform(0.1, 0.5))
            if g.edge_count < 2:
                continue
            for seed in (0, 1, 17, 2**40 + 3):
                swaps = int(rng.integers(1, 6))
                got = degree_preserving_randomize(g, seed, swaps)
                assert list(got.edges()) == list(scalar_randomize(g, seed, swaps).edges())

    def test_shared_generator_left_in_same_state(self):
        g = gnm_graph(np.random.default_rng(60), 20, 45)
        chunked, scalar = np.random.default_rng([4, 2]), np.random.default_rng([4, 2])
        for _ in range(3):
            a = degree_preserving_randomize(g, chunked, 3)
            b = scalar_randomize(g, scalar, 3)
            assert list(a.edges()) == list(b.edges())
        # the state holds a half-used 64-bit word, which bounds below 2**32 draw from
        assert chunked.bit_generator.state == scalar.bit_generator.state
        assert chunked.integers(1 << 62) == scalar.integers(1 << 62)


class TestConfig:
    def test_defaults(self):
        # 100 replicates, 10 swaps per edge, seed 0
        g = gnm_graph(np.random.default_rng(61), 12, 20)
        default = [list(r.edges()) for r in randomized_replicates(g)]
        assert default == [list(r.edges()) for r in randomized_replicates(g, 100, 10, 0)]
        assert ensemble_frequencies(g) == ensemble_frequencies(g, 4, 100, 10, 0)

    def test_validation(self):
        g = gnm_graph(np.random.default_rng(62), 12, 20)
        # rejected when called, before any replica is drawn
        with pytest.raises(ValueError, match="replicates"):
            randomized_replicates(g, replicates=0)
        with pytest.raises(ValueError, match="replicates"):
            ensemble_frequencies(g, replicates=0)
        with pytest.raises(ValueError, match="swaps_per_edge"):
            next(randomized_replicates(g, swaps_per_edge=0))
        with pytest.raises(ValueError, match="swaps_per_edge"):
            ensemble_frequencies(g, swaps_per_edge=0)

    def test_negative_seed(self):
        # rejected when called, like replicates < 1, not when the first replica is drawn
        g = gnm_graph(np.random.default_rng(63), 12, 20)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            randomized_replicates(g, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            ensemble_frequencies(g, seed=-1)


class TestEnsemble:
    def test_unswappable_graph_equals_own_counts(self):
        tri = StaticGraph(3, [(0, 1), (1, 2), (0, 2)])
        means = ensemble_frequencies(tri, k=3, replicates=1, swaps_per_edge=3, seed=8)
        own = graphlet_class_frequencies(tri, 3)
        assert means == {name: float(count) for name, count in own.items()}

    def test_same_seed_identical(self):
        rng = np.random.default_rng(55)
        g = gnm_graph(rng, 18, 35)
        cfg = dict(replicates=8, swaps_per_edge=5, seed=21)
        assert ensemble_frequencies(g, **cfg) == ensemble_frequencies(g, **cfg)

    def test_replicates_independent_of_generation_order(self):
        rng = np.random.default_rng(56)
        g = gnm_graph(rng, 15, 30)
        cfg = dict(replicates=5, swaps_per_edge=4, seed=3)
        full = [list(r.edges()) for r in randomized_replicates(g, **cfg)]
        # regenerating only the last replicate reproduces it exactly
        regenerated = list(randomized_replicates(g, **cfg))[-1]
        assert list(regenerated.edges()) == full[-1]

    def test_mean_matches_per_replicate_oracle_census(self):
        rng = np.random.default_rng(57)
        g = gnp_graph(rng, 25, 0.12)
        cfg = dict(replicates=20, swaps_per_edge=3, seed=13)
        means = ensemble_frequencies(g, k=4, **cfg)
        totals = {name: 0 for name in means}
        for replica in randomized_replicates(g, **cfg):
            _, classes = exhaustive_census(replica, 4)
            for name in totals:
                totals[name] += classes.get(name, 0)
        for name in totals:
            assert means[name] == pytest.approx(totals[name] / 20)
