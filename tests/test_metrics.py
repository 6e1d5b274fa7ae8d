import math

import numpy as np
import pytest

from orbitrans.census import (
    OrbitFrequencyMatrix,
    compute_gdd,
    compute_orbit_frequencies,
    graphlet_class_frequencies,
)
from orbitrans.graph_core import StaticGraph
from orbitrans.metrics import (
    SimilarityMatrix,
    cut_clusters,
    fingerprint_distance,
    gda_matrix,
    gda_pair,
    hierarchical_cluster,
    motif_distance_matrix,
    motif_scores_from_counts,
    ota_matrix,
    ota_pair,
    relative_rescale,
)
from orbitrans.transitions import OrbitTransitionMatrix, row_normalize
from oracles import formula_gda, formula_ota, gnp_graph, scipy_merges


def random_fr(rng, n=20, m=11, high=6):
    return OrbitFrequencyMatrix(k=4, counts=rng.integers(0, high, size=(n, m)))


def random_transition_matrix(rng, m=11, scale=20):
    counts = rng.integers(0, scale, size=(m, m))
    counts[rng.integers(m)] = 0  # keep some all-zero rows in play
    return OrbitTransitionMatrix(
        k=4,
        counts=counts.astype(np.int64),
        dissolved=np.zeros(m, dtype=np.int64),
        pairs_processed=1,
    )


class TestGda:
    def test_identical_is_one(self):
        rng = np.random.default_rng(31)
        gdd = compute_gdd(random_fr(rng))
        assert gda_pair(gdd, gdd) == pytest.approx(1.0)

    def test_disjoint_unit_masses_single_orbit(self):
        a = compute_gdd(OrbitFrequencyMatrix(k=3, counts=np.array([[1, 0, 0]])))
        b = compute_gdd(OrbitFrequencyMatrix(k=3, counts=np.array([[2, 0, 0]])))
        # orbit 1 carries all mass at distinct degrees -> agreement 0 there;
        # orbits 2 and 3 are untouched in both -> agreement 1 each
        assert gda_pair(a, b) == pytest.approx(2 / 3)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            fa, fb = random_fr(rng), random_fr(rng)
            mine = gda_pair(compute_gdd(fa), compute_gdd(fb))
            assert mine == pytest.approx(formula_gda(fa.counts, fb.counts), abs=1e-12)

    def test_real_graphs_against_oracle(self):
        rng = np.random.default_rng(33)
        g = gnp_graph(rng, 20, 0.2)
        h = gnp_graph(rng, 20, 0.3)
        fg = compute_orbit_frequencies(g, 4)
        fh = compute_orbit_frequencies(h, 4)
        mine = gda_pair(compute_gdd(fg), compute_gdd(fh))
        assert mine == pytest.approx(formula_gda(fg.counts, fh.counts), abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            a = compute_gdd(random_fr(rng))
            b = compute_gdd(random_fr(rng))
            ab, ba = gda_pair(a, b), gda_pair(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert -1e-9 <= ab <= 1 + 1e-9

    def test_mismatched_orbit_sets(self):
        a = compute_gdd(OrbitFrequencyMatrix(k=3, counts=np.zeros((2, 3), dtype=np.int64)))
        b = compute_gdd(OrbitFrequencyMatrix(k=4, counts=np.zeros((2, 11), dtype=np.int64)))
        with pytest.raises(ValueError):
            gda_pair(a, b)

    def test_matrix_pools_multiple_gdd_bundles(self):
        rng = np.random.default_rng(35)
        g4 = [compute_gdd(random_fr(rng)) for _ in range(3)]
        g3 = [
            compute_gdd(OrbitFrequencyMatrix(k=3, counts=rng.integers(0, 5, size=(20, 3))))
            for _ in range(3)
        ]
        sim = gda_matrix(["a", "b", "c"], list(zip(g4, g3)))
        assert sim.kind == "GDA"
        assert np.allclose(sim.values, sim.values.T)
        assert np.allclose(np.diag(sim.values), 1.0)
        # pooled mean over 11 + 3 orbit scores
        from orbitrans.metrics import gda_orbit_scores

        pooled = gda_orbit_scores(g4[0], g4[1]) + gda_orbit_scores(g3[0], g3[1])
        assert sim.values[0, 1] == pytest.approx(sum(pooled) / 14)


class TestRelativeRescale:
    def test_three_values(self):
        mats = [np.full((2, 2), v) for v in (0.2, 0.6, 1.0)]
        out = relative_rescale(mats)
        assert [m[0, 0] for m in out] == pytest.approx([0.0, 0.5, 1.0])

    def test_constant_cell_maps_to_zero(self):
        out = relative_rescale([np.full((2, 2), 0.4), np.full((2, 2), 0.4)])
        assert all(np.all(m == 0.0) for m in out)

    def test_extremes_attained(self):
        rng = np.random.default_rng(36)
        mats = [rng.random((5, 5)) for _ in range(4)]
        out = np.stack(relative_rescale(mats))
        assert np.allclose(out.min(axis=0), 0.0)
        assert np.allclose(out.max(axis=0), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(37)
        mats = [rng.random((4, 4)) for _ in range(3)]
        once = relative_rescale(mats)
        twice = relative_rescale(once)
        for a, b in zip(once, twice):
            assert np.allclose(a, b)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            relative_rescale([np.zeros((2, 2))])


class TestOta:
    def test_identical_normalized(self):
        rng = np.random.default_rng(38)
        m = rng.random((11, 11))
        assert ota_pair(m, m) == pytest.approx(1.0)

    def test_opposite_extremes(self):
        z, o = np.zeros((11, 11)), np.ones((11, 11))
        assert ota_pair(z, o) == pytest.approx(0.0)
        assert ota_pair(z, o, ota_scaling="per_orbit") == pytest.approx(0.0)

    def test_per_orbit_scaling_identical_is_eleven(self):
        m = np.random.default_rng(39).random((11, 11))
        assert ota_pair(m, m, ota_scaling="per_orbit") == 11.0

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            a, b = rng.random((11, 11)), rng.random((11, 11))
            assert ota_pair(a, b) == pytest.approx(formula_ota(a, b), abs=1e-12)
            assert ota_pair(
                a, b, ota_scaling="per_orbit"
            ) == pytest.approx(formula_ota(a, b, per_cell=False), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ota_pair(np.zeros((3, 3)), np.zeros((11, 11)))

    def test_matrix_duplicate_network_maximal(self):
        rng = np.random.default_rng(41)
        t1 = random_transition_matrix(rng)
        t2 = random_transition_matrix(rng)
        sim = ota_matrix(["x", "x2", "y"], [t1, t1, t2])
        row = sim.values[0]
        assert row[1] == max(row[j] for j in (1, 2))
        assert sim.values[0, 1] == pytest.approx(1.0)

    def test_matrix_reorder_permutes(self):
        rng = np.random.default_rng(42)
        ts = [random_transition_matrix(rng) for _ in range(3)]
        sim = ota_matrix(["a", "b", "c"], ts)
        sim_rev = ota_matrix(["c", "b", "a"], ts[::-1])
        assert np.allclose(sim.values, sim_rev.values[::-1, ::-1])

    def test_matrix_equals_manual_pipeline(self):
        rng = np.random.default_rng(43)
        ts = [random_transition_matrix(rng) for _ in range(3)]
        sim = ota_matrix(["a", "b", "c"], ts)
        rescaled = relative_rescale([row_normalize(t) for t in ts])
        for i in range(3):
            for j in range(3):
                assert sim.values[i, j] == pytest.approx(
                    formula_ota(rescaled[i], rescaled[j]), abs=1e-12
                )

    def test_matrix_without_rescale(self):
        rng = np.random.default_rng(44)
        ts = [random_transition_matrix(rng) for _ in range(2)]
        sim = ota_matrix(["a", "b"], ts, rescale=False)
        raw = [row_normalize(t) for t in ts]
        assert sim.values[0, 1] == pytest.approx(formula_ota(raw[0], raw[1]), abs=1e-12)


class TestMotifScores:
    def test_all_match_ensemble(self):
        fp = motif_scores_from_counts([3, 3, 0, 1, 0, 2], [3.0, 3.0, 0.0, 1.0, 0.0, 2.0])
        assert np.all(fp == 0.0)

    def test_absent_from_ensemble_scores_one(self):
        fp = motif_scores_from_counts([10, 0, 0, 0, 0, 0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert fp[0] == pytest.approx(1.0)
        assert np.linalg.norm(fp) == pytest.approx(1.0)

    def test_single_nonzero_becomes_unit(self):
        fp = motif_scores_from_counts([0, 0, 5, 0, 0, 0], [0.0, 0.0, 20.0, 0.0, 0.0, 0.0])
        assert abs(fp[2]) == pytest.approx(1.0)
        assert fp[2] < 0  # under-represented versus the ensemble

    def test_sign_convention(self):
        fp = motif_scores_from_counts([8, 2, 0, 0, 0, 0], [2.0, 8.0, 0.0, 0.0, 0.0, 0.0])
        assert fp[0] > 0 and fp[1] < 0

    def test_unit_norm(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            real = list(rng.integers(0, 40, size=6))
            means = list(rng.random(6) * 40)
            fp = motif_scores_from_counts(real, means)
            assert np.linalg.norm(fp) == pytest.approx(1.0, abs=1e-9)

    def test_from_graph(self):
        g = StaticGraph(4, [(0, 1), (0, 2), (0, 3)])
        fp = motif_scores_from_counts(list(graphlet_class_frequencies(g, 4).values()), [0.5, 0.5, 0, 0, 0, 0])
        raw = np.array([(1 - 0.5) / (1 + 0.5), (0 - 0.5) / (0 + 0.5), 0, 0, 0, 0])
        assert fp == pytest.approx(raw / np.linalg.norm(raw))

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            motif_scores_from_counts([1, 2], [1.0, 2.0])


class TestFingerprintDistance:
    def test_zero_for_identical(self):
        fp = motif_scores_from_counts([1, 2, 3, 4, 5, 6], [6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        assert fingerprint_distance(fp, fp) == 0.0

    def test_opposite_unit_vectors(self):
        a = motif_scores_from_counts([10, 0, 0, 0, 0, 0], [0.0] * 6)
        b = motif_scores_from_counts([0, 0, 0, 0, 0, 0], [10.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert fingerprint_distance(a, b) == pytest.approx(2.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(46)
        a = motif_scores_from_counts(list(rng.integers(0, 30, 6)), list(rng.random(6) * 30))
        b = motif_scores_from_counts(list(rng.integers(0, 30, 6)), list(rng.random(6) * 30))
        direct = math.sqrt(float(np.sum((a - b) ** 2)))
        assert fingerprint_distance(a, b) == pytest.approx(direct, abs=1e-12)

    def test_class_set_mismatch(self):
        a = motif_scores_from_counts([1, 0, 0, 0, 0, 0], [0.0] * 6)
        b = np.array([1.0, 0.0])  # a k=3 fingerprint: chain, triangle
        with pytest.raises(ValueError):
            fingerprint_distance(a, b)

    def test_distance_matrix(self):
        rng = np.random.default_rng(47)
        fps = [
            motif_scores_from_counts(list(rng.integers(0, 30, 6)), list(rng.random(6) * 30))
            for _ in range(3)
        ]
        sim = motif_distance_matrix(["a", "b", "c"], fps)
        assert sim.kind == "MotifDistance"
        assert np.allclose(np.diag(sim.values), 0.0)
        assert np.allclose(sim.values, sim.values.T)


def _gda_inputs(rng, n):
    return [[compute_gdd(random_fr(rng))] for _ in range(n)]


def _ota_inputs(rng, n):
    return [random_transition_matrix(rng) for _ in range(n)]


def _motif_inputs(rng, n):
    return [
        motif_scores_from_counts(list(rng.integers(0, 30, 6)), list(rng.random(6) * 30))
        for _ in range(n)
    ]


class TestMatrixBuilders:
    @pytest.mark.parametrize(
        "build, inputs, options, diagonal",
        [
            (gda_matrix, _gda_inputs, {}, 1.0),
            (ota_matrix, _ota_inputs, {}, 1.0),
            (ota_matrix, _ota_inputs, {"ota_scaling": "per_orbit"}, 11.0),
            (ota_matrix, _ota_inputs, {"ota_scaling": "per_orbit", "rescale": False}, 11.0),
            (motif_distance_matrix, _motif_inputs, {}, 0.0),
        ],
        ids=["gda", "ota", "ota-per_orbit", "ota-per_orbit-raw", "motif"],
    )
    def test_input_checks_symmetry_and_diagonal(self, build, inputs, options, diagonal):
        items = inputs(np.random.default_rng(48), 4)
        with pytest.raises(ValueError, match="required per network name"):
            build(["a", "b", "c"], items, **options)
        # one network is rejected by the builder, not later by relative_rescale
        with pytest.raises(ValueError, match="at least 2 networks to compare"):
            build(["a"], items[:1], **options)
        sim = build(["a", "b", "c", "d"], items, **options)
        # exact, as read_similarity_csv requires of the written matrix
        assert np.array_equal(sim.values, sim.values.T)
        assert np.all(np.diag(sim.values) == diagonal)


def agreement_matrix(names, values):
    return SimilarityMatrix(names=tuple(names), values=np.asarray(values, float), kind="OTA")


class TestClustering:
    def test_identical_pair_merges_first(self):
        sim = agreement_matrix(
            "abc", [[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]]
        )
        merges = hierarchical_cluster(sim)
        assert set(merges[0].left) | set(merges[0].right) == {"a", "b"}
        assert merges[0].height == pytest.approx(0.0)

    def test_block_structure_respected(self):
        names = ["a1", "a2", "b1", "b2"]
        v = np.array(
            [
                [1.0, 0.9, 0.1, 0.15],
                [0.9, 1.0, 0.12, 0.1],
                [0.1, 0.12, 1.0, 0.85],
                [0.15, 0.1, 0.85, 1.0],
            ]
        )
        merges = hierarchical_cluster(agreement_matrix(names, v))
        first_two = [set(m.left) | set(m.right) for m in merges[:2]]
        assert {"a1", "a2"} in first_two and {"b1", "b2"} in first_two
        assert cut_clusters(names, merges, 2) == [("a1", "a2"), ("b1", "b2")]

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_matches_scipy_reference(self, linkage):
        rng = np.random.default_rng(48)
        for _ in range(8):
            n = int(rng.integers(4, 9))
            # tie-free random distances
            tri = rng.permutation(n * (n - 1) // 2) + rng.random(n * (n - 1) // 2)
            dist = np.zeros((n, n))
            dist[np.triu_indices(n, 1)] = tri
            dist += dist.T
            names = [f"n{i}" for i in range(n)]
            sim = SimilarityMatrix(tuple(names), 1.0 - dist, kind="GDA")
            mine = hierarchical_cluster(sim, linkage=linkage)
            ref = scipy_merges(dist, names, linkage)
            for step, (ra, rb, rh) in zip(mine, ref):
                assert {frozenset(step.left), frozenset(step.right)} == {ra, rb}
                assert step.height == pytest.approx(rh, abs=1e-9)

    def test_deterministic_tie_break(self):
        # all pairwise distances equal: first merge must be the two
        # lexicographically smallest labels
        sim = agreement_matrix(
            ["zeta", "alpha", "mid"],
            [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]],
        )
        merges = hierarchical_cluster(sim)
        assert set(merges[0].left) | set(merges[0].right) == {"alpha", "mid"}

    def test_permutation_invariance(self):
        rng = np.random.default_rng(49)
        n = 5
        tri = rng.random(n * (n - 1) // 2)
        dist = np.zeros((n, n))
        dist[np.triu_indices(n, 1)] = tri
        dist += dist.T
        names = [f"n{i}" for i in range(n)]
        sim = SimilarityMatrix(tuple(names), 1.0 - dist, kind="OTA")
        merges = hierarchical_cluster(sim)
        order = rng.permutation(n)
        sim_p = SimilarityMatrix(
            tuple(names[i] for i in order), (1.0 - dist)[np.ix_(order, order)], kind="OTA"
        )
        merges_p = hierarchical_cluster(sim_p)
        as_sets = lambda ms: [
            ({frozenset(m.left), frozenset(m.right)}, pytest.approx(m.height)) for m in ms
        ]
        assert as_sets(merges) == as_sets(merges_p)

    def test_distance_kind_used_directly(self):
        sim = SimilarityMatrix(
            ("a", "b", "c"),
            np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]]),
            kind="MotifDistance",
        )
        merges = hierarchical_cluster(sim)
        assert set(merges[0].left) | set(merges[0].right) == {"a", "b"}
        assert merges[0].height == pytest.approx(0.1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            hierarchical_cluster(agreement_matrix("a", [[1.0]]))
        with pytest.raises(ValueError):
            hierarchical_cluster(agreement_matrix("abc", np.eye(3)), linkage="median")

    def test_cut_clusters_bounds(self):
        sim = agreement_matrix("ab", [[1.0, 0.5], [0.5, 1.0]])
        merges = hierarchical_cluster(sim)
        assert cut_clusters(["a", "b"], merges, 1) == [("a", "b")]
        assert cut_clusters(["a", "b"], merges, 2) == [("a",), ("b",)]
        with pytest.raises(ValueError):
            cut_clusters(["a", "b"], merges, 3)
