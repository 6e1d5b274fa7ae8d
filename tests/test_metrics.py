import json
import math
import numbers
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrans import catalogue, census, metrics
from orbitrans.census import (
    OrbitFrequencyMatrix,
    compute_gdd,
    compute_orbit_frequencies,
    graphlet_class_frequencies,
)
from orbitrans.graph_core import StaticGraph
from orbitrans.metrics import (
    _pairwise_sum,
    cut_clusters,
    fingerprint_distance,
    gda_matrix,
    gda_orbit_scores,
    hierarchical_cluster,
    motif_distance_matrix,
    motif_scores_from_counts,
    ota_matrix,
    ota_pair,
    relative_rescale,
)
from orbitrans.transitions import OrbitTransitionMatrix, row_normalize
from oracles import (
    formula_gda,
    formula_ota,
    gnp_graph,
    numpy_hierarchical_cluster,
    numpy_ota_matrix,
    numpy_row_normalize,
    scipy_merges,
)


def random_fr(rng, n=20, m=11, high=6):
    return OrbitFrequencyMatrix(k=4, counts=rng.integers(0, high, size=(n, m)))


def gda_mean(gdd_a, gdd_b):
    """The GDA of two networks: the mean of their per-orbit agreements."""
    scores = gda_orbit_scores(gdd_a, gdd_b)
    return sum(scores) / len(scores)


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
        gdd = compute_gdd(random_fr(rng))[1]
        assert gda_mean(gdd, gdd) == pytest.approx(1.0)

    def test_disjoint_unit_masses_single_orbit(self):
        a = compute_gdd(OrbitFrequencyMatrix(k=3, counts=np.array([[1, 0, 0]])))[1]
        b = compute_gdd(OrbitFrequencyMatrix(k=3, counts=np.array([[2, 0, 0]])))[1]
        # orbit 1 carries all mass at distinct degrees -> agreement 0 there;
        # orbits 2 and 3 are untouched in both -> agreement 1 each
        assert gda_mean(a, b) == pytest.approx(2 / 3)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            fa, fb = random_fr(rng), random_fr(rng)
            mine = gda_mean(compute_gdd(fa)[1], compute_gdd(fb)[1])
            assert mine == pytest.approx(formula_gda(fa.counts, fb.counts), abs=1e-12)

    def test_real_graphs_against_oracle(self):
        rng = np.random.default_rng(33)
        g = gnp_graph(rng, 20, 0.2)
        h = gnp_graph(rng, 20, 0.3)
        fg = compute_orbit_frequencies(g, 4)
        fh = compute_orbit_frequencies(h, 4)
        mine = gda_mean(compute_gdd(fg)[1], compute_gdd(fh)[1])
        assert mine == pytest.approx(formula_gda(fg.counts, fh.counts), abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            a = compute_gdd(random_fr(rng))[1]
            b = compute_gdd(random_fr(rng))[1]
            ab, ba = gda_mean(a, b), gda_mean(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert -1e-9 <= ab <= 1 + 1e-9

    def test_mismatched_orbit_sets(self):
        a = compute_gdd(OrbitFrequencyMatrix(k=3, counts=np.zeros((2, 3), dtype=np.int64)))[1]
        b = compute_gdd(OrbitFrequencyMatrix(k=4, counts=np.zeros((2, 11), dtype=np.int64)))[1]
        with pytest.raises(ValueError, match=r"orbit sets differ \(3 vs 11 orbits\)"):
            gda_mean(a, b)

    def test_matrix_pools_multiple_gdd_bundles(self):
        rng = np.random.default_rng(35)
        g4 = [compute_gdd(random_fr(rng))[1] for _ in range(3)]
        g3 = [
            compute_gdd(OrbitFrequencyMatrix(k=3, counts=rng.integers(0, 5, size=(20, 3))))[1]
            for _ in range(3)
        ]
        sim = np.asarray(gda_matrix(["a", "b", "c"], list(zip(g4, g3))))
        assert sim.shape == (3, 3) and sim.dtype == np.float64
        assert np.allclose(sim, sim.T)
        assert np.allclose(np.diag(sim), 1.0)
        # pooled mean over 11 + 3 orbit scores
        pooled = gda_orbit_scores(g4[0], g4[1]) + gda_orbit_scores(g3[0], g3[1])
        assert sim[0, 1] == pytest.approx(sum(pooled) / 14)


def compensated_sum(items, start=0):
    """Builtin ``sum()`` as Python 3.12 and later compute it: integers
    exactly, floats with Neumaier's compensated summation."""
    items = list(items)
    if all(isinstance(x, numbers.Integral) for x in items):
        total = start
        for x in items:
            total += x
        return total
    total, c = float(start), 0.0
    for x in items:
        x = float(x)
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def left_fold(items) -> float:
    """Builtin ``sum()`` of floats as Python 3.10 and 3.11 compute it."""
    total = 0.0
    for x in items:
        total += x
    return total


class TestSummationOrder:
    """GDD and GDA values do not depend on the interpreter's float ``sum()``."""

    def test_compute_gdd_and_gda_matrix_fold_left(self, monkeypatch):
        frs = [compute_orbit_frequencies(gnp_graph(np.random.default_rng(seed), 30, 0.2), 4)
               for seed in range(4)]
        names = ["a", "b", "c", "d"]
        # the expected values: each float sum a left fold in input order
        raws = [compute_gdd(fr)[0] for fr in frs]
        scaled = [[{d: c / d for d, c in dist.items() if d >= 1} for dist in raw] for raw in raws]
        gdd_want = [[{d: s / left_fold(sc.values()) for d, s in sc.items()} for sc in net] for net in scaled]
        scores = [[gda_orbit_scores(a, b) for b in gdd_want] for a in gdd_want]
        gda_want = [[left_fold(s) / len(s) for s in row] for row in scores]
        # the test shows something only where the two summations differ on its data
        assert any(compensated_sum(sc.values()) != left_fold(sc.values()) for net in scaled for sc in net)
        assert any(compensated_sum(s) != left_fold(s) for row in scores for s in row)

        def run():
            gdds = [compute_gdd(fr) for fr in frs]
            return gdds, gda_matrix(names, [[normalized] for _, normalized in gdds])

        unpatched = run()
        for module in (catalogue, census, metrics):  # catalogue normalizes compute_gdd's distributions
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
        assert run() == unpatched == (list(zip(raws, gdd_want)), gda_want)


class TestRelativeRescale:
    def test_three_values(self):
        mats = [np.full((2, 2), v) for v in (0.2, 0.6, 1.0)]
        out = [np.asarray(m) for m in relative_rescale(mats)]
        assert [m[0, 0] for m in out] == pytest.approx([0.0, 0.5, 1.0])

    def test_constant_cell_maps_to_zero(self):
        out = [np.asarray(m) for m in relative_rescale([np.full((2, 2), 0.4), np.full((2, 2), 0.4)])]
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

    def test_unknown_scaling(self):
        # scored as neither choice: both name the choices
        with pytest.raises(ValueError, match="'bogus'.*'normalized' or 'per_orbit'"):
            ota_pair(np.eye(3), np.zeros((3, 3)), "bogus")
        ts = [random_transition_matrix(np.random.default_rng(45)) for _ in range(2)]
        with pytest.raises(ValueError, match="'per-orbit'.*'normalized' or 'per_orbit'"):
            ota_matrix(["a", "b"], ts, ota_scaling="per-orbit")

    def test_matrix_duplicate_network_maximal(self):
        rng = np.random.default_rng(41)
        t1 = random_transition_matrix(rng)
        t2 = random_transition_matrix(rng)
        sim = np.asarray(ota_matrix(["x", "x2", "y"], [t1, t1, t2]))
        row = sim[0]
        assert row[1] == max(row[j] for j in (1, 2))
        assert sim[0, 1] == pytest.approx(1.0)

    def test_matrix_reorder_permutes(self):
        rng = np.random.default_rng(42)
        ts = [random_transition_matrix(rng) for _ in range(3)]
        sim = np.asarray(ota_matrix(["a", "b", "c"], ts))
        sim_rev = np.asarray(ota_matrix(["c", "b", "a"], ts[::-1]))
        assert np.allclose(sim, sim_rev[::-1, ::-1])

    def test_matrix_equals_manual_pipeline(self):
        rng = np.random.default_rng(43)
        ts = [random_transition_matrix(rng) for _ in range(3)]
        sim = np.asarray(ota_matrix(["a", "b", "c"], ts))
        rescaled = [np.asarray(m) for m in relative_rescale([row_normalize(t) for t in ts])]
        for i in range(3):
            for j in range(3):
                assert sim[i, j] == pytest.approx(
                    formula_ota(rescaled[i], rescaled[j]), abs=1e-12
                )

    def test_matrix_without_rescale(self):
        rng = np.random.default_rng(44)
        ts = [random_transition_matrix(rng) for _ in range(2)]
        sim = np.asarray(ota_matrix(["a", "b"], ts, rescale=False))
        raw = [np.asarray(row_normalize(t)) for t in ts]
        assert sim[0, 1] == pytest.approx(formula_ota(raw[0], raw[1]), abs=1e-12)


@st.composite
def count_sets(draw):
    """2-9 networks' k = 3 or k = 4 transition counts up to 10**12, as lists of rows, some rows all zero."""
    m = draw(st.sampled_from((3, 11)))
    row = st.just([0] * m) | st.lists(st.integers(0, 10**12), min_size=m, max_size=m)
    return draw(st.lists(st.lists(row, min_size=m, max_size=m), min_size=2, max_size=9))


def as_transition_matrix(counts) -> OrbitTransitionMatrix:
    m = len(counts)
    return OrbitTransitionMatrix(k=3 if m == 3 else 4, counts=np.array(counts, dtype=np.int64),
                                 dissolved=np.zeros(m, dtype=np.int64), pairs_processed=1)


class TestListOta:
    """The list OTA gives the earlier numpy OTA's values bit for bit."""

    @staticmethod
    def assert_same_as_numpy(counts, ota_scaling, rescale):
        names = [f"n{i}" for i in range(len(counts))]
        ts = [as_transition_matrix(c) for c in counts]
        expected = numpy_ota_matrix(names, ts, ota_scaling, rescale).tolist()
        # == on lists of floats: exact, not approx
        assert [row_normalize(c) for c in counts] == [numpy_row_normalize(t).tolist() for t in ts]
        assert ota_matrix(names, counts, ota_scaling, rescale) == expected
        assert ota_matrix(names, ts, ota_scaling, rescale) == expected

    @settings(max_examples=100, deadline=None)
    @given(counts=count_sets(), ota_scaling=st.sampled_from(("normalized", "per_orbit")),
           rescale=st.booleans())
    def test_same_values_as_numpy(self, counts, ota_scaling, rescale):
        self.assert_same_as_numpy(counts, ota_scaling, rescale)

    @pytest.mark.parametrize("rescale", [True, False])
    @pytest.mark.parametrize("ota_scaling", ["normalized", "per_orbit"])
    def test_counts_above_two_to_the_53(self, ota_scaling, rescale):
        # float(c) / float(s), as numpy divides, and not c / s, which rounds the exact quotient
        rng = np.random.default_rng(49)
        counts = [rng.integers(2**53, 2**58, size=(11, 11)).tolist() for _ in range(4)]
        row = counts[0][0]
        assert [c / sum(row) for c in row] != [float(c) / float(sum(row)) for c in row]
        self.assert_same_as_numpy(counts, ota_scaling, rescale)

    @pytest.mark.parametrize("rescale", [True, False])
    def test_mixed_orbit_counts_are_one_error(self, rescale):
        rng = np.random.default_rng(50)
        ts = [random_transition_matrix(rng, m=3), random_transition_matrix(rng), random_transition_matrix(rng)]
        message = re.escape("matrix shapes differ: (3, 3) vs (11, 11)")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ota_matrix(["a", "b", "c"], ts, rescale=rescale)
        with pytest.raises(ValueError, match=f"^{message}$"):
            relative_rescale([t.counts for t in ts])


class TestMotifScores:
    def test_all_match_ensemble(self):
        fp = np.asarray(motif_scores_from_counts([3, 3, 0, 1, 0, 2], [3.0, 3.0, 0.0, 1.0, 0.0, 2.0]))
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
        a = np.asarray(motif_scores_from_counts(list(rng.integers(0, 30, 6)), list(rng.random(6) * 30)))
        b = np.asarray(motif_scores_from_counts(list(rng.integers(0, 30, 6)), list(rng.random(6) * 30)))
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
        sim = np.asarray(motif_distance_matrix(["a", "b", "c"], fps))
        assert sim.shape == (3, 3) and sim.dtype == np.float64
        assert np.allclose(np.diag(sim), 0.0)
        assert np.allclose(sim, sim.T)


def plain_fold(values) -> float:
    """The sum of squares folded left with ``x * x`` and ``+`` each rounded."""
    total = 0.0
    for x in values:
        total += x * x
    return total


# a sum at least half the last place (2 ** 970) past the largest float rounds to inf
OVERFLOW = Fraction(sys.float_info.max) + Fraction(2) ** 970


def fused_fold(values) -> float:
    """The sum of squares folded left with ``x * x + total`` rounded once, as a fused
    multiply-add gives it: exact in fractions for finite steps, IEEE for the rest."""
    total = 0.0
    for x in values:
        if math.isfinite(x) and math.isfinite(total):
            exact = Fraction(x) ** 2 + Fraction(total)
            total = float(exact) if exact < OVERFLOW else math.inf
        else:
            total = x * x + total
    return total


def same(a: float, b: float) -> bool:
    """Whether two floats are the same value, the sign of zero included; any NaN is one value."""
    return a.hex() == b.hex()


def norm_batch(seed: int = 3401, count: int = 20_000) -> list[list[float]]:
    """Fixed edge cases, then ``count`` seeded vectors of 2 and 6 entries at one scale each:
    ordinary squares, subnormal squares, squares near or past the largest float, and ordinary
    vectors with zeros, -0.0, infinities or NaNs in place of some entries."""
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    vectors = [[0.0, 0.0], [-0.0, -0.0], [-0.0] * 6, [5e-324, -5e-324], [1e-160, 1e-160],
               [math.inf, math.nan], [math.nan, math.inf], [-math.inf, 0.0], [1e200, 1e200],
               [1.3e154, 1.3e154], [1e308, 1.0, 0.0, 0.0, 0.0, 0.0]]
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = (2, 6)[i // 10 % 2]
        kind = i % 10
        low, high = (-560, -500) if kind in (6, 7) else (505, 515) if kind == 8 else (-30, 30)
        v = (rng.standard_normal(n) * 2.0 ** int(rng.integers(low, high))).tolist()
        if kind == 9:
            for at in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
                v[at] = special[int(rng.integers(len(special)))]
        vectors.append(v)
    return vectors


NORM_BATCH = norm_batch()
# the batch's first vector on which the two folds differ
DISCRIMINATING = next(v for v in NORM_BATCH if not same(plain_fold(v), fused_fold(v)))


def require_fused_dot():
    """Skip where this numpy's ``np.dot`` gives the plain fold on ``DISCRIMINATING``: its BLAS
    then folds unfused, and ``np.linalg.norm`` is not the fold ``_norm`` computes."""
    dot = float(np.dot(DISCRIMINATING, DISCRIMINATING))
    if same(dot, plain_fold(DISCRIMINATING)):
        pytest.skip(f"numpy {np.__version__}'s np.dot folds {DISCRIMINATING!r} unfused "
                    f"({dot.hex()}), so np.linalg.norm is not the fused fold here")


def numpy_norm(values) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(np.array(values, dtype=np.float64)))


class TestNorm:
    """``metrics._norm`` is ``np.linalg.norm`` bit for bit on fewer than 16 entries."""

    def test_batch_tells_the_folds_apart(self):
        differ = [v for v in NORM_BATCH if not same(plain_fold(v), fused_fold(v))]
        assert len(NORM_BATCH) > 20_000 and differ
        assert all(same(metrics._norm(v), math.sqrt(fused_fold(v))) for v in differ)

    def test_equals_numpy_on_the_batch(self):
        require_fused_dot()
        results = [(metrics._norm(v), numpy_norm(v)) for v in NORM_BATCH]
        assert [(v, got, want) for v, (got, want) in zip(NORM_BATCH, results) if not same(got, want)] == []
        # the batch reaches zero, a subnormal total, nan, and inf from an overflow and from an inf
        norms = [got for got, _ in results]
        assert 0.0 in norms and any(map(math.isnan, norms))
        assert any(0.0 < fused_fold(v) < sys.float_info.min for v in NORM_BATCH)
        assert {all(map(math.isfinite, v)) for v, got in zip(NORM_BATCH, norms) if got == math.inf} == {True, False}

    @given(st.lists(st.floats(), max_size=15))
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy(self, values):
        require_fused_dot()
        assert same(metrics._norm(values), numpy_norm(values))
        assert same(metrics._norm(values), math.sqrt(fused_fold(values)))


# every public function of metrics, called without numpy; prints each result as JSON
NO_NUMPY_CALLS = """
import inspect, json
from orbitrans import metrics as m

gdd = [{1: 0.5, 2: 0.5}, {}, {3: 1.0}]
other = [{1: 0.25, 2: 0.75}, {1: 1.0}, {}]
counts = [[[1, 2, 0], [0, 0, 0], [3, 1, 1]], [[0, 1, 0], [1, 1, 1], [2, 0, 0]],
          [[5, 0, 0], [0, 2, 0], [0, 0, 1]]]
fps = [m.motif_scores_from_counts(real, means, 3)
       for real, means in (([4, 1], [2.5, 1.5]), ([0, 3], [1.0, 0.5]), ([2, 2], [2.0, 0.0]))]
distances = m.motif_distance_matrix(["a", "b", "c"], fps)
merges = m.hierarchical_cluster(["a", "b", "c"], distances)
results = {
    "gda_orbit_scores": m.gda_orbit_scores(gdd, other),
    "gda_matrix": m.gda_matrix(["a", "b"], [[gdd], [other]]),
    "row_normalize": m.row_normalize(counts[0]),
    "relative_rescale": m.relative_rescale([m.row_normalize(c) for c in counts]),
    "ota_pair": m.ota_pair(m.row_normalize(counts[0]), m.row_normalize(counts[1]), "per_orbit"),
    "ota_matrix": m.ota_matrix(["a", "b", "c"], counts),
    "motif_scores_from_counts": fps,
    "fingerprint_distance": m.fingerprint_distance(fps[0], fps[1]),
    "motif_distance_matrix": distances,
    "hierarchical_cluster": merges,
    "cut_clusters": m.cut_clusters(["a", "b", "c"], merges, 2),
}
public = sorted(name for name, value in vars(m).items()
                if inspect.isfunction(value) and value.__module__ == m.__name__ and not name.startswith("_"))
"""


def test_every_public_function_runs_without_numpy():
    from test_cli import child

    code = ("import sys\nsys.modules['numpy'] = None\n" + NO_NUMPY_CALLS
            + "print(json.dumps([results, public]))\n")
    proc = child("-c", code)
    assert proc.returncode == 0, proc.stderr
    results, public = json.loads(proc.stdout)
    assert public == sorted(results)
    # the same values where numpy is loaded
    namespace: dict = {}
    exec(NO_NUMPY_CALLS, namespace)
    assert json.loads(json.dumps(namespace["results"])) == results


def _gda_inputs(rng, n):
    return [[compute_gdd(random_fr(rng))[1]] for _ in range(n)]


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
        sim = np.asarray(build(["a", "b", "c", "d"], items, **options))
        # exact, as read_similarity_csv requires of the written matrix
        assert np.array_equal(sim, sim.T)
        assert np.all(np.diag(sim) == diagonal)


class TestClustering:
    def test_identical_pair_merges_first(self):
        merges = hierarchical_cluster("abc", [[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
        assert set(merges[0]["left"]) | set(merges[0]["right"]) == {"a", "b"}
        assert merges[0]["height"] == pytest.approx(0.0)

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
        merges = hierarchical_cluster(names, v)
        first_two = [set(m["left"]) | set(m["right"]) for m in merges[:2]]
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
            mine = hierarchical_cluster(names, 1.0 - dist, linkage=linkage)
            ref = scipy_merges(dist, names, linkage)
            for step, (ra, rb, rh) in zip(mine, ref):
                assert {frozenset(step["left"]), frozenset(step["right"])} == {ra, rb}
                assert step["height"] == pytest.approx(rh, abs=1e-9)

    def test_deterministic_tie_break(self):
        # all pairwise distances equal: first merge must be the two
        # lexicographically smallest labels
        merges = hierarchical_cluster(
            ["zeta", "alpha", "mid"],
            [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]],
        )
        assert set(merges[0]["left"]) | set(merges[0]["right"]) == {"alpha", "mid"}

    def test_permutation_invariance(self):
        rng = np.random.default_rng(49)
        n = 5
        tri = rng.random(n * (n - 1) // 2)
        dist = np.zeros((n, n))
        dist[np.triu_indices(n, 1)] = tri
        dist += dist.T
        names = [f"n{i}" for i in range(n)]
        merges = hierarchical_cluster(names, 1.0 - dist)
        order = rng.permutation(n)
        merges_p = hierarchical_cluster(
            [names[i] for i in order], (1.0 - dist)[np.ix_(order, order)]
        )
        as_sets = lambda ms: [
            ({frozenset(m["left"]), frozenset(m["right"])}, pytest.approx(m["height"])) for m in ms
        ]
        assert as_sets(merges) == as_sets(merges_p)

    def test_distance_kind_used_directly(self):
        # a zero diagonal marks distances
        merges = hierarchical_cluster(
            ("a", "b", "c"), np.array([[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]])
        )
        assert set(merges[0]["left"]) | set(merges[0]["right"]) == {"a", "b"}
        assert merges[0]["height"] == pytest.approx(0.1)

    def test_per_orbit_diagonal_read_as_agreement(self):
        # per_orbit OTA scores a network against itself |O| = 11: heights go negative
        merges = hierarchical_cluster("abc", [[11.0, 10.5, 9.0], [10.5, 11.0, 9.5], [9.0, 9.5, 11.0]])
        assert set(merges[0]["left"]) | set(merges[0]["right"]) == {"a", "b"}
        assert merges[0]["height"] == pytest.approx(-9.5)

    @pytest.mark.parametrize("diagonal", [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [-1.0, -1.0, -1.0],
                                          [1.0, 1.0, np.nan]])
    def test_diagonal_neither_distance_nor_agreement(self, diagonal):
        values = np.full((3, 3), 0.5)
        np.fill_diagonal(values, diagonal)
        with pytest.raises(ValueError, match="neither all zero .distances. nor all positive"):
            hierarchical_cluster("abc", values)

    # agreements, so a check made after the conversion to 1 - value would report other values
    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, linkage, cell):
        values = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
        values[1, 2] = values[2, 1] = cell
        with pytest.raises(ValueError, match=re.escape(f"row 'b', column 'c': '{cell}' is not finite")):
            hierarchical_cluster("abc", values, linkage=linkage)

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_asymmetric_matrix_rejected(self, linkage):
        values = [[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.25, 0.3, 1.0]]
        message = "matrix is not symmetric: row 'a', column 'c' is 0.2, but row 'c', column 'a' is 0.25"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hierarchical_cluster("abc", values, linkage=linkage)

    def test_names_must_match_shape(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\) does not pair 3 names"):
            hierarchical_cluster("abc", np.eye(2))
        with pytest.raises(ValueError, match="does not pair"):
            hierarchical_cluster("ab", np.ones((2, 3)))

    def test_too_small(self):
        with pytest.raises(ValueError):
            hierarchical_cluster("a", [[1.0]])
        with pytest.raises(ValueError):
            hierarchical_cluster("abc", np.eye(3), linkage="median")

    def test_cut_clusters_bounds(self):
        merges = hierarchical_cluster("ab", [[1.0, 0.5], [0.5, 1.0]])
        assert cut_clusters(["a", "b"], merges, 1) == [("a", "b")]
        assert cut_clusters(["a", "b"], merges, 2) == [("a",), ("b",)]
        with pytest.raises(ValueError):
            cut_clusters(["a", "b"], merges, 3)

    def test_cut_rejects_merges_of_other_names(self):
        names = ["x", "y", "z"]
        merges = hierarchical_cluster(names, [[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        assert cut_clusters(names, merges, 1) == [("x", "y", "z")]
        # merges of other names are rejected, not kept beside the names' own parts
        with pytest.raises(ValueError, match="^merge 1: 'x' is not one of the names$"):
            cut_clusters(["a", "b", "c"], merges, 1)
        with pytest.raises(ValueError, match="^merge 2: 'w' is not one of the names$"):
            cut_clusters(names, [merges[0], {"left": ["w"], "right": ["z"], "height": 0.5}], 1)

    def test_cut_rejects_merges_that_run_out(self):
        names = ["x", "y", "z"]
        merges = hierarchical_cluster(names, [[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        # merges too few to reach the asked count are rejected, not cut short
        with pytest.raises(ValueError, match="^the merges run out at 2 clusters, before 1 remain$"):
            cut_clusters(names, merges[:1], 1)
        assert cut_clusters(names, merges[:1], 2) == [("x", "y"), ("z",)]

    @pytest.mark.parametrize("left, right", [(["x"], ["x"]), (["x"], ["x", "y"]), (["x", "z"], ["y"])])
    def test_cut_rejects_sides_that_are_not_current_clusters(self, left, right):
        merges = [{"left": left, "right": right, "height": 0.1}]
        message = f"^merge 1: left {sorted(left)} and right {sorted(right)} are not two current clusters$"
        with pytest.raises(ValueError, match=re.escape(message[1:-1])):
            cut_clusters(["x", "y", "z"], merges, 1)


def cluster_outcome(cluster, names, values, linkage):
    """The merge records, or the ValueError message, of ``cluster``."""
    try:
        return cluster(names, values, linkage=linkage)
    except ValueError as e:
        return f"ValueError: {e}"


def random_names(rng, n):
    """n distinct labels of 1-3 letters, in random order, so ties are broken by label."""
    names = set()
    while len(names) < n:
        names.add("".join(rng.choice(list("abcde"), size=int(rng.integers(1, 4)))))
    return [str(name) for name in rng.permutation(sorted(names))]


def random_matrix(rng, n, kind, tied):
    """A symmetric (n, n) distance or agreement matrix; ``tied`` draws its
    cells from a handful of values, so that many cluster distances tie."""
    if tied:
        cells = rng.integers(0, 4, size=(n, n)) / 4.0
    else:
        cells = rng.random((n, n)) * 10.0 ** float(rng.integers(-3, 3))
    values = np.triu(cells, 1)
    values += values.T
    if kind == "agreement":
        values = 1.0 - values
        np.fill_diagonal(values, rng.choice([1.0, 11.0, 0.75]))
    return values


class TestPurePythonClusterer:
    """The stdlib clusterer gives the numpy clusterer's records and errors exactly."""

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    @pytest.mark.parametrize("kind", ["distance", "agreement"])
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    def test_same_records_as_numpy(self, linkage, kind, tied):
        rng = np.random.default_rng([61, len(linkage), len(kind), tied])
        for n in [2, 3, 40, *rng.integers(4, 40, size=9)]:
            names = random_names(rng, int(n))
            values = random_matrix(rng, int(n), kind, tied)
            expected = numpy_hierarchical_cluster(names, values, linkage=linkage)
            # == on the records compares every height exactly
            assert hierarchical_cluster(names, values, linkage=linkage) == expected
            assert hierarchical_cluster(names, values.tolist(), linkage=linkage) == expected

    @pytest.mark.parametrize("linkage", ["average", "single", "complete"])
    def test_two_large_blocks(self, linkage):
        # the last average merge sums a 20 x 20 block: the pairwise halves above 128 cells
        rng = np.random.default_rng(62)
        group = np.repeat([0, 1], 20)
        values = np.where(group[:, None] == group, 0.1, 5.0) + rng.random((40, 40))
        values = np.triu(values, 1) + np.triu(values, 1).T
        names = [f"n{i:02d}" for i in range(40)]
        expected = numpy_hierarchical_cluster(names, values, linkage=linkage)
        assert hierarchical_cluster(names, values, linkage=linkage) == expected

    def test_pairwise_sum_is_numpy_mean(self):
        rng = np.random.default_rng(63)
        for n in [*range(1, 300), 511, 1000]:
            cells = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
            assert (0.0 + _pairwise_sum(cells.tolist(), 0, n)) / n == cells.mean(), n
        assert 0.0 + _pairwise_sum([-0.0] * 9, 0, 9) == np.full(9, -0.0).sum()

    def test_negative_zero_distances_average_to_zero(self):
        # numpy's mean of a block of -0.0 cells is 0.0, and a tree file writes the sign;
        # the merges chain, so the last one averages a 9-cell block, past the left fold
        names = [f"n{i}" for i in range(10)]
        values = np.full((10, 10), -0.0)
        mine = hierarchical_cluster(names, values.tolist())
        expected = numpy_hierarchical_cluster(names, values)
        assert json.dumps(mine) == json.dumps(expected)
        assert '"height": 0.0' in json.dumps(mine)

    @pytest.mark.parametrize("case", [
        "mixed-diagonal", "negative-diagonal", "nan-diagonal", "nan", "inf", "-inf",
        "asymmetric", "too-large", "too-wide", "flat", "unknown-linkage", "one-name",
    ])
    def test_same_errors_as_numpy(self, case):
        rng = np.random.default_rng([64, len(case)])
        for _ in range(5):
            n = int(rng.integers(2, 9))
            names = random_names(rng, n)
            values = random_matrix(rng, n, str(rng.choice(["distance", "agreement"])), False)
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            linkage = str(rng.choice(["average", "single", "complete"]))
            if case == "mixed-diagonal":
                np.fill_diagonal(values, 1.0)
                values[i, i] = 0.0
            elif case == "negative-diagonal":
                np.fill_diagonal(values, -rng.random(n))
            elif case == "nan-diagonal":
                values[j, j] = np.nan
            elif case in ("nan", "inf", "-inf"):
                values[i, j] = values[j, i] = float(case)
            elif case == "asymmetric":
                values[j, i] += 0.125
            elif case == "too-large":
                values = np.eye(n + 1)
            elif case == "too-wide":
                values = np.ones((n, n + 1))
            elif case == "flat":
                values = np.ones(n)
            elif case == "unknown-linkage":
                linkage = str(rng.choice(["median", "ward", ""]))
            else:
                names = names[:1]
            expected = cluster_outcome(numpy_hierarchical_cluster, names, values, linkage)
            assert expected.startswith("ValueError: ")
            assert cluster_outcome(hierarchical_cluster, names, values, linkage) == expected
            assert cluster_outcome(hierarchical_cluster, names, values.tolist(), linkage) == expected
