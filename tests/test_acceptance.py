"""Acceptance gate: one test per shipped guarantee.

Each test states its requirement and tolerance inline; runtime budgets
are asserted where the guarantee includes one. The final test needs a
real co-authorship dataset and is skipped unless ORBITRANS_DATASET
points at a temporal edge list.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from orbitrans.cli import main
from orbitrans.census import (
    GRAPHLET_CLASSES,
    OrbitFrequencyMatrix,
    compute_gdd,
    compute_orbit_frequencies,
    connected_subgraphs,
    graphlet_class_frequencies,
)
from orbitrans.graph_core import (
    SnapshotPolicy,
    StaticGraph,
    build_snapshots,
    clustering_coefficient,
    parse_edge_list,
)
from orbitrans.metrics import (
    cut_clusters,
    gda_pair,
    hierarchical_cluster,
    motif_scores_from_counts,
    ota_matrix,
    ota_pair,
)
from orbitrans.nullmodel import randomized_replicates
from orbitrans.transitions import accumulate_series, enumerate_transitions
from oracles import (
    complete_graph,
    cycle_graph,
    exhaustive_census,
    exhaustive_transitions,
    gnp_graph,
    path_graph,
)


def test_census_matches_exhaustive_oracle_on_random_graphs():
    # 50 random graphs (n=20, p in {0.1, 0.2, 0.3}): per-node orbit counts
    # for k=3 and k=4 equal the all-subsets oracle exactly; under 10 s.
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for i in range(50):
        g = gnp_graph(rng, 20, (0.1, 0.2, 0.3)[i % 3])
        for k in (3, 4):
            mine = compute_orbit_frequencies(g, k).counts
            oracle, _ = exhaustive_census(g, k)
            assert np.array_equal(mine, oracle), f"graph {i}, k={k}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"census battery took {elapsed:.1f}s"


def test_closed_form_census_counts():
    # K7: 35 clique occurrences and fr(v, orbit 11) = 20 for every node;
    # the 4-cycle: a single occurrence with every node in orbit 5.
    k7 = complete_graph(7)
    assert graphlet_class_frequencies(k7, 4)["clique"] == 35
    fr = compute_orbit_frequencies(k7, 4)
    assert np.array_equal(fr.counts[:, 10], np.full(7, 20))
    assert fr.counts[:, :10].sum() == 0

    square = cycle_graph(4)
    assert graphlet_class_frequencies(square, 4)["cycle"] == 1
    fr = compute_orbit_frequencies(square, 4)
    assert np.array_equal(fr.counts[:, 4], np.ones(4, dtype=np.int64))
    assert fr.counts.sum() == 4


def test_transitions_match_two_snapshot_oracle():
    # 30 random snapshot pairs (n=15): counts and dissolved diagnostics
    # equal the exhaustive oracle exactly, and every pair conserves
    # counts + dissolved = 4 x (connected 4-sets in the source); under 30 s.
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    for i in range(30):
        a = gnp_graph(rng, 15, rng.uniform(0.15, 0.35))
        b = gnp_graph(rng, 15, rng.uniform(0.15, 0.35))
        t = enumerate_transitions(a, b, 4)
        oracle_counts, oracle_dissolved = exhaustive_transitions(a, b, 4)
        assert np.array_equal(t.counts, oracle_counts), f"pair {i}"
        assert np.array_equal(t.dissolved, oracle_dissolved), f"pair {i}"
        sources = sum(1 for _ in connected_subgraphs(a, 4))
        assert t.total_node_transitions() == 4 * sources, f"pair {i}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"transition battery took {elapsed:.1f}s"


def test_triangle_to_chain_transition_semantics():
    # one node moves from the triangle orbit to the chain center, the
    # other two to chain ends: tr(3,2) = 1 and tr(3,1) = 2, exactly
    triangle = StaticGraph(3, [(0, 1), (1, 2), (0, 2)])
    chain = path_graph(3)
    t = enumerate_transitions(triangle, chain, 3)
    assert t.counts[2, 1] == 1
    assert t.counts[2, 0] == 2
    assert t.counts.sum() == 3
    assert t.dissolved.sum() == 0


def test_aggregate_series_zero_pattern():
    # when edges only accumulate, no group can move to a class with
    # fewer edges: all such cells are exactly zero
    edge_count = {o: cls.edge_count for cls in GRAPHLET_CLASSES[4] for o in cls.orbits}
    rng = np.random.default_rng(1005)
    for trial in range(8):
        n = int(rng.integers(10, 16))
        lines = []
        for _ in range(int(rng.integers(40, 120))):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                lines.append(f"v{u} v{v} {int(rng.integers(0, 50))}")
        tel = parse_edge_list("\n".join(lines))
        series = build_snapshots(tel, SnapshotPolicy("aggregate", 10, 5, origin=0))
        t = accumulate_series(series, 4)
        for a in range(1, 12):
            for b in range(1, 12):
                if edge_count[b] < edge_count[a]:
                    assert t.counts[a - 1, b - 1] == 0, (trial, a, b)


def test_agreement_metric_properties():
    # on 100 random inputs: OTA (per-cell scaling) and GDA are symmetric,
    # score 1 against themselves, and stay inside [0,1], all within 1e-9;
    # the per-orbit-scaled OTA of identical 11x11 matrices is exactly 11
    rng = np.random.default_rng(1006)
    tol = 1e-9
    for _ in range(100):
        a, b = rng.random((11, 11)), rng.random((11, 11))
        assert abs(ota_pair(a, b) - ota_pair(b, a)) <= tol
        assert abs(ota_pair(a, a) - 1.0) <= tol
        assert -tol <= ota_pair(a, b) <= 1.0 + tol

    for _ in range(100):
        fa = OrbitFrequencyMatrix(k=4, counts=rng.integers(0, 7, size=(20, 11)))
        fb = OrbitFrequencyMatrix(k=4, counts=rng.integers(0, 7, size=(20, 11)))
        ga, gb = compute_gdd(fa), compute_gdd(fb)
        assert abs(gda_pair(ga, gb) - gda_pair(gb, ga)) <= tol
        assert abs(gda_pair(ga, ga) - 1.0) <= tol
        assert -tol <= gda_pair(ga, gb) <= 1.0 + tol

    m = rng.random((11, 11))
    assert ota_pair(m, m, ota_scaling="per_orbit") == 11.0


def test_motif_pipeline_guarantees():
    # every replicate keeps the degree multiset and stays simple; score
    # vectors have unit norm within 1e-9; ensembles are seed-reproducible
    rng = np.random.default_rng(1007)
    g = gnp_graph(rng, 24, 0.18)
    cfg = dict(replicates=25, swaps_per_edge=8, seed=77)
    degrees = sorted(map(g.degree, range(g.n)))
    first = []
    for replica in randomized_replicates(g, **cfg):
        assert sorted(map(replica.degree, range(replica.n))) == degrees
        edges = list(replica.edges())
        assert len(edges) == len(set(edges)) == g.edge_count
        assert all(u != v for u, v in edges)
        first.append(edges)
    second = [list(r.edges()) for r in randomized_replicates(g, **cfg)]
    assert first == second  # bit-identical regeneration

    for _ in range(25):
        fp = motif_scores_from_counts(
            list(rng.integers(0, 50, size=6)), list(rng.random(6) * 50)
        )
        assert abs(float(np.linalg.norm(fp)) - 1.0) <= 1e-9


def _densifying_network_text(rng) -> str:
    """Communities of four that grow star -> paw -> diamond -> clique."""
    n_comm = int(rng.integers(8, 13))
    lines = []
    for c in range(n_comm):
        hub, x, y, z = (f"m{c}n{i}" for i in range(4))
        delay = int(rng.integers(0, 2))
        for leaf in (x, y, z):
            lines.append(f"{hub} {leaf} {int(rng.integers(0, 10))}")
        for stage, (u, v) in enumerate(((x, y), (x, z), (y, z))):
            t = 10 * (1 + delay + stage) + int(rng.integers(0, 10))
            lines.append(f"{u} {v} {t}")
    return "\n".join(lines) + "\n"


def _churning_network_text(rng) -> str:
    """Random per-snapshot edges at matching size; 60% survive each step."""
    n_comm = int(rng.integers(8, 13))
    n = 4 * n_comm
    lines = []
    current: set[tuple[int, int]] = set()
    for snap in range(6):
        target = n_comm * (3 + min(snap, 3))
        current = {e for e in current if rng.random() < 0.6}
        while len(current) < target:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                current.add((min(u, v), max(u, v)))
        for u, v in sorted(current):
            lines.append(f"b{u} b{v} {10 * snap + int(rng.integers(0, 10))}")
    return "\n".join(lines) + "\n"


def test_two_synthetic_families_are_grouped_apart():
    # 5 densifying + 5 churning networks per trial: mean within-family
    # OTA must beat the cross-family mean, and cutting the average-linkage
    # tree at two clusters must recover the families, in >= 9/10 trials;
    # under 2 minutes
    start = time.perf_counter()
    recovered = 0
    separated = 0
    for trial in range(10):
        rng = np.random.default_rng([2026, trial])
        names, mats = [], []
        for i in range(5):
            tel = parse_edge_list(_densifying_network_text(rng))
            series = build_snapshots(tel, SnapshotPolicy("aggregate", 10, 6, origin=0))
            names.append(f"grow{i}")
            mats.append(accumulate_series(series, 4))
        for i in range(5):
            tel = parse_edge_list(_churning_network_text(rng))
            series = build_snapshots(tel, SnapshotPolicy("active", 10, 6, origin=0))
            names.append(f"rand{i}")
            mats.append(accumulate_series(series, 4))
        sim = ota_matrix(names, mats)
        v = sim.values
        intra = np.mean(
            [v[i, j] for i in range(10) for j in range(10)
             if i != j and (i < 5) == (j < 5)]
        )
        inter = np.mean([v[i, j] for i in range(5) for j in range(5, 10)])
        if intra > inter:
            separated += 1
        merges = hierarchical_cluster(sim, linkage="average")
        parts = cut_clusters(names, merges, 2)
        expected = sorted([tuple(sorted(names[:5])), tuple(sorted(names[5:]))])
        if parts == expected:
            recovered += 1
    elapsed = time.perf_counter() - start
    assert separated >= 9, f"within-family agreement won only {separated}/10 trials"
    assert recovered >= 9, f"families recovered in only {recovered}/10 trials"
    assert elapsed < 120.0, f"grouping battery took {elapsed:.1f}s"


def _timed_lattice_text(rng, closure: bool) -> str:
    """A ring lattice (n=60, reach 3) plus 20 random chords, timed in [0, 60).

    Taken in a random order, an edge closes a triangle when its ends
    already share a neighbour among the edges kept open before it. Under
    ``closure`` those edges get late times, in [30, 60); every other edge,
    and every edge otherwise, gets a uniform time.
    """
    n = 60
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in range(1, 4)}
    while len(edges) < 3 * n + 20:
        u, v = rng.integers(n, size=2).tolist()
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    closing = np.zeros(len(edges), dtype=bool)
    for e in rng.permutation(len(edges)).tolist():
        u, v = edges[e]
        closing[e] = bool(nbrs[u] & nbrs[v])
        if not closing[e]:
            nbrs[u].add(v)
            nbrs[v].add(u)
    t = rng.integers(60, size=len(edges))
    if closure:
        t = np.where(closing, rng.integers(30, 60, size=len(edges)), t)
    return "".join(f"v{u} v{v} {s}\n" for (u, v), s in zip(edges, t.tolist()))


def _within_and_cross(values: np.ndarray, half: int) -> tuple[float, float]:
    """Mean score of pairs in one category and of pairs across the two."""
    n = 2 * half
    within = np.mean([values[i, j] for i in range(n) for j in range(n)
                      if i != j and (i < half) == (j < half)])
    return within, np.mean(values[:half, half:])


def test_categories_that_differ_only_in_timing_are_told_apart():
    # the paper's central claim: networks of one static model (a ring
    # lattice plus random chords) whose edges appear in a different order
    # are told apart by their transitions. 4 "closure" + 4 "random"
    # networks per trial over 6 aggregate snapshots of width 10: mean
    # within-category OTA must beat the cross-category mean in >= 9/10
    # trials; under 30 s
    start = time.perf_counter()
    separated = 0
    for trial in range(10):
        rng = np.random.default_rng([2027, trial])
        names, mats = [], []
        for category in ("closure", "random"):
            for i in range(4):
                tel = parse_edge_list(_timed_lattice_text(rng, category == "closure"))
                series = build_snapshots(tel, SnapshotPolicy("aggregate", 10, 6, origin=0))
                names.append(f"{category}{i}")
                mats.append(accumulate_series(series, 4))
        within, cross = _within_and_cross(ota_matrix(names, mats).values, 4)
        separated += within > cross
    elapsed = time.perf_counter() - start
    assert separated >= 9, f"within-category agreement won only {separated}/10 trials"
    assert elapsed < 30.0, f"category battery took {elapsed:.1f}s"


def test_categories_that_differ_only_in_timing_through_the_cli(tmp_path):
    # the same 8 networks through the manifest reader and the writers:
    # compare --metric ota writes the in-process matrix, so within beats
    # cross there too; gda and motif write full matrices over the 8 names
    rng = np.random.default_rng([2027, 0])
    names, mats, lines = [], [], []
    for category in ("closure", "random"):
        for i in range(4):
            text = _timed_lattice_text(rng, category == "closure")
            (tmp_path / f"{category}{i}.txt").write_text(text)
            series = build_snapshots(parse_edge_list(text), SnapshotPolicy("aggregate", 10, 6, origin=0))
            names.append(f"{category}{i}")
            mats.append(accumulate_series(series, 4))
            lines += ["", f"[{category}{i}]", f"path = {category}{i}.txt"]
    manifest = tmp_path / "manifest.ini"
    manifest.write_text("\n".join(["[settings]", "policy = aggregate", "width = 10", "count = 6",
                                   "origin = 0", "replicates = 4", "seed = 3", *lines]) + "\n")
    expected = ota_matrix(names, mats).values
    for metric in ("ota", "gda", "motif"):
        out = tmp_path / metric
        assert main(["compare", "--manifest", str(manifest), "--metric", metric, "--out", str(out)]) == 0
        with open(out / f"compare_{metric}.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["network", *names]
        values = np.array([[float(x) for x in row[1:]] for row in rows[1:]])
        assert values.shape == (8, 8)
        if metric == "ota":
            assert np.allclose(values, expected, rtol=1e-11, atol=0)
            within, cross = _within_and_cross(values, 4)
            assert within > cross


@pytest.mark.skipif(
    "ORBITRANS_DATASET" not in os.environ,
    reason="set ORBITRANS_DATASET to a co-authorship edge list to enable",
)
def test_coauthorship_dataset_clustering_magnitude():
    # on a user-supplied co-authorship dataset, the mean per-snapshot
    # average clustering coefficient should be of order 0.5 (+/- 0.15)
    path = os.environ["ORBITRANS_DATASET"]
    count = int(os.environ.get("ORBITRANS_DATASET_COUNT", "12"))
    with open(path) as fh:
        tel = parse_edge_list(fh)
    span = tel.events[-1][2] - tel.events[0][2] + 1
    width = int(os.environ.get("ORBITRANS_DATASET_WIDTH", str(math.ceil(span / count))))
    series = build_snapshots(tel, SnapshotPolicy("aggregate", width, count))
    values = [
        clustering_coefficient(g) for g in series.snapshots if g.edge_count > 0
    ]
    mean = sum(values) / len(values)
    assert 0.35 <= mean <= 0.65, f"mean clustering {mean:.3f} outside 0.5 +/- 0.15"
