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
from itertools import combinations

import numpy as np
import pytest

from orbitrans.cli import main
from orbitrans.census import (
    GRAPHLET_CLASSES,
    PAIR_POSITIONS,
    OrbitFrequencyMatrix,
    build_classification_table,
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
    final_aggregate_graph,
    parse_edge_list,
)
from orbitrans.metrics import (
    cut_clusters,
    gda_matrix,
    gda_orbit_scores,
    hierarchical_cluster,
    motif_distance_matrix,
    motif_scores_from_counts,
    ota_matrix,
    ota_pair,
    relative_rescale,
)
from orbitrans.nullmodel import ensemble_frequencies, randomized_replicates
from orbitrans.transitions import accumulate_series, enumerate_transitions, row_normalize
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
        ga, gb = compute_gdd(fa)[1], compute_gdd(fb)[1]
        ab, ba, aa = (np.mean(gda_orbit_scores(x, y)) for x, y in ((ga, gb), (gb, ga), (ga, ga)))
        assert abs(ab - ba) <= tol
        assert abs(aa - 1.0) <= tol
        assert -tol <= ab <= 1.0 + tol

    m = rng.random((11, 11))
    assert ota_pair(m, m, ota_scaling="per_orbit") == 11.0


def test_motif_pipeline_guarantees():
    # every replicate keeps the degree multiset and stays simple; score
    # vectors have unit norm within 1e-9; ensembles are seed-reproducible
    rng = np.random.default_rng(1007)
    g = gnp_graph(rng, 24, 0.18)
    cfg = dict(replicates=25, swaps_per_edge=8, seed=77)
    degrees = sorted(np.diff(g.indptr).tolist())
    first = []
    for replica in randomized_replicates(g, **cfg):
        assert sorted(np.diff(replica.indptr).tolist()) == degrees
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
        v = np.asarray(ota_matrix(names, mats))
        intra = np.mean(
            [v[i, j] for i in range(10) for j in range(10)
             if i != j and (i < 5) == (j < 5)]
        )
        inter = np.mean([v[i, j] for i in range(5) for j in range(5, 10)])
        if intra > inter:
            separated += 1
        merges = hierarchical_cluster(names, v, linkage="average")
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
    values = np.asarray(values)
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
        within, cross = _within_and_cross(ota_matrix(names, mats), 4)
        separated += within > cross
    elapsed = time.perf_counter() - start
    assert separated >= 9, f"within-category agreement won only {separated}/10 trials"
    assert elapsed < 30.0, f"category battery took {elapsed:.1f}s"


def _triangles_by_orbit(k: int) -> dict[int, int]:
    """Each orbit's triangle count: that of its class, read off one of the
    class's masks in the classification table."""
    triangles = {}
    for mask, orbits in enumerate(build_classification_table(k)):
        if orbits is not None:
            edges = {pair for bit, pair in enumerate(PAIR_POSITIONS[k]) if mask >> bit & 1}
            count = sum(set(combinations(trio, 2)) <= edges for trio in combinations(range(k), 3))
            for orbit in orbits:
                triangles.setdefault(orbit, count)
    return triangles


def test_the_characteristic_transition_closes_triangles():
    # the paper's second claim, that OTA uncovers characteristic orbit
    # transitions, on the networks of the battery above: rescale the 8
    # row-normalized matrices across the set, as ota_matrix does; the cell
    # where the closure category's mean most exceeds the random category's
    # moves a node into a class with more triangles than its source class,
    # the planted mechanism, in >= 9/10 trials; under 15 s
    triangles = _triangles_by_orbit(4)
    assert {cls.name: triangles[cls.orbits[0]] for cls in GRAPHLET_CLASSES[4]} == {
        "star": 0, "path": 0, "cycle": 0, "paw": 1, "diamond": 2, "clique": 4}
    start = time.perf_counter()
    closing, cells = 0, []
    for trial in range(10):
        rng = np.random.default_rng([2027, trial])
        normalized = []
        for category in ("closure", "random"):
            for _ in range(4):
                tel = parse_edge_list(_timed_lattice_text(rng, category == "closure"))
                series = build_snapshots(tel, SnapshotPolicy("aggregate", 10, 6, origin=0))
                normalized.append(row_normalize(accumulate_series(series, 4)))
        rescaled = np.stack(relative_rescale(normalized))
        gap = rescaled[:4].mean(axis=0) - rescaled[4:].mean(axis=0)
        source, target = (int(i) + 1 for i in np.unravel_index(np.argmax(gap), gap.shape))
        cells.append((source, target))
        closing += triangles[target] > triangles[source]
    elapsed = time.perf_counter() - start
    assert closing >= 9, f"the top cell closed triangles in only {closing}/10 trials: {cells}"
    assert elapsed < 15.0, f"characteristic-transition battery took {elapsed:.1f}s"


def _within_share(values: np.ndarray, half: int, agreement: bool) -> float:
    """Share of (within pair, cross pair) comparisons in which the within
    pair is more alike (higher agreement, or smaller distance); ties count half."""
    i, j = np.triu_indices(2 * half, 1)
    values = np.asarray(values)
    score = values[i, j] if agreement else -values[i, j]
    same = (i < half) == (j < half)
    diff = score[same][:, None] - score[~same][None, :]
    return float(np.mean((diff > 0) + 0.5 * (diff == 0)))


def test_transitions_tell_the_categories_apart_where_static_baselines_do_not():
    # the paper's comparative claim, on the networks of the battery above:
    # OTA's within-category share beats that of both static baselines, GDA
    # (k = 4, final graphs) and motif distance (4 replicates, 10 swaps per
    # edge, seed 3), in >= 9/10 trials; under 30 s
    start = time.perf_counter()
    wins, shares = 0, []
    for trial in range(10):
        rng = np.random.default_rng([2027, trial])
        names, mats, gdds, fps = [], [], [], []
        for category in ("closure", "random"):
            for i in range(4):
                tel = parse_edge_list(_timed_lattice_text(rng, category == "closure"))
                series = build_snapshots(tel, SnapshotPolicy("aggregate", 10, 6, origin=0))
                names.append(f"{category}{i}")
                mats.append(accumulate_series(series, 4))
                g = final_aggregate_graph(tel)
                gdds.append([compute_gdd(compute_orbit_frequencies(g, 4))[1]])
                real = graphlet_class_frequencies(g, 4)
                means = ensemble_frequencies(g, 4, 4, 10, 3)
                fps.append(motif_scores_from_counts(list(real.values()), [means[c] for c in real]))
        ota = _within_share(ota_matrix(names, mats), 4, agreement=True)
        gda = _within_share(gda_matrix(names, gdds), 4, agreement=True)
        motif = _within_share(motif_distance_matrix(names, fps), 4, agreement=False)
        shares.append((ota, gda, motif))
        wins += ota > max(gda, motif)
    elapsed = time.perf_counter() - start
    assert wins >= 9, f"OTA beat both baselines in only {wins}/10 trials: {shares}"
    assert elapsed < 30.0, f"comparative battery took {elapsed:.1f}s"


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
    expected = ota_matrix(names, mats)
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
