"""Output checks that need no stored reference.

Everything the checks compare against is derived from the generated
events alone: snapshots are rebuilt here from the events, and graphlet
class counts come from closed-form counts of non-induced subgraphs
(stars, paths, cycles, paws, diamonds, cliques) converted to induced
counts. None of this shares code with the program under test, so the
checks hold for any seed and for any replicas the null model draws.

Each ``check_<step>`` returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

from workloads import Workload

ORBITS = {3: 3, 4: 11}
CLASS_NAMES = {3: ("chain", "triangle"), 4: ("star", "path", "cycle", "paw", "diamond", "clique")}
# Nodes of each orbit inside one occurrence of its class, by orbit id.
ORBIT_CLASS = {
    3: {1: (0, 2), 2: (0, 1), 3: (1, 3)},
    4: {1: (0, 3), 2: (0, 1), 3: (1, 2), 4: (1, 2), 5: (2, 4), 6: (3, 1),
        7: (3, 1), 8: (3, 2), 9: (4, 2), 10: (4, 2), 11: (5, 4)},
}


def class_counts(edges: np.ndarray, k: int) -> np.ndarray:
    """Induced connected k-node class counts of a graph, canonical order."""
    if len(edges) == 0:
        return np.zeros(len(CLASS_NAMES[k]), dtype=np.int64)
    _, idx = np.unique(edges, return_inverse=True)
    idx = idx.reshape(-1, 2)
    n = int(idx.max()) + 1
    a = np.zeros((n, n))
    a[idx[:, 0], idx[:, 1]] = a[idx[:, 1], idx[:, 0]] = 1.0
    d = a.sum(axis=1)
    a2 = a @ a
    tri_at = np.einsum("ij,ji->i", a2, a) / 2  # triangles through each node
    tri = tri_at.sum() / 3
    if k == 3:
        wedges = (d * (d - 1) / 2).sum()
        return np.rint([wedges - 3 * tri, tri]).astype(np.int64)
    iu, iv = idx[:, 0], idx[:, 1]
    m = len(idx)
    star = (d * (d - 1) * (d - 2) / 6).sum()
    path = ((d[iu] - 1) * (d[iv] - 1)).sum() - 3 * tri
    cycle = ((a2 * a2).sum() - 2 * m - 2 * (d * (d - 1)).sum()) / 8
    paw = (tri_at * (d - 2)).sum()
    common = a2[iu, iv]
    diamond = (common * (common - 1) / 2).sum()
    shared = a[iu] * a[iv]  # common neighbours of each edge
    clique = ((shared @ a) * shared).sum() / 2 / 6
    # non-induced -> induced
    i_clique = clique
    i_diamond = diamond - 6 * i_clique
    i_paw = paw - 4 * i_diamond - 12 * i_clique
    i_cycle = cycle - i_diamond - 3 * i_clique
    i_path = path - 4 * i_cycle - 2 * i_paw - 6 * i_diamond - 12 * i_clique
    i_star = star - i_paw - 2 * i_diamond - 4 * i_clique
    return np.rint([i_star, i_path, i_cycle, i_paw, i_diamond, i_clique]).astype(np.int64)


class NetworkReference:
    """Snapshots and class counts of one generated network, rebuilt here."""

    def __init__(self, u: np.ndarray, v: np.ndarray, t: np.ndarray, settings: dict, k: int):
        keep = u != v
        self.u, self.v, self.t = u[keep], v[keep], t[keep]
        self.k = k
        self.policy = settings["policy"]
        self.width, self.count = int(settings["width"]), int(settings["count"])
        self.origin = int(settings["origin"])
        self.n = len(np.unique(np.concatenate([self.u, self.v])))
        self._counts: dict[int, np.ndarray] = {}

    @staticmethod
    def _distinct(u, v) -> np.ndarray:
        pairs = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
        return np.unique(pairs, axis=0) if len(pairs) else pairs.reshape(0, 2)

    @cached_property
    def snapshots(self) -> list[np.ndarray]:
        end = self.origin + self.width * self.count
        if self.policy == "active":
            inside = (self.t >= self.origin) & (self.t < end)
            bucket = (self.t - self.origin) // self.width
            return [self._distinct(self.u[inside & (bucket == i)], self.v[inside & (bucket == i)])
                    for i in range(self.count)]
        inside = self.t < end
        bucket = np.maximum(self.t - self.origin, 0) // self.width
        return [self._distinct(self.u[inside & (bucket <= i)], self.v[inside & (bucket <= i)])
                for i in range(self.count)]

    @cached_property
    def final(self) -> np.ndarray:
        return self._distinct(self.u, self.v)

    def counts(self, i: int) -> np.ndarray:
        """Class counts of snapshot ``i``, or of the final graph for -1."""
        if i not in self._counts:
            edges = self.final if i == -1 else self.snapshots[i]
            self._counts[i] = class_counts(edges, self.k)
        return self._counts[i]

    def ksets(self, i: int) -> int:
        return int(self.counts(i).sum())

    def edge_churn(self) -> float:
        """Mean |E_i xor E_i+1| / |E_i union E_i+1| over consecutive snapshots."""
        sets = [set(map(tuple, s.tolist())) for s in self.snapshots]
        shares = [len(a ^ b) / len(a | b) for a, b in zip(sets, sets[1:]) if a | b]
        return sum(shares) / len(shares) if shares else 0.0


class Reference:
    """What the outputs of one workload must agree with."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.k = workload.k
        self.networks = {
            net.name: NetworkReference(net.u, net.v, net.t, workload.settings, self.k)
            for net in workload.networks
        }
        self.families = workload.families()

    def input_sizes(self) -> dict:
        """Problem size of the workload, for the report."""
        sizes = {}
        for name, ref in self.networks.items():
            net = next(n for n in self.workload.networks if n.name == name)
            entry = {"n": ref.n, "events": len(net.t), "final_edges": len(ref.final)}
            if self.workload.name == "ensemble":
                entry["ksets_final"] = ref.ksets(-1)
                entry["swaps_attempted"] = (len(ref.final) * int(self.workload.settings["swaps_per_edge"])
                                            * int(self.workload.settings["replicates"]))
            else:
                entry["edges_per_snapshot"] = [len(s) for s in ref.snapshots]
                entry["ksets_per_snapshot"] = [ref.ksets(i) for i in range(ref.count)]
                entry["edge_churn"] = round(ref.edge_churn(), 4)
            sizes[name] = entry
        return sizes


# ---------------------------------------------------------------------------
# readers


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _matrix(path: Path) -> np.ndarray:
    rows = _read_csv(path)
    return np.array([[float(x) for x in row[1:]] for row in rows[1:]])


def _close(a, b, tol=1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _cut(merges: list[dict], names, n_clusters: int) -> set[frozenset]:
    parts = [frozenset([name]) for name in names]
    for step in merges:
        if len(parts) == n_clusters:
            break
        merged = frozenset(step["left"]) | frozenset(step["right"])
        parts = [p for p in parts if not p & merged] + [merged]
    return set(parts)


def _family_problems(tree_path: Path, families: dict[str, str]) -> list[str]:
    merges = json.loads(tree_path.read_text())
    planted = {}
    for name, fam in families.items():
        planted.setdefault(fam, set()).add(name)
    expected = {frozenset(p) for p in planted.values()}
    got = _cut(merges, list(families), len(expected))
    if got != expected:
        return [f"{tree_path.name}: clusters {sorted(map(sorted, got))} != planted families"]
    return []


# ---------------------------------------------------------------------------
# per-step checks


def check_transitions(out: Path, ref: Reference) -> list[str]:
    problems = []
    k, m = ref.k, ORBITS[ref.k]
    for name, net in ref.networks.items():
        path = out / f"{name}.transitions.json"
        data = json.loads(path.read_text())
        counts = np.array(data["counts"], dtype=np.int64)
        dissolved = np.array([data["dissolved"][str(a + 1)] for a in range(m)], dtype=np.int64)
        expected = k * sum(net.ksets(i) for i in range(net.count - 1))
        if data["k"] != k or counts.shape != (m, m) or data["pairs_processed"] != net.count - 1:
            problems.append(f"{path.name}: k, shape or pairs_processed wrong")
        if (counts < 0).any() or (dissolved < 0).any():
            problems.append(f"{path.name}: negative counts")
        total = int(counts.sum() + dissolved.sum())
        if data["total_node_transitions"] != total or total != expected:
            problems.append(f"{path.name}: conservation: total {data['total_node_transitions']}, "
                            f"counts+dissolved {total}, k x source k-sets {expected}")
        if net.policy == "aggregate" and dissolved.any():
            problems.append(f"{path.name}: dissolved {dissolved.tolist()} under aggregate")
        csv_counts = _matrix(out / f"{name}.transitions.csv")
        if not np.array_equal(csv_counts, counts):
            problems.append(f"{name}.transitions.csv disagrees with {path.name}")
        sums = _matrix(out / f"{name}.transitions_normalized.csv").sum(axis=1)
        if not all(_close(s, 1.0) or s == 0 for s in sums):
            problems.append(f"{name}.transitions_normalized.csv: row sums {sums.tolist()}")
    return problems


def check_stats(out: Path, ref: Reference) -> list[str]:
    problems = []
    rows = _read_csv(out / "stats.csv")
    if rows[0] != ["network", "snapshot", "nodes", "edges", "avg_degree", "clustering", "cpl"]:
        return [f"stats.csv: header {rows[0]}"]
    by_net: dict[str, list[list[str]]] = {}
    for row in rows[1:]:
        by_net.setdefault(row[0], []).append(row)
    for name, net in ref.networks.items():
        got = by_net.get(name, [])
        if len(got) != net.count:
            problems.append(f"stats.csv: {len(got)} rows for {name}, expected {net.count}")
            continue
        for i, (row, edges) in enumerate(zip(got, net.snapshots)):
            nodes = len(np.unique(edges))
            _, snap, n_nodes, n_edges, avg, clus, cpl = row
            avg, clus, cpl = float(avg), float(clus), float(cpl)
            if int(snap) != i or int(n_nodes) != nodes or int(n_edges) != len(edges):
                problems.append(f"stats.csv {name} snapshot {i}: nodes/edges {n_nodes}/{n_edges}, "
                                f"expected {nodes}/{len(edges)}")
            elif nodes and not _close(avg, 2 * len(edges) / nodes):
                problems.append(f"stats.csv {name} snapshot {i}: avg_degree {avg}")
            if not 0.0 <= clus <= 1.0 or (len(edges) and not cpl >= 1.0) or (not len(edges) and not math.isnan(cpl)):
                problems.append(f"stats.csv {name} snapshot {i}: clustering {clus} or cpl {cpl} out of range")
        if not (out / f"{name}.stats.csv").is_file():
            problems.append(f"{name}.stats.csv missing")
    return problems


def _census_problems(out: Path, stem: str, n: int, counts: np.ndarray, k: int) -> list[str]:
    problems = []
    m = ORBITS[k]
    classes = _read_csv(out / f"{stem}.classes.csv")
    got = [(row[0], int(row[1])) for row in classes[1:]]
    if got != list(zip(CLASS_NAMES[k], counts.tolist())):
        problems.append(f"{stem}.classes.csv: {got}, expected {counts.tolist()}")
    fr_rows = _read_csv(out / f"{stem}.fr.csv")
    fr = np.array([[int(x) for x in row[1:]] for row in fr_rows[1:]], dtype=np.int64).reshape(-1, m)
    if fr.shape != (n, m):
        return problems + [f"{stem}.fr.csv: shape {fr.shape}, expected {(n, m)}"]
    for orbit, (cls, mult) in ORBIT_CLASS[k].items():
        if fr[:, orbit - 1].sum() != counts[cls] * mult:
            problems.append(f"{stem}.fr.csv: orbit {orbit} sums to {fr[:, orbit - 1].sum()}, "
                            f"expected {counts[cls]} x {mult}")
    gdd = json.loads((out / f"{stem}.gdd.json").read_text())
    for orbit in range(1, m + 1):
        raw = {int(d): c for d, c in gdd["orbits"][str(orbit)]["raw"].items()}
        values, freq = np.unique(fr[:, orbit - 1], return_counts=True)
        if raw != dict(zip(values.tolist(), freq.tolist())):
            problems.append(f"{stem}.gdd.json: orbit {orbit} raw distribution disagrees with fr.csv")
    return problems


def check_census(out: Path, ref: Reference) -> list[str]:
    problems = []
    for name, net in ref.networks.items():
        for i in range(net.count):
            problems += _census_problems(out, f"{name}.snap{i}", net.n, net.counts(i), ref.k)
        problems += _census_problems(out, f"{name}.final", net.n, net.counts(-1), ref.k)
    return problems


def check_motifs(out: Path, ref: Reference) -> list[str]:
    problems = []
    for name, net in ref.networks.items():
        rows = _read_csv(out / f"{name}.motifs.csv")[1:]
        real = [int(r[1]) for r in rows]
        means = np.array([float(r[2]) for r in rows])
        deltas = np.array([float(r[3]) for r in rows])
        if [r[0] for r in rows] != list(CLASS_NAMES[4]) or real != net.counts(-1).tolist():
            problems.append(f"{name}.motifs.csv: real counts {real}, expected {net.counts(-1).tolist()}")
        if (means < 0).any() or (np.abs(deltas) > 1 + 1e-12).any():
            problems.append(f"{name}.motifs.csv: ensemble mean or delta out of range")
        norm = float(np.linalg.norm(deltas))
        if not (_close(norm, 1.0) or norm == 0.0):
            problems.append(f"{name}.motifs.csv: score vector norm {norm}")
    meta = json.loads((out / "motifs.meta.json").read_text())
    if meta["replicates"] != int(ref.workload.settings["replicates"]):
        problems.append("motifs.meta.json: replicates disagree with the manifest")
    return problems


def _check_compare(out: Path, ref: Reference, metric: str, diagonal: float,
                   families: bool = True) -> list[str]:
    values = _matrix(out / f"compare_{metric}.csv")
    header = _read_csv(out / f"compare_{metric}.csv")[0][1:]
    problems = []
    if header != list(ref.networks):
        problems.append(f"compare_{metric}.csv: networks {header}")
    if values.shape != (len(ref.networks),) * 2 or not np.allclose(values, values.T, atol=1e-12):
        return problems + [f"compare_{metric}.csv: not a symmetric matrix"]
    if not np.allclose(np.diag(values), diagonal, atol=1e-9):
        problems.append(f"compare_{metric}.csv: diagonal {np.diag(values).tolist()}, expected {diagonal}")
    if families:
        problems += _family_problems(out / f"compare_{metric}.tree.json", ref.families)
    return problems


def check_compare_ota(out: Path, ref: Reference) -> list[str]:
    return _check_compare(out, ref, "ota", 1.0)


def check_compare_gda(out: Path, ref: Reference) -> list[str]:
    return _check_compare(out, ref, "gda", 1.0)


def check_compare_motif(out: Path, ref: Reference) -> list[str]:
    # A random graph shows no motif against its own degree-preserving
    # ensemble, so its unit-norm score vector points in an arbitrary
    # direction: motif distance need not group the random family.
    return _check_compare(out, ref, "motif", 0.0, families=False)


def check_cluster(out: Path, ref: Reference) -> list[str]:
    """The merge tree rebuilt from the CSV matches the one compare wrote."""
    got = json.loads((out / "cluster.tree.json").read_text())
    want = json.loads((out / "compare_ota.tree.json").read_text())
    same = len(got) == len(want) and all(
        g["left"] == w["left"] and g["right"] == w["right"] and _close(g["height"], w["height"], 1e-6)
        for g, w in zip(got, want)
    )
    return [] if same else ["cluster.tree.json differs from compare_ota.tree.json"]


CHECKS = {
    "transitions": check_transitions,
    "stats": check_stats,
    "census": check_census,
    "motifs": check_motifs,
    "compare_ota": check_compare_ota,
    "compare_gda": check_compare_gda,
    "compare_motif": check_compare_motif,
    "cluster": check_cluster,
}


def check_step(step: str, out: Path, ref: Reference) -> list[str]:
    """Problems with the outputs of ``step``; a missing or unreadable file is one."""
    try:
        return CHECKS[step](out, ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as e:
        return [f"{step}: unreadable output: {type(e).__name__}: {e}"]
