"""Seeded synthetic inputs for the benchmark workloads.

Each workload is a manifest, one edge-list file per network and the CLI
sequence the benchmark runs on them. The program sees only the files;
the harness keeps the generated events and the planted family of each
network so that it can check outputs without a stored reference.

Every random draw comes from ``numpy.random.default_rng([seed, salt])``,
so one seed always gives byte-identical files. Sizes are fixed per
workload (only which edges and timestamps are drawn depends on the
seed), so the work a run does varies little from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SALTS = {"churn": 1, "growth": 2, "ensemble": 3, "ingest": 4}

# Snapshot width in time units and the origin of the snapshot window.
WIDTH = 1000
ORIGIN = 100_000

# Workload sizes. ``full`` is what the benchmark measures; ``smoke`` runs
# the same pipeline in a fraction of a second per step for the self-test.
SIZES = {
    "full": {
        "churn": dict(n=200, reach=4, snapshots=10, live=0.6, events_per_live=4),
        "growth": dict(n=250, reach=4, chords=50, snapshots=8, early=0.6),
        "ensemble": dict(n=120, reach=4, replicates=4, swaps_per_edge=10),
        "ingest": dict(n=300, edges=1300, events=400_000, snapshots=12,
                       self_loop_share=0.002, late_share=0.01),
    },
    "smoke": {
        "churn": dict(n=40, reach=3, snapshots=4, live=0.6, events_per_live=2),
        "growth": dict(n=50, reach=3, chords=10, snapshots=4, early=0.6),
        "ensemble": dict(n=40, reach=3, replicates=2, swaps_per_edge=5),
        "ingest": dict(n=60, edges=200, events=5_000, snapshots=5,
                       self_loop_share=0.002, late_share=0.01),
    },
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload.

    ``metric`` names the wall-time metric the report gives the invocation,
    or is None for a step whose time counts only in ``wall_s``.
    """

    name: str
    argv: tuple[str, ...]
    metric: str | None


@dataclass
class Network:
    """One generated network: its events (label space) and planted family."""

    name: str
    family: str
    u: np.ndarray
    v: np.ndarray
    t: np.ndarray

    def edge_list_text(self) -> str:
        rows = zip(self.u.tolist(), self.v.tolist(), self.t.tolist())
        return "".join(f"{a} {b} {c}\n" for a, b, c in rows)


@dataclass
class Workload:
    name: str
    networks: list[Network]
    settings: dict[str, object]
    steps: tuple[Step, ...]

    @property
    def k(self) -> int:
        return int(self.settings.get("k", 4))

    def manifest_text(self) -> str:
        lines = ["[settings]"]
        lines += [f"{key} = {value}" for key, value in self.settings.items()]
        for net in self.networks:
            lines += ["", f"[{net.name}]", f"path = {net.name}.txt"]
        return "\n".join(lines) + "\n"

    def write(self, directory: Path) -> None:
        """Write the manifest and every edge-list file into ``directory``."""
        directory.mkdir(parents=True, exist_ok=True)
        for net in self.networks:
            (directory / f"{net.name}.txt").write_text(net.edge_list_text())
        (directory / "manifest.ini").write_text(self.manifest_text())

    def families(self) -> dict[str, str]:
        return {net.name: net.family for net in self.networks}


MANIFEST = ("--manifest", "manifest.ini")

STEPS = {
    "churn": (
        Step("transitions", ("transitions", *MANIFEST), "transitions_s"),
        Step("compare_ota", ("compare", *MANIFEST, "--metric", "ota"), "compare_ota_s"),
        # cluster's wall time is almost all interpreter start-up: it counts
        # in wall_s and in the failure count only.
        Step("cluster", ("cluster", "--matrix", "out/compare_ota.csv"), None),
    ),
    "growth": (
        Step("transitions", ("transitions", *MANIFEST), "transitions_s"),
        Step("stats", ("stats", *MANIFEST), "stats_s"),
        Step("census", ("census", *MANIFEST), "census_s"),
    ),
    "ensemble": (
        Step("motifs", ("motifs", *MANIFEST), "motifs_s"),
        Step("compare_motif", ("compare", *MANIFEST, "--metric", "motif"), "compare_motif_s"),
        Step("compare_gda", ("compare", *MANIFEST, "--metric", "gda"), "compare_gda_s"),
    ),
    "ingest": (
        Step("stats", ("stats", *MANIFEST), "stats_s"),
        # k = 3 comes from the manifest, so the step uses default flags only.
        Step("transitions", ("transitions", *MANIFEST), "transitions_s"),
    ),
}


# ---------------------------------------------------------------------------
# graph families


def ring_lattice(n: int, reach: int) -> np.ndarray:
    """Edges (m, 2) of a ring where node i links to i+1 .. i+reach."""
    base = np.repeat(np.arange(n), reach)
    step = np.tile(np.arange(1, reach + 1), n)
    return _canonical(base, (base + step) % n)


def random_graph(n: int, m: int, rng: np.random.Generator, avoid: np.ndarray | None = None) -> np.ndarray:
    """``m`` distinct uniform random edges, none of them in ``avoid``."""
    taken = set() if avoid is None else set(map(tuple, avoid.tolist()))
    chosen: list[tuple[int, int]] = []
    while len(chosen) < m:
        a, b = rng.integers(n, size=2).tolist()
        key = (min(a, b), max(a, b))
        if a != b and key not in taken:
            taken.add(key)
            chosen.append(key)
    return np.array(chosen, dtype=np.int64).reshape(-1, 2)


def _canonical(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)


def _relabel(edges: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Apply a random node permutation, so ids carry no structure."""
    return rng.permutation(n)[edges]


def _network(name: str, family: str, u, v, t) -> Network:
    u, v, t = (np.asarray(x, dtype=np.int64) for x in (u, v, t))
    order = np.argsort(t, kind="stable")
    return Network(name, family, u[order], v[order], t[order])


# ---------------------------------------------------------------------------
# workloads


def _churn(p: dict, rng: np.random.Generator) -> tuple[list[Network], dict]:
    n, reach, snaps = p["n"], p["reach"], p["snapshots"]
    networks = []
    for family in ("lattice", "random"):
        for r in range(2):
            edges = ring_lattice(n, reach) if family == "lattice" else random_graph(n, n * reach, rng)
            edges = _relabel(edges, n, rng)
            us, vs, ts = [], [], []
            for s in range(snaps):
                live = edges[rng.random(len(edges)) < p["live"]]
                reps = p["events_per_live"]
                us.append(np.repeat(live[:, 0], reps))
                vs.append(np.repeat(live[:, 1], reps))
                ts.append(ORIGIN + s * WIDTH + rng.integers(WIDTH, size=len(live) * reps))
            networks.append(_network(f"{family}{r}", family, np.concatenate(us),
                                     np.concatenate(vs), np.concatenate(ts)))
    settings = dict(policy="active", width=WIDTH, count=snaps, origin=ORIGIN)
    return networks, settings


def _growth(p: dict, rng: np.random.Generator) -> tuple[list[Network], dict]:
    n, snaps = p["n"], p["snapshots"]
    networks = []
    for r in range(2):
        lattice = ring_lattice(n, p["reach"])
        edges = np.concatenate([lattice, random_graph(n, p["chords"], rng, avoid=lattice)])
        edges = _relabel(edges, n, rng)
        m = len(edges)
        end = ORIGIN + snaps * WIDTH
        # 'early' edges exist before the window opens; the rest appear one
        # by one inside it. Each edge has one more, later event.
        early = rng.random(m) < p["early"]
        first = np.where(early, ORIGIN - 1 - rng.integers(WIDTH, size=m),
                         ORIGIN + rng.integers(snaps * WIDTH, size=m))
        again = first + 1 + (rng.random(m) * (end - 1 - first)).astype(np.int64)
        networks.append(_network(f"growth{r}", "lattice+chords",
                                 np.tile(edges[:, 0], 2), np.tile(edges[:, 1], 2),
                                 np.concatenate([first, again])))
    settings = dict(policy="aggregate", width=WIDTH, count=snaps, origin=ORIGIN)
    return networks, settings


def _ensemble(p: dict, rng: np.random.Generator) -> tuple[list[Network], dict]:
    n, reach = p["n"], p["reach"]
    networks = []
    for family in ("lattice", "random"):
        for r in range(2):
            edges = ring_lattice(n, reach) if family == "lattice" else random_graph(n, n * reach, rng)
            edges = _relabel(edges, n, rng)
            t = ORIGIN + rng.integers(WIDTH, size=len(edges))
            networks.append(_network(f"{family}{r}", family, edges[:, 0], edges[:, 1], t))
    settings = dict(policy="aggregate", width=WIDTH, count=2, origin=ORIGIN,
                    replicates=p["replicates"], swaps_per_edge=p["swaps_per_edge"], seed=7)
    return networks, settings


def _ingest(p: dict, rng: np.random.Generator) -> tuple[list[Network], dict]:
    n, snaps, count = p["n"], p["snapshots"], p["events"]
    edges = _relabel(random_graph(n, p["edges"], rng), n, rng)
    # Contact activity is heavy-tailed: edge i gets events with weight
    # 1/(i+1), so rarely used edges come and go between snapshots.
    weight = 1.0 / np.arange(1, len(edges) + 1)
    pick = edges[rng.choice(len(edges), size=count, p=weight / weight.sum())]
    u, v = pick[:, 0].copy(), pick[:, 1].copy()
    # A few self-loop events (dropped at parse) and events past the last
    # snapshot (discarded when binning) exercise both counters.
    loops = rng.random(count) < p["self_loop_share"]
    v[loops] = u[loops]
    span = snaps * WIDTH
    t = ORIGIN + rng.integers(span, size=count)
    late = rng.random(count) < p["late_share"]
    t[late] = ORIGIN + span + rng.integers(WIDTH, size=int(late.sum()))
    networks = [_network("contacts", "random", u, v, t)]
    settings = dict(policy="active", width=WIDTH, count=snaps, origin=ORIGIN, k=3)
    return networks, settings


GENERATORS = {"churn": _churn, "growth": _growth, "ensemble": _ensemble, "ingest": _ingest}


def generate(name: str, seed: int, size: str = "full") -> Workload:
    """The workload ``name`` drawn from ``seed`` at ``size``."""
    params = SIZES[size][name]
    rng = np.random.default_rng([seed, SALTS[name]])
    networks, settings = GENERATORS[name](params, rng)
    return Workload(name=name, networks=networks, settings=settings, steps=STEPS[name])
