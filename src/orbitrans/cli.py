"""Command-line pipeline: ingest edge lists, emit analysis files.

A run is described by a manifest — an INI-style file with one section per
network plus an optional ``[settings]`` section for shared knobs::

    [settings]
    policy = aggregate
    width = 10
    count = 6
    seed = 7

    [emails]
    path = data/emails.txt

    [calls]
    path = data/calls.txt
    policy = active

Per-network keys: ``path`` (required), ``policy``, ``width``, ``count``,
``origin``, ``sep``; all but ``path`` may also be set in ``[settings]``
for every network. ``[settings]`` further takes ``k`` (subgraph size, 3
or 4, used by ``census``, ``transitions``, ``motifs`` and ``compare``),
``seed``, ``replicates``, ``swaps_per_edge``, ``ota_scaling``,
``relative_rescale``, ``gdd_scaling``, ``linkage`` and ``out``. Values in
the manifest take precedence over command-line flags, so a manifest
fully determines a run; flags fill in whatever the manifest leaves out.
All outputs are written atomically and deterministically: rerunning the
same manifest reproduces every file byte for byte. After loading each
network, one line on stderr reports the events read, the self-loops
dropped and (where snapshots are built) the events outside the snapshot
window; it never enters an output file.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .census import (
    class_counts,
    compute_gdd,
    compute_orbit_frequencies,
    graphlet_class_frequencies,
)
from .graph_core import (
    EdgeListParseError,
    SnapshotPolicy,
    SnapshotSeries,
    StaticGraph,
    TemporalEdgeList,
    build_snapshots,
    final_aggregate_graph,
    parse_edge_list,
    snapshot_stats,
)
from .metrics import (
    AgreementConfig,
    MergeStep,
    MotifFingerprint,
    SimilarityMatrix,
    gda_matrix,
    hierarchical_cluster,
    motif_distance_matrix,
    motif_scores_from_counts,
    ota_matrix,
)
from .nullmodel import RandomizationConfig, ensemble_frequencies
from .transitions import OrbitTransitionMatrix, accumulate_series, discretize, row_normalize

STATS_HEADER = ("snapshot", "nodes", "edges", "avg_degree", "clustering", "cpl")


class CliError(Exception):
    """User-facing failure; message is printed without a traceback."""


# ---------------------------------------------------------------------------
# manifest handling


@dataclass(frozen=True)
class NetworkSpec:
    """One network's input file and snapshot configuration."""

    name: str
    path: Path
    policy_mode: str
    width: int | None
    count: int | None
    origin: int | None
    sep: str

    def snapshot_policy(self) -> SnapshotPolicy:
        if self.width is None or self.count is None:
            raise CliError(
                "snapshot width/count not configured; set 'width' and 'count' "
                "in the manifest"
            )
        return SnapshotPolicy(
            mode=self.policy_mode, width=self.width, count=self.count, origin=self.origin
        )

    def load_events(self) -> TemporalEdgeList:
        try:
            with self.path.open("rb") as fh:
                return parse_edge_list(fh, sep=self.sep)
        except OSError as e:
            raise CliError(f"cannot read {self.path}: {e}") from e
        except EdgeListParseError as e:
            raise CliError(f"{self.path}: {e}") from e


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs: networks, knobs, output directory."""

    networks: tuple[NetworkSpec, ...]
    out_dir: Path
    k: int
    agreement: AgreementConfig
    randomization: RandomizationConfig
    linkage: str
    gda_include_k3: bool
    manifest_path: Path

    def network_summary(self) -> dict:
        return {
            net.name: {
                "path": str(net.path),
                "policy": net.policy_mode,
                "width": net.width,
                "count": net.count,
                "origin": net.origin,
                "sep": net.sep,
            }
            for net in self.networks
        }


def _get_int(section, key: str, context: str) -> int | None:
    raw = section.get(key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{context}: {key} = {raw!r} is not an integer") from None


def _get_bool(section, key: str, context: str) -> bool | None:
    raw = section.get(key)
    if raw is None:
        return None
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise CliError(f"{context}: {key} = {raw!r} is not a boolean")


def _get_choice(section, key: str, choices: tuple[str, ...], context: str) -> str | None:
    raw = section.get(key)
    if raw is None:
        return None
    if raw not in choices:
        raise CliError(f"{context}: {key} must be one of {choices}, got {raw!r}")
    return raw


def _get_count(section, key: str, context: str, args: argparse.Namespace) -> int | None:
    """A positive integer from the manifest, else from the flag of the same name."""
    value, where = _get_int(section, key, context), f"{context}: {key}"
    if value is None:
        value, where = getattr(args, key, None), f"--{key.replace('_', '-')}"
    if value is not None and value < 1:
        raise CliError(f"{where} = {value} must be at least 1")
    return value


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge the manifest with command-line flags (manifest wins)."""
    manifest_path = Path(args.manifest)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(manifest_path) as fh:
            parser.read_file(fh)
    except OSError as e:
        raise CliError(f"cannot read manifest {manifest_path}: {e}") from e
    except configparser.Error as e:
        raise CliError(f"manifest {manifest_path}: {e}") from e

    settings = parser["settings"] if parser.has_section("settings") else {}
    ctx = f"manifest {manifest_path} [settings]"

    networks = []
    for name in parser.sections():
        if name == "settings":
            continue
        section = parser[name]
        nctx = f"manifest {manifest_path} [{name}]"
        if "path" not in section:
            raise CliError(f"{nctx}: missing required key 'path'")
        path = Path(section["path"])
        if not path.is_absolute():
            path = manifest_path.parent / path
        if not path.exists():
            raise CliError(f"{nctx}: input file {path} does not exist")
        policy_mode = (
            _get_choice(section, "policy", ("active", "aggregate"), nctx)
            or _get_choice(settings, "policy", ("active", "aggregate"), ctx)
            or args.policy
        )
        sep = (
            _get_choice(section, "sep", ("ws", "comma"), nctx)
            or _get_choice(settings, "sep", ("ws", "comma"), ctx)
            or args.sep
        )
        networks.append(
            NetworkSpec(
                name=name,
                path=path,
                policy_mode=policy_mode,
                width=_first_not_none(
                    _get_int(section, "width", nctx), _get_int(settings, "width", ctx), args.width
                ),
                count=_first_not_none(
                    _get_int(section, "count", nctx), _get_int(settings, "count", ctx), args.count
                ),
                origin=_first_not_none(
                    _get_int(section, "origin", nctx), _get_int(settings, "origin", ctx)
                ),
                sep=sep,
            )
        )
    if not networks:
        raise CliError(f"manifest {manifest_path} defines no networks")

    agreement = AgreementConfig(
        ota_scaling=_get_choice(settings, "ota_scaling", ("normalized", "per_orbit"), ctx)
        or getattr(args, "ota_scaling", None)
        or "normalized",
        use_relative_rescale=_first_not_none(
            _get_bool(settings, "relative_rescale", ctx),
            (not args.no_relative_rescale) if hasattr(args, "no_relative_rescale") else None,
            True,
        ),
        gdd_scaling=_get_choice(settings, "gdd_scaling", ("inverse_k", "plain"), ctx)
        or getattr(args, "gdd_scaling", None)
        or "inverse_k",
    )
    randomization = RandomizationConfig(
        replicates=_first_not_none(_get_count(settings, "replicates", ctx, args), 100),
        swaps_per_edge=_first_not_none(_get_count(settings, "swaps_per_edge", ctx, args), 10),
        seed=_first_not_none(_get_int(settings, "seed", ctx), args.seed),
    )
    k = _first_not_none(_get_int(settings, "k", ctx), getattr(args, "k", None), 4)
    if k not in (3, 4):
        raise CliError(f"subgraph size k must be 3 or 4, got {k}")
    out_value = settings.get("out") if settings else None
    out_dir = Path(out_value) if out_value else Path(args.out)
    linkage = (
        _get_choice(settings, "linkage", ("average", "single", "complete"), ctx)
        or getattr(args, "linkage", None)
        or "average"
    )
    return RunConfig(
        networks=tuple(networks),
        out_dir=out_dir,
        k=k,
        agreement=agreement,
        randomization=randomization,
        linkage=linkage,
        gda_include_k3=bool(getattr(args, "gda_include_k3", False)),
        manifest_path=manifest_path,
    )


def _first_not_none(*values):
    for v in values:
        if v is not None:
            return v
    return None


# ---------------------------------------------------------------------------
# output helpers


def fmt(value) -> str:
    """Render one CSV cell: ints verbatim, floats with 12 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_atomic(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    try:
        # mkstemp creates the file owner-only; give it the usual umask mode
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(cell) for cell in row])
    write_atomic(path, buf.getvalue())


def write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2) + "\n")


def _file_stem(name: str) -> str:
    return name.replace(os.sep, "_").replace("/", "_")


def write_orbit_matrix_csv(path: Path, values) -> None:
    m = len(values)
    header = ["orbit"] + [str(b + 1) for b in range(m)]
    write_csv(path, header, ([a + 1, *row] for a, row in enumerate(values)))


# ---------------------------------------------------------------------------
# per-network pipelines


def _report_load(
    net: NetworkSpec, events: TemporalEdgeList, series: SnapshotSeries | None = None
) -> None:
    """One stderr line: events read, self-loops dropped, events outside the window."""
    dropped = events.dropped_self_loops
    line = (
        f"network {net.name!r}: {len(events.events) + dropped} events read, "
        f"{dropped} self-loops dropped"
    )
    if series is not None:
        line += f", {series.events_discarded} events outside the snapshot window"
    print(line, file=sys.stderr)


def _network_series(net: NetworkSpec) -> tuple[TemporalEdgeList, SnapshotSeries]:
    events = net.load_events()
    series = build_snapshots(events, net.snapshot_policy())
    _report_load(net, events, series)
    return events, series


def _network_final_graph(net: NetworkSpec) -> StaticGraph:
    """The network's final aggregate graph, which uses every event."""
    events = net.load_events()
    _report_load(net, events)
    return final_aggregate_graph(events)


def run_per_network(run: RunConfig, worker: Callable[[NetworkSpec], object]) -> tuple[dict, list[str]]:
    """Apply ``worker`` to each network in turn, isolating per-network failures.

    Returns (results by network name, error messages).
    """
    results, errors = {}, []
    for net in run.networks:
        try:
            results[net.name] = worker(net)
        except (CliError, ValueError, OSError) as e:
            errors.append(f"network {net.name!r}: {e}")
    return results, errors


def _network_transitions(run: RunConfig, net: NetworkSpec) -> OrbitTransitionMatrix:
    """Orbit-transition counts summed over the network's snapshot series."""
    _events, series = _network_series(net)
    return accumulate_series(series, run.k)


def _network_motifs(run: RunConfig, net: NetworkSpec) -> tuple[dict, dict, MotifFingerprint]:
    """Real class counts, ensemble means and motif fingerprint of the final graph."""
    g = _network_final_graph(net)
    real = graphlet_class_frequencies(g, run.k)
    means = ensemble_frequencies(g, run.randomization, run.k)
    fp = motif_scores_from_counts(list(real.values()), [means[name] for name in real], run.k)
    return real, means, fp


def _report_errors(errors: list[str]) -> int:
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(args: argparse.Namespace) -> int:
    run = load_run_config(args)

    def worker(net: NetworkSpec):
        _events, series = _network_series(net)
        rows = snapshot_stats(series)
        table = [[r[col] for col in STATS_HEADER] for r in rows]
        write_csv(run.out_dir / f"{_file_stem(net.name)}.stats.csv", STATS_HEADER, table)
        return table

    results, errors = run_per_network(run, worker)
    combined = [
        [net.name, *row] for net in run.networks if net.name in results for row in results[net.name]
    ]
    if results:
        write_csv(run.out_dir / "stats.csv", ("network", *STATS_HEADER), combined)
    return _report_errors(errors)


def _census_bundle(run: RunConfig, stem: str, tag: str, g: StaticGraph, labels) -> None:
    fr = compute_orbit_frequencies(g, run.k)
    gdd = compute_gdd(fr, scaling=run.agreement.gdd_scaling)
    header = ["node"] + [f"orbit_{j + 1}" for j in range(fr.m)]
    write_csv(
        run.out_dir / f"{stem}.{tag}.fr.csv",
        header,
        ([labels[v], *fr.counts[v]] for v in range(fr.n)),
    )
    write_csv(
        run.out_dir / f"{stem}.{tag}.classes.csv",
        ("class", "count"),
        class_counts(fr).items(),
    )
    write_json(
        run.out_dir / f"{stem}.{tag}.gdd.json",
        {
            "k": gdd.k,
            "scaling": gdd.scaling,
            "orbits": {
                str(j + 1): {
                    "raw": {str(d): c for d, c in sorted(gdd.raw[j].items())},
                    "normalized": {
                        str(d): v for d, v in sorted(gdd.normalized[j].items())
                    },
                }
                for j in range(len(gdd.raw))
            },
            "untouched_orbits": list(gdd.untouched),
        },
    )


def cmd_census(args: argparse.Namespace) -> int:
    run = load_run_config(args)

    def worker(net: NetworkSpec):
        events, series = _network_series(net)
        stem = _file_stem(net.name)
        for i, snap in enumerate(series.snapshots):
            _census_bundle(run, stem, f"snap{i}", snap, events.labels)
        _census_bundle(run, stem, "final", final_aggregate_graph(events), events.labels)

    _results, errors = run_per_network(run, worker)
    return _report_errors(errors)


def cmd_transitions(args: argparse.Namespace) -> int:
    run = load_run_config(args)

    def worker(net: NetworkSpec):
        t = _network_transitions(run, net)
        nt = row_normalize(t)
        fp = discretize(nt)
        stem = _file_stem(net.name)
        write_orbit_matrix_csv(run.out_dir / f"{stem}.transitions.csv", t.counts)
        write_orbit_matrix_csv(run.out_dir / f"{stem}.transitions_normalized.csv", nt.values)
        write_orbit_matrix_csv(run.out_dir / f"{stem}.fingerprint.csv", fp.labels)
        write_json(
            run.out_dir / f"{stem}.transitions.json",
            {
                "k": t.k,
                "pairs_processed": t.pairs_processed,
                "counts": t.counts.tolist(),
                "normalized": nt.values.tolist(),
                "fingerprint": [list(row) for row in fp.labels],
                "dissolved": {str(a + 1): int(c) for a, c in enumerate(t.dissolved)},
                "total_node_transitions": t.total_node_transitions(),
            },
        )

    _results, errors = run_per_network(run, worker)
    return _report_errors(errors)


def cmd_motifs(args: argparse.Namespace) -> int:
    run = load_run_config(args)

    def worker(net: NetworkSpec):
        real, means, fp = _network_motifs(run, net)
        write_csv(
            run.out_dir / f"{_file_stem(net.name)}.motifs.csv",
            ("class", "real_count", "ensemble_mean", "delta"),
            ([name, real[name], means[name], score] for name, score in zip(fp.class_names, fp.scores)),
        )

    _results, errors = run_per_network(run, worker)
    write_json(
        run.out_dir / "motifs.meta.json",
        {
            "tool_version": __version__,
            "k": run.k,
            "replicates": run.randomization.replicates,
            "swaps_per_edge": run.randomization.swaps_per_edge,
            "seed": run.randomization.seed,
            "networks": run.network_summary(),
        },
    )
    return _report_errors(errors)


def _similarity_csv_rows(sim: SimilarityMatrix):
    for i, name in enumerate(sim.names):
        yield [name, *sim.values[i]]


def _tree_json(merges: list[MergeStep]) -> list[dict]:
    return [
        {"left": list(s.left), "right": list(s.right), "height": s.height} for s in merges
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    run = load_run_config(args)
    if len(run.networks) < 2:
        raise CliError("compare needs at least 2 networks in the manifest")
    names = [net.name for net in run.networks]
    metric = args.metric

    gda_ks = (run.k, 3) if run.gda_include_k3 and run.k == 4 else (run.k,)

    def gdd_worker(net: NetworkSpec):
        g = _network_final_graph(net)
        return [
            compute_gdd(compute_orbit_frequencies(g, k), run.agreement.gdd_scaling)
            for k in gda_ks
        ]

    workers = {"ota": lambda net: _network_transitions(run, net), "gda": gdd_worker,
               "motif": lambda net: _network_motifs(run, net)[2]}
    results, errors = run_per_network(run, workers[metric])
    if errors:
        # a pairwise comparison cannot proceed with missing networks
        return _report_errors(errors)

    ordered = [results[name] for name in names]
    if metric == "ota":
        sim = ota_matrix(names, ordered, run.agreement)
    elif metric == "gda":
        sim = gda_matrix(names, ordered)
    else:
        sim = motif_distance_matrix(names, ordered)
    merges = hierarchical_cluster(sim, linkage=run.linkage)

    write_csv(
        run.out_dir / f"compare_{metric}.csv",
        ["network", *sim.names],
        _similarity_csv_rows(sim),
    )
    write_json(run.out_dir / f"compare_{metric}.tree.json", _tree_json(merges))
    write_json(
        run.out_dir / f"compare_{metric}.meta.json",
        {
            "tool_version": __version__,
            "metric": metric,
            "kind": sim.kind,
            "linkage": run.linkage,
            "k": run.k,
            "ota_scaling": run.agreement.ota_scaling,
            "relative_rescale": run.agreement.use_relative_rescale,
            "gdd_scaling": run.agreement.gdd_scaling,
            "gda_include_k3": run.gda_include_k3,
            "replicates": run.randomization.replicates,
            "swaps_per_edge": run.randomization.swaps_per_edge,
            "seed": run.randomization.seed,
            "networks": run.network_summary(),
        },
    )
    return 0


def read_similarity_csv(path: Path, kind: str) -> SimilarityMatrix:
    """Load a similarity/distance matrix written by ``compare``.

    Rejects a header that names a network twice, a non-finite cell and a
    matrix that is not exactly symmetric; ``compare`` writes both cells of
    a pair from one value.
    """
    try:
        text = path.read_text()
    except OSError as e:
        raise CliError(f"cannot read matrix {path}: {e}") from e
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len(rows[0]) < 3:
        raise CliError(f"{path}: expected a header row with at least 2 network names")
    names = tuple(rows[0][1:])
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise CliError(f"{path}: header names network {name!r} more than once")
        seen.add(name)
    if len(rows) != len(names) + 1:
        raise CliError(f"{path}: matrix has {len(rows) - 1} rows for {len(names)} names")
    values = np.zeros((len(names), len(names)))
    for i, row in enumerate(rows[1:]):
        if row[0] != names[i]:
            raise CliError(f"{path}: row {i + 1} is {row[0]!r}, expected {names[i]!r}")
        if len(row) != len(names) + 1:
            raise CliError(f"{path}: row {names[i]!r} has {len(row) - 1} of {len(names)} values")
        try:
            values[i] = [float(x) for x in row[1:]]
        except ValueError as e:
            raise CliError(f"{path}: row {names[i]!r}: {e}") from None
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, j = bad[0].tolist()
        raise CliError(
            f"{path}: row {names[i]!r}, column {names[j]!r}: {rows[i + 1][j + 1]!r} is not finite"
        )
    # argwhere is in row-major order, so the first unequal pair has i < j
    unequal = np.argwhere(values != values.T)
    if len(unequal):
        i, j = unequal[0].tolist()
        raise CliError(
            f"{path}: matrix is not symmetric: row {names[i]!r}, column {names[j]!r} is "
            f"{rows[i + 1][j + 1]}, but row {names[j]!r}, column {names[i]!r} "
            f"is {rows[j + 1][i + 1]}"
        )
    return SimilarityMatrix(names=names, values=values, kind=kind)


def cmd_cluster(args: argparse.Namespace) -> int:
    kind = "MotifDistance" if args.matrix_kind == "distance" else "OTA"
    sim = read_similarity_csv(Path(args.matrix), kind)
    merges = hierarchical_cluster(sim, linkage=args.linkage)
    out = Path(args.out) / "cluster.tree.json"
    write_json(out, _tree_json(merges))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitrans",
        description="Temporal-network analysis via graphlet-orbit transitions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--manifest", required=False, help="run manifest (INI format)")
    common.add_argument("--out", default="out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, default=0, help="base RNG seed (default: 0)")
    common.add_argument(
        "--policy",
        choices=("active", "aggregate"),
        default="aggregate",
        help="default snapshot semantics when the manifest is silent",
    )
    common.add_argument("--width", type=int, help="default snapshot width (time units)")
    common.add_argument("--count", type=int, help="default snapshot count")
    common.add_argument(
        "--sep", choices=("ws", "comma"), default="ws", help="edge list field separator"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[common], help="per-snapshot summary metrics")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("census", parents=[common], help="orbit frequencies, classes, GDDs")
    p.add_argument("--k", type=int, choices=(3, 4), help="subgraph size (default 4)")
    p.add_argument("--gdd-scaling", choices=("inverse_k", "plain"), dest="gdd_scaling")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("transitions", parents=[common], help="orbit-transition matrices")
    p.add_argument("--k", type=int, choices=(3, 4), help="subgraph size (default 4)")
    p.set_defaults(func=cmd_transitions)

    p = sub.add_parser("motifs", parents=[common], help="motif scores vs random ensemble")
    p.add_argument("--replicates", type=int, help="ensemble size (default 100)")
    p.add_argument("--swaps-per-edge", type=int, dest="swaps_per_edge",
                   help="attempted swaps per edge (default 10)")
    p.set_defaults(func=cmd_motifs)

    p = sub.add_parser("compare", parents=[common], help="pairwise network comparison")
    p.add_argument("--metric", choices=("ota", "gda", "motif"), default="ota")
    p.add_argument("--ota-scaling", choices=("normalized", "per_orbit"), dest="ota_scaling")
    p.add_argument("--no-relative-rescale", action="store_true",
                   help="skip per-cell min/max rescaling across the set")
    p.add_argument("--gdd-scaling", choices=("inverse_k", "plain"), dest="gdd_scaling")
    p.add_argument("--gda-include-k3", action="store_true",
                   help="pool 3-node orbits into the GDA average")
    p.add_argument("--linkage", choices=("average", "single", "complete"))
    p.add_argument("--replicates", type=int, help="motif ensemble size (default 100)")
    p.add_argument("--swaps-per-edge", type=int, dest="swaps_per_edge")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cluster", parents=[common], help="merge tree from a matrix CSV")
    p.add_argument("--matrix", required=True, help="similarity/distance CSV from compare")
    p.add_argument("--matrix-kind", choices=("agreement", "distance"), default="agreement")
    p.add_argument("--linkage", choices=("average", "single", "complete"), default="average")
    p.set_defaults(func=cmd_cluster)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "cluster" and not args.manifest:
        parser.error(f"{args.command} requires --manifest")
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
