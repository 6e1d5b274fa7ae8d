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

A network section takes ``path`` (required), ``policy``, ``width``,
``count``, ``origin`` and ``sep``; ``[settings]`` takes all of these but
``path`` as every network's default, plus ``k`` (3 or 4), ``seed``,
``replicates``, ``swaps_per_edge``, ``ota_scaling``, ``relative_rescale``,
``gdd_scaling``, ``linkage`` and ``out`` (``SETTINGS`` gives each one's
type, choices and default). Any other key is a configuration error (exit
2) naming its section, raised before any network loads. One manifest
serves every subcommand, so ``[settings]`` keys a subcommand does not read
are accepted, and checked. ``COMMANDS`` (and ``METRIC_FLAGS`` for each
``compare --metric``) lists the settings each run reads. A subcommand
registers only those flags and ``compare`` rejects one its ``--metric``
does not read (usage errors, exit 2); a run that reads ``width`` builds
snapshots, so each network needs a ``width`` of at least 1 and a
``count`` of at least 2; ``--gda-include-k3`` needs ``k`` = 4; and the
meta files record ``k`` and exactly the settings the run read.
Manifest values take precedence over flags, so a manifest fully
determines a run; flags fill in whatever the manifest leaves out.
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
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .census import (
    GRAPHLET_CLASSES,
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
    MergeStep,
    SimilarityMatrix,
    gda_matrix,
    hierarchical_cluster,
    motif_distance_matrix,
    motif_scores_from_counts,
    ota_matrix,
)
from .nullmodel import ensemble_frequencies
from .transitions import OrbitTransitionMatrix, accumulate_series, discretize, row_normalize

STATS_HEADER = ("snapshot", "nodes", "edges", "avg_degree", "clustering", "cpl")


class CliError(Exception):
    """User-facing failure; message is printed without a traceback."""


# ---------------------------------------------------------------------------
# manifest handling


@dataclass(frozen=True)
class Setting:
    """One run setting: its type, choices, default and minimum, and where
    a manifest may set it.

    ``scope`` is ``"network"`` (a network section, or ``[settings]`` for
    every network), ``"settings"`` (``[settings]`` only) or ``""`` (no
    manifest key: a flag only).
    """

    kind: type = str  # str, int or bool
    default: object = None
    choices: tuple = ()
    minimum: int | None = None
    scope: str = ""
    help: str | None = None
    required: bool = False


SETTINGS = {
    "manifest": Setting(help="run manifest (INI format)"),
    "out": Setting(default="out", scope="settings", help="output directory"),
    "policy": Setting(default="aggregate", choices=("active", "aggregate"), scope="network",
                      help="snapshot semantics"),
    # width and count have their minimum only where snapshots are built
    "width": Setting(int, minimum=1, scope="network", help="snapshot width (time units)"),
    "count": Setting(int, minimum=2, scope="network", help="snapshot count"),
    "origin": Setting(int, scope="network"),
    "sep": Setting(default="ws", choices=("ws", "comma"), scope="network",
                   help="edge list field separator"),
    "k": Setting(int, 4, tuple(GRAPHLET_CLASSES), scope="settings", help="subgraph size"),
    "seed": Setting(int, 0, scope="settings", help="base RNG seed"),
    "replicates": Setting(int, 100, minimum=1, scope="settings", help="null-model ensemble size"),
    "swaps_per_edge": Setting(int, 10, minimum=1, scope="settings", help="attempted swaps per edge"),
    "ota_scaling": Setting(default="normalized", choices=("normalized", "per_orbit"),
                           scope="settings"),
    "relative_rescale": Setting(bool, True, scope="settings",
                                help="skip per-cell min/max rescaling across the set"),
    "gdd_scaling": Setting(default="inverse_k", choices=("inverse_k", "plain"), scope="settings"),
    "gda_include_k3": Setting(bool, False, help="pool 3-node orbits into the GDA average"),
    "linkage": Setting(default="average", choices=("average", "single", "complete"), scope="settings"),
    "metric": Setting(default="ota", choices=("ota", "gda", "motif")),
    "matrix": Setting(required=True, help="similarity/distance CSV from compare"),
    "matrix_kind": Setting(default="agreement", choices=("agreement", "distance")),
}
NETWORK_KEYS = ("path", *(key for key, s in SETTINGS.items() if s.scope == "network"))
SETTINGS_KEYS = tuple(key for key, s in SETTINGS.items() if s.scope)


def _flag(key: str) -> str:
    """``--key-with-dashes``; a boolean that defaults to true is switched off by ``--no-key``."""
    return f"--{'no-' if SETTINGS[key].default is True else ''}{key.replace('_', '-')}"


@dataclass(frozen=True)
class NetworkSpec:
    """One network's input file and snapshot configuration."""

    name: str
    path: Path
    policy: str
    width: int | None
    count: int | None
    origin: int | None
    sep: str

    def snapshot_policy(self) -> SnapshotPolicy:
        return SnapshotPolicy(
            mode=self.policy, width=self.width, count=self.count, origin=self.origin
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
    """Everything a subcommand needs: the networks and each run-level
    setting, under its ``SETTINGS`` name."""

    networks: tuple[NetworkSpec, ...]
    out: Path
    k: int
    seed: int
    replicates: int
    swaps_per_edge: int
    ota_scaling: str
    relative_rescale: bool
    gdd_scaling: str
    gda_include_k3: bool
    linkage: str


def _read(key: str, args, section=None, context: str = "", fallback=None, at_least: bool = True):
    """Setting ``key`` as manifest ``section`` sets it, else as its flag in
    ``args`` does, else ``fallback``, else the setting's default.

    A manifest value is converted to the setting's type and checked against
    its choices (argparse has checked a flag's); either is checked against
    the setting's minimum unless ``at_least`` is false.
    ``context`` locates the section in error messages.
    """
    spec = SETTINGS[key]
    raw = (section or {}).get(key)
    if raw is None:
        value, where = getattr(args, key, None), _flag(key)
    else:
        value, where = raw, f"{context}: {key}"
        if spec.kind is int:
            try:
                value = int(raw)
            except ValueError:
                raise CliError(f"{where} = {raw!r} is not an integer") from None
        elif spec.kind is bool:
            value = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
            if value is None:
                raise CliError(f"{where} = {raw!r} is not a boolean")
        if spec.choices and value not in spec.choices:
            raise CliError(f"{where} must be one of {spec.choices}, got {raw!r}")
    if value is None:
        return spec.default if fallback is None else fallback
    if at_least and spec.minimum is not None and value < spec.minimum:
        raise CliError(f"{where} = {value} must be at least {spec.minimum}")
    return value


def _check_keys(parser: configparser.ConfigParser, manifest_path: Path) -> None:
    """Reject a key that its section does not define."""
    for name in parser.sections():
        allowed = SETTINGS_KEYS if name == "settings" else NETWORK_KEYS
        for key in parser[name]:
            if key in allowed:
                continue
            where = f"manifest {manifest_path} [{name}]"
            if key == "path":
                raise CliError(f"{where}: 'path' belongs in a network section")
            if key in SETTINGS_KEYS:
                raise CliError(f"{where}: {key!r} belongs in [settings]")
            raise CliError(f"{where}: unknown key {key!r}")


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge the manifest with command-line flags (manifest wins).

    A run that reads ``width`` builds snapshot series, so every network
    needs a width of at least 1 and a count of at least 2 (transitions need
    two snapshots). ``gda_include_k3`` pools 3-node orbits into a k = 4
    run, so it needs k = 4.
    """
    snapshots = "width" in _reads(args)
    manifest_path = Path(args.manifest)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(manifest_path) as fh:
            parser.read_file(fh)
    except OSError as e:
        raise CliError(f"cannot read manifest {manifest_path}: {e}") from e
    except configparser.Error as e:
        raise CliError(f"manifest {manifest_path}: {e}") from e
    _check_keys(parser, manifest_path)

    settings = parser["settings"] if parser.has_section("settings") else None
    ctx = f"manifest {manifest_path} [settings]"
    # the defaults a network section may override, checked even where every network does
    shared = {key: _read(key, args, settings, ctx, at_least=snapshots)
              for key, spec in SETTINGS.items() if spec.scope == "network"}

    networks, stems = [], {}
    for name in parser.sections():
        if name == "settings":
            continue
        stem = _file_stem(name)
        if stems.setdefault(stem, name) != name:
            raise CliError(f"manifest {manifest_path}: networks {stems[stem]!r} and {name!r} "
                           f"both write files named {stem}.*")
        section = parser[name]
        nctx = f"manifest {manifest_path} [{name}]"
        if "path" not in section:
            raise CliError(f"{nctx}: missing required key 'path'")
        path = Path(section["path"])
        if not path.is_absolute():
            path = manifest_path.parent / path
        if not path.exists():
            raise CliError(f"{nctx}: input file {path} does not exist")
        value = {key: _read(key, None, section, nctx, shared[key], snapshots) for key in shared}
        if snapshots and (value["width"] is None or value["count"] is None):
            raise CliError(f"{nctx}: snapshot width/count not configured; "
                           "set 'width' and 'count' in the manifest")
        networks.append(NetworkSpec(name, path, **value))
    if not networks:
        raise CliError(f"manifest {manifest_path} defines no networks")

    values = {f.name: _read(f.name, args, settings, ctx) for f in fields(RunConfig)[1:]}
    if values["gda_include_k3"] and values["k"] != 4:
        where = f"{ctx}: k = {values['k']}" if settings and "k" in settings else f"--k {values['k']}"
        raise CliError(f"--gda-include-k3 pools 3-node orbits into a k = 4 run, "
                       f"but this run has {where}")
    return RunConfig(tuple(networks), **values | {"out": Path(values["out"])})


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
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror}") from e
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


def write_run_file(write: Callable, path: Path, *data) -> None:
    """``write(path, *data)`` for a file of the whole run: failing, it ends the run (exit 2)."""
    try:
        write(path, *data)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from e


def _file_stem(name: str) -> str:
    return name.replace(os.sep, "_").replace("/", "_")


def write_orbit_matrix_csv(path: Path, values) -> None:
    m = len(values)
    header = ["orbit"] + [str(b + 1) for b in range(m)]
    write_csv(path, header, ([a + 1, *row] for a, row in enumerate(values)))


def write_meta(path: Path, run: RunConfig, args: argparse.Namespace, **extra) -> None:
    """Record the tool version, ``extra``, ``k`` and each other setting the run read;
    per network, its input and, where the run builds snapshots, its snapshot settings."""
    reads = _reads(args)
    meta = {"tool_version": __version__, **extra, "k": run.k}
    for key in reads:
        if key not in meta and key not in ("manifest", "out", *NETWORK_KEYS):
            meta[key] = getattr(run, key)
    net_keys = NETWORK_KEYS if "width" in reads else ("path", "sep")
    meta["networks"] = {net.name: {key: getattr(net, key) for key in net_keys} | {"path": str(net.path)}
                        for net in run.networks}
    write_run_file(write_json, path, meta)


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
        except (CliError, ValueError, OSError, OverflowError) as e:
            errors.append(f"network {net.name!r}: {e}")
    return results, errors


def _network_transitions(run: RunConfig, net: NetworkSpec) -> OrbitTransitionMatrix:
    """Orbit-transition counts summed over the network's snapshot series."""
    _events, series = _network_series(net)
    return accumulate_series(series, run.k)


def _network_motifs(run: RunConfig, net: NetworkSpec) -> tuple[dict, dict, np.ndarray]:
    """Real class counts, ensemble means and motif fingerprint of the final graph."""
    g = _network_final_graph(net)
    real = graphlet_class_frequencies(g, run.k)
    means = ensemble_frequencies(g, run.k, run.replicates, run.swaps_per_edge, run.seed)
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
        write_csv(run.out / f"{_file_stem(net.name)}.stats.csv", STATS_HEADER, table)
        return table

    results, errors = run_per_network(run, worker)
    combined = [
        [net.name, *row] for net in run.networks if net.name in results for row in results[net.name]
    ]
    if results:
        write_run_file(write_csv, run.out / "stats.csv", ("network", *STATS_HEADER), combined)
    return _report_errors(errors)


def _census_bundle(run: RunConfig, stem: str, tag: str, g: StaticGraph, labels) -> None:
    fr = compute_orbit_frequencies(g, run.k)
    gdd = compute_gdd(fr, scaling=run.gdd_scaling)
    header = ["node"] + [f"orbit_{j + 1}" for j in range(fr.m)]
    write_csv(
        run.out / f"{stem}.{tag}.fr.csv",
        header,
        ([labels[v], *row] for v, row in enumerate(fr.counts.tolist())),
    )
    write_csv(
        run.out / f"{stem}.{tag}.classes.csv",
        ("class", "count"),
        class_counts(fr).items(),
    )
    write_json(
        run.out / f"{stem}.{tag}.gdd.json",
        {
            "k": gdd.k,
            "scaling": run.gdd_scaling,
            "orbits": {
                str(j + 1): {
                    "raw": {str(d): c for d, c in sorted(gdd.raw[j].items())},
                    "normalized": {
                        str(d): v for d, v in sorted(gdd.normalized[j].items())
                    },
                }
                for j in range(len(gdd.raw))
            },
            "untouched_orbits": [j + 1 for j, dist in enumerate(gdd.normalized) if not dist],
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
        normalized = row_normalize(t)
        fp = discretize(normalized)
        stem = _file_stem(net.name)
        write_orbit_matrix_csv(run.out / f"{stem}.transitions.csv", t.counts)
        write_orbit_matrix_csv(run.out / f"{stem}.transitions_normalized.csv", normalized)
        write_orbit_matrix_csv(run.out / f"{stem}.fingerprint.csv", fp)
        write_json(
            run.out / f"{stem}.transitions.json",
            {
                "k": t.k,
                "pairs_processed": t.pairs_processed,
                "counts": t.counts.tolist(),
                "normalized": normalized.tolist(),
                "fingerprint": [list(row) for row in fp],
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
            run.out / f"{_file_stem(net.name)}.motifs.csv",
            ("class", "real_count", "ensemble_mean", "delta"),
            ([name, real[name], means[name], score] for name, score in zip(real, fp)),
        )

    # first, so an unwritable output directory fails the run before any network loads
    write_meta(run.out / "motifs.meta.json", run, args)
    _results, errors = run_per_network(run, worker)
    return _report_errors(errors)


def _tree_json(merges: list[MergeStep]) -> list[dict]:
    return [
        {"left": list(s.left), "right": list(s.right), "height": s.height} for s in merges
    ]


def cmd_compare(args: argparse.Namespace) -> int:
    metric = _read("metric", args)
    run = load_run_config(args)
    if len(run.networks) < 2:
        raise CliError("compare needs at least 2 networks in the manifest")
    names = [net.name for net in run.networks]

    gda_ks = (run.k, 3) if run.gda_include_k3 else (run.k,)

    def gdd_worker(net: NetworkSpec):
        g = _network_final_graph(net)
        return [
            compute_gdd(compute_orbit_frequencies(g, k), run.gdd_scaling)
            for k in gda_ks
        ]

    # metric -> (per-network worker, matrix builder over names and the workers' results)
    worker, build = {
        "ota": (lambda net: _network_transitions(run, net),
                partial(ota_matrix, ota_scaling=run.ota_scaling, rescale=run.relative_rescale)),
        "gda": (gdd_worker, gda_matrix),
        "motif": (lambda net: _network_motifs(run, net)[2], motif_distance_matrix),
    }[metric]
    results, errors = run_per_network(run, worker)
    if errors:
        # a pairwise comparison cannot proceed with missing networks
        return _report_errors(errors)

    sim = build(names, [results[name] for name in names])
    merges = hierarchical_cluster(sim, linkage=run.linkage)

    rows = ([name, *row] for name, row in zip(sim.names, sim.values))
    write_run_file(write_csv, run.out / f"compare_{metric}.csv", ["network", *sim.names], rows)
    write_run_file(write_json, run.out / f"compare_{metric}.tree.json", _tree_json(merges))
    write_meta(run.out / f"compare_{metric}.meta.json", run, args, metric=metric, kind=sim.kind)
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
    kind = "MotifDistance" if _read("matrix_kind", args) == "distance" else "OTA"
    sim = read_similarity_csv(Path(args.matrix), kind)
    merges = hierarchical_cluster(sim, linkage=_read("linkage", args))
    out = Path(_read("out", args)) / "cluster.tree.json"
    write_run_file(write_json, out, _tree_json(merges))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


_SNAPSHOT_FLAGS = ("manifest", "out", "sep", "policy", "width", "count")
_COMPARE_FLAGS = ("manifest", "out", "sep", "k", "metric", "linkage")

# the flags each compare --metric reads besides _COMPARE_FLAGS
METRIC_FLAGS = {
    "ota": ("policy", "width", "count", "ota_scaling", "relative_rescale"),
    "gda": ("gdd_scaling", "gda_include_k3"),
    "motif": ("seed", "replicates", "swaps_per_edge"),
}

# subcommand -> (help, the settings it reads from flags); cmd_<subcommand> runs it
COMMANDS = {
    "stats": ("per-snapshot summary metrics", _SNAPSHOT_FLAGS),
    "census": ("orbit frequencies, classes, GDDs", (*_SNAPSHOT_FLAGS, "k", "gdd_scaling")),
    "transitions": ("orbit-transition matrices", (*_SNAPSHOT_FLAGS, "k")),
    "motifs": ("motif scores vs random ensemble", ("manifest", "out", "sep", "k", *METRIC_FLAGS["motif"])),
    "compare": ("pairwise network comparison", (*_COMPARE_FLAGS, *chain(*METRIC_FLAGS.values()))),
    "cluster": ("merge tree from a matrix CSV", ("out", "matrix", "matrix_kind", "linkage")),
}


def _reads(args: argparse.Namespace) -> tuple[str, ...]:
    """The settings ``args.command`` reads; for ``compare``, those its ``--metric`` reads."""
    if args.command == "compare":
        return (*_COMPARE_FLAGS, *METRIC_FLAGS[_read("metric", args)])
    return COMMANDS[args.command][1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitrans",
        description="Temporal-network analysis via graphlet-orbit transitions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        # looked up by name here, so a handler wrapped after import is the one called
        p.set_defaults(func=globals()[f"cmd_{command}"], subparser=p)
        for key in keys:
            # every flag defaults to None, so _read can tell that it was not given
            spec = SETTINGS[key]
            options = dict(dest=key, default=None, help=spec.help)
            if spec.kind is bool:
                options["action"] = "store_false" if spec.default else "store_true"
            else:
                options.update(type=spec.kind, choices=spec.choices or None, required=spec.required)
                if spec.default is not None:
                    options["help"] = f"{spec.help or key.replace('_', ' ')} (default: {spec.default})"
            p.add_argument(_flag(key), **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args, unrecognized = build_parser().parse_known_args(argv)
    # the subcommand's parser reports usage errors, so its usage line lists its own flags
    error = args.subparser.error
    if unrecognized:
        error(f"unrecognized arguments: {' '.join(unrecognized)}")
    if "manifest" in vars(args) and not args.manifest:
        error(f"{args.command} requires --manifest")
    reads = _reads(args)
    for key in COMMANDS[args.command][1]:
        if key not in reads and getattr(args, key) is not None:
            # only compare registers flags that some of its runs do not read
            error(f"compare --metric {_read('metric', args)} does not read {_flag(key)}")
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
