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

A network section takes ``path`` (required), ``policy``, ``width``, ``count``,
``origin`` and ``sep``; ``[settings]`` takes all of these but ``path`` as
every network's default, plus ``k`` (3 or 4), ``seed``, ``replicates``,
``swaps_per_edge``, ``ota_scaling``, ``relative_rescale``, ``gdd_scaling``,
``linkage`` and ``out`` (``SETTINGS`` gives each one's type, choices and
default). Any other key is a configuration error (exit 2) naming its section,
raised before any network loads. One manifest serves every subcommand, so
``[settings]`` keys a subcommand does not read are accepted, and checked.
``COMMANDS`` (and ``METRIC_FLAGS`` for each ``compare --metric``) lists the
settings each run reads. A subcommand registers only those flags and
``compare`` rejects one its ``--metric`` does not read (usage errors, exit 2);
a run that reads ``width`` builds snapshots, so each network needs a ``width``
of at least 1 and a ``count`` of at least 2; ``--gda-include-k3`` needs ``k``
4; and ``compare``'s meta file records ``k`` and exactly the settings the run
read. Manifest values take precedence over flags, so a manifest fully
determines a run; flags fill in whatever the manifest leaves out.

Each product's meta file in ``out`` stores what the commands computed of each
network (``_Store``): the snapshot series (``stats``, ``census``,
``transitions``), the transition counts (``transitions``), and the final
graph's orbit census and ensemble means (``motifs``), each value with its
digest: the SHA-256 of the value, this tool version, the input's digest, path
and sep, and the settings and network fields the value depends on
(``_RECORD_KEYS``). A stored value is read back instead of computed wherever
its digest is this run's and the input still hashes the same; deleting the
file, or a fresh ``out``, forces the work again. All outputs are
written atomically and deterministically: rerunning the same manifest
reproduces every file byte for byte. Every text file, read or written, is
UTF-8 whatever the locale. After loading each network, one line on stderr
reports the events read, the self-loops dropped and (where snapshots are
built) the events outside the snapshot window; it never enters an output file.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import numbers
import os
import sys
import tempfile
from functools import cache, partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn, Sequence

from . import __version__
from .catalogue import GRAPHLET_CLASSES, _gdd_class_counts, _normalized_gdd

# numpy and the modules built on it (graph_core, census, transitions, the
# null model) load only in the commands that use them, so `cluster`, and
# `compare --metric ota`, `gda` or `motif` on stored records, run with no numpy at all
if TYPE_CHECKING:
    from .census import OrbitFrequencyMatrix
    from .graph_core import SnapshotPolicy, SnapshotSeries, StaticGraph, TemporalEdgeList
    from .transitions import OrbitTransitionMatrix


class CliError(Exception):
    """User-facing failure; message is printed without a traceback."""


# ---------------------------------------------------------------------------
# manifest handling


class Setting(NamedTuple):
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
    "manifest": Setting(help="run manifest (INI format)", required=True),
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
    "seed": Setting(int, 0, minimum=0, scope="settings", help="base RNG seed"),
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
}
NETWORK_KEYS = ("path", *(key for key, s in SETTINGS.items() if s.scope == "network"))
SETTINGS_KEYS = tuple(key for key, s in SETTINGS.items() if s.scope)


def _flag(key: str) -> str:
    """``--key-with-dashes``; a boolean that defaults to true is switched off by ``--no-key``."""
    return f"--{'no-' if SETTINGS[key].default is True else ''}{key.replace('_', '-')}"


class NetworkSpec(NamedTuple):
    """One network's input file and snapshot configuration."""

    name: str
    path: Path
    policy: str
    width: int | None
    count: int | None
    origin: int | None
    sep: str

    def snapshot_policy(self) -> SnapshotPolicy:
        from .graph_core import SnapshotPolicy

        return SnapshotPolicy(
            mode=self.policy, width=self.width, count=self.count, origin=self.origin
        )

    def record(self, keys: Sequence[str] = NETWORK_KEYS) -> dict:
        """What a meta file records of this network: its ``keys``, with ``path`` as a string."""
        return {key: getattr(self, key) for key in keys} | {"path": str(self.path)}

    def load_events(self, digest=None) -> TemporalEdgeList:
        """The parsed input file; ``digest``, a ``hashlib`` object, if given,
        takes in every byte the parser reads."""
        from .graph_core import EdgeListParseError, parse_edge_list

        try:
            with self.path.open("rb") as fh:
                return parse_edge_list(fh if digest is None else _Hashing(fh, digest), sep=self.sep)
        except OSError as e:
            raise CliError(f"cannot read {self.path}: {e}") from e
        except EdgeListParseError as e:
            raise CliError(f"{self.path}: {e}") from e


class _Hashing:
    """A binary file whose ``read`` feeds every block it returns to ``digest``."""

    def __init__(self, fh, digest):
        self._fh, self._digest = fh, digest

    def read(self, size: int = -1) -> bytes:
        block = self._fh.read(size)
        self._digest.update(block)
        return block


class RunConfig(NamedTuple):
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
    """Reject a ``[DEFAULT]`` section, and a key that its section does not define."""
    if parser.has_section("DEFAULT"):
        raise CliError(f"manifest {manifest_path} [DEFAULT]: defaults belong in [settings]")
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
    # no header names "", so [DEFAULT] is a plain section, which _check_keys rejects
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as e:
        raise CliError(f"cannot read manifest {manifest_path}: {e}") from e
    except (configparser.Error, UnicodeDecodeError) as e:
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

    values = {key: _read(key, args, settings, ctx) for key in RunConfig._fields[1:]}
    if values["gda_include_k3"] and values["k"] != 4:
        where = f"{ctx}: k = {values['k']}" if settings and "k" in settings else f"--k {values['k']}"
        raise CliError(f"--gda-include-k3 pools 3-node orbits into a k = 4 run, "
                       f"but this run has {where}")
    return RunConfig(tuple(networks), **values | {"out": Path(values["out"])})


# ---------------------------------------------------------------------------
# output helpers


def fmt(value) -> str:
    """Render one CSV cell: ints verbatim, floats with 12 significant digits.

    numpy registers its integer and floating scalars as ``numbers.Integral``
    and ``numbers.Real``; ``np.bool_`` is neither, so it renders as ``str``.
    """
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return f"{float(value):.12g}"
    return str(value)


def write_atomic(path: Path, data: str) -> None:
    """Write ``data`` to ``path`` through a temporary file beside it, so ``path``
    never holds part of it; any ``OSError``, or a name the file-system encoding cannot
    hold, is a ``CliError`` naming ``path``; the temporary file is removed on any failure."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise CliError(f"cannot write {path}: the file name cannot be encoded in the "
                       f"file-system encoding ({sys.getfilesystemencoding()})") from None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # mkstemp creates the file owner-only; give it the usual umask mode
                umask = os.umask(0)
                os.umask(umask)
                os.chmod(tmp, 0o666 & ~umask)
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from e


# cell types csv.writer renders as fmt does, so their cells skip fmt
_VERBATIM = frozenset((int, str))


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(row if _VERBATIM.issuperset(map(type, row)) else [fmt(cell) for cell in row]
                     for row in rows)
    write_atomic(path, buf.getvalue())


# value types the C encoder renders as json.dumps(indent=2) does in a container
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _encode_at(inner: str) -> Callable[[object], str]:
    """The C encoder with the separators of an indented layout at ``inner``, built once."""
    return json.JSONEncoder(separators=(",\n" + inner, ": ")).encode


def _indented(obj, pad: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value at indent ``pad``.

    That call runs Python's pure-Python encoder, so each container of
    scalars goes to the C encoder instead, with the separators of its
    indented layout, and only the containers holding containers are
    joined here.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    values = obj.values() if isinstance(obj, dict) else obj
    if _JSON_SCALARS.issuperset(map(type, values)):
        text = _encode_at(inner)(obj)
    elif isinstance(obj, dict):
        # json.dumps renders and escapes each key: {key: 0} gives '{"key": 0}'
        text = "{%s}" % (",\n" + inner).join(
            json.dumps({key: 0})[1:-4] + ": " + _indented(value, inner) for key, value in obj.items())
    else:
        text = "[%s]" % (",\n" + inner).join(_indented(value, inner) for value in obj)
    return f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}"


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as indented JSON."""
    write_atomic(path, _indented(obj, "") + "\n")


def _file_stem(name: str) -> str:
    return name.replace(os.sep, "_").replace("/", "_")


def write_orbit_matrix_csv(path: Path, values) -> None:
    m = len(values)
    header = ["orbit"] + [str(b + 1) for b in range(m)]
    write_csv(path, header, ([a + 1, *row] for a, row in enumerate(values)))


def _recorded(reads: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The run settings, ``k`` first, and the network fields that a meta file records of a run that
    ``reads`` these settings: its snapshot settings only where the run builds snapshots."""
    return (("k", *(key for key in reads if key not in ("manifest", "out", "k", *NETWORK_KEYS))),
            NETWORK_KEYS if "width" in reads else ("path", "sep"))


def write_meta(path: Path, run: RunConfig, args: argparse.Namespace, **extra) -> None:
    """Record the tool version, ``extra``, the run's ``_recorded`` settings, and each network's fields."""
    run_keys, net_keys = _recorded(_reads(args))
    meta = {"tool_version": __version__, **extra}
    meta.update((key, getattr(run, key)) for key in run_keys if key not in meta)
    meta["networks"] = {net.name: net.record(net_keys) for net in run.networks}
    write_json(path, meta)


# ---------------------------------------------------------------------------
# per-network pipelines


# the counts a network's stderr line reports, the last only where snapshots are built
_LOAD_COUNTS = ("events_read", "self_loops_dropped", "events_outside_window")


def _load_counts(events: TemporalEdgeList, series: SnapshotSeries | None = None) -> dict[str, int]:
    """The ``_LOAD_COUNTS`` of ``events``, and of ``series`` if given."""
    dropped = events.dropped_self_loops
    counts = {"events_read": len(events.events) + dropped, "self_loops_dropped": dropped}
    if series is not None:
        counts["events_outside_window"] = series.events_discarded
    return counts


def _report_load(net: NetworkSpec, counts: dict[str, int]) -> None:
    """One stderr line with the ``_load_counts`` of ``net``."""
    line = (
        f"network {net.name!r}: {counts['events_read']} events read, "
        f"{counts['self_loops_dropped']} self-loops dropped"
    )
    if "events_outside_window" in counts:
        line += f", {counts['events_outside_window']} events outside the snapshot window"
    print(line, file=sys.stderr)


def _network_final_graph(net: NetworkSpec, digest=None) -> tuple[TemporalEdgeList, StaticGraph]:
    """The network's events and final graph, of every event; ``digest`` as ``load_events`` takes it."""
    from .graph_core import final_aggregate_graph

    events = net.load_events(digest)
    _report_load(net, _load_counts(events))
    return events, final_aggregate_graph(events)


def run_per_network(run: RunConfig, worker: Callable[[NetworkSpec], object]) -> tuple[dict, int]:
    """Apply ``worker`` to each network in turn, isolating per-network failures.

    Prints the failures once every network has run, so before any run-level
    file is written, and returns (results by network name, exit code).
    """
    results, errors = {}, []
    for net in run.networks:
        try:
            results[net.name] = worker(net)
        except (CliError, ValueError, OSError, OverflowError, RuntimeError) as e:
            errors.append(f"network {net.name!r}: {e}")
    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    return results, 1 if errors else 0


def _read_json_object(path: Path) -> dict:
    """The JSON object in ``path``; empty where the file is missing, unreadable, nested too
    deeply to parse or holds no object."""
    try:
        obj = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return {}
    return obj if isinstance(obj, dict) else {}


_SNAPSHOT_FIELDS = ("policy", "width", "count", "origin")

# record key -> the run settings and network fields its value depends on besides the input
# path, sep and bytes
_RECORD_KEYS = {
    **dict.fromkeys((*_LOAD_COUNTS[:2], "labels"), ()),
    **dict.fromkeys(("events_outside_window", "bins"), _SNAPSHOT_FIELDS),
    "counts": ("k", *_SNAPSHOT_FIELDS),
    "gdd": ("k",),
    "ensemble_means": ("k", "seed", "replicates", "swaps_per_edge"),
}

# product -> the record keys after input_sha256
_PRODUCTS = {
    "snapshots": (*_LOAD_COUNTS, "labels", "bins"),
    "transitions": (*_LOAD_COUNTS, "counts"),
    "motifs": (*_LOAD_COUNTS[:2], "gdd", "ensemble_means"),
}


def _depends(keys: Sequence[str]) -> tuple[list[str], list[str]]:
    """The run settings, and the network fields with ``path`` and ``sep``, that ``keys`` depend on."""
    deps = {dep for key in keys for dep in _RECORD_KEYS[key]} | {"path", "sep"}
    return [key for key in SETTINGS if key in deps and key not in NETWORK_KEYS], [
        key for key in NETWORK_KEYS if key in deps]


class _Store:
    """The records of ``<out>/<product>.meta.json``: per network, the input digest, the
    product's values and each value's ``digest``, under the tool version and the settings
    and network fields they depend on, which the file records for the reader."""

    def __init__(self, run: RunConfig, product: str):
        self.run, self.keys, self.path = run, _PRODUCTS[product], run.out / f"{product}.meta.json"
        self.meta: dict | None = None  # the stored file, read at the first get
        self.records, self.computed = {}, False

    def digest(self, net: NetworkSpec, record: dict, key: str) -> str:
        """The SHA-256 of ``record``'s ``key`` value, bound to this tool version, the record's
        input digest, ``net``'s path and sep, and this run's values of what it depends on."""
        import hashlib

        deps = (getattr(net if dep in NETWORK_KEYS else self.run, dep) for dep in _RECORD_KEYS[key])
        text = json.dumps([__version__, record.get("input_sha256"), str(net.path), net.sep, key,
                           record.get(key), *deps], separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def get(self, net: NetworkSpec, keys: Sequence[str] | None = None) -> dict | None:
        """The stored record of ``net`` where each of ``keys`` (the product's if None) has this
        run's ``digest`` and its input still hashes the same; prints its load line."""
        import hashlib

        if self.meta is None:
            self.meta = _read_json_object(self.path)
        networks = self.meta.get("networks")
        entry = networks.get(net.name) if isinstance(networks, dict) else None
        digests = entry.get("digests") if isinstance(entry, dict) else None
        if not isinstance(digests, dict) or any(
                digests.get(key) != self.digest(net, entry, key) for key in keys or self.keys):
            return None
        digest = hashlib.sha256()
        try:
            with net.path.open("rb") as fh:
                # in the parser's block size: the default buffer size takes more calls
                for _block in iter(partial(_Hashing(fh, digest).read, 1 << 18), b""):
                    pass
        except (OSError, UnicodeEncodeError):
            return None
        if digest.hexdigest() != entry.get("input_sha256"):
            return None
        # the product's own load counts: a key added to a record must not reach the line
        _report_load(net, {key: entry[key] for key in _LOAD_COUNTS if key in self.keys})
        self.records[net.name] = entry
        return entry

    def add(self, net: NetworkSpec, record: dict) -> None:
        """Keep ``record``, which this run computed, for ``write``."""
        self.records[net.name], self.computed = record, True

    def write(self) -> None:
        """Store each record kept, with its values' digests, under what the product's keys
        depend on, where this run computed any."""
        if self.computed:
            run_keys, net_keys = _depends(self.keys)
            keys = ("input_sha256", *self.keys)
            meta = {"tool_version": __version__} | {key: getattr(self.run, key) for key in run_keys}
            meta["networks"] = {
                net.name: net.record(net_keys) | {key: record[key] for key in keys}
                | {"digests": {key: self.digest(net, record, key) for key in self.keys}}
                for net in self.run.networks if (record := self.records.get(net.name))}
            write_json(self.path, meta)


def _series(store: _Store, net: NetworkSpec) -> tuple[dict, SnapshotSeries]:
    """The series record of ``net`` (input digest, load counts, labels and ``build_snapshots``'
    key bins) and its series, read back from ``store`` or built; prints the network's load line."""
    import hashlib

    from .graph_core import build_snapshots, series_from_bins

    if record := store.get(net):
        return record, series_from_bins(len(record["labels"]), record["bins"], net.policy,
                                        record["events_outside_window"])
    digest = hashlib.sha256()
    events = net.load_events(digest)
    series = build_snapshots(events, net.snapshot_policy())
    record = {"input_sha256": digest.hexdigest(), **_load_counts(events, series),
              "labels": list(events.labels), "bins": [keys.tolist() for keys in series.bins]}
    _report_load(net, record)
    store.add(net, record)
    return record, series


def _network_transitions(run: RunConfig, net: NetworkSpec,
                         snapshots: _Store) -> tuple[dict, OrbitTransitionMatrix]:
    """What ``transitions`` records of ``net`` (input digest, load counts and the transition
    counts as rows of ints), and the transition matrix it comes from."""
    from .transitions import accumulate_series

    record, series = _series(snapshots, net)
    t = accumulate_series(series, run.k)
    return {key: record[key] for key in ("input_sha256", *_LOAD_COUNTS)} | {"counts": t.counts.tolist()}, t


def _network_motifs(run: RunConfig, net: NetworkSpec) -> dict:
    """What ``motifs`` records of ``net``: input digest, load counts, the final graph's orbit
    census as ``compute_gdd``'s raw distributions (ascending ``[d, nodes]`` pairs per orbit),
    and the ensemble means."""
    import hashlib

    from .census import compute_gdd, compute_orbit_frequencies
    from .nullmodel import ensemble_frequencies

    digest = hashlib.sha256()
    events, g = _network_final_graph(net, digest)
    raw = compute_gdd(compute_orbit_frequencies(g, run.k))[0]
    return {"input_sha256": digest.hexdigest(), **_load_counts(events),
            "gdd": [[*map(list, dist.items())] for dist in raw],
            "ensemble_means": ensemble_frequencies(g, run.k, run.replicates, run.swaps_per_edge, run.seed)}


def _motif_scores(run: RunConfig, entry: dict) -> list[float]:
    """The motif fingerprint of a ``_network_motifs`` record."""
    from .metrics import motif_scores_from_counts

    real = _gdd_class_counts(entry["gdd"], run.k)
    return motif_scores_from_counts([*real.values()], [*entry["ensemble_means"].values()], run.k)


# ---------------------------------------------------------------------------
# subcommands


def cmd_stats(args: argparse.Namespace) -> int:
    from .graph_core import STATS_HEADER, snapshot_stats

    run = load_run_config(args)
    snapshots = _Store(run, "snapshots")

    def worker(net: NetworkSpec):
        rows = snapshot_stats(_series(snapshots, net)[1])
        write_csv(run.out / f"{_file_stem(net.name)}.stats.csv", STATS_HEADER, rows)
        return rows

    results, code = run_per_network(run, worker)
    combined = [
        [net.name, *row] for net in run.networks if net.name in results for row in results[net.name]
    ]
    if results:
        write_csv(run.out / "stats.csv", ("network", *STATS_HEADER), combined)
        snapshots.write()
    return code


def _census_bundle(run: RunConfig, stem: str, tag: str, fr: OrbitFrequencyMatrix, labels) -> None:
    from .census import class_counts, compute_gdd

    raw, normalized = compute_gdd(fr, scaling=run.gdd_scaling)
    header = ["node"] + [f"orbit_{j + 1}" for j in range(fr.counts.shape[1])]
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
            "k": fr.k,
            "scaling": run.gdd_scaling,
            "orbits": {
                str(j + 1): {"raw": counts, "normalized": dist}
                for j, (counts, dist) in enumerate(zip(raw, normalized))
            },
            "untouched_orbits": [j + 1 for j, dist in enumerate(normalized) if not dist],
        },
    )


def cmd_census(args: argparse.Namespace) -> int:
    from .census import compute_orbit_frequencies

    run = load_run_config(args)
    snapshots = _Store(run, "snapshots")

    def worker(net: NetworkSpec):
        record, series = _series(snapshots, net)
        stem = _file_stem(net.name)
        for i, snap in enumerate(series.snapshots):
            fr = compute_orbit_frequencies(snap, run.k)
            _census_bundle(run, stem, f"snap{i}", fr, record["labels"])
        # an aggregate series with no event past its window ends on the final graph
        if (final := series.final_graph()) != series[-1]:
            fr = compute_orbit_frequencies(final, run.k)
        _census_bundle(run, stem, "final", fr, record["labels"])

    results, code = run_per_network(run, worker)
    if results:
        snapshots.write()
    return code


def cmd_transitions(args: argparse.Namespace) -> int:
    from .transitions import discretize, row_normalize

    run = load_run_config(args)
    store, snapshots = _Store(run, "transitions"), _Store(run, "snapshots")

    def worker(net: NetworkSpec):
        record, t = _network_transitions(run, net, snapshots)
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
                "counts": record["counts"],
                "normalized": normalized,
                "fingerprint": [list(row) for row in fp],
                "dissolved": {str(a + 1): int(c) for a, c in enumerate(t.dissolved)},
                "total_node_transitions": t.total_node_transitions(),
            },
        )
        store.add(net, record)  # what compare --metric ota reads back

    results, code = run_per_network(run, worker)
    if results:
        store.write()
        snapshots.write()
    return code


def cmd_motifs(args: argparse.Namespace) -> int:
    run = load_run_config(args)
    store = _Store(run, "motifs")

    def worker(net: NetworkSpec):
        entry = _network_motifs(run, net)
        header = ("class", "real_count", "ensemble_mean", "delta")
        rows = ([*item, mean, score] for item, mean, score in zip(_gdd_class_counts(
            entry["gdd"], run.k).items(), entry["ensemble_means"].values(), _motif_scores(run, entry)))
        write_csv(run.out / f"{_file_stem(net.name)}.motifs.csv", header, rows)
        store.add(net, entry)  # what compare --metric motif and gda read back

    code = run_per_network(run, worker)[1]
    store.write()
    return code


def cmd_compare(args: argparse.Namespace) -> int:
    from .metrics import gda_matrix, hierarchical_cluster, motif_distance_matrix, ota_matrix

    metric = _read("metric", args)
    run = load_run_config(args)
    if len(run.networks) < 2:
        raise CliError("compare needs at least 2 networks in the manifest")
    names = [net.name for net in run.networks]

    gda_ks = (run.k, 3) if run.gda_include_k3 else (run.k,)
    store = _Store(run, "transitions" if metric == "ota" else "motifs")
    snapshots = _Store(run, "snapshots")  # read only where a network's transitions are not stored

    def gdd_worker(net: NetworkSpec):
        # a motifs record holds the census of k alone, not of k = 3
        if not run.gda_include_k3 and (entry := store.get(net, (*_LOAD_COUNTS[:2], "gdd"))):
            return [_normalized_gdd(map(dict, entry["gdd"]), run.gdd_scaling)]
        from .census import compute_gdd, compute_orbit_frequencies

        _events, g = _network_final_graph(net)
        return [compute_gdd(compute_orbit_frequencies(g, k), run.gdd_scaling)[1] for k in gda_ks]

    # metric -> (per-network worker, matrix builder over the workers' results, its meta kind)
    worker, build, kind = {
        "ota": (lambda net: (store.get(net) or _network_transitions(run, net, snapshots)[0])["counts"],
                partial(ota_matrix, ota_scaling=run.ota_scaling, rescale=run.relative_rescale), "OTA"),
        "gda": (gdd_worker, gda_matrix, "GDA"),
        "motif": (lambda net: _motif_scores(run, store.get(net) or _network_motifs(run, net)),
                  motif_distance_matrix, "MotifDistance"),
    }[metric]
    results, code = run_per_network(run, worker)
    if code:
        # a pairwise comparison cannot proceed with missing networks
        return code

    values = build(names, [results[name] for name in names])
    tree = hierarchical_cluster(names, values, linkage=run.linkage)

    rows = ([name, *row] for name, row in zip(names, values))
    write_csv(run.out / f"compare_{metric}.csv", ["network", *names], rows)
    write_json(run.out / f"compare_{metric}.tree.json", tree)
    write_meta(run.out / f"compare_{metric}.meta.json", run, args, metric=metric, kind=kind)
    return 0


def read_similarity_csv(path: Path) -> tuple[tuple[str, ...], list[list[float]]]:
    """The names and the N rows of the agreement or distance matrix of a ``compare`` CSV.

    Rejects a blank line and a header that names a network twice;
    ``hierarchical_cluster`` checks the values.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read matrix {path}: {e}") from e
    reader = csv.reader(io.StringIO(text))
    rows = []
    for row in reader:
        if not row:
            raise CliError(f"{path}: line {reader.line_num} is blank")
        rows.append(row)
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
    values = []
    for i, row in enumerate(rows[1:]):
        if row[0] != names[i]:
            raise CliError(f"{path}: row {i + 1} is {row[0]!r}, expected {names[i]!r}")
        if len(row) != len(names) + 1:
            raise CliError(f"{path}: row {names[i]!r} has {len(row) - 1} of {len(names)} values")
        try:
            values.append([float(x) for x in row[1:]])
        except ValueError as e:
            raise CliError(f"{path}: row {names[i]!r}: {e}") from None
    return names, values


def cmd_cluster(args: argparse.Namespace) -> int:
    from .metrics import hierarchical_cluster

    path = Path(args.matrix)
    try:
        tree = hierarchical_cluster(*read_similarity_csv(path), linkage=_read("linkage", args))
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None
    out = Path(_read("out", args)) / "cluster.tree.json"
    write_json(out, tree)
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
    "cluster": ("merge tree from a matrix CSV", ("out", "matrix", "linkage")),
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


def run() -> NoReturn:
    """The process entry point: run ``main`` on ``sys.argv``, flush stdout and
    stderr, and end the process with ``main``'s exit code.

    It ends through ``os._exit``, so it skips the interpreter's teardown
    (clearing every module, and a final garbage collection over numpy's
    tracked objects): about 20 ms in a child that loaded numpy, about 10 ms
    in one that did not. Every output file is written and closed before
    ``main`` returns, and the flushes carry out what the streams still hold.
    argparse's ``SystemExit`` (usage errors, ``--help``, ``--version``) and
    any uncaught exception leave through the normal interpreter exit.

    Only a process entry point may call it: it never returns. In-process
    callers use ``main``, which returns the code.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None where the descriptor was closed at start-up
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
