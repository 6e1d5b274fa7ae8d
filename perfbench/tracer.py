"""Traced CLI invocation: spans recorded around each layer from outside.

    python3 perfbench/tracer.py --spans FILE -- <orbitrans arguments>
    python3 perfbench/tracer.py --drain FILE -- <orbitrans arguments>

The first form imports orbitrans, replaces the public functions of each
module (``cli``, ``graph_core``, ``census``, ``transitions``,
``nullmodel``, ``metrics``) with timing wrappers, runs ``cli.main`` on
the arguments and writes the spans to FILE as JSON. A function imported
by name into another module is replaced there too, so calls through
either name are seen. Generators (``connected_subgraphs``,
``randomized_replicates``) are not wrapped: timing the call that creates
a generator measures nothing.

The second form loads the manifest the arguments name and drains
``connected_subgraphs`` over every snapshot (or final graph, for
``motifs``/``compare``) untraced, writing the k-set count and seconds.

``layer_metrics`` turns the spans of one traced workload iteration into
the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("cli", "graph_core", "census", "transitions", "nullmodel", "metrics")


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = info(bound.arguments, result)
            return result

        return traced


# Counts taken from each call's arguments and result, after its span ends.
def _parse_info(a, r):
    return {"events": len(r.events), "dropped": r.dropped_self_loops}


def _snapshots_info(a, r):
    return {"discarded": r.events_discarded}


def _orbit_info(a, r):
    return {"ksets": int(r.counts.sum()) // r.k}


def _class_info(a, r):
    return {"ksets": sum(r.values())}


def _pair_info(a, r):
    total = r.total_node_transitions()
    return {"ksets": total // r.k, "total": total, "dissolved": int(r.dissolved.sum())}


def _randomize_info(a, r):
    g = a["g"]
    original = set(g.edges())
    return {"swaps": a["swaps_per_edge"] * g.edge_count, "m": g.edge_count,
            "rewired": sum(1 for e in r.edges() if e not in original)}


def _write_info(a, r):
    return {"bytes": len(a["data"].encode())}


TARGETS = {
    "graph_core": {"parse_edge_list": _parse_info, "build_snapshots": _snapshots_info,
                   "final_aggregate_graph": None, "snapshot_stats": None,
                   "characteristic_path_length": None, "clustering_coefficient": None},
    "census": {"compute_orbit_frequencies": _orbit_info, "graphlet_class_frequencies": _class_info,
               "compute_gdd": None},
    "transitions": {"accumulate_series": None, "enumerate_transitions": _pair_info,
                    "row_normalize": None, "discretize": None},
    "nullmodel": {"ensemble_frequencies": None, "degree_preserving_randomize": _randomize_info},
    "metrics": {"ota_matrix": None, "gda_matrix": None, "motif_distance_matrix": None,
                "hierarchical_cluster": None},
    "cli": {"write_csv": None, "write_json": None, "write_atomic": _write_info, "cmd_stats": None, "cmd_census": None,
            "cmd_transitions": None, "cmd_motifs": None, "cmd_compare": None, "cmd_cluster": None},
}


def install(tracer: Tracer) -> None:
    """Replace every target, under every name any orbitrans module binds it to."""
    import importlib

    modules = [importlib.import_module("orbitrans")]
    modules += [importlib.import_module(f"orbitrans.{layer}") for layer in LAYERS]
    for layer, functions in TARGETS.items():
        home = importlib.import_module(f"orbitrans.{layer}")
        for attr, info in functions.items():
            original = getattr(home, attr)
            wrapped = tracer.wrap(f"{layer}.{attr}", original, info)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
    spec = modules[1].NetworkSpec
    spec.load_events = tracer.wrap("cli.load_events", spec.load_events)


def run_traced(spans_path: Path, argv: list[str]) -> int:
    from orbitrans import cli

    tracer = Tracer()
    install(tracer)
    main = tracer.wrap("cli.main", cli.main)
    try:
        return main(argv)
    finally:
        spans_path.write_text(json.dumps(tracer.spans))


def drain(result_path: Path, argv: list[str]) -> int:
    """Time a bare pass of the enumerator over the graphs ``argv`` analyses."""
    from orbitrans import cli
    from orbitrans.census import connected_subgraphs
    from orbitrans.graph_core import build_snapshots, final_aggregate_graph

    args = cli.build_parser().parse_args(argv)
    run = cli.load_run_config(args)
    final_only = args.command in ("motifs", "compare")
    ksets, seconds = 0, 0.0
    for net in run.networks:
        events = net.load_events()
        if final_only:
            graphs = [final_aggregate_graph(events)]
        else:
            graphs = list(build_snapshots(events, net.snapshot_policy()).snapshots)
        for g in graphs:
            start = time.perf_counter()
            for _ in connected_subgraphs(g, run.k):
                ksets += 1
            seconds += time.perf_counter() - start
    result_path.write_text(json.dumps({"ksets": ksets, "seconds": seconds}))
    return 0


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _n, start, end, _p, _i in spans]
    for _n, start, end, parent, _i in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(span_lists: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (one span list per invocation)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, dict[str, float]] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    pair_times: list[float] = []
    replica_census = 0.0
    for spans in span_lists:
        for (name, start, end, parent, extra), own in zip(spans, _self_times(spans)):
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            self_s[name.split(".")[0]] += own
            for key, value in (extra or {}).items():
                info.setdefault(name, {}).setdefault(key, 0)
                info[name][key] += value
            if name == "transitions.enumerate_transitions":
                pair_times.append(end - start)
            if name == "census.graphlet_class_frequencies" and parent >= 0 \
                    and spans[parent][0] == "nullmodel.ensemble_frequencies":
                replica_census += end - start

    def t(name):
        return total.get(name, 0.0)

    def got(name, key):
        return info.get(name, {}).get(key, 0)

    def per(seconds, count, scale=1e6):
        return seconds / count * scale if count else 0.0

    events = got("graph_core.parse_edge_list", "events") + got("graph_core.parse_edge_list", "dropped")
    orbit_ksets = got("census.compute_orbit_frequencies", "ksets")
    source_ksets = got("transitions.enumerate_transitions", "ksets")
    node_transitions = got("transitions.enumerate_transitions", "total")
    swaps = got("nullmodel.degree_preserving_randomize", "swaps")
    # Every call that enumerates connected k-sets, whichever layer it is in.
    ksets = orbit_ksets + got("census.graphlet_class_frequencies", "ksets") + source_ksets
    enumerating_s = (t("census.compute_orbit_frequencies") + t("census.graphlet_class_frequencies")
                     + sum(pair_times))
    metrics = {
        "graph_core.parse_s": t("graph_core.parse_edge_list"),
        "graph_core.parse_us_per_event": per(t("graph_core.parse_edge_list"), events),
        "graph_core.events_read": events,
        "graph_core.dropped_self_loops": got("graph_core.parse_edge_list", "dropped"),
        "graph_core.events_discarded": got("graph_core.build_snapshots", "discarded"),
        "graph_core.build_snapshots_s": t("graph_core.build_snapshots"),
        "graph_core.final_aggregate_s": t("graph_core.final_aggregate_graph"),
        "graph_core.snapshot_stats_s": t("graph_core.snapshot_stats"),
        "graph_core.cpl_s": t("graph_core.characteristic_path_length"),
        "graph_core.clustering_s": t("graph_core.clustering_coefficient"),
        "census.orbit_freq_s": t("census.compute_orbit_frequencies"),
        "census.class_freq_s": t("census.graphlet_class_frequencies"),
        "census.gdd_s": t("census.compute_gdd"),
        "census.ksets": ksets,
        "census.orbit_freq_us_per_kset": per(t("census.compute_orbit_frequencies"), orbit_ksets),
        "census.enumerations": calls.get("census.compute_orbit_frequencies", 0)
        + calls.get("census.graphlet_class_frequencies", 0)
        + calls.get("transitions.enumerate_transitions", 0),
        "census.enumerating_s": enumerating_s,
        "census.us_per_kset": per(enumerating_s, ksets),
        "transitions.accumulate_s": t("transitions.accumulate_series"),
        "transitions.pair_s": statistics.median(pair_times) if pair_times else 0.0,
        "transitions.pairs": len(pair_times),
        "transitions.source_ksets": source_ksets,
        "transitions.us_per_source_kset": per(sum(pair_times), source_ksets),
        "transitions.dissolved_share": per(got("transitions.enumerate_transitions", "dissolved"),
                                           node_transitions, 1.0),
        "nullmodel.ensemble_s": t("nullmodel.ensemble_frequencies"),
        "nullmodel.randomize_s": t("nullmodel.degree_preserving_randomize"),
        "nullmodel.replicas": calls.get("nullmodel.degree_preserving_randomize", 0),
        "nullmodel.swaps_attempted": swaps,
        "nullmodel.us_per_swap": per(t("nullmodel.degree_preserving_randomize"), swaps),
        "nullmodel.rewired_share": per(got("nullmodel.degree_preserving_randomize", "rewired"),
                                       got("nullmodel.degree_preserving_randomize", "m"), 1.0),
        "nullmodel.replica_census_s": replica_census,
        "metrics.ota_matrix_s": t("metrics.ota_matrix"),
        "metrics.gda_matrix_s": t("metrics.gda_matrix"),
        "metrics.motif_distance_s": t("metrics.motif_distance_matrix"),
        "metrics.cluster_s": t("metrics.hierarchical_cluster"),
        "cli.load_events_s": t("cli.load_events"),
        "cli.write_s": t("cli.write_csv") + t("cli.write_json"),
        "cli.bytes_written": got("cli.write_atomic", "bytes"),
        "cli.files_written": calls.get("cli.write_atomic", 0),
    }
    metrics.update({f"{layer}.self_s": seconds for layer, seconds in self_s.items()})
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] not in ("--spans", "--drain") or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    mode, path, rest = argv[0], Path(argv[1]), argv[3:]
    return run_traced(path, rest) if mode == "--spans" else drain(path, rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
