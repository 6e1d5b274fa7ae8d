"""orbitrans: temporal-network comparison via graphlet-orbit transitions.

Pipeline in one breath: parse a timestamped edge list, slice it into
snapshots, enumerate connected 3-/4-node subgraphs and the orbits their
nodes occupy, follow each group across consecutive snapshots to build an
orbit-transition matrix, and compare networks by transition agreement
(OTA), graphlet-degree agreement (GDA) or motif fingerprints against a
degree-preserving null model.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name under the module that defines it. A module loads on the
# first use of one of its names, so a subcommand compiles and runs only the
# modules it needs: `census` and `stats` never load transitions, metrics or
# the null model, and `cluster` loads the comparison layer alone, without numpy.
_EXPORTS = {
    "catalogue": ("GraphletClass",),
    "census": ("OrbitFrequencyMatrix", "build_classification_table", "compute_gdd",
               "compute_orbit_frequencies", "connected_subgraphs", "graphlet_class_frequencies"),
    "graph_core": ("EdgeListParseError", "SnapshotPolicy", "SnapshotSeries", "StaticGraph",
                   "TemporalEdgeList", "average_degree", "build_snapshots",
                   "characteristic_path_length", "clustering_coefficient", "final_aggregate_graph",
                   "parse_edge_list"),
    "metrics": ("cut_clusters", "fingerprint_distance", "gda_matrix", "hierarchical_cluster",
                "motif_distance_matrix", "ota_matrix", "ota_pair", "relative_rescale", "row_normalize"),
    "nullmodel": ("degree_preserving_randomize", "ensemble_frequencies", "randomized_replicates"),
    "transitions": ("OrbitTransitionMatrix", "accumulate_series", "discretize",
                    "enumerate_transitions"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
