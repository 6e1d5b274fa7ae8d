"""orbitrans: temporal-network comparison via graphlet-orbit transitions.

Pipeline in one breath: parse a timestamped edge list, slice it into
snapshots, enumerate connected 3-/4-node subgraphs and the orbits their
nodes occupy, follow each group across consecutive snapshots to build an
orbit-transition matrix, and compare networks by transition agreement
(OTA), graphlet-degree agreement (GDA) or motif fingerprints against a
degree-preserving null model.
"""

from .census import (
    ClassificationTable,
    GraphletClass,
    GraphletDegreeDistribution,
    OrbitFrequencyMatrix,
    build_classification_table,
    compute_gdd,
    compute_orbit_frequencies,
    connected_subgraphs,
    graphlet_class_frequencies,
)
from .graph_core import (
    EdgeListParseError,
    SnapshotPolicy,
    SnapshotSeries,
    StaticGraph,
    TemporalEdgeList,
    average_degree,
    build_snapshots,
    characteristic_path_length,
    clustering_coefficient,
    final_aggregate_graph,
    parse_edge_list,
    relative_size_series,
)
from .metrics import (
    MergeStep,
    SimilarityMatrix,
    cut_clusters,
    fingerprint_distance,
    gda_matrix,
    gda_pair,
    hierarchical_cluster,
    motif_distance_matrix,
    ota_matrix,
    ota_pair,
    relative_rescale,
)
from .nullmodel import (
    degree_preserving_randomize,
    ensemble_frequencies,
    randomized_replicates,
)
from .transitions import (
    OrbitTransitionMatrix,
    accumulate_series,
    discretize,
    enumerate_transitions,
    row_normalize,
)

__version__ = "0.1.0"

# the names imported above, each stated once
__all__ = sorted(name for name, value in vars().items()
                 if getattr(value, "__module__", "").startswith(f"{__name__}."))
