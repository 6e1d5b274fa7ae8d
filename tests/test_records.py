"""The construction contract of the package's record and result types.

The CLI's records (``GraphletClass``, ``Setting``, ``NetworkSpec``,
``RunConfig``) are named tuples; the library's results are ``__slots__``
classes, which ``metrics`` does not read as nested sequences. Each keeps
its positional order, keyword names, defaults and error messages.
"""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from orbitrans.catalogue import GraphletClass
from orbitrans.census import OrbitFrequencyMatrix, class_counts, compute_gdd
from orbitrans.cli import NetworkSpec, RunConfig, Setting, main
from orbitrans.graph_core import (
    SnapshotPolicy,
    SnapshotSeries,
    StaticGraph,
    TemporalEdgeList,
)
from orbitrans.metrics import ota_matrix, row_normalize
from orbitrans.transitions import OrbitTransitionMatrix

DATA = Path(__file__).parent / "data"


def _i64(rows) -> np.ndarray:
    return np.array(rows, dtype=np.int64)


# Each type with a value for every field, in constructor order, and the
# default of each field that has one.
RECORDS = [
    (GraphletClass, {"name": "chain", "edge_count": 2, "orbits": (1, 2), "degrees": (1, 2)}, {}),
    (Setting,
     {"kind": int, "default": 4, "choices": (3, 4), "minimum": 3, "scope": "settings",
      "help": "subgraph size", "required": True},
     {"kind": str, "default": None, "choices": (), "minimum": None, "scope": "", "help": None,
      "required": False}),
    (NetworkSpec,
     {"name": "alpha", "path": Path("alpha.txt"), "policy": "active", "width": 10, "count": 3,
      "origin": 0, "sep": "comma"},
     {}),
    (RunConfig,
     {"networks": (), "out": Path("out"), "k": 3, "seed": 5, "replicates": 7, "swaps_per_edge": 2,
      "ota_scaling": "per_orbit", "relative_rescale": False, "gdd_scaling": "plain",
      "gda_include_k3": False, "linkage": "single"},
     {}),
    (TemporalEdgeList, {"labels": ("a", "b"), "events": _i64([[0, 1, 5]]), "dropped_self_loops": 3},
     {"dropped_self_loops": 0}),
    (SnapshotPolicy, {"mode": "active", "width": 10, "count": 3, "origin": 7}, {"origin": None}),
    (SnapshotSeries,
     {"snapshots": (StaticGraph(2, _i64([[0, 1]])),), "events_discarded": 2, "bins": (_i64([1]),)},
     {"events_discarded": 0, "bins": ()}),
    (OrbitFrequencyMatrix, {"k": 3, "counts": _i64([[1, 0, 0], [0, 1, 0]])}, {}),
    (OrbitTransitionMatrix,
     {"k": 3, "counts": _i64(np.eye(3)), "dissolved": _i64([1, 0, 0]), "pairs_processed": 2,
      "formed": _i64([0, 1, 0])},
     {"formed": None}),
]
IDS = [cls.__name__ for cls, _values, _defaults in RECORDS]


@pytest.mark.parametrize("cls, values, defaults", RECORDS, ids=IDS)
class TestConstruction:
    def test_signature(self, cls, values, defaults):
        params = inspect.signature(cls).parameters
        assert list(params) == list(values)
        assert {name: p.default for name, p in params.items()
                if p.default is not inspect.Parameter.empty} == defaults

    def test_positional_and_keyword(self, cls, values, defaults):
        for record in (cls(*values.values()), cls(**values)):
            for name, value in values.items():
                assert getattr(record, name) is value, name

    def test_defaults(self, cls, values, defaults):
        required = [value for name, value in values.items() if name not in defaults]
        record = cls(*required)
        for name, value in defaults.items():
            assert getattr(record, name) == value, name


def test_library_results_are_not_sequences():
    # metrics reads a tuple as a nested sequence, and row_normalize reads
    # `.counts` only when it is there
    library = (TemporalEdgeList, SnapshotPolicy, SnapshotSeries, OrbitFrequencyMatrix,
               OrbitTransitionMatrix)
    for cls, values, _defaults in RECORDS:
        assert isinstance(cls(**values), tuple) == (cls not in library), cls.__name__


def test_snapshot_policy_messages():
    cases = [
        (("sometimes", 10, 2), "mode must be one of ('active', 'aggregate'), got 'sometimes'"),
        (("active", 0, 2), "snapshot width must be positive"),
        (("aggregate", -1, 2), "snapshot width must be positive"),
        (("active", 10, 1), "need at least 2 snapshots for transitions"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SnapshotPolicy(*args)


def test_temporal_edge_list_messages():
    events = _i64([[0, 1, 2], [1, 2, 1]])
    with pytest.raises(ValueError, match=r"^events must be sorted by time$"):
        TemporalEdgeList(("a", "b", "c"), events)
    for bad in (events.astype(np.int32), events[:, :2], events.tolist()):
        with pytest.raises(ValueError, match=r"^events must be an \(N, 3\) int64 array$"):
            TemporalEdgeList(("a", "b", "c"), bad)


def test_temporal_edge_list_equality():
    labels, events = ("a", "b", "c"), _i64([[0, 1, 1], [1, 2, 2]])
    tel = TemporalEdgeList(labels, events, 1)
    assert tel == TemporalEdgeList(tuple(labels), events.copy(), dropped_self_loops=1)
    assert tel != TemporalEdgeList(("a", "b", "d"), events, 1)
    assert tel != TemporalEdgeList(labels, _i64([[0, 1, 1], [0, 2, 2]]), 1)
    assert tel != TemporalEdgeList(labels, events)
    assert tel.__eq__((labels, events, 1)) is NotImplemented
    assert tel != (labels, events, 1)


def test_network_spec_load_events_can_be_wrapped_on_the_class(tmp_path, monkeypatch):
    # perfbench's tracer replaces the method on the class
    loaded = []
    original = NetworkSpec.load_events

    def wrapped(self, digest=None):
        loaded.append(self.name)
        return original(self, digest)

    monkeypatch.setattr(NetworkSpec, "load_events", wrapped)
    assert main(["stats", "--manifest", str(DATA / "manifest.ini"), "--out", str(tmp_path)]) == 0
    assert loaded == ["alpha", "beta"]


def test_transition_matrices_through_the_comparison():
    a = OrbitTransitionMatrix(3, _i64([[2, 1, 1], [0, 0, 0], [1, 3, 0]]), _i64([1, 0, 2]), 2)
    b = OrbitTransitionMatrix(3, _i64([[4, 0, 0], [1, 1, 2], [0, 1, 1]]), _i64([0, 0, 0]), 3,
                              formed=_i64([0, 1, 0]))
    c = OrbitTransitionMatrix(3, _i64([[1, 1, 2], [0, 2, 2], [2, 0, 2]]), _i64([0, 0, 0]), 1)
    assert row_normalize(a) == [[0.5, 0.25, 0.25], [0.0, 0.0, 0.0], [0.25, 0.75, 0.0]]
    assert row_normalize(b) == [[1.0, 0.0, 0.0], [0.25, 0.25, 0.5], [0.0, 0.5, 0.5]]
    assert (a.total_node_transitions(), b.total_node_transitions()) == (11, 10)
    assert ota_matrix(["a", "b", "c"], [a, b, c]) == [
        [1.0, 0.2777777777777778, 0.40740740740740744],
        [0.2777777777777778, 1.0, 0.3148148148148148],
        [0.40740740740740744, 0.3148148148148148, 1.0]]
    assert ota_matrix(["a", "b", "c"], [a, b, c], "per_orbit", rescale=False) == [
        [3.0, 2.0, 2.0], [2.0, 3.0, 2.0], [2.0, 2.0, 3.0]]


def test_frequency_matrices_through_the_census():
    # the orbit census of a triangle 0-1-2 with a tail 0-3-4
    k3 = OrbitFrequencyMatrix(3, _i64([[1, 2, 1], [1, 0, 1], [1, 0, 1], [2, 1, 0], [1, 0, 0]]))
    assert class_counts(k3) == {"chain": 3, "triangle": 1}
    assert compute_gdd(k3) == (
        [{1: 4, 2: 1}, {0: 3, 1: 1, 2: 1}, {0: 2, 1: 3}],
        [{1: 0.8888888888888888, 2: 0.1111111111111111},
         {1: 0.6666666666666666, 2: 0.3333333333333333}, {1: 1.0}])
    assert compute_gdd(k3, "plain")[1] == [{1: 0.8, 2: 0.2}, {1: 0.5, 2: 0.5}, {1: 1.0}]
    k4 = OrbitFrequencyMatrix(k=4, counts=_i64([
        [0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 2, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]]))
    assert class_counts(k4) == {"star": 0, "path": 2, "cycle": 0, "paw": 1, "diamond": 0, "clique": 0}
    assert compute_gdd(k4) == (
        [{0: 5}, {0: 5}, {0: 2, 1: 2, 2: 1}, {0: 3, 2: 2}, {0: 5}, {0: 4, 1: 1}, {0: 4, 1: 1},
         {0: 3, 1: 2}, {0: 5}, {0: 5}, {0: 5}],
        [{}, {}, {1: 0.8, 2: 0.2}, {2: 1.0}, {}, {1: 1.0}, {1: 1.0}, {1: 1.0}, {}, {}, {}])
