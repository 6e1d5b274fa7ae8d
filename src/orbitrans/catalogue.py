"""The graphlet catalogue: every connected shape on 3 or 4 nodes and its orbits.

``GRAPHLET_CLASSES`` states the catalogue once; ``census`` derives the
mask-to-orbit table from it, and the CLI its ``k`` choices. The counts
derived from it here (the orbits of each k, and the class counts of a
census's per-orbit totals) and the normalized GDD that a stored census
needs are shared by both. The module needs only the standard library, so
a command that reads the catalogue, or a stored census, loads no numpy.
"""

from __future__ import annotations

from typing import NamedTuple


class GraphletClass(NamedTuple):
    """One connected k-node shape, with the orbits its nodes can occupy.

    ``degrees[i]`` is the degree, within the shape, of a node in orbit
    ``orbits[i]``.
    """

    name: str
    edge_count: int
    orbits: tuple[int, ...]
    degrees: tuple[int, ...]


# Classes in canonical order, by edge count. Among connected graphs of at
# most 4 nodes the set of node degrees identifies the class, and within a
# class a node's degree identifies its orbit (tests check every mask
# against an isomorphism oracle).
GRAPHLET_CLASSES: dict[int, tuple[GraphletClass, ...]] = {
    3: (
        GraphletClass("chain", 2, (1, 2), (1, 2)),
        GraphletClass("triangle", 3, (3,), (2,)),
    ),
    4: (
        GraphletClass("star", 3, (1, 2), (1, 3)),
        GraphletClass("path", 3, (3, 4), (1, 2)),
        GraphletClass("cycle", 4, (5,), (2,)),
        GraphletClass("paw", 4, (6, 7, 8), (1, 3, 2)),
        GraphletClass("diamond", 5, (9, 10), (2, 3)),
        GraphletClass("clique", 6, (11,), (3,)),
    ),
}


def orbit_count(k: int) -> int:
    if k not in GRAPHLET_CLASSES:
        raise ValueError(f"subgraph size must be 3 or 4, got {k}")
    return sum(len(cls.orbits) for cls in GRAPHLET_CLASSES[k])


def _class_totals(totals, k: int) -> dict[str, int]:
    """Each class's count, canonical order, from a census's total per orbit: a class's
    occurrences put k nodes each into its orbits, whose totals add up to k times it."""
    return {cls.name: sum(totals[j - 1] for j in cls.orbits) // k for cls in GRAPHLET_CLASSES[k]}


def _gdd_class_counts(gdd, k: int) -> dict[str, int]:
    """``_class_totals`` of a census's ``(d, nodes)`` pairs per orbit, a total the sum of d x nodes."""
    return _class_totals([sum(d * nodes for d, nodes in pairs) for pairs in gdd], k)


def _normalized_gdd(raw, scaling: str) -> list[dict[int, float]]:
    """``compute_gdd``'s normalized distributions of its ``raw`` ones (a mapping per orbit)."""
    if scaling not in ("inverse_k", "plain"):
        raise ValueError(f"unknown scaling {scaling!r}")
    normalized = []
    for dist in raw:
        positive = {d: c for d, c in dist.items() if d >= 1}  # empty for an untouched orbit
        scaled = {d: c / d if scaling == "inverse_k" else float(c) for d, c in positive.items()}
        total = 0.0  # a left fold: builtin sum() of floats is compensated from Python 3.12 on
        for s in scaled.values():
            total += s
        normalized.append({d: s / total for d, s in scaled.items()})
    return normalized
