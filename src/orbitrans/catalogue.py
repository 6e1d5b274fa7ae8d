"""The graphlet catalogue: every connected shape on 3 or 4 nodes and its orbits.

``GRAPHLET_CLASSES`` states the catalogue once; ``census`` derives the
orbit counts and the mask-to-orbit table from it, and the CLI its ``k``
choices. The module needs only the standard library, so a command that
reads the catalogue loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GraphletClass:
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
