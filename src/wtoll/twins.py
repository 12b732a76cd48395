"""True-twin classes and their interaction with extreme vertices."""

from __future__ import annotations

from typing import NamedTuple

from .errors import InternalConsistencyError
from .graph import Graph, _require_connected, is_complete
from .intervals import extreme_vertices

__all__ = ["TwinPartition", "twin_classes", "extreme_twin_classes"]


class TwinPartition(NamedTuple):
    """Partition of V into maximal true-twin classes (equal closed
    neighborhoods), ordered by least member."""

    classes: tuple[frozenset[int], ...]


def twin_classes(g: Graph) -> TwinPartition:
    """Group vertices on their closed-neighborhood bitmask.

    True twins have identical closed neighborhoods, so the mask is a
    perfect canonical key; no modular decomposition machinery is needed.
    """
    groups: dict[int, list[int]] = {}
    for v, mask in enumerate(g._masks):
        groups.setdefault(mask | (1 << v), []).append(v)
    # a class enters the dict at its least member, so insertion order is
    # already the order by least member
    return TwinPartition(tuple(map(frozenset, groups.values())))


def extreme_twin_classes(g: Graph, p: TwinPartition) -> list[int]:
    """Indices of twin classes whose members are all weakly toll extreme.

    Extremeness is uniform within a twin class: true twins x, x' have
    N[x] = N[x'], so swapping them maps weakly toll walks onto weakly toll
    walks. At most two such classes can exist. A class with only some
    members extreme, or more than two extreme classes, means the
    membership machinery is broken, so either is reported as an internal
    error rather than returned.
    """
    _require_connected(g, "extreme twin classes are defined for connected graphs")
    if is_complete(g):
        raise ValueError("extreme twin classes are defined for non-complete graphs")
    ext = extreme_vertices(g)
    full = [i for i, cls in enumerate(p.classes) if cls <= ext]
    covered = frozenset().union(*(p.classes[i] for i in full)) if full else frozenset()
    if ext - covered:
        raise InternalConsistencyError(
            f"extreme vertices {sorted(ext - covered)} sit in twin classes that "
            "are not uniformly extreme"
        )
    if len(full) > 2:
        raise InternalConsistencyError(
            f"{len(full)} twin classes of extreme vertices found; at most 2 are possible"
        )
    return full
