"""Weakly toll walks, intervals, hulls, and graph convexity invariants.

The library computes, for arbitrary finite simple graphs: membership of a
vertex in a weakly toll walk between two nonadjacent vertices, the
interval operator I(S) and hull operator H(S) of the weakly toll
convexity, extreme vertices, true-twin classes, the clique separator
decomposition into maximal prime subgraphs, the interval number wtn(G)
and hull number wth(G) (polynomial), and the convexity number wtc(G)
(exact on small or prime instances). A definition-level enumeration
oracle validates every operator on small graphs.
"""

from .atoms import (
    AtomDecomposition,
    brute_force_atoms,
    decompose,
    extremal_atoms,
    is_prime,
)
from .convexity import ReductionOutput, clique_reduction, reduction_edge_list, wtc_exact
from .errors import (
    CapExceededError,
    DisconnectedGraphError,
    GraphParseError,
    InternalConsistencyError,
)
from .generators import (
    bowtie_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    random_connected_gnp,
    star_graph,
)
from .graph import (
    Graph,
    connected_components,
    is_clique,
    is_complete,
    is_connected,
    max_clique,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)
from .intervals import (
    MembershipWitness,
    blocked_set,
    extreme_vertices,
    hull,
    in_weakly_toll_walk,
    interval,
    is_convex,
    is_extreme_vertex,
)
from .invariants import InvariantResult, brute_force_wth, brute_force_wtn, wth, wtn
from .oracle import (
    WalkWitness,
    oracle_extreme,
    oracle_hull,
    oracle_interval,
    oracle_membership,
)
from .twins import TwinPartition, extreme_twin_classes, representatives, twin_classes

__version__ = "0.1.0"

__all__ = [
    "AtomDecomposition",
    "CapExceededError",
    "DisconnectedGraphError",
    "Graph",
    "GraphParseError",
    "InternalConsistencyError",
    "InvariantResult",
    "MembershipWitness",
    "ReductionOutput",
    "TwinPartition",
    "WalkWitness",
    "blocked_set",
    "bowtie_graph",
    "brute_force_atoms",
    "brute_force_wth",
    "brute_force_wtn",
    "clique_reduction",
    "complete_graph",
    "connected_components",
    "cycle_graph",
    "decompose",
    "extremal_atoms",
    "extreme_twin_classes",
    "extreme_vertices",
    "gnp_graph",
    "hull",
    "in_weakly_toll_walk",
    "interval",
    "is_clique",
    "is_complete",
    "is_connected",
    "is_convex",
    "is_extreme_vertex",
    "is_prime",
    "max_clique",
    "oracle_extreme",
    "oracle_hull",
    "oracle_interval",
    "oracle_membership",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "random_connected_gnp",
    "reduction_edge_list",
    "representatives",
    "star_graph",
    "to_edge_list",
    "to_graph6",
    "twin_classes",
    "wtc_exact",
    "wth",
    "wtn",
]
