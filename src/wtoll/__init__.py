"""Weakly toll walks, intervals, hulls, and graph convexity invariants.

The library computes, for arbitrary finite simple graphs: membership of a
vertex in a weakly toll walk between two nonadjacent vertices, the
interval operator I(S) and hull operator H(S) of the weakly toll
convexity, extreme vertices, true-twin classes, the clique separator
decomposition into maximal prime subgraphs, the interval number wtn(G)
and hull number wth(G) (polynomial), and the convexity number wtc(G)
(exact on small or prime instances). A definition-level enumeration
oracle, ``wtoll.oracle``, validates every operator on small graphs; it is
a test aid, so ``import wtoll`` does not load it.

Each module lists its public names once, in its own ``__all__``; the
package re-exports exactly those.
"""

from . import atoms, convexity, errors, generators, graph, intervals, invariants, twins
from .atoms import *
from .convexity import *
from .errors import *
from .generators import *
from .graph import *
from .intervals import *
from .invariants import *
from .twins import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (atoms, convexity, errors, generators, graph, intervals, invariants, twins)
    for name in module.__all__
)
