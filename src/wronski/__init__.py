"""Exact-arithmetic toolkit for honeycomb triangulations of dilated standard
triangles, orientability tests, curve pairs with color-structured
coefficients, and certified real-solution counts via symbolic elimination."""

__version__ = "0.1.0"

from .errors import deadline
from .lattice import (FVector, Triangle, Triangulation2D, dual_bipartition, f_vector,
                      hexagon_example, honeycomb_triangulation, lattice_points,
                      normalized_volume, signature)
from .heights import (ConeInequality, HeightFunction, alcoved_lift, in_secondary_cone,
                      minimal_height, rho, secondary_cone_facets)
from .orient import FacetSystem, epsilon_vectors, facet_system, orientable, orientation_witness
from .polynomial import Polynomial
from .realroots import (IsolatingInterval, UnivariatePolynomial, isolate_real_roots,
                        min_positive_real_root, sturm_count)
from .resultants import resultant, sylvester_resultant
from .systems import (MetaSystem, WronskiPair, boundary_subsystems, meta_system,
                      meta_system_from_points, wronski_pair, wronski_polynomial)
from .elimination import (EliminationResult, boundary_check, certify_no_real_solutions,
                          count_real_intersections, eliminate_to_t)

__all__ = [name for name in dir() if not name.startswith("_")]
