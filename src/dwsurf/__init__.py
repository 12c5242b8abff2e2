"""Dijkgraaf-Witten invariants of closed surfaces over finite groups.

Three independent evaluation routes (direct homomorphism enumeration,
state sums over twisted group algebras, and Verlinde-type formulas from
Wedderburn block data) plus the cross-validation harness tying them together.
"""

from .groups import (FiniteGroup, ConjugacyClasses, GroupError, build_group,
                     conjugacy_classes, involution_set)
from .cocycles import (TwoCocycle, CocycleError, coboundary, c_regular_count,
                       heisenberg_cocycle, read_cocycle_file, sign_cocycles_catalog,
                       trivial_cocycle, twist, verify_cocycle, write_cocycle_file)
from .algebra import (AlgebraError, Block, TwistedGroupAlgebra, WedderburnDecomposition,
                      decomposition_to_json, wedderburn_decompose)
from .surfaces import (GluedTriangulation, RelatorPresentation, SimplicialSurface,
                       SurfaceError, SurfaceSpec, flip_triangle, pachner_13, pachner_22,
                       relator_presentation, seven_vertex_torus, standard_triangulation,
                       tetrahedron_sphere)
from .state_sum import ContractionError, ContractionPlan, StateSumResult, run_state_sum
from .invariants import (InvariantError, InvariantReport, boundary_hom_count,
                         boundary_hom_count_brute, count_homs, cross_check, dw_direct,
                         dw_labeling_oracle, mednykh_count, verlinde)

__version__ = "0.1.0"
