"""causalcoh: exact cohomology with causally restricted supports.

An exact-arithmetic toolkit for globally hyperbolic spacetimes presented
as a line times a Cauchy slice: de Rham cohomology tables for all eight
causal support classes, a finite-dimensional cochain-complex engine for
the homological mechanisms behind them (null-homotopies, long exact
sequences, splittings), exact Laurent-polynomial tensor calculus on
conformally flat constant-curvature charts, and a machine-verified
implementation of the Killing-Riemann-Bianchi (Calabi) complex.
"""

from .causal import (CohomologyTable, SpacetimeModel, SupportClass, full_table,
                     pairing_audit, restricted_dimension, route_consistency,
                     solution_dimension)
from .charts import Chart, ChartKind, anti_de_sitter, christoffel, curvature, de_sitter, minkowski
from .complexes import (CochainComplex, CochainHomotopy, CochainMap, CohomologySpace,
                        LongExactSeq, ShortExactSeq, check_exactness, check_null_homotopy,
                        cohomology, contractibility_check, induced_map, long_exact_sequence,
                        split_by_null_map)
from .calabi import (CalabiField, CalabiTable, calabi_diff, calabi_homotopy, calabi_table,
                     calabi_wave, killing_operator, killing_yano_operator,
                     linearization_relation_holds, linearized_riemann,
                     polynomial_solution_dimension, random_calabi_field,
                     verify_calabi_identities)
from .forms import box_de_rham, codifferential, exterior_derivative, hodge_star, wedge
from .linalg import MatrixQ
from .polynomials import RationalFunction
from .simplicial import (CohomologyProfile, SimplicialComplex, betti, build_complex,
                         kunneth, preset_profile, profile_from_triangulation)
from .tensors import TensorField, box_tensor, nabla, odot, project, trace
from .young import YoungDiagram, hook_rank, projector_rank, young_projector

__version__ = "0.1.0"
