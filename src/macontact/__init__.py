"""Monge-Ampere equations through contact geometry.

Classification of classical Monge-Ampere equations via self-adjoint
operator algebras on the 5-dimensional Darboux chart, the equivalence
between solving the equation and operator-invariance of Legendrian
graphs, bend subspaces of homogeneous polynomials, and explicit singular
generalized-solution families built from zeta-complex powers.
"""

from .bends import (BendSubspace, HomPoly, classify_bend, is_bend,
                    normal_form, poly_from_fiber_vector, prolong_bend,
                    structure_matrix)
from .contact import (CHART_VARIABLES, ContactChart, DarbouxPoint,
                      VectorFieldValue, contact_field, contact_form_value,
                      curvature_gram, is_contact_field, lagrange_bracket)
from .expr import EvalDomainError, Expr, Jet, ParseError, parse
from .monge_ampere import (EquationType, GridSpec, MAEquation, basic_algebra,
                           classify, classify_region, discriminant, structure_operator,
                           invariance_defect, lift_point, residual,
                           tangent_frame)
from .rmanifold import (JetChartPoint, RManifoldSpec, cartan_tangency_defect,
                        family_point, fiber_tangent_basis, prolonged_residuals,
                        singular_point_report, tangent_vectors)
from .symplectic import (ClassificationResult, Operator, OperatorType,
                         SymplecticSpace, classify_dim4, cyclic_subspace,
                         direct_sum_operator, is_lagrangian, is_self_adjoint,
                         jordan_product, nilpotent_from_lagrangian,
                         standard_space)
from .zeta import (ZetaKind, ZetaNum, cauchy_riemann_residual, frac_factorial,
                   zeta_laplace_residual)

__version__ = "0.1.0"
