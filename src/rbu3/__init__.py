"""Exact computer algebra for weight-zero Rota-Baxter operators on U_3.

The package represents linear operators on the algebra of 3x3
upper-triangular matrices with exact rational or polynomial coefficients,
verifies the defining identity symbolically, replays the classification's
case analysis through a built-in Buchberger engine, and certifies the family
catalog together with its consequences (nilpotency index 3, image dimension
bounds, closure under scaling and (anti)automorphism conjugation).
"""

from .poly import MultiPoly, MonomialOrder, VarTable, grevlex, lex, elimination, parse_poly
from .matrices import UTMatrix, basis_indices, basis_name, parse_matrix
from .groebner import (GroebnerBasis, Limits, PolySystem, ResourceLimitExceeded,
                       buchberger, eliminate, ideal_member, normal_form,
                       s_polynomial)
from .operators import (Ansatz, Operator, check_lemma3, generate_system,
                        rb_residual, scale_operator)
from .transform import (AlgebraMap, AutoParams, Witness, build_psi,
                        canonicalize_idempotent, canonicalize_nilpotent,
                        conjugate_operator, find_conjugation, theta13)
from .catalog import (CatalogEntry, build_catalog, case_preset, catalog_ids,
                      run_case, verify_all)

__version__ = "0.1.0"
