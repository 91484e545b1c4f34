"""Exact computations in the rank-3 free-boson permutation orbifolds.

The package builds the invariant generators of the symmetric and cyclic
orbifolds of three free bosons, verifies every explicit decoupling relation
in exact arithmetic, computes graded dimensions and characters, and checks
the modular identities and quantum dimensions numerically.
"""

__version__ = "1.0.0"

from .scalars import Scalar, ZETA, parse_rational, parse_scalar
from .fock import (ALPHA, BETA, FockState, change_basis, enumerate_basis,
                   parse_state)
from .vertex import (check_borcherds, check_skew_symmetry, conformal_vector,
                     is_primary, nth_product, translate, translate_power,
                     virasoro_mode)
from .symmetry import (GROUPS, GeneratorId, Permutation, act, build_generator,
                       gen, is_invariant, reynolds,
                       verify_generator_translation)
from .classical import CPoly, cpoly_polarization, cpoly_relation, q0
from .structure import (DecompositionReport, SpanReport, S3_GENERATOR_IDS,
                        Z3_GENERATOR_IDS, build_D, check_decomposition,
                        cubic_family_coefficients, det_A, det_A_closed_form,
                        det_A_matrix, span_dims)
from .relations import CATALOG, default_instances, manifest, verify_relation
from .primaries import (pair_orbifold_primary, s3_primary_vectors,
                        verify_primaries, z3_primary_vectors)
from .qseries import (FracSeries, burnside_check, burnside_trace, character,
                      character_terms, fock_trace_series, module_character,
                      orbifold_character, pochhammer_inv, twist_weight,
                      w_algebra_free_character)
from .modular import (character_value, check_gauss_identity, eta,
                      qdim_estimate)
