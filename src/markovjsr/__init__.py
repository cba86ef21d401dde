"""Growth-rate bounds for matrix products under transition constraints.

The package computes joint/generalized spectral radius bounds for finite
matrix families whose products are restricted by a 0/1 transition matrix
(or an order-k window rule), builds the block-matrix lift that removes
the restriction, and numerically certifies the structural facts that make
the reduction exact.
"""

from markovjsr.core import (
    MatrixSet,
    TransitionMatrix,
    ValidationError,
    WordClass,
    has_arbitrarily_long_words,
    surviving_nodes,
    validate_instance,
    validate_word,
)
from markovjsr.kstep import (
    KStepConstraint,
    KStepEquivalenceReport,
    RecodedInstance,
    cyclic_words,
    original_to_recoded,
    radius_equivalence_check,
    recode,
    recoded_to_original,
    window_words,
)
from markovjsr.lift import LiftedSet, lift_set, omega_factor
from markovjsr.linalg import (
    NormKind,
    block_norm,
    operator_norm,
    spectral_radii,
    spectral_radius,
)
from markovjsr.radius import (
    BoundKind,
    BoundSequencePoint,
    SandwichReport,
    LiftEqualityCheck,
    VerificationReport,
    alternative_class_chain,
    audit_factor_structure,
    classical_bounds,
    full_verification,
    rho_hat_n,
    rho_hat_n_lifted,
    rho_n,
    rho_n_lifted,
    sandwich,
    verify_lift_equalities,
)
from markovjsr.words import classify, count_words, enumerate_words

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MatrixSet",
    "TransitionMatrix",
    "ValidationError",
    "WordClass",
    "has_arbitrarily_long_words",
    "surviving_nodes",
    "validate_instance",
    "validate_word",
    "classify",
    "count_words",
    "enumerate_words",
    "NormKind",
    "operator_norm",
    "block_norm",
    "spectral_radius",
    "spectral_radii",
    "LiftedSet",
    "omega_factor",
    "lift_set",
    "BoundKind",
    "BoundSequencePoint",
    "SandwichReport",
    "LiftEqualityCheck",
    "VerificationReport",
    "rho_n",
    "rho_hat_n",
    "rho_n_lifted",
    "rho_hat_n_lifted",
    "verify_lift_equalities",
    "sandwich",
    "classical_bounds",
    "alternative_class_chain",
    "audit_factor_structure",
    "full_verification",
    "KStepConstraint",
    "RecodedInstance",
    "KStepEquivalenceReport",
    "recode",
    "window_words",
    "cyclic_words",
    "original_to_recoded",
    "recoded_to_original",
    "radius_equivalence_check",
]
