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
    surviving_nodes,
    validate_instance,
    validate_word,
)
from markovjsr.kstep import (
    KStepConstraint,
    KStepEquivalenceReport,
    RecodedInstance,
    radius_equivalence_check,
    recode,
)
from markovjsr.lift import lift_set, omega_factor
from markovjsr.linalg import (
    NormKind,
    block_norm,
    operator_norm,
    spectral_radii,
)
from markovjsr.radius import (
    BoundSequencePoint,
    SandwichReport,
    LiftEqualityCheck,
    VerificationReport,
    alternative_class_chain,
    audit_factor_structure,
    full_verification,
    sandwich,
)
from markovjsr.words import classify, count_words, enumerate_words

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MatrixSet",
    "TransitionMatrix",
    "ValidationError",
    "WordClass",
    "surviving_nodes",
    "validate_instance",
    "validate_word",
    "classify",
    "count_words",
    "enumerate_words",
    "NormKind",
    "operator_norm",
    "block_norm",
    "spectral_radii",
    "omega_factor",
    "lift_set",
    "BoundSequencePoint",
    "SandwichReport",
    "LiftEqualityCheck",
    "VerificationReport",
    "sandwich",
    "alternative_class_chain",
    "audit_factor_structure",
    "full_verification",
    "KStepConstraint",
    "RecodedInstance",
    "KStepEquivalenceReport",
    "recode",
    "radius_equivalence_check",
]
