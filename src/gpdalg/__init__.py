"""Exact computational algebra for finite ample groupoids.

Builds convolution algebras of finite groupoids over exact scalar
rings, induces modules from isotropy groups, disintegrates modules into
sheaves over the unit space and checks the resulting description of
primitive ideals on concrete instances.
"""

from .errors import (
    GpdalgError,
    RingMismatchError,
    DimensionMismatchError,
    GroupoidMismatchError,
    ConstructionError,
    NotABisectionError,
    NotAnIdealError,
    BoundExceededError,
    UnsupportedRingError,
    NonFreeQuotientError,
)
from .rings import ScalarRing, RationalField, PrimeField, IntegersMod, ring_from_spec
from .linalg import (
    Matrix,
    Subspace,
    canonical_rows,
    mat_kernel,
    left_kernel,
    subspace_intersect,
    subspace_preimage,
)
from .groupoid import (
    FiniteGroupoid,
    validate,
    pair_groupoid,
    group_groupoid,
    cyclic_table,
    action_groupoid,
    disjoint_union,
    orbits,
    OrbitPartition,
    isotropy,
    IsotropyGroup,
    LocalBisection,
    is_bisection,
    bisection,
    bisection_mul,
    bisection_inv,
    identity_bisection,
    all_bisections,
    relabel_arrows,
    transversal,
)
from .algebra import (
    AlgebraElement,
    zero_element,
    basis_element,
    indicator,
    unit_element,
    convolve,
    involution,
    left_mult_matrix,
    right_mult_matrix,
)
from .ideals import (
    Ideal,
    zero_ideal,
    full_ideal,
    ideal_from_generators,
    ideal_equal,
    enumerate_all_ideals,
)
from .modules import (
    DEFAULT_BOUND,
    Rep,
    IsotropyModule,
    rep_validate,
    regular_rep,
    annihilator,
    module_annihilator_space,
    is_isomorphic,
    hom_space,
    all_submodules,
    maximal_submodule,
    rep_submodule,
    rep_quotient,
    quotient_algebra_rep,
    trivial_module,
    sign_module,
    regular_module,
    simple_modules_group,
)
from .induction import (
    induce,
    induced_annihilator_from_space,
    induced_annihilator_direct,
)
from .sheaves import (
    SheafData,
    sheaf_validate,
    sheaf_of,
    regular_sheaf,
    stalk_isotropy_module,
    gamma_c,
    disintegration_iso,
    is_simple,
)
from .suite import (
    VerificationReport,
    stalk_annihilator_space,
    verify_ideal_is_intersection,
    verify_primitive_single_inducer,
    enumerate_primitive_ideals,
    primitive_ideal_oracle,
    verify_primitive_ideals,
)

__version__ = "0.1.0"

__all__ = [
    "GpdalgError", "RingMismatchError", "DimensionMismatchError",
    "GroupoidMismatchError", "ConstructionError", "NotABisectionError",
    "NotAnIdealError", "BoundExceededError", "UnsupportedRingError",
    "NonFreeQuotientError",
    "ScalarRing", "RationalField", "PrimeField", "IntegersMod",
    "ring_from_spec",
    "Matrix", "Subspace", "canonical_rows", "mat_kernel", "left_kernel",
    "subspace_intersect", "subspace_preimage",
    "FiniteGroupoid", "validate", "pair_groupoid", "group_groupoid",
    "cyclic_table", "action_groupoid", "disjoint_union", "orbits",
    "OrbitPartition", "isotropy", "IsotropyGroup", "LocalBisection",
    "is_bisection", "bisection", "bisection_mul", "bisection_inv",
    "identity_bisection", "all_bisections", "relabel_arrows",
    "transversal",
    "AlgebraElement", "zero_element", "basis_element", "indicator",
    "unit_element", "convolve", "involution", "left_mult_matrix",
    "right_mult_matrix",
    "Ideal", "zero_ideal", "full_ideal", "ideal_from_generators",
    "ideal_equal", "enumerate_all_ideals",
    "DEFAULT_BOUND", "Rep", "IsotropyModule", "rep_validate",
    "regular_rep", "annihilator", "module_annihilator_space", "is_simple",
    "is_isomorphic", "hom_space",
    "all_submodules", "maximal_submodule", "rep_submodule", "rep_quotient",
    "quotient_algebra_rep", "trivial_module", "sign_module",
    "regular_module", "simple_modules_group",
    "induce",
    "induced_annihilator_from_space", "induced_annihilator_direct",
    "SheafData", "sheaf_validate", "sheaf_of", "regular_sheaf",
    "stalk_isotropy_module",
    "gamma_c", "disintegration_iso",
    "VerificationReport", "stalk_annihilator_space",
    "verify_ideal_is_intersection", "verify_primitive_single_inducer",
    "enumerate_primitive_ideals", "primitive_ideal_oracle",
    "verify_primitive_ideals",
]
