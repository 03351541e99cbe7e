"""Computable category of dilation-equivariant regular-singular connections
on the punctured plane, with its monodromy correspondence and its images in
quantum-torus bundles and elliptic divisor classes."""

from .category import (
    EquivariantConnection,
    K0Class,
    MonodromyPair,
    Morphism,
    NormalForm,
    braiding,
    cokernel,
    coevaluation_map,
    decompose,
    direct_sum,
    dual,
    evaluation_map,
    from_monodromy,
    h0_dim,
    hom_basis,
    hom_mode_dims,
    image,
    is_isomorphic,
    k0_class,
    kernel,
    monodromy,
    normalize,
    tensor,
    triangle_residuals,
    unit_object,
    validate,
)
from .exceptions import (
    EquivarianceViolation,
    NonConstantB,
    NumericFailure,
    RegularityViolation,
    SingularB,
    SpectrumCollision,
    TransversalMismatch,
    ValidationFailure,
)
from .laurent import GaugeRecord, PolyMat, gauge_transform, shear, truncated_inverse
from .numkit import (
    SL2Z,
    Tolerances,
    Transversal,
    find_small_width,
    log_transversal,
    mat_exp,
    moebius,
    nullspace,
    reduce_to_transversal,
    solve_sylvester,
    spectral,
    wd,
)
from .torus import (
    Divisor,
    FreeBundle,
    Omega,
    TorusPoly,
    build_extension,
    central_charge,
    check_intertwine,
    divisor_equivalent,
    is_nori_finite,
    k0_to_divisor,
    k_swap,
    modular_apply,
    phase,
    psi_delta_residual,
    psi_embed,
    psi_star,
    std_bundle_data,
)

__version__ = "0.1.0"
