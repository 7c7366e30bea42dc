"""Desk-scale numerical checks of the correspondence between Gaudin joint
spectra, Calogero-Moser level sets, Bethe critical points, and Wronski maps."""

from .partitions import (
    Partition,
    enumerate_partitions,
    irrep_dimension,
    shifted,
)
from .calogero_moser import (
    CMPoint,
    bivariate_char,
    cm_hamiltonian,
    cm_matrix,
    first_integrals,
    l0_residual,
    lq_residual,
    rank_one_residual,
    xi,
)
from .tensor_gaudin import (
    SpectralPoint,
    Subspace,
    WeightBasis,
    gaudin_hamiltonian,
    generalized_gaudin,
    generalized_spectrum,
    joint_eigen,
    joint_eigenspace_dim,
    sample_generic_z,
    singular_basis,
    spectral_points,
    weight_basis,
)
from .master_function import (
    BetheConfiguration,
    CriticalPoint,
    grad_t,
    grad_t_q,
    grad_z,
    grad_z_q,
    master_value,
    master_value_q,
    solve_bethe,
    solve_bethe_q,
)
from .wronski import (
    DiffOpCoeffs,
    MonicPoly,
    PolyTuple,
    QuasiExpTuple,
    bivariate_identity_residual,
    fla_residual,
    fundamental_operator,
    fundamental_operator_q,
    free_positions,
    psi,
    psi_q,
    random_poly_tuple,
    wronski_fiber,
    wronski_map,
    wronski_map_q,
    wronskian,
)
from .harness import (
    CollisionReport,
    MatchResult,
    Report,
    VerificationConfig,
    collision_study,
    match_points,
    run_suite,
)

__version__ = "0.1.0"
