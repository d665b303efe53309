"""Numerical toolkit for symplectic indices of brake-symmetric problems.

Computes Robbin-Salamon and Conley-Zehnder indices, brake Maslov
indices and nullities, spectral flows of asymptotic operators, model
cap indices, and Fredholm/virtual dimensions of moduli problems, end to
end from Hamiltonian systems to dimension reports.
"""

from .config import Config, DEFAULT, load_config
from .core import (
    HalfInt,
    Lagrangian,
    SymplecticPath,
    UnitaryLoop,
    brake_involution,
    check_brake_symmetry,
    diagonal_unitary_loop,
    fundamental_solution,
    hyperbolic_path,
    lagrangian_diagonal,
    lagrangian_l1,
    lagrangian_l2,
    loop_degree,
    pointwise_product,
    product_form,
    rotation_path,
    standard_symplectic,
    symplectic_residual,
)
from .errors import (
    BoundaryMismatch,
    BrakeIndexError,
    CrossingUnresolved,
    DegenerateIterate,
    DegenerateOrbit,
    EndpointDegenerate,
    EnergyDrift,
    GalerkinUnresolved,
    IrregularCrossing,
    LeftEnergySurface,
    NoConvergence,
    NumericalError,
    OmegaResonant,
    PhaseJumpTooLarge,
    RadialDegeneracy,
    SymmetryViolated,
    SymplecticityLost,
    TruncationUnstable,
    Undersampled,
    ValidationError,
)
from .indices import (
    Crossing,
    IndexReport,
    LagrangianPath,
    brake_maslov,
    brake_maslov_report,
    conley_zehnder,
    conley_zehnder_report,
    cz_of_product,
    maslov_index,
    mu1_of_product,
    nullities,
)
from .asymptotic import (
    AsymptoticOperator,
    OperatorFamily,
    SymmetricLoop,
    blend_family,
    cylinder_index,
    discretize,
    kernel_dimension,
    spectral_flow,
)
from .capmodel import (
    Boundary,
    CapSpec,
    GluePiece,
    IndexLedger,
    cap_index,
    cap_kernel_cokernel,
    glue,
    riemann_roch_brake,
    slow_cap_check,
)
from .moduli import (
    DimensionReport,
    IterateRow,
    ModuliSpec,
    OrbitRecord,
    aut_dim,
    classify_good_bad,
    fredholm_index,
    iterate_path,
    orbit_degree,
    teichmuller_dim,
    virtual_dimension,
)
from .hamiltonian import (
    BrakeOrbit,
    HamiltonianSystem,
    anisotropic_system,
    check_field_symmetry,
    find_brake_orbit,
    harmonic_system,
    integrate_orbit,
    linearized_path,
    polynomial_system,
    reeb_factor,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
