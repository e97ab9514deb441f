"""specbound: dimension bounds for circle measures with restricted spectrum."""

__version__ = "0.1.0"

from .errors import (
    InvalidInputError,
    NumericalError,
    PreconditionError,
    ResourceLimitError,
)
from .kappa_bound import (
    DimensionBound,
    FeasiblePolytope,
    def_reform_check,
    dimension_bound,
    kappa,
    kappa_left_derivative_fd,
    kappa_prime_1,
    polytope_vertices,
)
from .gv_martingale import (
    MartingaleSequence,
    QadicGrid,
    growth_check,
    martingale_levels,
    phi_kernel_mass_sandwich,
    sample_on_grid,
    set_average_check,
    spectral_projection_check,
    wb_membership_check,
)
from .riesz_products import (
    BoundTableRow,
    RieszParams,
    bound_prop4,
    bound_prop5,
    bound_table_row,
    bound_theorem3,
    chebyshev_identity_residual,
    entropy_dimension_estimate,
    fan_main_term,
    g_derivative_bound_check,
    kappa_prime_riesz,
    log_integral,
    partial_product_values,
    peyriere_dimension,
    riesz_spectrum,
)
from .spectrum import SparseSpectrum
from .zq_spectral import (
    ResidueSet,
    SubspaceBasis,
    counterexample_measure,
    in_cb,
    symmetrize,
    wb_basis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
