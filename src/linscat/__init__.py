"""linscat: exact heights, local Weil functions, twisted heights and
linear scattering experiments on projective space over number fields."""

from . import errors
from .fieldarith import (
    RATIONALS,
    FieldElement,
    NumberField,
    charpoly_norm,
    nf_create,
    norm,
    trace,
)
from .places import (
    INF,
    Place,
    log_abs,
    nonarch_exponent,
    places_above,
    product_formula_defect,
)
from .heights import (
    LinearForm,
    ProjectivePoint,
    log_height,
    mult_height,
    proximity,
    weil_hyperplane,
)
from .twisted import (
    FormSystemSpec,
    TwistedHeightSpec,
    log_twisted_report,
)
from .scattering import (
    SimplexCover,
    WeightSystem,
    classify_solution,
    fw_weights,
    gen_pos_reduce,
    scatter_partition,
    scatter_weights,
    simplex_cover,
    simplex_select,
)
from .exceptional import (
    SolutionSet,
    SubspaceCover,
    density_report,
    enumerate_points,
    filter_solutions,
    q_sweep,
    subspace_cover,
)
from .ruvojta import (
    FiltrationProfile,
    delta_sigma,
    filtration_dims,
    gamma_beta,
    h0_twist,
)

__version__ = "0.1.0"
