"""Laboratory for best simultaneous Diophantine approximation.

Exact best-approximation sequences and lattice minimal-vector chains,
the diagonal-flow first-return dynamics on the transversal, statistical
estimates of the limit constants and distributions they generate, and an
exact inductive construction separating the offset-one and offset-zero
badly-approximable classes.
"""

from .core import (
    BudgetExceededError,
    Cylinder,
    LatticeBasis,
    LatticeVector,
    NonGenericLatticeError,
    SearchLimitError,
    SingularBasisError,
    a_safe,
    enumerate_in_cylinder,
    minkowski_leq,
    shortest_mixed_vectors,
)
from .bestapprox import (
    BestApproxRecord,
    beta_sequence,
    chain_engine,
    direct_scan,
    sample_theta,
)
from .dynamics import (
    ChainEntry,
    FirstReturn,
    MinimalVectorChain,
    SurfaceMembership,
    SurfacePoint1D,
    SurfacePoint2D,
    VisitingTimes,
    apply_flow,
    apply_flow_log,
    chart_lattice_1d,
    chart_lattice_2d,
    first_return,
    minimal_vectors,
    return_map_explicit_1d,
    sample_surface_point_1d,
    surface_coordinates_1d,
    surface_first_return_1d,
    surface_membership_S,
    surface_membership_Sprime,
    visiting_times,
)
from .estimators import (
    LEVY_2_1,
    EmpiricalCDF,
    LevyClosedForm1D,
    LevyEstimate,
    SurfaceMeasureEstimate,
    bjw_cdf_1d,
    bjw_empirical,
    bjw_oracle_cdf_1d,
    ks_distance,
    levy_closed_form_1d,
    levy_ergodic,
    surface_density_1d,
    surface_mc_2d,
    surface_measure_1d,
)
from .badk import (
    BadConstructionState,
    CertifyReport,
    PrefixStats,
    StepRecord,
    certificate,
    certify,
    init_state,
    prefix_statistics,
    step,
)

__version__ = "0.1.0"
