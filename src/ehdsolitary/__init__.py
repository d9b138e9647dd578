"""Solitary electrohydrodynamic water waves with constant vorticity.

Spectral solver for the conformally mapped surface equation, pseudo-arclength
branch continuation, the reduced small-amplitude planar dynamics, laminar
conjugate-flow algebra, and identity-based diagnostics.
"""
from .conjugate import (
    ConjugateFlowReport,
    bore_verdict,
    find_dcr,
    find_dstar,
    qhat,
    shat,
)
from .continuation import (
    Branch,
    ContinuationConfig,
    GridTooNarrow,
    StopReport,
    classify_stop,
    continue_branch,
    init_small,
)
from .diagnostics import (
    BoundsReport,
    DegenerateJacobian,
    IdentityReport,
    NodalReport,
    ProfileReport,
    flow_force_profile,
    flux_identity_check,
    full_report,
    nodal_check,
    physical_profile,
    prop65_check,
)
from .model import (
    BaseParams,
    BranchPoint,
    Grid,
    Params,
    ValidationError,
    WaveSolution,
    make_grid,
    make_params,
)
from .newton import (
    LeftAdmissibleSet,
    NewtonConfig,
    NewtonError,
    NoConvergence,
    SingularLinearSolve,
    newton_solve,
)
from .reduced_ode import (
    OdeParams,
    Orbit,
    f_reduced,
    integrate_orbit,
    phase_portrait,
)
from .spectral import conjugate_primitive, ddx, dtn, eval_interior
from .system import (
    dispersion_root,
    jacobian_apply,
    lambda_min,
    linear_multiplier,
    residual,
)

__version__ = "0.1.0"
