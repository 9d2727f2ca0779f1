"""Numerical toolkit for relative equilibria of one strong and N weak vortices."""

from __future__ import annotations

__version__ = "0.1.0"

from .continuation import (
    RelativeEquilibrium,
    ScalingReport,
    continue_equilibrium,
    epsilon_ceiling,
    rotating_frame_residual,
    sweep_epsilon,
    verify_lemma1_scaling,
)
from .dynamics import (
    GrowthReport,
    PlanarConfiguration,
    Trajectory,
    hamiltonian,
    integrate_rk4,
    perturbation_growth,
    rigidity_error,
    vortex_field,
    vorticity_moment,
)
from .errors import (
    AngularCollision,
    CollisionAbort,
    ConvergenceFailure,
    DegenerateSeed,
    InsufficientFamily,
    InvalidEpsilon,
    InvalidN,
    NoConvergence,
    NotCritical,
    SingularBlock,
    VortexCollision,
    VortexEqError,
)
from .potential import (
    CriticalPointClass,
    classify,
    gradient,
    hessian,
    ngon,
    potential,
)
from .search import (
    CriticalPoint,
    FamilyCatalog,
    canonicalize,
    multistart_search,
    newton_refine,
    sample_wedge,
    symmetry_distance,
)
from .spectra import (
    SpectrumReport,
    block_determinant,
    eig_symmetric,
    ngon_spectrum_closed_form,
)
from .stability import (
    StabilityClass,
    StabilityVerdict,
    asymptotic_eigenvalues,
    cabral_schmidt_check,
    linearize,
    reduced_field,
    stability_verdict,
)
