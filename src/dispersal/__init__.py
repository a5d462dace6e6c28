"""Numerical laboratory for rescaled jump-dispersal operators versus diffusion.

The package builds nonlocal dispersal operators whose kernel radius can be
driven to zero at diffusive scaling, their Laplacian counterparts under the
same boundary conditions, and the machinery to compare the two: semilinear
evolution, principal growth rates of time-periodic linearizations, and
positive periodic states of saturating growth problems.
"""

import os

# Before numpy loads: OpenBLAS otherwise starts a worker thread per core,
# whose spinning cost 0.13 s of CPU on a 2-core machine (0.30 against 0.17
# s for a 2D periodic simulate) and made wall time follow the other
# processes' load.  The program's dense linear algebra is small and kept
# out of BLAS.  A caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .coefficients import (
    TimePeriodicCoefficient,
    constant_coefficient,
    parse_coefficient,
    space_cosine,
    time_average,
    time_sine,
    time_space_product,
)
from .errors import (
    BlowUpError,
    CollapsedToZeroError,
    DispersalError,
    NoConvergenceError,
    NumericsError,
    SolverFailureError,
    ValidationError,
)
from .evolution import (
    ReactionTerm,
    SemilinearProblem,
    Trajectory,
    linear_reaction,
    logistic_reaction,
    parse_reaction,
    solution_convergence_experiment,
    solve,
    zero_reaction,
)
from .grids import (
    Domain,
    Field,
    Grid,
    box,
    build_grid,
    field_from_function,
    periodic_cell,
    sup_distance,
    sup_norm,
    write_field_csv,
)
from .kernels import (
    MOLLIFIER,
    QUARTIC,
    KernelProfile,
    kernel_profile,
    scaled_kernel,
)
from .kpp import (
    KPPProblem,
    PeriodicOrbit,
    orbit_convergence_experiment,
    parse_growth,
    positive_periodic_solution,
    validate_saturation,
    verify_invasion_condition,
)
from .operators import (
    LOCAL,
    NONLOCAL,
    BoundaryCondition,
    DispersalOperator,
    assemble_local,
    assemble_nonlocal,
    parse_boundary_condition,
    sweep_operators,
)
from .reports import ConvergenceReport, empirical_orders, read_csv_table, sweep_order
from .spectral import (
    PeriodMap,
    SpectrumResult,
    default_start,
    principal_eigenvalue_criterion,
    principal_value,
    spectrum_convergence_experiment,
)

__version__ = "0.1.0"
