"""Time integration of semilinear dispersal equations and order comparison.

The stepper treats the stiff linear dispersal part implicitly by the
trapezoidal rule and the reaction explicitly by a Heun predictor-corrector,
so one time step solves two linear systems with the same well-conditioned
matrix ``I - (dt/2) A``.  The implicit treatment removes the ``dt ~ h**2``
(local) and ``dt ~ delta**2`` (nonlocal) stability ceilings that an
explicit method would impose on refinement sweeps.

Every run solves ``(I - s A) x = b`` many times with one fixed matrix, so
the solver is prepared once per (operator, step) and picked from the
operator's structure.  Periodic closures give circulant matrices in any
dimension, diagonalized exactly by the FFT of the matrix's first column.
One-dimensional boxes give banded matrices (nonsymmetric for the mirrored
local neumann closure), factored once by a sparse LU in natural order.
Two-dimensional boxes are solved iteratively to relative residual ``1e-10``
(conjugate gradients when the matrix is symmetric, stabilized bi-conjugate
gradients for the mirrored closure) with a sparse direct solve as rescue.
Every path returns its warm start unchanged whenever the start already
satisfies the ``1e-10`` residual test; constant equilibria therefore
persist bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import bicgstab, cg, splu, spsolve

from .coefficients import TimePeriodicCoefficient, parse_coefficient, split_call
from .errors import BlowUpError, SolverFailureError, ValidationError
from .grids import Field, Grid, build_grid, field_from_function, same_grid, sup_distance
from .kernels import KernelProfile
from .operators import (
    LOCAL,
    NONLOCAL,
    BoundaryCondition,
    DispersalOperator,
    assemble_local,
    assemble_nonlocal,
)
from .reports import ConvergenceReport, empirical_orders

#: Sup-norm ceiling beyond which a run is declared to have left the regime
#: of existing bounded solutions.
BLOW_UP_THRESHOLD = 1e12

_SOLVE_RTOL = 1e-10


@dataclass(frozen=True)
class ReactionTerm:
    """Reaction ``F(t, x, u)``.

    ``evaluate`` receives the time, the grid coordinate columns and the
    nodal values; ``period`` is 0 for autonomous reactions.
    """

    evaluate: Callable
    period: float
    description: str


def zero_reaction() -> ReactionTerm:
    return ReactionTerm(
        evaluate=lambda t, coords, u: np.zeros_like(u),
        period=0.0,
        description="zero",
    )


def linear_reaction(a: TimePeriodicCoefficient) -> ReactionTerm:
    """``F = a(t, x) u`` — the linearization driving the spectral theory."""
    return ReactionTerm(
        evaluate=lambda t, coords, u: a.evaluate(t, coords) * u,
        period=a.period,
        description=f"linear({a.description})",
    )


def logistic_reaction(a: TimePeriodicCoefficient) -> ReactionTerm:
    """``F = u (a(t, x) - u)`` — saturating growth with carrying level ``a``."""
    return ReactionTerm(
        evaluate=lambda t, coords, u: u * (a.evaluate(t, coords) - u),
        period=a.period,
        description=f"logistic({a.description})",
    )


def parse_reaction(text: str, period: float) -> ReactionTerm:
    """Parse ``zero``, ``linear(<coefficient>)``, or ``logistic(<coefficient>)``."""
    text = text.strip()
    if text == "zero":
        return zero_reaction()
    name, inner = split_call(text)
    if name == "linear":
        return linear_reaction(parse_coefficient(inner, period))
    if name == "logistic":
        return logistic_reaction(parse_coefficient(inner, period))
    raise ValidationError(f"unknown reaction {name!r}; catalog: zero, linear(a), logistic(a)")


@dataclass
class SemilinearProblem:
    """An initial-value problem for one operator and one reaction."""

    operator: DispersalOperator
    reaction: ReactionTerm
    initial: Field
    start: float
    end: float

    def __post_init__(self):
        if not same_grid(self.initial.grid, self.operator.grid):
            raise ValidationError("initial field does not live on the operator grid")
        if self.end <= self.start:
            raise ValidationError(f"end {self.end!r} must exceed start {self.start!r}")
        cm = self.operator.constrained
        if cm is not None and np.any(np.abs(self.initial.values[cm]) > 1e-12):
            raise ValidationError(
                "initial data must vanish on pinned nodes (box boundary and ghost band)"
            )


@dataclass
class Trajectory:
    """Snapshots of one run, ordered in time; first snapshot is the start state."""

    times: tuple[float, ...]
    states: tuple[Field, ...]
    steps: int
    dt: float


def implicit_solver(op: DispersalOperator, scale: float):
    """Return ``solve(b, x0)`` for the system ``(I - scale * A) x = b``.

    The solver is chosen from the operator: an FFT diagonalization for
    periodic closures, one banded LU factorization for 1D boxes, and
    CG/BiCGSTAB with a sparse direct rescue for 2D boxes.  A warm start
    ``x0`` whose residual is already below ``1e-10 |b|`` comes back
    unchanged (as a copy), and ``b = 0`` gives zeros.
    """
    A = op.matrix()
    if op.bc is BoundaryCondition.PERIODIC:
        direct = _circulant_solve(A, scale, op.grid.shape)
    elif op.grid.dimension == 1:
        n = A.shape[0]
        M = sparse.identity(n, format="csr") - scale * A
        direct = splu(M.tocsc(), permc_spec="NATURAL").solve
    else:
        return _krylov_solver(op, A, scale)

    def solve(b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        b_norm = float(np.linalg.norm(b))
        if b_norm == 0.0:
            return np.zeros_like(b)
        if float(np.linalg.norm(b - x0 + scale * (A @ x0))) < _SOLVE_RTOL * b_norm:
            return x0.copy()
        return direct(b)

    return solve


def _circulant_solve(A: sparse.csr_matrix, scale: float, shape: tuple[int, ...]):
    """Exact solve for the circulant ``I - scale * A`` of a periodic closure.

    A circulant matrix acts as circular convolution with its first column,
    so the FFT of that column holds its eigenvalues (all ``>= 1`` here,
    since ``A`` is negative semidefinite).
    """
    axes = tuple(range(len(shape)))
    e0 = np.zeros(A.shape[0])
    e0[0] = 1.0
    eig = np.fft.rfftn((e0 - scale * (A @ e0)).reshape(shape))

    def direct(b: np.ndarray) -> np.ndarray:
        spectrum = np.fft.rfftn(b.reshape(shape)) / eig
        return np.fft.irfftn(spectrum, s=shape, axes=axes).ravel()

    return direct


def _krylov_solver(op: DispersalOperator, A: sparse.csr_matrix, scale: float):
    """CG (BiCGSTAB for the mirrored closure) with a sparse direct rescue."""
    n = A.shape[0]
    M = (sparse.identity(n, format="csr") - scale * A).tocsr()
    symmetric = not (op.kind == LOCAL and op.bc is BoundaryCondition.NEUMANN)
    M_csc = None

    def solve(b: np.ndarray, x0: np.ndarray) -> np.ndarray:
        nonlocal M_csc
        if symmetric:
            x, info = cg(M, b, x0=x0, rtol=_SOLVE_RTOL, atol=0.0)
        else:
            x, info = bicgstab(M, b, x0=x0, rtol=_SOLVE_RTOL, atol=0.0)
        if info == 0:
            return x
        if M_csc is None:
            M_csc = M.tocsc()
        x = spsolve(M_csc, b)
        residual = float(np.linalg.norm(b - M @ x))
        bound = _SOLVE_RTOL * float(np.linalg.norm(b))
        if residual > max(bound, 1e-13):
            raise SolverFailureError(
                f"implicit solve stalled: residual {residual:.3e} exceeds {bound:.3e}"
            )
        return x

    return solve


def _snapshot_steps(
    start: float, dt: float, nsteps: int, snapshot_times: Sequence[float]
) -> dict[int, float]:
    """Map requested snapshot times to integer step indices, validating both."""
    table: dict[int, float] = {}
    for t in snapshot_times:
        offset = (t - start) / dt
        k = int(round(offset))
        if abs(offset - k) > 1e-6:
            raise ValidationError(
                f"snapshot time {t!r} is not an integer multiple of dt={dt!r} from the start"
            )
        if k < 0 or k > nsteps:
            raise ValidationError(f"snapshot time {t!r} lies outside the integration window")
        table[k] = t
    return table


def solve(problem: SemilinearProblem, dt: float, snapshot_times: Sequence[float]) -> Trajectory:
    """Advance the problem and return the requested snapshots.

    Snapshot times must be integer multiples of ``dt`` from the start; the
    initial state is always included as the first snapshot.  Raises
    :class:`BlowUpError` the moment the sup norm passes ``1e12``.
    """
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    span = problem.end - problem.start
    nsteps = int(round(span / dt))
    if nsteps < 1 or abs(span / dt - nsteps) > 1e-6:
        raise ValidationError(
            f"integration window {span!r} is not an integer number of steps of dt={dt!r}"
        )
    wanted = _snapshot_steps(problem.start, dt, nsteps, snapshot_times)
    op = problem.operator
    coords = op.grid.coordinates
    cm = op.constrained
    A = op.matrix()
    half_solve = implicit_solver(op, dt / 2.0)

    u = problem.initial.values.copy()
    if cm is not None:
        u[cm] = 0.0
    times = [problem.start]
    states = [Field(op.grid, u.copy(), problem.start)]
    reaction = problem.reaction
    for k in range(1, nsteps + 1):
        t = problem.start + (k - 1) * dt
        Au = A @ u
        base = u + (dt / 2.0) * Au
        fn = reaction.evaluate(t, coords, u)
        b = base + dt * fn
        if cm is not None:
            b[cm] = 0.0
        predictor = half_solve(b, u)
        if cm is not None:
            predictor[cm] = 0.0
        fs = reaction.evaluate(t + dt, coords, predictor)
        b = base + (dt / 2.0) * (fn + fs)
        if cm is not None:
            b[cm] = 0.0
        u = half_solve(b, predictor)
        if cm is not None:
            u[cm] = 0.0
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > BLOW_UP_THRESHOLD:
            raise BlowUpError(f"field exceeded {BLOW_UP_THRESHOLD:.0e} at t={problem.start + k * dt!r}")
        if k in wanted:
            stamp = problem.start + k * dt
            times.append(stamp)
            states.append(Field(op.grid, u.copy(), stamp))
    return Trajectory(tuple(times), tuple(states), nsteps, dt)


def check_comparison(lower: Trajectory, upper: Trajectory, tol: float) -> bool:
    """True iff ``lower <= upper + tol`` nodewise at every shared snapshot."""
    if tol < 0.0:
        raise ValidationError(f"tolerance must be nonnegative, got {tol}")
    if len(lower.states) != len(upper.states):
        raise ValidationError("shape mismatch: trajectories hold different snapshot counts")
    for lo, up in zip(lower.states, upper.states):
        if not same_grid(lo.grid, up.grid):
            raise ValidationError("shape mismatch: trajectories live on different grids")
        if abs(lo.time - up.time) > 1e-9:
            raise ValidationError("shape mismatch: snapshot times differ")
        keep = ~lo.grid.ghost_mask
        if np.any(lo.values[keep] > up.values[keep] + tol):
            return False
    return True


def _uniform_snapshot_steps(nsteps: int, count: int) -> list[int]:
    marks = sorted({int(round(j * nsteps / count)) for j in range(count + 1)})
    return [k for k in marks if 0 <= k <= nsteps]


def solution_convergence_experiment(
    domain,
    bc: BoundaryCondition,
    profile: KernelProfile,
    reaction: ReactionTerm,
    initial_fn,
    t_final: float,
    deltas: Sequence[float],
    h: float,
    dt: float,
    snapshots: int = 8,
) -> ConvergenceReport:
    """Sweep the kernel radius and compare against the Laplacian run.

    Both kinds share one grid (spatial error is common mode) and one time
    step; the reported ``error`` row is the max over the stored snapshots
    of the sup distance between the two solutions.  Requires ``deltas``
    strictly decreasing and ``h <= min(deltas) / 8`` so every kernel stays
    well resolved.
    """
    deltas = [float(d) for d in deltas]
    if not deltas or any(d <= 0 for d in deltas):
        raise ValidationError("deltas must be positive")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValidationError(f"deltas must be strictly decreasing, got {deltas}")
    if h > min(deltas) / 8.0 + 1e-12:
        raise ValidationError(
            f"h must satisfy h <= min(deltas)/8: h={h!r}, min(deltas)/8={min(deltas) / 8.0!r}"
        )
    bc = BoundaryCondition(bc)
    ghost = max(deltas) if bc is BoundaryCondition.DIRICHLET else 0.0
    grid = build_grid(domain, h, ghost_width=ghost)
    u0 = field_from_function(grid, initial_fn)
    u0.values[grid.ghost_mask] = 0.0

    nsteps = int(round(t_final / dt))
    snap_times = [k * dt for k in _uniform_snapshot_steps(nsteps, snapshots)]

    local_op = assemble_local(grid, bc)
    reference = solve(SemilinearProblem(local_op, reaction, u0, 0.0, t_final), dt, snap_times)

    keep = ~grid.ghost_mask
    observed_min = min(float(np.min(st.values[keep])) for st in reference.states)

    def one_delta(delta: float) -> tuple[float, float]:
        op = assemble_nonlocal(grid, profile, delta, bc)
        run = solve(SemilinearProblem(op, reaction, u0.copy(), 0.0, t_final), dt, snap_times)
        err = max(sup_distance(a, b) for a, b in zip(run.states, reference.states))
        low = min(float(np.min(st.values[keep])) for st in run.states)
        return err, low

    results = [one_delta(d) for d in deltas]
    errors = [r[0] for r in results]
    observed_min = min([observed_min] + [r[1] for r in results])
    orders = empirical_orders(deltas, errors)
    rows = [(d, e, p) for d, e, p in zip(deltas, errors, orders)]
    meta = {
        "bc": bc.value,
        "h": h,
        "dt": dt,
        "t_final": t_final,
        "kernel": profile.family,
        "min_nodal_value": observed_min,
    }
    return ConvergenceReport(("delta", "error", "empirical_order"), rows, meta)
