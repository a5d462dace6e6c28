"""Principal growth rates of time-periodic linear dispersal equations.

The object of study is the one-period solution operator ("period map") of

    u_t = (dispersal) u + a(t, x) u,

whose spectral radius equals ``exp(lambda T)`` with ``lambda`` the
principal growth rate being approximated.  The map is realized by operator
splitting: each step multiplies by the exact integrating factor of the
reaction over a half step, applies one trapezoidal step of the dispersal
part, and multiplies by the second half-step factor.  Because the catalog
coefficients carry closed-form time integrals, the reaction contributes no
time-discretization error at all — a space-free coefficient reproduces its
time average to rounding — and the splitting is symmetric, so the dispersal
error stays second order in ``dt``.

``lambda`` is extracted by plain power iteration with sup-norm ratios; the
dominant eigenvector is a positive (Perron) vector, so no shifts or
deflation are needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import log
from typing import Sequence

import numpy as np

from .coefficients import TimePeriodicCoefficient, sup_difference, time_average
from .errors import NoConvergenceError, NumericsError, ValidationError
from .evolution import implicit_solver
from .grids import Field, build_grid, field_from_function, same_grid
from .kernels import KernelProfile
from .operators import (
    BOX,
    NONLOCAL,
    BoundaryCondition,
    DispersalOperator,
    assemble_local,
    assemble_nonlocal,
)
from .reports import ConvergenceReport, empirical_orders


@dataclass(eq=False)
class PeriodMap:
    """One-period solution operator of a linear time-periodic equation."""

    operator: DispersalOperator
    coefficient: TimePeriodicCoefficient
    dt: float
    _solver: object = dataclass_field(default=None, init=False, repr=False)
    _factors: list | None = dataclass_field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        steps = self.period / self.dt
        if abs(steps - round(steps)) > 1e-6 or round(steps) < 1:
            raise ValidationError(
                f"dt={self.dt!r} does not divide the period {self.period!r} into whole steps"
            )

    @property
    def period(self) -> float:
        return self.coefficient.period

    @property
    def steps(self) -> int:
        return int(round(self.period / self.dt))

    def _prepare(self):
        if self._solver is None:
            self._solver = implicit_solver(self.operator, self.dt / 2.0)
            coords = self.operator.grid.coordinates
            factors = []
            for k in range(self.steps):
                t0 = k * self.dt
                mid = t0 + self.dt / 2.0
                t1 = (k + 1) * self.dt
                factors.append(
                    (
                        np.exp(self.coefficient.integral(t0, mid, coords)),
                        np.exp(self.coefficient.integral(mid, t1, coords)),
                    )
                )
            self._factors = factors

    def advance(self, values: np.ndarray) -> np.ndarray:
        """Apply the map to a flat nodal array."""
        self._prepare()
        op = self.operator
        A = op.matrix()
        cm = op.constrained
        u = np.array(values, dtype=float)
        if cm is not None:
            u[cm] = 0.0
        for first, second in self._factors:
            u = u * first
            b = u + (self.dt / 2.0) * (A @ u)
            if cm is not None:
                b[cm] = 0.0
            u = self._solver(b, u)
            if cm is not None:
                u[cm] = 0.0
            u = u * second
        return u


def apply_period_map(period_map: PeriodMap, u0: Field) -> Field:
    """Integrate the linear problem over one period from ``u0``."""
    if not same_grid(u0.grid, period_map.operator.grid):
        raise ValidationError("grid mismatch: field does not live on the map's grid")
    return Field(u0.grid, period_map.advance(u0.values), u0.time + period_map.period)


@dataclass
class SpectrumResult:
    """Outcome of one principal-growth-rate computation.

    ``value`` is the growth rate; ``eigenfunction`` the normalized Perron
    vector; ``residual`` measures ``|map(u) - ratio * u|`` at convergence.
    ``is_principal_eigenvalue`` reports the existence test for the jump
    operator's principal eigenvalue and is ``None`` for the local kind.
    """

    value: float
    eigenfunction: Field
    iterations: int
    residual: float
    is_principal_eigenvalue: bool | None


def default_start(op: DispersalOperator) -> Field:
    """Positive start vector: constant, or an interior bump when pinned.

    After hostile-exterior elimination the constant vector has a large
    component outside the Perron cone's useful part; a product-of-sines
    bump that vanishes at the pinned nodes converges noticeably faster.
    """
    grid = op.grid
    if op.bc is BoundaryCondition.DIRICHLET and grid.domain.kind == BOX:

        def bump(*cols):
            out = np.ones_like(cols[0])
            for lo, up, x in zip(grid.domain.lower, grid.domain.upper, cols):
                out = out * np.maximum(np.sin(np.pi * (x - lo) / (up - lo)), 0.0)
            return out

        start = field_from_function(grid, bump)
        start.values[grid.ghost_mask] = 0.0
    else:
        start = Field(grid, np.ones(grid.num_nodes))
    cm = op.constrained
    if cm is not None:
        start.values[cm] = 0.0
    return start


def principal_value(
    period_map: PeriodMap,
    tol: float = 1e-9,
    max_iterations: int = 20000,
    start: Field | None = None,
) -> SpectrumResult:
    """Dominant growth rate of the period map by power iteration.

    Ratios are sup norms of successive images; the iteration stops when two
    consecutive ratios differ by less than ``tol`` and the eigen-residual
    ``max |image - ratio * u|`` is itself below ``tol`` (the iterate has
    sup norm one), and the growth rate is ``log(ratio) / period``.
    """
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    op = period_map.operator
    if start is None:
        start = default_start(op)
    elif not same_grid(start.grid, op.grid):
        raise ValidationError("grid mismatch: start field lives on a different grid")
    u = np.array(start.values, dtype=float)
    if op.constrained is not None:
        u[op.constrained] = 0.0
    peak = float(np.max(np.abs(u)))
    if peak == 0.0:
        raise ValidationError("start field is identically zero")
    u /= peak
    previous_ratio = None
    for iteration in range(1, max_iterations + 1):
        image = period_map.advance(u)
        ratio = float(np.max(np.abs(image)))
        if ratio == 0.0 or not np.isfinite(ratio):
            raise NumericsError(f"period map produced a degenerate image (ratio {ratio!r})")
        if previous_ratio is not None and abs(ratio - previous_ratio) < tol:
            residual = float(np.max(np.abs(image - ratio * u)))
            if residual < tol:
                eigenfunction = Field(op.grid, image / ratio)
                value = log(ratio) / period_map.period
                flag = None
                if op.kind == NONLOCAL:
                    flag = principal_eigenvalue_criterion(period_map, value)
                return SpectrumResult(value, eigenfunction, iteration, residual, flag)
        previous_ratio = ratio
        u = image / ratio
    raise NoConvergenceError(
        f"power iteration did not settle in {max_iterations} iterations; last ratio {previous_ratio!r}"
    )


def principal_eigenvalue_criterion(period_map: PeriodMap, value: float) -> bool:
    """Existence test for a true principal eigenvalue of the jump operator.

    The dominant growth rate is a genuine principal eigenvalue exactly when
    it strictly exceeds ``max_x (-(jump rate at x) + time-average of a)``.
    The jump rate is read from the assembled matrix (minus its diagonal), so
    the test uses the rate the discrete operator carries, including the
    in-box rate of the neumann closure that falls towards the faces; the
    time average is taken by a 512-panel trapezoid rule.
    """
    op = period_map.operator
    if op.kind != NONLOCAL:
        raise ValidationError("the existence criterion applies to the nonlocal kind only")
    grid = op.grid
    averages = time_average(period_map.coefficient, grid.coordinates, panels=512)
    keep = ~grid.ghost_mask
    threshold = float(np.max(op.matrix().diagonal()[keep] + averages[keep]))
    return bool(value > threshold)


def perturbation_check(map1: PeriodMap, map2: PeriodMap, tol: float) -> bool:
    """Verify the growth-rate gap is bounded by the coefficient gap.

    Computes both principal values and the sup distance of the coefficients
    over a 512-sample time lattice on all nodes, and checks
    ``|lambda1 - lambda2| <= sup-distance + tol``.
    """
    if map1.operator.kind != map2.operator.kind or map1.operator.bc is not map2.operator.bc:
        raise ValidationError("mismatched maps: operator kind or boundary condition differ")
    if not same_grid(map1.operator.grid, map2.operator.grid):
        raise ValidationError("mismatched maps: grids differ")
    if map1.period != map2.period:
        raise ValidationError("mismatched maps: periods differ")
    coords = map1.operator.grid.coordinates
    bound = sup_difference(map1.coefficient, map2.coefficient, coords, samples=512)
    lam1 = principal_value(map1).value
    lam2 = principal_value(map2).value
    return abs(lam1 - lam2) <= bound + tol


def spectrum_convergence_experiment(
    domain,
    bc: BoundaryCondition,
    coefficient: TimePeriodicCoefficient,
    profile: KernelProfile,
    deltas: Sequence[float],
    h: float,
    dt: float,
    tol: float = 1e-9,
) -> ConvergenceReport:
    """Sweep the kernel radius and compare growth rates against the Laplacian.

    One row per radius: the nonlocal rate, the shared local reference rate,
    their absolute gap, and the principal-eigenvalue existence flag.
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
    local_map = PeriodMap(assemble_local(grid, bc), coefficient, dt)
    lambda_local = principal_value(local_map, tol=tol).value

    def one_delta(delta: float):
        op = assemble_nonlocal(grid, profile, delta, bc)
        result = principal_value(PeriodMap(op, coefficient, dt), tol=tol)
        return result.value, result.is_principal_eigenvalue

    results = [one_delta(d) for d in deltas]

    gaps = [abs(lam - lambda_local) for lam, _ in results]
    rows = [
        (d, lam, lambda_local, gap, flag)
        for d, (lam, flag), gap in zip(deltas, results, gaps)
    ]
    meta = {
        "bc": bc.value,
        "h": h,
        "dt": dt,
        "coefficient": coefficient.description,
        "kernel": profile.family,
        "gap_orders": empirical_orders(deltas, gaps),
    }
    return ConvergenceReport(
        ("delta", "lambda_delta", "lambda_r", "abs_gap", "pev_criterion"), rows, meta
    )
