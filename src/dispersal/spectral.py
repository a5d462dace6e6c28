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
error stays second order in ``dt``.  The dispersal step is the
Crank–Nicolson step of :class:`dispersal.evolution.LinearStep`; on periodic
closures it forms the explicit half step, the warm-start test and the
solve from one forward transform of the field and returns it with one
inverse transform, two transforms per step.

``lambda`` is extracted by plain power iteration with sup-norm ratios (a
radius sweep iterates one map over its operators, one row each); the dominant
eigenvector is a positive (Perron) vector, so no shifts or deflation are needed.
The stopping test is relative to the ratio, about ``exp(lambda T)``, so a
constant added to the coefficient shifts ``lambda`` but not the iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property
from math import log
from typing import Sequence

import numpy as np

from .coefficients import TimePeriodicCoefficient, time_average
from .errors import NoConvergenceError, NumericsError, ValidationError
from .evolution import LinearStep, linear_step, whole_steps
from .grids import Field, field_from_function, same_grid
from .kernels import KernelProfile
from .operators import NONLOCAL, BoundaryCondition, DispersalOperator, sweep_operators
from .reports import ConvergenceReport, empirical_orders


@dataclass(eq=False)
class PeriodMap:
    """One-period solution operator of a linear time-periodic equation."""

    operator: DispersalOperator
    coefficient: TimePeriodicCoefficient
    dt: float
    steps: int = dataclass_field(init=False)

    def __post_init__(self):
        self.steps = whole_steps(self.period, self.dt)

    @property
    def period(self) -> float:
        return self.coefficient.period

    @cached_property
    def _factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        x, dt, integral = self.operator.grid.coordinates, self.dt, self.coefficient.integral
        ends = [(k * dt, k * dt + dt / 2.0, (k + 1) * dt) for k in range(self.steps)]
        return [(np.exp(integral(a, m, x)), np.exp(integral(m, b, x))) for a, m, b in ends]

    def advance(self, values: np.ndarray) -> np.ndarray:
        """Apply the map to a flat nodal array."""
        step = linear_step(self.operator, self.dt / 2.0)
        return self._advance(np.array(values, dtype=float).reshape(1, -1), step)[0]

    def _advance(self, rows: np.ndarray, step: LinearStep) -> np.ndarray:
        """Apply the map to ``rows`` through ``step``, which may give each row its own operator."""
        for first, second in self._factors:
            rows = step.crank_nicolson(rows * first) * second
        return rows


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
    """Positive start vector: constant, or on a hostile box the product of sines.

    The sines, ``sin(pi (x - lower) / (upper - lower))`` per axis, fall to
    the faces as the principal eigenfunction does, so power iteration
    converges noticeably faster from them than from the constant.
    """
    grid = op.grid
    if op.bc is BoundaryCondition.DIRICHLET:

        def bump(*cols):
            out = np.ones_like(cols[0])
            for lo, up, x in zip(grid.domain.lower, grid.domain.upper, cols):
                out = out * np.sin(np.pi * (x - lo) / (up - lo))
            return out

        return field_from_function(grid, bump)
    return Field(grid, np.ones(grid.num_nodes))


def principal_value(
    period_map: PeriodMap,
    tol: float = 1e-9,
    max_iterations: int = 20000,
    start: Field | None = None,
) -> SpectrumResult:
    """Dominant growth rate of the period map by power iteration.

    Ratios are sup norms of successive images; the iteration stops when two
    consecutive ratios differ by less than ``tol * ratio`` and the
    eigen-residual ``max |image - ratio * u|`` is below ``tol * ratio`` (the
    iterate has sup norm one; ``residual`` reports it unscaled), and the
    growth rate is ``log(ratio) / period``.  A settled
    iterate with an entry below ``-tol`` is not the positive principal mode
    (Crank–Nicolson's stiffest factors near ``-1`` once ``dt * rate / 2 >> 1``)
    and raises :class:`NumericsError`.  A jump operator's result carries
    :func:`principal_eigenvalue_criterion`.
    """
    starts = None if start is None else [start]
    result = _power_iteration(period_map, [period_map.operator], tol, max_iterations, starts)[0]
    if period_map.operator.kind == NONLOCAL:
        result.is_principal_eigenvalue = principal_eigenvalue_criterion(period_map, result.value)
    return result


def _power_iteration(period_map: PeriodMap, ops, tol: float, max_iterations: int, starts=None):
    """:func:`principal_value` of ``period_map`` with each of ``ops`` in its place, one row each.

    The operators share the map's grid and closure.  A settled row is
    frozen while the others go on; a failed row raises at once.  No row
    gets the existence flag (``is_principal_eigenvalue`` is ``None``).
    """
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iterations < 1:
        raise ValidationError(f"max_iterations must be at least 1, got {max_iterations}")
    if starts is None:
        starts = [default_start(op) for op in ops]
    elif not all(same_grid(start.grid, op.grid) for start, op in zip(starts, ops)):
        raise ValidationError("grid mismatch: start field lives on a different grid")
    step = every = linear_step(ops, period_map.dt / 2.0)
    u = np.array([start.values for start in starts], dtype=float)
    peaks = np.max(np.abs(u), axis=1)
    if not np.all(peaks):
        raise ValidationError("start field is identically zero")
    u /= peaks[:, None]
    results, previous = [None] * len(ops), [None] * len(ops)
    active = list(range(len(ops)))
    for iteration in range(1, max_iterations + 1):
        images = period_map._advance(u[active], step)
        for row, image, ratio in zip(active, images, np.max(np.abs(images), axis=1).tolist()):
            if ratio == 0.0 or not np.isfinite(ratio):
                raise NumericsError(f"period map produced a degenerate image (ratio {ratio!r})")
            if previous[row] is not None and abs(ratio - previous[row]) < tol * ratio:
                residual = float(np.max(np.abs(image - ratio * u[row])))
                if residual < tol * ratio:
                    mode = image / ratio
                    if np.min(mode) < -tol:
                        raise NumericsError(
                            "power iteration settled on a mode that changes sign: the stiffest "
                            f"Crank-Nicolson factors near -1 at dt={period_map.dt!r}; reduce dt"
                        )
                    value = log(ratio) / period_map.period
                    eigenfunction = Field(ops[row].grid, mode)
                    results[row] = SpectrumResult(value, eigenfunction, iteration, residual, None)
                    continue
            previous[row] = ratio
            u[row] = image / ratio
        going = [row for row in active if results[row] is None]
        if not going:
            return results
        if going != active:
            active, step = going, every.select(going)
    raise NoConvergenceError(
        f"power iteration did not settle in {max_iterations} iterations; "
        f"last ratio {previous[active[0]]!r}"
    )


def principal_eigenvalue_criterion(period_map: PeriodMap, value: float) -> bool:
    """Existence test for a true principal eigenvalue of the jump operator.

    The dominant growth rate is a genuine principal eigenvalue exactly when
    it strictly exceeds ``max_x (-(jump rate at x) + time-average of a)``.
    The jump rate is read from the operator's diagonal (the constant
    ``-sum_o w_o`` on periodic closures), so the test uses the rate the
    discrete operator carries, including the in-box rate of the neumann
    closure that falls towards the faces; the time average comes from the
    coefficient's exact integral over one period.
    """
    op = period_map.operator
    if op.kind != NONLOCAL:
        raise ValidationError("the existence criterion applies to the nonlocal kind only")
    averages = time_average(period_map.coefficient, op.grid.coordinates)
    return bool(value > float(np.max(op.diagonal() + averages)))


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
    deltas, local_op, nonlocal_ops = sweep_operators(domain, bc, profile, deltas, h)
    period_map = PeriodMap(local_op, coefficient, dt)
    local, *results = _power_iteration(period_map, [local_op, *nonlocal_ops], tol, 20000)
    lambda_local = local.value
    gaps = [abs(result.value - lambda_local) for result in results]
    own_maps = [PeriodMap(op, coefficient, dt) for op in nonlocal_ops]
    rows = [
        (d, result.value, lambda_local, gap, principal_eigenvalue_criterion(own_map, result.value))
        for d, own_map, result, gap in zip(deltas, own_maps, results, gaps)
    ]
    meta = {
        "bc": local_op.bc.value,
        "h": h,
        "dt": dt,
        "coefficient": coefficient.description,
        "kernel": profile.family,
        "gap_orders": empirical_orders(deltas, gaps),
    }
    return ConvergenceReport(
        ("delta", "lambda_delta", "lambda_r", "abs_gap", "pev_criterion"), rows, meta
    )
