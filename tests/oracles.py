"""Test-only reference code: what the suite checks the package against.

None of this runs in the CLI.  The offset-difference action is placed
apart from the operator's stencil table (``np.roll`` of the node numbers
on cells, face slices on boxes), so a test that pins the matrix, the
Fourier symbol or a solve against it catches a placement fault in the
table.  The continuum kernel is here too: the package samples only the
kernel's shape, so the unit-mass normalization, the rate constant ``C``
(the reciprocal half second moment) and the moments are found here by
composite Gauss-Legendre quadrature of the radial profile, and
:func:`continuum_offsets` rebuilds the stencil from them as the paper
writes the jump operator.  The other oracles are the consistency probe
(criterion 3), the perturbation bound (criterion 7) and the comparison
check (criterion 9), with the small helpers only tests call.  Those that
compare raise :class:`dispersal.ValidationError` on mismatched inputs, and
:func:`moment_constant` raises :class:`QuadratureFailureError` when the
mass misses one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dispersal.coefficients import TimePeriodicCoefficient
from dispersal.errors import NumericsError, ValidationError
from dispersal.evolution import Trajectory, linear_step
from dispersal.grids import BOX, Field, Grid, same_grid
from dispersal.kernels import QUARTIC, KernelProfile, _radial_shape, scaled_kernel
from dispersal.kpp import KPPProblem
from dispersal.operators import LOCAL, NONLOCAL, BoundaryCondition, DispersalOperator
from dispersal.spectral import PeriodMap, principal_value


# ---------------------------------------------------------------------- #
# the reference action                                                    #
# ---------------------------------------------------------------------- #


def reference_batches(op: DispersalOperator):
    """Yield ``(rows, cols, weight)`` per stencil offset, placed apart from the operator.

    Each offset by ``np.roll`` of the node numbers on cells and by slices
    clipped at the faces on boxes, where under the hostile closure the
    nodes whose jump leaves the box land on the exterior, column
    ``num_nodes``, which :func:`difference_action` holds at zero.  The
    local hostile Laplacian reads the ghost value ``-u`` there instead:
    ``w (-u - u) = 2 w (0 - u)``, so such a jump carries twice its weight
    (an array over ``rows``).
    """
    shape = op.grid.shape
    index = np.arange(op.grid.num_nodes).reshape(shape)
    for offset, weight in op.offsets:
        if op.bc is BoundaryCondition.PERIODIC:
            cols = np.roll(index, [-o for o in offset], axis=tuple(range(len(shape))))
            yield index.ravel(), cols.ravel(), weight
            continue
        rows = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, shape))
        cols = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(offset, shape))
        if op.bc is BoundaryCondition.DIRICHLET:
            reached = np.full(shape, op.grid.num_nodes)  # the exterior
            reached[rows] = index[cols]
            ghost = op.kind == LOCAL and reached.ravel() == op.grid.num_nodes
            yield index.ravel(), reached.ravel(), np.where(ghost, 2.0 * weight, weight)
        else:
            yield index[rows].ravel(), index[cols].ravel(), weight


def difference_action(op: DispersalOperator, values) -> np.ndarray:
    """``sum_o w_o (u_{i+o} - u_i)`` on a flat nodal array, from :func:`reference_batches`.

    The exterior of a hostile box is read as zero (as ``-u`` by the local
    Laplacian, through its doubled weight).  Each node sums its terms in
    the order of the offsets, so constants annihilate bitwise under
    reflecting and wrapping closures.
    """
    u = np.append(np.asarray(values, dtype=float), 0.0)
    action = np.zeros(op.grid.num_nodes)
    for rows, cols, weight in reference_batches(op):
        action[rows] += weight * (u[cols] - u[rows])
    return action


# ---------------------------------------------------------------------- #
# the continuum kernel                                                    #
# ---------------------------------------------------------------------- #

#: Radial quadrature panels (node spacing 1/512 of the support radius;
#: four Gauss nodes per panel, strictly inside it, so the mollifier is
#: never evaluated at the edge of its support).
PANELS = 512

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


class QuadratureFailureError(NumericsError):
    """Kernel quadrature lost normalization beyond the allowed tolerance."""


def _radial_moment(family: str, power: int, panels: int) -> float:
    """Integral of ``r**power * shape(r)`` over ``[0, 1]`` by composite Gauss-Legendre."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    weights = np.broadcast_to(half * _GL_WEIGHTS, (panels, 4)).ravel()
    values = nodes**power * _radial_shape(family, nodes)
    return float(np.dot(weights, values))


def _unnormalized_mass(profile: KernelProfile, panels: int) -> float:
    if profile.dimension == 1:
        return 2.0 * _radial_moment(profile.family, 0, panels)
    return 2.0 * math.pi * _radial_moment(profile.family, 1, panels)


def normalization(profile: KernelProfile, panels: int = PANELS) -> float:
    """Multiplier that gives the shape unit mass.

    Closed form for the quartic family (``15/16`` in one dimension,
    ``3/pi`` in two); by quadrature on ``panels`` panels for the mollifier.
    """
    if profile.family == QUARTIC:
        return 15.0 / 16.0 if profile.dimension == 1 else 3.0 / math.pi
    return 1.0 / _unnormalized_mass(profile, panels)


def kernel_mass(
    profile: KernelProfile, norm: float | None = None, panels: int = PANELS
) -> float:
    """Total mass of the shape times ``norm`` (its :func:`normalization` by default)."""
    norm = normalization(profile, panels) if norm is None else norm
    return norm * _unnormalized_mass(profile, panels)


def second_moment(
    profile: KernelProfile, norm: float | None = None, panels: int = PANELS
) -> float:
    """Integral of ``k0(z) * z_N**2`` for the shape times ``norm`` (unit mass by default)."""
    norm = normalization(profile, panels) if norm is None else norm
    if profile.dimension == 1:
        raw = 2.0 * _radial_moment(profile.family, 2, panels)
    else:
        # In polar coordinates z_N = r sin(theta) and the angular integral of
        # sin(theta)**2 over a full turn is pi.
        raw = math.pi * _radial_moment(profile.family, 3, panels)
    return norm * raw


def moment_constant(
    profile: KernelProfile, norm: float | None = None, panels: int = PANELS
) -> float:
    """The reciprocal half second moment ``C`` of the shape times ``norm``.

    Raises
    ------
    QuadratureFailureError
        If the mass of the shape times ``norm`` deviates from one by more
        than ``1e-8``, which signals that either the normalization or the
        profile's quadrature resolution is untrustworthy.
    """
    norm = normalization(profile, panels) if norm is None else norm
    mass = kernel_mass(profile, norm, panels)
    if abs(mass - 1.0) > 1e-8:
        raise QuadratureFailureError(
            f"kernel mass {mass!r} deviates from 1 by {abs(mass - 1.0):.3e} "
            f"(family={profile.family}, dimension={profile.dimension}, panels={panels})"
        )
    return 2.0 / second_moment(profile, norm, panels)


def dispersal_rate(profile: KernelProfile, delta: float) -> float:
    """The rate ``C / delta**2`` pairing with kernel radius ``delta``."""
    return moment_constant(profile) / (delta * delta)


def continuum_kernel(profile: KernelProfile, delta: float, displacement) -> np.ndarray | float:
    """The unit-mass kernel of radius ``delta``: ``delta**-N * k0(displacement / delta)``."""
    shape = scaled_kernel(profile, delta, displacement)
    return delta ** (-profile.dimension) * (normalization(profile) * shape)


def continuum_offsets(grid: Grid, profile: KernelProfile, delta: float):
    """The jump operator's stencil as the continuum writes it, moment-matched.

    Each offset ``o`` within reach of ``delta`` carries the rate
    ``C / delta**2`` times the cell weight ``h**N`` times the unit-mass
    kernel at ``o h``; those with positive weight are kept and all are
    scaled by the one factor that makes ``sum_o w_o (o_0 h)**2 == 2``.
    """
    h, dim = grid.h, grid.dimension
    reach = int(math.floor(delta / h + 1e-12))
    stencil = [o for o in itertools.product(range(-reach, reach + 1), repeat=dim) if any(o)]
    points = np.array(stencil, dtype=float) * h
    k = continuum_kernel(profile, delta, points[:, 0] if dim == 1 else points)
    weights = (dispersal_rate(profile, delta) * h**dim * k).tolist()
    offsets = [(o, w) for o, w in zip(stencil, weights) if w > 0.0]
    scale = 2.0 / math.fsum(w * (o[0] * h) ** 2 for o, w in offsets)
    return [(o, w * scale) for o, w in offsets]


# ---------------------------------------------------------------------- #
# consistency with the Laplacian (criterion 3)                            #
# ---------------------------------------------------------------------- #


def boundary_distance(grid: Grid) -> np.ndarray:
    """Distance from each node to the box boundary.

    Periodic cells have no boundary; every node reports ``+inf``.
    """
    if grid.domain.kind != BOX:
        return np.full(grid.num_nodes, math.inf)
    dist = np.full(grid.num_nodes, math.inf)
    for lo, up, x in zip(grid.domain.lower, grid.domain.upper, grid.coordinates):
        dist = np.minimum(dist, np.minimum(x - lo, up - x))
    return dist


def consistency_error(
    nonlocal_op: DispersalOperator, local_op: DispersalOperator, test_field: Field
) -> float:
    """Sup difference of the two actions away from the boundary collar.

    Nodes within ``delta`` of the box boundary are excluded: there the jump
    operator feels the closure (a mass-deficit layer of its own scale) and
    the two kinds legitimately differ at order one.
    """
    if nonlocal_op.kind != NONLOCAL or local_op.kind != LOCAL:
        raise ValidationError("mismatched operators: expected (nonlocal, local) in that order")
    if nonlocal_op.bc is not local_op.bc:
        raise ValidationError("mismatched operators: boundary conditions differ")
    if not same_grid(nonlocal_op.grid, local_op.grid):
        raise ValidationError("mismatched operators: grids differ")
    if not same_grid(test_field.grid, nonlocal_op.grid):
        raise ValidationError("grid mismatch: test field lives on a different grid")
    grid = nonlocal_op.grid
    u = test_field.values
    gap = difference_action(nonlocal_op, u) - difference_action(local_op, u)
    keep = boundary_distance(grid) > nonlocal_op.delta
    if not np.any(keep):
        raise ValidationError(
            f"no nodes lie farther than delta={nonlocal_op.delta!r} from the boundary"
        )
    return float(np.max(np.abs(gap[keep])))


# ---------------------------------------------------------------------- #
# growth rates under shifted coefficients (criterion 7)                   #
# ---------------------------------------------------------------------- #


def shift_coefficient(a: TimePeriodicCoefficient, c: float) -> TimePeriodicCoefficient:
    """The coefficient ``a + c`` with the same period."""
    c = float(c)
    return TimePeriodicCoefficient(
        period=a.period,
        evaluate=lambda t, coords: a.evaluate(t, coords) + c,
        integral=lambda t0, t1, coords: a.integral(t0, t1, coords) + c * (t1 - t0),
        description=f"{a.description}+{c!r}",
    )


def sup_difference(
    a1: TimePeriodicCoefficient, a2: TimePeriodicCoefficient, coords
) -> float:
    """Max of ``|a1 - a2|`` over a lattice of 513 times (period ends included) by all nodes."""
    if a1.period != a2.period:
        raise ValidationError("coefficients must share a period to be compared")
    worst = 0.0
    for t in np.linspace(0.0, a1.period, 513):
        gap = np.max(np.abs(a1.evaluate(float(t), coords) - a2.evaluate(float(t), coords)))
        worst = max(worst, float(gap))
    return worst


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
    bound = sup_difference(map1.coefficient, map2.coefficient, coords)
    lam1 = principal_value(map1).value
    lam2 = principal_value(map2).value
    return abs(lam1 - lam2) <= bound + tol


# ---------------------------------------------------------------------- #
# order preservation (criterion 9)                                        #
# ---------------------------------------------------------------------- #


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
        if np.any(lo.values > up.values + tol):
            return False
    return True


# ---------------------------------------------------------------------- #
# fields and period maps                                                  #
# ---------------------------------------------------------------------- #


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.num_nodes, float(value)))


def read_field_csv(grid: Grid, path, time: float = 0.0) -> Field:
    """Load a field written by :func:`dispersal.grids.write_field_csv` back onto ``grid``."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (grid.num_nodes, grid.dimension + 1):
        raise ValidationError(
            f"file {path} holds {data.shape} values; grid expects {grid.num_nodes} rows"
        )
    for axis in range(grid.dimension):
        if np.max(np.abs(data[:, axis] - grid.coordinates[axis])) > 1e-12:
            raise ValidationError(f"file {path} was written on a different grid (axis {axis} mismatch)")
    return Field(grid, data[:, -1], time)


def apply_period_map(period_map: PeriodMap, u0: Field) -> Field:
    """Integrate the linear problem over one period from ``u0``."""
    if not same_grid(u0.grid, period_map.operator.grid):
        raise ValidationError("grid mismatch: field does not live on the map's grid")
    return Field(u0.grid, period_map.advance(u0.values), u0.time + period_map.period)


def advance_periods(problem: KPPProblem, values: np.ndarray, periods: int) -> np.ndarray:
    """Apply the nonlinear period map ``periods`` times (stability probes)."""
    step = linear_step(problem.operator, problem.dt)
    u = np.array(values, dtype=float).reshape(1, -1)
    for _ in range(periods):
        u = problem.one_period(u, step)[0]
    return u[0]
