"""Sparse dispersal operators: nonlocal jump kernels and discrete Laplacians.

Both operator kinds are realized as sums of offset differences

    (A u)_i  =  sum_o  w_o * (u_{i+o} - u_i)

over a fixed stencil of integer grid offsets ``o`` with nonnegative weights
``w_o``.  Writing the action as differences (rather than as a matrix row
times a vector) makes constant fields annihilate bitwise under reflecting
(neumann) and wrapping (periodic) closures, which several structural tests
rely on.  A compressed-sparse-row matrix with the same action (constants
map to values at rounding level) backs the implicit time steppers.

The nonlocal kind quadratures the jump integral at the grid nodes with
uniform weights ``h**N`` and then scales every weight by one common factor,
so that the stencil's discrete second moment ``sum_o w_o (o_0 h)**2`` equals
the continuum value 2 (the moment-matched quadrature of Tian & Du, SIAM J.
Numer. Anal. 52, 2014).  Plain nodal weights miss that moment by an amount
that grows as ``delta/h`` shrinks, so at a fixed spacing the operator would
tend to a Laplacian with the wrong rate as the radius closes; matching the
moment makes it agree with ``u''`` on quadratics at every resolved radius.
Scaling by one factor keeps the assembled matrix exactly symmetric and its
off-diagonal entries nonnegative.  The boundary closure
follows the habitat type: hostile exterior (``dirichlet``, jumps into a
zero-valued ghost band are pure loss), reflecting budget (``neumann``,
integration restricted to the closed box), or wrapping (``periodic``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sparse

from .errors import ValidationError
from .grids import BOX, PERIODIC_CELL, Field, Grid, same_grid
from .kernels import KernelProfile, dispersal_rate, scaled_kernel

NONLOCAL = "nonlocal"
LOCAL = "local"


class BoundaryCondition(str, enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    PERIODIC = "periodic"


def parse_boundary_condition(text: str) -> BoundaryCondition:
    try:
        return BoundaryCondition(text)
    except ValueError:
        raise ValidationError(
            f"unknown boundary condition {text!r}; expected one of "
            f"{[bc.value for bc in BoundaryCondition]}"
        ) from None


Offset = tuple[int, ...]


@dataclass(eq=False)
class DispersalOperator:
    """Assembled linear action of one dispersal operator on one grid.

    ``offsets`` pairs each stencil offset with its weight.  ``constrained``
    marks nodes whose values are pinned to zero (hostile-exterior ghosts,
    and for the local kind also the box boundary itself); constrained rows
    of the action are zero and constrained columns never contribute.
    ``mirror`` marks the reflecting closure of the local kind, which doubles
    the inward weight on the box faces.
    """

    kind: str
    bc: BoundaryCondition
    grid: Grid
    offsets: tuple[tuple[Offset, float], ...]
    constrained: np.ndarray | None = None
    delta: float | None = None
    nu: float | None = None
    mirror: bool = False
    _matrix: sparse.csr_matrix | None = dataclass_field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------ #
    # application                                                         #
    # ------------------------------------------------------------------ #

    def constrained_mask(self) -> np.ndarray:
        if self.constrained is None:
            return np.zeros(self.grid.num_nodes, dtype=bool)
        return self.constrained

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Offset-difference action on a flat nodal array."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.grid.num_nodes,):
            raise ValidationError(
                f"operator expects {self.grid.num_nodes} nodal values, got shape {values.shape}"
            )
        if self.constrained is not None:
            work = np.where(self.constrained, 0.0, values)
        else:
            work = values
        shape = self.grid.shape
        u = work.reshape(shape)
        out = np.zeros_like(u)
        for offset, weight in self.offsets:
            if self.bc is BoundaryCondition.PERIODIC:
                shifted = np.roll(u, tuple(-o for o in offset), axis=tuple(range(len(shape))))
                out += weight * (shifted - u)
            else:
                row_slices = []
                target_slices = []
                for o, n in zip(offset, shape):
                    a, b = max(0, -o), n - max(0, o)
                    row_slices.append(slice(a, b))
                    target_slices.append(slice(a + o, b + o))
                rows = tuple(row_slices)
                out[rows] += weight * (u[tuple(target_slices)] - u[rows])
        if self.mirror:
            self._add_mirror_terms(u, out)
        flat = out.ravel()
        if self.constrained is not None:
            flat = np.where(self.constrained, 0.0, flat)
        return flat

    def _add_mirror_terms(self, u: np.ndarray, out: np.ndarray) -> None:
        # Reflecting closure: the missing exterior neighbor of a face node is
        # its interior neighbor, so the inward difference enters twice.
        weight = 1.0 / (self.grid.h * self.grid.h)
        dim = len(self.grid.shape)
        for axis, n in enumerate(self.grid.shape):
            lo = [slice(None)] * dim
            lo_in = [slice(None)] * dim
            lo[axis], lo_in[axis] = 0, 1
            out[tuple(lo)] += weight * (u[tuple(lo_in)] - u[tuple(lo)])
            hi = [slice(None)] * dim
            hi_in = [slice(None)] * dim
            hi[axis], hi_in[axis] = n - 1, n - 2
            out[tuple(hi)] += weight * (u[tuple(hi_in)] - u[tuple(hi)])

    # ------------------------------------------------------------------ #
    # matrix form                                                         #
    # ------------------------------------------------------------------ #

    def _entry_batches(self):
        """Yield (rows, cols, weight) for every stencil interaction."""
        shape = self.grid.shape
        axis_indices = [np.arange(n) for n in shape]
        for offset, weight in self.offsets:
            if self.bc is BoundaryCondition.PERIODIC:
                per_axis_rows = axis_indices
                per_axis_cols = [(idx + o) % n for idx, o, n in zip(axis_indices, offset, shape)]
            else:
                per_axis_rows = []
                per_axis_cols = []
                for idx, o, n in zip(axis_indices, offset, shape):
                    a, b = max(0, -o), n - max(0, o)
                    per_axis_rows.append(idx[a:b])
                    per_axis_cols.append(idx[a:b] + o)
            yield (_ravel_product(per_axis_rows, shape), _ravel_product(per_axis_cols, shape), weight)
        if self.mirror:
            weight = 1.0 / (self.grid.h * self.grid.h)
            dim = len(shape)
            for axis, n in enumerate(shape):
                for face, inward in ((0, 1), (n - 1, n - 2)):
                    per_axis_rows = [np.arange(m) for m in shape]
                    per_axis_cols = [np.arange(m) for m in shape]
                    per_axis_rows[axis] = np.array([face])
                    per_axis_cols[axis] = np.array([inward])
                    yield (
                        _ravel_product(per_axis_rows, shape),
                        _ravel_product(per_axis_cols, shape),
                        weight,
                    )

    def matrix(self) -> sparse.csr_matrix:
        """CSR form of the action (cached)."""
        if self._matrix is None:
            n = self.grid.num_nodes
            loss = np.zeros(n)
            rows_all, cols_all, vals_all = [], [], []
            for rows, cols, weight in self._entry_batches():
                if self.constrained is not None:
                    keep = ~self.constrained[rows]
                    rows, cols = rows[keep], cols[keep]
                loss[rows] += weight
                if self.constrained is not None:
                    keep = ~self.constrained[cols]
                    rows, cols = rows[keep], cols[keep]
                rows_all.append(rows)
                cols_all.append(cols)
                vals_all.append(np.full(rows.size, weight))
            coupling = sparse.coo_matrix(
                (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
                shape=(n, n),
            ).tocsr()
            self._matrix = (coupling - sparse.diags(loss)).tocsr()
        return self._matrix

    def max_row_entries(self) -> int:
        m = self.matrix()
        return int(np.max(np.diff(m.indptr)))


def _ravel_product(per_axis: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Flat C-order indices of the tensor product of per-axis index sets."""
    if len(shape) == 1:
        return per_axis[0]
    grids = np.meshgrid(*per_axis, indexing="ij")
    flat = grids[0]
    for axis in range(1, len(shape)):
        flat = flat * shape[axis] + grids[axis]
    return flat.ravel()


# ---------------------------------------------------------------------- #
# assembly                                                                #
# ---------------------------------------------------------------------- #


def _require_domain(grid: Grid, bc: BoundaryCondition) -> None:
    if bc is BoundaryCondition.PERIODIC and grid.domain.kind != PERIODIC_CELL:
        raise ValidationError("periodic operators need a periodic-cell domain")
    if bc is not BoundaryCondition.PERIODIC and grid.domain.kind != BOX:
        raise ValidationError(f"{bc.value} operators need a bounded box domain")
    if bc is not BoundaryCondition.DIRICHLET and grid.ghost_cells != 0:
        raise ValidationError(
            "ghost bands are reserved for hostile-exterior (dirichlet) operators; "
            f"got ghost_cells={grid.ghost_cells} with bc={bc.value}"
        )


def _box_boundary_mask(grid: Grid) -> np.ndarray:
    """Nodes on the box boundary (the physical faces, not the ghosts)."""
    g = grid.ghost_cells
    mask = np.zeros(grid.shape, dtype=bool)
    dim = len(grid.shape)
    for axis, n in enumerate(grid.shape):
        idx = [slice(None)] * dim
        idx[axis] = g
        mask[tuple(idx)] = True
        idx[axis] = n - 1 - g
        mask[tuple(idx)] = True
    flat = mask.ravel()
    return flat & ~grid.ghost_mask


def assemble_nonlocal(
    grid: Grid, profile: KernelProfile, delta: float, bc: BoundaryCondition
) -> DispersalOperator:
    """Assemble the jump operator with kernel radius ``delta`` on ``grid``.

    The weights are the nodal values ``nu * h**N * k_delta(o h)`` scaled by
    one common factor so that ``sum_o w_o (o_a h)**2 == 2`` along every axis
    (the radial kernel makes the axes agree).  Requires at least four grid
    cells per kernel radius (below that too few nodes sample the kernel's
    profile for the moment-matched operator to approximate the jump
    integral), and for the hostile-exterior closure a ghost band at least
    ``delta`` wide.
    """
    bc = parse_boundary_condition(bc)
    _require_domain(grid, bc)
    if profile.dimension != grid.dimension:
        raise ValidationError(
            f"kernel dimension {profile.dimension} does not match grid dimension {grid.dimension}"
        )
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    h = grid.h
    if delta / h < 4.0 - 1e-12:
        raise ValidationError(
            f"support unresolved: delta/h = {delta / h:.3f} < 4; "
            "refine the grid or enlarge delta"
        )
    if bc is BoundaryCondition.DIRICHLET and grid.ghost_cells * h < delta - 1e-12:
        raise ValidationError(
            f"ghost band too narrow: width {grid.ghost_cells * h!r} < delta {delta!r}"
        )
    if bc is BoundaryCondition.PERIODIC:
        half = min(grid.domain.periods) / 2.0
        if delta > half + 1e-12:
            raise ValidationError(
                f"delta {delta!r} exceeds half the smallest period {half!r}; "
                "the wrapped kernel would overlap itself"
            )
    nu = dispersal_rate(profile.moment_constant, delta)
    reach = int(math.floor(delta / h + 1e-12))
    cell_weight = h**grid.dimension
    offsets: list[tuple[Offset, float]] = []
    if grid.dimension == 1:
        for o in range(-reach, reach + 1):
            if o == 0:
                continue
            w = nu * cell_weight * float(scaled_kernel(profile, delta, o * h))
            if w > 0.0:
                offsets.append(((o,), w))
    else:
        for o0 in range(-reach, reach + 1):
            for o1 in range(-reach, reach + 1):
                if o0 == 0 and o1 == 0:
                    continue
                w = nu * cell_weight * float(
                    scaled_kernel(profile, delta, np.array([o0 * h, o1 * h]))
                )
                if w > 0.0:
                    offsets.append(((o0, o1), w))
    # One factor for all offsets: o and -o stay bitwise equal, so symmetry
    # and the exact annihilation of constants survive the rescale.
    scale = 2.0 / math.fsum(w * (o[0] * h) ** 2 for o, w in offsets)
    offsets = [(o, w * scale) for o, w in offsets]
    constrained = grid.ghost_mask.copy() if bc is BoundaryCondition.DIRICHLET else None
    return DispersalOperator(
        kind=NONLOCAL,
        bc=bc,
        grid=grid,
        offsets=tuple(offsets),
        constrained=constrained,
        delta=float(delta),
        nu=float(nu),
    )


def assemble_local(grid: Grid, bc: BoundaryCondition) -> DispersalOperator:
    """Assemble the second-order central-difference Laplacian on ``grid``.

    The hostile-exterior closure pins the box boundary nodes to zero; the
    reflecting closure mirrors the stencil at the faces; the periodic
    closure wraps.
    """
    bc = parse_boundary_condition(bc)
    _require_domain(grid, bc)
    g = grid.ghost_cells
    if any(n - 2 * g < 3 for n in grid.shape):
        raise ValidationError(f"too few nodes for a second-difference stencil: shape {grid.shape}")
    weight = 1.0 / (grid.h * grid.h)
    offsets: list[tuple[Offset, float]] = []
    for axis in range(grid.dimension):
        for sign in (-1, 1):
            offset = tuple(sign if a == axis else 0 for a in range(grid.dimension))
            offsets.append((offset, weight))
    constrained = None
    if bc is BoundaryCondition.DIRICHLET:
        constrained = grid.ghost_mask | _box_boundary_mask(grid)
    return DispersalOperator(
        kind=LOCAL,
        bc=bc,
        grid=grid,
        offsets=tuple(offsets),
        constrained=constrained,
        mirror=(bc is BoundaryCondition.NEUMANN),
    )


# ---------------------------------------------------------------------- #
# consistency and dumps                                                   #
# ---------------------------------------------------------------------- #


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
    gap = nonlocal_op.apply(test_field.values) - local_op.apply(test_field.values)
    keep = ~grid.ghost_mask
    if grid.domain.kind == BOX:
        keep &= grid.boundary_distance() > nonlocal_op.delta
    if not np.any(keep):
        raise ValidationError(
            f"no nodes lie farther than delta={nonlocal_op.delta!r} from the boundary"
        )
    return float(np.max(np.abs(gap[keep])))


def dump_coo(op: DispersalOperator, path) -> None:
    """Write the matrix as ``row col value`` lines, sorted by row then column."""
    m = op.matrix().tocoo()
    order = np.lexsort((m.col, m.row))
    with open(path, "w", encoding="ascii") as handle:
        for r, c, v in zip(m.row[order], m.col[order], m.data[order]):
            handle.write(f"{int(r)} {int(c)} {float(v)!r}\n")
