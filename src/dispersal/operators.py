"""Sparse dispersal operators: nonlocal jump kernels and discrete Laplacians.

Both operator kinds are realized as sums of offset differences

    (A u)_i  =  sum_o  w_o * (u_{i+o} - u_i)

over a fixed stencil of integer grid offsets ``o`` with nonnegative weights
``w_o``.  Writing the action as differences (rather than as a matrix row
times a vector) makes constant fields annihilate bitwise under reflecting
(neumann) and wrapping (periodic) closures, which several structural tests
rely on; it is the reference action.  It reads the one walk that places the
stencil on the grid, as the matrix entries do.  The time steppers use a
faster action with the same result up to rounding (see
:mod:`dispersal.evolution`).  On a wrapping habitat the action is a
circular convolution, so it is diagonal in Fourier space: periodic closures
act (and are solved) through their Fourier symbol
(:meth:`DispersalOperator.symbol`) in O(n) memory and never assemble a
matrix.  On a one-dimensional box the action is a band: the stencil
convolved over the free nodes, a diagonal (:meth:`DispersalOperator.diagonal`,
read from the stencil) and the two mirror entries of the reflecting local
closure, which the time steppers apply and solve without a matrix; the face
rows of that solve are :meth:`DispersalOperator.matrix_rows`, the matrix
entries placed by numpy alone.  Only two-dimensional boxes are backed by a
compressed-sparse-row matrix (constants map to values at rounding level),
built by :meth:`DispersalOperator.matrix`, which also serves dumps and
checks; that method is the only place the module imports ``scipy.sparse``,
so a periodic or one-dimensional run never loads scipy.

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
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .grids import BOX, PERIODIC_CELL, Domain, Field, Grid, build_grid, same_grid
from .kernels import KernelProfile, dispersal_rate, scaled_kernel

if TYPE_CHECKING:
    import scipy.sparse as sparse

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
    is a boolean mask of the nodes pinned to zero: the ghost band of the
    hostile exterior, plus the box faces for its local kind (all false
    under the other closures).  Pinned rows of the action are zero and
    pinned columns never contribute.  ``mirror`` marks the reflecting
    closure of the local kind, which doubles the inward weight on the box
    faces.
    """

    kind: str
    bc: BoundaryCondition
    grid: Grid
    offsets: tuple[tuple[Offset, float], ...]
    constrained: np.ndarray
    delta: float | None = None
    nu: float | None = None
    mirror: bool = False
    _matrix: sparse.csr_matrix | None = dataclass_field(default=None, init=False, repr=False)
    _symbol: np.ndarray | None = dataclass_field(default=None, init=False, repr=False)

    # ------------------------------------------------------------------ #
    # application                                                         #
    # ------------------------------------------------------------------ #

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Offset-difference action on a flat nodal array."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.grid.num_nodes,):
            raise ValidationError(
                f"operator expects {self.grid.num_nodes} nodal values, got shape {values.shape}"
            )
        u = np.where(self.constrained, 0.0, values)
        out = np.zeros_like(u)
        for rows, cols, weight in self._entry_batches():
            out[rows] += weight * (u[cols] - u[rows])
        return np.where(self.constrained, 0.0, out)

    @property
    def mirror_weight(self) -> float:
        """Weight of the extra inward entry on each face of the reflecting local closure."""
        return 1.0 / (self.grid.h * self.grid.h)

    def diagonal(self) -> np.ndarray:
        """Diagonal of the action: minus each node's total jump rate.

        Read from the stencil, never from a matrix: the constant
        ``-sum_o w_o`` on periodic closures; on boxes each unpinned node's
        in-box weights, summed in offset order (``0.0`` on pinned nodes).
        :meth:`matrix` takes its diagonal from here.
        """
        if self.bc is BoundaryCondition.PERIODIC:
            return np.full(self.grid.num_nodes, -self.total_weight())
        loss = np.zeros(self.grid.num_nodes)
        for rows, _, weight in self._entry_batches():
            loss[rows] += weight
        loss[self.constrained] = 0.0
        return 0.0 - loss

    def total_weight(self) -> float:
        """Jump rate of a node whose whole stencil lies in the habitat: ``sum_o w_o``.

        Summed in offset order, as :meth:`diagonal` sums each row's loss
        term, so minus it is bitwise the diagonal entry of every such node.
        """
        total = 0.0
        for _, weight in self.offsets:
            total += weight
        return total

    def wrapped_column(self, shape: tuple[int, ...]) -> np.ndarray:
        """First column of the stencil wrapped on a torus of ``shape`` nodes.

        ``w_o`` sits at node ``-o`` (modulo ``shape``) and the self term
        ``-sum_o w_o`` at node 0: the action of a periodic closure, and the
        circulant that the one-dimensional box solves correct at the faces.
        """
        column = np.zeros(shape)
        for offset, weight in self.offsets:
            column[tuple(-o % n for o, n in zip(offset, shape))] += weight
        column[(0,) * len(shape)] -= self.total_weight()
        return column

    def symbol(self) -> np.ndarray:
        """Fourier symbol of a periodic closure (cached): ``rfftn`` of :meth:`wrapped_column`."""
        if self.bc is not BoundaryCondition.PERIODIC:
            raise ValidationError("only periodic closures have a Fourier symbol")
        if self._symbol is None:
            self._symbol = np.fft.rfftn(self.wrapped_column(self.grid.shape))
        return self._symbol

    # ------------------------------------------------------------------ #
    # matrix form                                                         #
    # ------------------------------------------------------------------ #

    def _entry_batches(self):
        """Yield ``(rows, cols, weight)`` for every stencil interaction, pinned nodes included.

        The one placement of the stencil, read by :meth:`apply`, :meth:`diagonal`
        and the matrix entries: wrapped on cells, clipped at box faces, and for
        the reflecting local closure each face layer coupled once more inward.
        """
        shape = self.grid.shape
        index = np.arange(self.grid.num_nodes).reshape(shape)
        for offset, weight in self.offsets:
            if self.bc is BoundaryCondition.PERIODIC:
                cols = np.roll(index, tuple(-o for o in offset), axis=tuple(range(len(shape))))
                yield index.ravel(), cols.ravel(), weight
            else:
                rows = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, shape))
                targets = tuple(slice(r.start + o, r.stop + o) for r, o in zip(rows, offset))
                yield index[rows].ravel(), index[targets].ravel(), weight
        if self.mirror:
            for axis, n in enumerate(shape):
                for face, inward in ((0, 1), (n - 1, n - 2)):
                    face_nodes, inward_nodes = index.take(face, axis), index.take(inward, axis)
                    yield face_nodes.ravel(), inward_nodes.ravel(), self.mirror_weight

    def _matrix_entries(self):
        """Yield ``(rows, cols, values)``: the nonzero diagonal, then the couplings of free nodes."""
        diagonal = self.diagonal()
        nodes = np.flatnonzero(diagonal)
        yield nodes, nodes, diagonal[nodes]
        free = ~self.constrained
        for rows, cols, weight in self._entry_batches():
            keep = free[rows] & free[cols]
            yield rows[keep], cols[keep], np.full(np.count_nonzero(keep), weight)

    def matrix(self) -> sparse.csr_matrix:
        """CSR form of the action (cached); the module's only use of scipy.

        One conversion of :meth:`_matrix_entries`, whose duplicates it sums.
        The time steppers build it for two-dimensional boxes only.
        """
        if self._matrix is None:
            import scipy.sparse as sparse

            n = self.grid.num_nodes
            rows, cols, values = (np.concatenate(part) for part in zip(*self._matrix_entries()))
            self._matrix = sparse.csr_matrix((values, (rows, cols)), shape=(n, n))
        return self._matrix

    def matrix_rows(self, nodes) -> np.ndarray:
        """Dense rows ``nodes`` of :meth:`matrix`, placed from the same entries by numpy alone."""
        nodes = np.asarray(nodes)
        position = np.full(self.grid.num_nodes, -1)
        position[nodes] = np.arange(nodes.size)
        out = np.zeros((nodes.size, self.grid.num_nodes))
        for rows, cols, values in self._matrix_entries():
            at = position[rows]
            keep = at >= 0
            out[at[keep], cols[keep]] += values[keep]  # a batch holds each entry once
        return out


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
    dim = grid.dimension
    cell_weight = h**dim
    stencil = [o for o in itertools.product(range(-reach, reach + 1), repeat=dim) if any(o)]
    points = np.array(stencil, dtype=float) * h
    k = scaled_kernel(profile, delta, points[:, 0] if dim == 1 else points)
    weights = (nu * cell_weight * k).tolist()
    offsets: list[tuple[Offset, float]] = [(o, w) for o, w in zip(stencil, weights) if w > 0.0]
    # One factor for all offsets: o and -o stay bitwise equal, so symmetry
    # and the exact annihilation of constants survive the rescale.
    scale = 2.0 / math.fsum(w * (o[0] * h) ** 2 for o, w in offsets)
    offsets = [(o, w * scale) for o, w in offsets]
    return DispersalOperator(
        kind=NONLOCAL,
        bc=bc,
        grid=grid,
        offsets=tuple(offsets),
        constrained=~grid.inside(0),
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
    return DispersalOperator(
        kind=LOCAL,
        bc=bc,
        grid=grid,
        offsets=tuple(offsets),
        constrained=~grid.inside(1 if bc is BoundaryCondition.DIRICHLET else 0),
        mirror=(bc is BoundaryCondition.NEUMANN),
    )


def nonlocal_grid(domain: Domain, h: float, bc: BoundaryCondition, delta: float) -> Grid:
    """Grid for jump operators of radius up to ``delta`` under closure ``bc``.

    The hostile exterior (``dirichlet``) gets a ghost band ``delta`` wide
    to hold the zero datum that jumps land in; the other closures take none.
    """
    return build_grid(domain, h, ghost_width=delta if bc is BoundaryCondition.DIRICHLET else 0.0)


def sweep_operators(
    domain: Domain, bc: BoundaryCondition, profile: KernelProfile, deltas, h: float
):
    """Set up a kernel-radius sweep: ``(deltas, local_op, nonlocal_ops)``.

    Checks ``deltas`` positive, strictly decreasing and ``h <= min(deltas)/8``
    (every kernel well resolved), builds one grid for the local reference
    and all radii, and returns the radii as floats, the local operator, and
    the list of every radius's operator in order, all assembled at once
    (the sweeps advance them together).
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
    bc = parse_boundary_condition(bc)
    grid = nonlocal_grid(domain, h, bc, max(deltas))
    nonlocal_ops = [assemble_nonlocal(grid, profile, delta, bc) for delta in deltas]
    return deltas, assemble_local(grid, bc), nonlocal_ops


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
