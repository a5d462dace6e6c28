"""Sparse dispersal operators: nonlocal jump kernels and discrete Laplacians.

Both operator kinds are realized as sums of offset differences

    (A u)_i  =  sum_o  w_o * (u_{i+o} - u_i)

over a fixed stencil of integer grid offsets ``o`` with nonnegative weights
``w_o``.  The stencil is placed on the grid in one place, a table: for each
node and each offset (plus the node itself), the node reached, wrapped on
cells, and whether it lies in the habitat.  Its columns run in flat-shift order, so a box row
lists its targets in column order and only cell rows within reach of an
edge need sorting.  Three methods read it: the diagonal, the
compressed-sparse-row :meth:`DispersalOperator.matrix` (compressed row by
row; the module's only import of ``scipy.sparse``) and its dense rows
:meth:`DispersalOperator.matrix_rows`.  There is no reference action here:
the tests place the offset-difference action apart from the table.  The
time steppers act (see :mod:`dispersal.evolution`) on periodic closures
through their Fourier symbol (:meth:`DispersalOperator.symbol`) in O(n)
memory, on one-dimensional boxes through the band (the stencil convolved
over the nodes, and the diagonal) with face rows from ``matrix_rows``.
Both transform the stencil wrapped on the grid's own shape
(:meth:`DispersalOperator.wrapped_column`).  Only two-dimensional boxes
use the matrix, so a periodic or one-dimensional run never loads scipy.

The nonlocal kind samples the kernel's shape at the grid nodes and scales
all samples by one factor so that the stencil's second moment
``sum_o w_o (o_0 h)**2`` is the continuum value 2 (the moment-matched
quadrature of Tian & Du, SIAM J. Numer. Anal. 52, 2014).  That factor
also stands for the kernel's unit-mass factor, the rate ``C/delta**2``
and the cell weight ``h**N``, which would only rescale every sample alike.
Plain nodal weights miss the moment by more as ``delta/h`` shrinks, so the
operator would tend to a Laplacian with the wrong rate; matched, it agrees
with ``u''`` on quadratics at every resolved radius, and one common factor
keeps the matrix exactly symmetric with nonnegative off-diagonal entries.
A box grid holds one node per cell, at its centre, so the equal
weights form a midpoint rule that stays second order up to the faces, and
no node lies on a face to be pinned.  The boundary closure follows the
habitat type and is one loss rule on the diagonal
(:attr:`DispersalOperator.exterior_charge`): hostile exterior
(``dirichlet``, ``u = 0`` off the box: a jump that leaves it is pure loss,
counted twice by the local Laplacian, whose ghost value across the face is
``-u``), reflecting budget (``neumann``, only the jumps that stay in the
box; locally the finite-volume Neumann Laplacian), or wrapping
(``periodic``).  Every matrix is exactly symmetric.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .grids import Domain, Grid, build_grid
from .kernels import KernelProfile, scaled_kernel

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

    ``offsets`` pairs each stencil offset with its weight; the closure
    shows only in the diagonal (see :attr:`exterior_charge`).
    """

    kind: str
    bc: BoundaryCondition
    grid: Grid
    offsets: tuple[tuple[Offset, float], ...]
    delta: float | None = None
    _matrix: sparse.csr_matrix | None = dataclass_field(default=None, init=False, repr=False)
    _symbol: np.ndarray | None = dataclass_field(default=None, init=False, repr=False)

    @property
    def exterior_charge(self) -> int:
        """Times a row's loss counts each of its jumps out of the box: none under
        a reflecting closure, twice by the hostile local Laplacian (its ghost
        value across the face is ``-u``), else once (``u = 0`` off a hostile
        box; no jump leaves a cell)."""
        if self.bc is BoundaryCondition.NEUMANN:
            return 0
        return 2 if self.bc is BoundaryCondition.DIRICHLET and self.kind == LOCAL else 1

    def diagonal(self) -> np.ndarray:
        """Diagonal of the action; the stencil table is read unless every jump counts once."""
        return self._diagonal(self._table() if self.exterior_charge != 1 else None)

    def _diagonal(self, table) -> np.ndarray:
        """Minus each row's loss rate.

        The rate is ``sum_o w_o`` where the whole stencil lies in the
        habitat, and wherever :attr:`exterior_charge` is 1.  Otherwise each
        ``table`` row sums its in-habitat weights and its out-of-box ones
        times the charge, in entry order.
        """
        rows = self.grid.num_nodes if table is None else len(table[0])
        loss = np.full(rows, self.total_weight())  # the same sum, where all are in
        if self.exterior_charge != 1:
            _, inside, weights, entries, _ = table
            flags = inside[:, entries]
            partial = ~flags.all(axis=1)
            charged = np.where(flags[partial], 1.0, float(self.exterior_charge)) * weights[entries]
            loss[partial] = np.cumsum(charged, axis=1)[:, -1]
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

    def wrapped_column(self) -> np.ndarray:
        """First column of the stencil wrapped on a torus of the grid's shape.

        ``w_o`` sits at node ``-o`` (modulo the shape) and the self term
        ``-sum_o w_o`` at node 0: the action of a periodic closure, and the
        circulant that the one-dimensional box solves correct at the faces.
        """
        column = np.zeros(self.grid.shape)
        for offset, weight in self.offsets:
            column[tuple(-o % n for o, n in zip(offset, column.shape))] += weight
        column[(0,) * column.ndim] -= self.total_weight()
        return column

    def symbol(self) -> np.ndarray:
        """Fourier symbol of a periodic closure (cached): ``rfftn`` of :meth:`wrapped_column`."""
        if self.bc is not BoundaryCondition.PERIODIC:
            raise ValidationError("only periodic closures have a Fourier symbol")
        if self._symbol is None:
            self._symbol = np.fft.rfftn(self.wrapped_column())
        return self._symbol

    # ------------------------------------------------------------------ #
    # matrix form                                                         #
    # ------------------------------------------------------------------ #

    def _table(self, nodes=None):
        """Stencil table of the rows ``nodes`` (all by default), broadcast per axis.

        Returns ``(targets, inside, weights, entries, self_column)``.  Columns
        (the node itself, then the offsets) are stably sorted by flat shift;
        row ``k`` holds the node each reaches from ``nodes[k]`` and whether
        it is in the habitat (a target off a box never is).  ``entries``
        lists the offsets' columns in offset order: the summing order.
        """
        shape, dim = self.grid.shape, self.grid.dimension
        shifts = [(0,) * dim] + [offset for offset, _ in self.offsets]
        weights = [0.0] + [weight for _, weight in self.offsets]
        strides = [math.prod(shape[axis + 1 :]) for axis in range(dim)]
        order = np.argsort(np.array(shifts) @ strides, kind="stable")
        dtype = np.int32 if self.grid.num_nodes * order.size <= np.iinfo(np.int32).max else np.int64
        shifts, weights = np.array(shifts, dtype=dtype)[order], np.array(weights)[order]
        index = np.ix_(*map(np.arange, shape)) if nodes is None else np.unravel_index(nodes, shape)
        targets, inside = dtype(0), True
        for axis, (n, stride) in enumerate(zip(shape, strides)):
            reached = np.arange(n, dtype=dtype)[:, None] + shifts[:, axis]
            within = (self.bc is BoundaryCondition.PERIODIC) | ((reached >= 0) & (reached < n))
            targets = targets + (reached % n)[index[axis]] * stride
            inside = inside & within[index[axis]]
        position = np.argsort(order)  # the column of each entry
        targets, inside = targets.reshape(-1, order.size), inside.reshape(-1, order.size)
        return targets, inside, weights, position[1:], position[0]

    def _entries(self, nodes=None):
        """Matrix entries of the table rows ``nodes``: ``(targets, values, keep)``.

        The self column holds the diagonal, kept if nonzero; the other
        entries are kept where they land in the habitat.
        """
        table = self._table(nodes)
        targets, keep, weights, _, self_column = table
        diagonal = self._diagonal(table)
        values = np.tile(weights, (len(targets), 1))
        values[:, self_column] = diagonal
        keep[:, self_column] = diagonal != 0.0
        return targets, values, keep

    def matrix(self) -> sparse.csr_matrix:
        """CSR form of the action (cached), compressed row by row from :meth:`_entries`.

        Only rows whose stencil wraps (cell rows near an edge) are sorted;
        duplicates (the offsets ``+-n/2`` of a cell two reaches wide) are
        summed last.  The module's only use of
        scipy; the steppers build it for two-dimensional boxes only.
        """
        if self._matrix is None:
            import scipy.sparse as sparse

            targets, values, keep = self._entries()
            n = len(targets)
            rows = np.flatnonzero((np.diff(targets, axis=1) < 0).any(axis=1))
            order = np.argsort(targets[rows], axis=1, kind="stable")
            order += (rows * targets.shape[1])[:, None]  # flat positions in the table
            for table in (targets, values, keep):
                table[rows] = table.reshape(-1).take(order)
            indptr = np.zeros(n + 1, dtype=targets.dtype)
            np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
            kept = slice(None) if keep.all() else keep.ravel()  # no copy when all are kept
            data, indices = values.ravel()[kept], targets.ravel()[kept]
            self._matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
            self._matrix.sum_duplicates()
        return self._matrix

    def matrix_rows(self, nodes) -> np.ndarray:
        """Dense rows ``nodes`` of :meth:`matrix`, from their table rows by numpy alone."""
        targets, values, keep = self._entries(nodes)
        out = np.zeros((len(targets), self.grid.num_nodes))
        np.add.at(out, (np.nonzero(keep)[0], targets[keep]), values[keep])
        return out


# ---------------------------------------------------------------------- #
# assembly                                                                #
# ---------------------------------------------------------------------- #


def _require_domain(grid: Grid, bc: BoundaryCondition) -> None:
    periodic = bc is BoundaryCondition.PERIODIC
    if periodic and not grid.domain.periodic:
        raise ValidationError("periodic operators need a periodic-cell domain")
    if grid.domain.periodic and not periodic:
        raise ValidationError(f"{bc.value} operators need a bounded box domain")


def assemble_nonlocal(
    grid: Grid, profile: KernelProfile, delta: float, bc: BoundaryCondition
) -> DispersalOperator:
    """Assemble the jump operator with kernel radius ``delta`` on ``grid``.

    The weights are the kernel's shape sampled at the offsets ``o h``,
    scaled by one common factor so that ``sum_o w_o (o_a h)**2 == 2`` along
    every axis (the radial kernel makes the axes agree).  Requires at least
    four grid cells per kernel radius (below that too few nodes sample the
    kernel's profile for the moment-matched operator to approximate the
    jump integral).
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
    if bc is BoundaryCondition.PERIODIC:
        half = min(grid.domain.edges) / 2.0
        if delta > half + 1e-12:
            raise ValidationError(
                f"delta {delta!r} exceeds half the smallest period {half!r}; "
                "the wrapped kernel would overlap itself"
            )
    reach = int(math.floor(delta / h + 1e-12))
    dim = grid.dimension
    stencil = [o for o in itertools.product(range(-reach, reach + 1), repeat=dim) if any(o)]
    points = np.array(stencil, dtype=float) * h
    weights = scaled_kernel(profile, delta, points[:, 0] if dim == 1 else points).tolist()
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
        delta=float(delta),
    )


def assemble_local(grid: Grid, bc: BoundaryCondition) -> DispersalOperator:
    """Assemble the second-order central-difference Laplacian on ``grid``.

    On a box it is the finite-volume Laplacian of the cells: the reflecting
    closure drops a face cell's flux through the face, the hostile one
    reads the ghost value ``-u`` across it (see :attr:`exterior_charge`);
    the periodic closure wraps.
    """
    bc = parse_boundary_condition(bc)
    _require_domain(grid, bc)
    if any(n < 3 for n in grid.shape):
        raise ValidationError(f"too few nodes for a second-difference stencil: shape {grid.shape}")
    dim, weight = grid.dimension, 1.0 / (grid.h * grid.h)
    units = [tuple(int(a == axis) for a in range(dim)) for axis in range(dim)]
    offsets = [(tuple(sign * u for u in unit), weight) for unit in units for sign in (-1, 1)]
    return DispersalOperator(
        kind=LOCAL,
        bc=bc,
        grid=grid,
        offsets=tuple(offsets),
    )


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
    grid = build_grid(domain, h)
    nonlocal_ops = [assemble_nonlocal(grid, profile, delta, bc) for delta in deltas]
    return deltas, assemble_local(grid, bc), nonlocal_ops
