"""Uniform grids over boxes and periodic cells, nodal fields, sup distance.

The continuous habitats are axis-aligned boxes (with boundary) and periodic
cells.  A grid samples a habitat with one uniform, isotropic spacing ``h``
and holds only habitat nodes: a box grid one node at the centre of each
cell, so none lies on a face, a periodic grid one representative node per
equivalence class, so wrap identification is exact by construction.

Fields are flat nodal value arrays in C order over the tensor grid, and the
distance between fields is the max-norm over all nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .errors import ValidationError

BOX = "box"
PERIODIC_CELL = "periodic"


def _as_tuple(value) -> tuple[float, ...]:
    if np.ndim(value) == 0:
        return (float(value),)
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class Domain:
    """A habitat: a bounded box with boundary, or a periodic cell.

    ``lower``/``upper`` are the box corners (box kind only); ``periods`` are
    the cell edge lengths (periodic kind only).
    """

    kind: str
    lower: tuple[float, ...] = ()
    upper: tuple[float, ...] = ()
    periods: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == BOX:
            if len(self.lower) != len(self.upper) or not self.lower:
                raise ValidationError("box domains need matching lower/upper corners")
            if any(u <= l for l, u in zip(self.lower, self.upper)):
                raise ValidationError(f"box corners must satisfy upper > lower, got {self.lower} / {self.upper}")
        elif self.kind == PERIODIC_CELL:
            if not self.periods:
                raise ValidationError("periodic cells need at least one period")
            if any(p <= 0 for p in self.periods):
                raise ValidationError(f"periods must be positive, got {self.periods}")
        else:
            raise ValidationError(f"unknown domain kind {self.kind!r}")

    @property
    def dimension(self) -> int:
        return len(self.lower) if self.kind == BOX else len(self.periods)

    @property
    def edges(self) -> tuple[float, ...]:
        if self.kind == BOX:
            return tuple(u - l for l, u in zip(self.lower, self.upper))
        return self.periods


def box(lower, upper) -> Domain:
    """Bounded box domain; scalars build an interval."""
    return Domain(BOX, lower=_as_tuple(lower), upper=_as_tuple(upper))


def periodic_cell(periods) -> Domain:
    """Periodic cell domain; a scalar builds a one-dimensional cell."""
    return Domain(PERIODIC_CELL, periods=_as_tuple(periods))


def _axis_cells(edge: float, h: float, what: str) -> int:
    cells = edge / h
    n = round(cells)
    if n < 1 or abs(cells - n) > 1e-12 * max(1.0, abs(n)):
        raise ValidationError(
            f"incompatible spacing: h={h!r} does not divide the {what} {edge!r} (edge/h={cells!r})"
        )
    return int(n)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor grid over a domain.

    ``shape`` counts nodes per axis.  Flattened node data (the coordinates)
    are laid out in C order over the tensor product.
    """

    domain: Domain
    h: float
    shape: tuple[int, ...]

    # Flat per-node coordinate columns, computed once at build time.
    coordinates: tuple[np.ndarray, ...] = dataclass_field(repr=False, default=())

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    def signature(self) -> tuple:
        return (self.domain, self.h, self.shape)


def same_grid(a: Grid, b: Grid) -> bool:
    return a is b or a.signature() == b.signature()


def build_grid(domain: Domain, h: float, ghost_width: float = 0.0) -> Grid:
    """Sample ``domain`` at spacing ``h``.

    A periodic cell has a node at ``i*h``; a box has one node per cell, at
    its centre ``lower + (i + 1/2)*h``, so no node lies on a face.  The
    coordinates are computed the same way every time, so identical inputs
    reproduce identical grids bit for bit.  ``ghost_width`` is ignored: box
    grids hold no nodes outside the box, and the keyword stays only for
    callers that still pass it.
    """
    if h <= 0.0:
        raise ValidationError(f"spacing h must be positive, got {h}")
    if domain.kind == PERIODIC_CELL:
        shape = tuple(_axis_cells(p, h, "period") for p in domain.periods)
        axes = tuple(np.arange(n) * h for n in shape)
    else:
        shape = tuple(_axis_cells(e, h, "edge length") for e in domain.edges)
        axes = tuple(lo + (np.arange(n) + 0.5) * h for lo, n in zip(domain.lower, shape))
    mesh = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else [axes[0]]
    coordinates = tuple(m.ravel() for m in mesh)
    return Grid(domain, float(h), shape, coordinates)


@dataclass
class Field:
    """Nodal values on a grid at one instant."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.num_nodes,):
            raise ValidationError(
                f"field needs {self.grid.num_nodes} nodal values, got shape {self.values.shape}"
            )


def field_from_function(grid: Grid, fn) -> Field:
    """Sample ``fn(*coordinate_columns)`` at every node, at time 0."""
    values = np.asarray(fn(*grid.coordinates), dtype=float)
    return Field(grid, np.broadcast_to(values, (grid.num_nodes,)).copy())


def sup_norm(f: Field) -> float:
    """Max absolute nodal value."""
    return float(np.max(np.abs(f.values)))


def sup_distance(f: Field, g: Field) -> float:
    """Max absolute difference of two fields on a shared grid."""
    if not same_grid(f.grid, g.grid):
        raise ValidationError("grid mismatch: fields live on different grids")
    return float(np.max(np.abs(f.values - g.values)))


def write_field_csv(field: Field | Sequence[Field], path) -> None:
    """Serialize every node as an ``x[,y],value`` row.

    A sequence of fields on one grid (the snapshots of an orbit) is written
    as ``t,x[,y],value`` rows, one block per field, each row led by its
    field's time.
    """
    timed = not isinstance(field, Field)
    fields = list(field) if timed else [field]
    grid = fields[0].grid
    if not all(same_grid(f.grid, grid) for f in fields):
        raise ValidationError("grid mismatch: fields live on different grids")
    coordinates = [_repr_column(c) for c in grid.coordinates]
    header = ",".join(["t"] * timed + ["x", "y"][: grid.dimension] + ["value"])
    with open(path, "w", encoding="ascii") as handle:
        handle.write(header + "\n")
        for f in fields:
            lead = [itertools.repeat(repr(float(f.time)))] if timed else []
            columns = lead + coordinates + [_repr_column(f.values)]
            handle.writelines(",".join(row) + "\n" for row in zip(*columns))


def _repr_column(column: np.ndarray) -> list[str]:
    """``repr(float(v))`` of every entry, formatting each distinct bit pattern once.

    A coordinate column repeats each axis value once per node of the other
    axes, and ``repr`` dominates the cost of writing a field.  Keying on the
    bits, not the value, keeps ``-0.0`` apart from ``0.0``.
    """
    bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]
