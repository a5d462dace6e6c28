"""Operator assembly: structure, closures, oracles, and consistency."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad
from scipy.special import j0

from dispersal import (
    MOLLIFIER,
    QUARTIC,
    BoundaryCondition,
    Field,
    ValidationError,
    assemble_local,
    assemble_nonlocal,
    box,
    build_grid,
    field_from_function,
    kernel_profile,
    periodic_cell,
    scaled_kernel,
    sweep_operators,
)
from dispersal import operators
from oracles import (
    consistency_error,
    constant_field,
    continuum_kernel,
    continuum_offsets,
    difference_action,
    dispersal_rate,
    reference_batches,
)

QUARTIC_1D = kernel_profile(QUARTIC, 1)
MOLLIFIER_1D = kernel_profile(MOLLIFIER, 1)


# --------------------------------------------------------------------- #
# structure                                                              #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_constants_are_annihilated_bitwise(bc, kind):
    if bc == "periodic":
        grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 512)
    else:
        grid = build_grid(box(0.0, 1.0), 1.0 / 512)
    if kind == "nonlocal":
        op = assemble_nonlocal(grid, QUARTIC_1D, 0.1, bc)
    else:
        op = assemble_local(grid, bc)
    out = difference_action(op, np.full(grid.num_nodes, 3.7))
    assert np.all(out == 0.0)  # exact zeros, not merely small


def test_constant_annihilation_at_4096_nodes():
    grid = build_grid(periodic_cell(1.0), 1.0 / 4096)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.05, "periodic")
    assert np.all(difference_action(op, np.ones(4096)) == 0.0)


@pytest.mark.parametrize("bc", ["neumann", "periodic"])
def test_nonlocal_matrix_is_exactly_symmetric(bc):
    if bc == "periodic":
        grid = build_grid(periodic_cell(1.0), 1.0 / 256)
    else:
        grid = build_grid(box(0.0, 1.0), 1.0 / 256)
    op = assemble_nonlocal(grid, MOLLIFIER_1D, 0.1, bc)
    diff = (op.matrix() - op.matrix().T).tocoo()
    assert diff.nnz == 0 or np.all(diff.data == 0.0)


def test_nonlocal_sign_structure_and_row_width():
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.1, "neumann")
    m = op.matrix().tocoo()
    off_diagonal = m.data[m.row != m.col]
    diagonal = m.data[m.row == m.col]
    assert np.all(off_diagonal >= 0.0)
    assert np.all(diagonal <= 0.0)
    assert np.max(np.diff(op.matrix().indptr)) <= 2 * math.ceil(0.1 / grid.h) + 1


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["nonlocal", "local"])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
def test_matrix_and_offset_action_agree(bc, kind, dim):
    # The action is placed apart from the stencil table (np.roll on cells,
    # face slices on boxes); every column pins it against the assembled
    # entries, which the numpy-only rows must match bitwise.
    h = 1.0 / 16
    if bc == "periodic":
        domain = periodic_cell([1.0] * dim)
    else:
        domain = box([0.0] * dim, [1.0] * dim)
    grid = build_grid(domain, h)
    if kind == "local":
        op = assemble_local(grid, bc)
    else:
        op = assemble_nonlocal(grid, kernel_profile(QUARTIC, dim), 4.0 * h, bc)
    assert op.matrix().has_canonical_format
    dense = op.matrix().toarray()
    assert np.array_equal(op.matrix_rows(np.arange(op.grid.num_nodes)), dense)
    columns = dense.T
    unit = np.zeros(op.grid.num_nodes)
    for j, column in enumerate(columns):
        unit[j] = 1.0
        assert np.array_equal(difference_action(op, unit), column), j
        unit[j] = 0.0


def periodic_operator(kind, dim, nodes):
    h = 2.0 * math.pi / nodes
    grid = build_grid(periodic_cell([2.0 * math.pi] * dim), h)
    if kind == "local":
        return assemble_local(grid, "periodic")
    return assemble_nonlocal(grid, kernel_profile(QUARTIC, dim), 4.0 * h, "periodic")


@pytest.mark.parametrize("nodes", [16, 15])  # rfft keeps no Nyquist bin at 15
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_periodic_symbol_action_matches_the_offset_action(kind, dim, nodes):
    op = periodic_operator(kind, dim, nodes)
    shape = op.grid.shape
    u = np.random.default_rng(11).standard_normal(op.grid.num_nodes)
    reference = difference_action(op, u)
    spectrum = op.symbol() * np.fft.rfftn(u.reshape(shape))
    action = np.fft.irfftn(spectrum, s=shape, axes=tuple(range(dim))).ravel()
    assert np.linalg.norm(action - reference) <= 1e-13 * np.linalg.norm(reference)


@pytest.mark.parametrize("nodes", [16, 15])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_periodic_symbol_and_diagonal_equal_the_assembled_ones_bitwise(kind, dim, nodes):
    # Both are placed straight from the offsets; the solves and the
    # existence flags must not change by reading them instead of the matrix.
    op = periodic_operator(kind, dim, nodes)
    symbol, diagonal = op.symbol(), op.diagonal()
    m = op.matrix()
    e0 = np.zeros(op.grid.num_nodes)
    e0[0] = 1.0
    assert np.array_equal(symbol, np.fft.rfftn((m @ e0).reshape(op.grid.shape)))
    assert np.array_equal(diagonal, m.diagonal())


def box_operator(closure, kind, dim):
    h = 1.0 / 16 if dim == 2 else 1.0 / 64
    grid = build_grid(box([0.0] * dim, [1.0] * dim), h)
    if kind == "local":
        return assemble_local(grid, closure)
    return assemble_nonlocal(grid, kernel_profile(QUARTIC, dim), 4.0 * h, closure)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["nonlocal", "local"])
@pytest.mark.parametrize("closure", ["dirichlet", "neumann"])
def test_box_diagonal_is_read_from_the_stencil_bitwise(closure, kind, dim):
    # The 1D box steps and the existence flag read diagonal(), which must
    # neither build the matrix nor differ from it in any bit.
    op = box_operator(closure, kind, dim)
    diagonal = op.diagonal()
    assert op._matrix is None
    assembled = op.matrix().diagonal()
    assert diagonal.tobytes() == assembled.tobytes()
    assert np.any(diagonal == -op.total_weight())  # nodes with the whole stencil


STENCIL_CASES = [
    f"{bc}-{kind}-{dim}d"
    for bc in ("dirichlet", "neumann", "periodic")
    for kind in ("nonlocal", "local")
    for dim in (1, 2)
] + ["half-period-1d", "half-period-2d", "dirichlet-band-2d"]


def stencil_case(name):
    """The operator of one ``STENCIL_CASES`` entry.

    The closure x kind x dimension cases come from :func:`periodic_operator`
    and :func:`box_operator`.  The half-period cells have kernels half a
    period wide, just inside the assembly's tolerance above it, so the
    offsets ``+-n/2`` along an axis keep a positive weight and reach one
    node twice.  The last is a rectangular 2D hostile box whose kernel
    reaches six cells past each face.
    """
    if name.startswith("half-period"):
        dim = int(name[-2])
        grid = build_grid(periodic_cell([1.0] * dim), 1.0 / (16 if dim == 1 else 8))
        return assemble_nonlocal(grid, kernel_profile(QUARTIC, dim), 0.5 + 4e-13, "periodic")
    if name == "dirichlet-band-2d":
        grid = build_grid(box([0.0, 0.0], [1.0, 1.5]), 1.0 / 20)
        return assemble_nonlocal(grid, kernel_profile(QUARTIC, 2), 0.3, "dirichlet")
    bc, kind, dim = name.split("-")
    dim = int(dim[0])
    if bc == "periodic":
        return periodic_operator(kind, dim, 16 if dim == 2 else 64)
    return box_operator(bc, kind, dim)


def reference_operator(op):
    """``(matrix, diagonal)`` built from :func:`oracles.reference_batches` alone.

    A hostile box's jumps to the exterior (column ``n``) count as loss only,
    at the weight the batch gives them.
    """
    n = op.grid.num_nodes
    loss = np.zeros(n)
    rows, cols, values = [], [], []
    for r, c, weight in reference_batches(op):
        loss[r] += weight
        keep = c < n
        rows.append(r[keep])
        cols.append(c[keep])
        values.append(np.broadcast_to(weight, r.shape)[keep])
    diagonal = 0.0 - loss
    nodes = np.flatnonzero(diagonal)
    rows, cols = np.concatenate([nodes] + rows), np.concatenate([nodes] + cols)
    values = np.concatenate([diagonal[nodes]] + values)
    matrix = sparse.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    return matrix, diagonal


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", STENCIL_CASES)
def test_table_readers_match_an_independent_placement_bitwise(case):
    op = stencil_case(case)
    matrix, diagonal = reference_operator(op)
    m = op.matrix()
    for part in ("data", "indices", "indptr"):
        assert same_bits(getattr(m, part), getattr(matrix, part)), part
    assert same_bits(op.diagonal(), diagonal)
    if case.startswith("half-period"):  # each pair of offsets that meet was merged
        assert m.nnz == op.grid.num_nodes * (len(op.offsets) + 1 - op.grid.dimension)


@pytest.mark.parametrize("case", STENCIL_CASES[:12])
def test_matrix_rows_of_a_scattered_subset_are_the_matrix_rows_bitwise(case):
    op = stencil_case(case)
    n = op.grid.num_nodes
    nodes = np.random.default_rng(7).permutation(n)[: max(5, n // 6)]  # unsorted, scattered
    assert not np.all(np.diff(nodes) > 0)
    rows = op.matrix_rows(nodes)
    assert same_bits(rows, op.matrix().toarray()[nodes])


def test_only_periodic_closures_have_a_symbol():
    op = assemble_local(build_grid(box(0.0, 1.0), 1.0 / 16), "neumann")
    with pytest.raises(ValidationError, match="Fourier symbol"):
        op.symbol()


def test_dirichlet_face_cells_charge_the_exterior():
    # The local hostile closure's face cells read the ghost value -u across
    # the face, so they lose 3/h^2 and keep their one inner neighbour; the
    # jump operator charges every jump out of the box once, so every row
    # keeps its whole loss.
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    m = assemble_local(grid, "dirichlet").matrix()
    w = 1.0 / grid.h**2
    assert np.array_equal(m.diagonal()[[0, 1, -2, -1]], [-3.0 * w, -2.0 * w, -2.0 * w, -3.0 * w])
    assert m[0].nnz == 2 and m[0, 1] == w and m[-1, -2] == w
    jump = assemble_nonlocal(grid, QUARTIC_1D, 0.1, "dirichlet")
    assert np.all(jump.matrix().diagonal() == -jump.total_weight())


def test_dirichlet_mass_deficit_layer():
    """Uniform occupancy leaks only within one kernel radius of the edge."""
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.1, "dirichlet")
    out = difference_action(op, np.ones(grid.num_nodes))
    x = grid.coordinates[0]
    center = int(np.argmin(np.abs(x - 0.5)))
    near_edge = int(np.argmin(np.abs(x - 0.05)))
    assert out[center] == 0.0
    assert out[near_edge] < 0.0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["nonlocal", "local"])
def test_hostile_rows_lose_exactly_the_weight_that_leaves_the_habitat(kind, dim):
    # u = 0 off the box, so each row of the jump operator sums to minus the
    # weights of its offsets that land there; the local closure's ghost
    # value -u doubles that loss.  The offsets that leave are found here by
    # node indices alone.
    op = box_operator("dirichlet", kind, dim)
    shape = op.grid.shape
    index = np.indices(shape).reshape(dim, -1).T
    deficit = np.zeros(op.grid.num_nodes)
    for offset, weight in op.offsets:
        reached = index + offset
        in_box = np.all((reached >= 0) & (reached < shape), axis=1)
        deficit += np.where(in_box, 0.0, weight)
    deficit *= 2.0 if kind == "local" else 1.0
    row_sums = op.matrix() @ np.ones(op.grid.num_nodes)
    assert np.all(np.abs(row_sums + deficit) <= 1e-14 * op.total_weight())
    rim = np.any((index == 0) | (index == np.array(shape) - 1), axis=1)  # the face cells
    assert np.all(deficit[rim] > 0.0) and np.all(deficit[~rim] >= 0.0)


# --------------------------------------------------------------------- #
# local stencil oracles                                                  #
# --------------------------------------------------------------------- #


def test_local_action_is_exact_on_quadratics():
    grid = build_grid(box(0.0, 1.0), 0.25)
    op = assemble_local(grid, "neumann")
    out = difference_action(op, grid.coordinates[0] ** 2)
    assert np.all(out[1:-1] == 2.0)


def test_local_periodic_reproduces_the_sine_eigenfunction():
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 256)
    op = assemble_local(grid, "periodic")
    u = np.sin(grid.coordinates[0])
    assert np.max(np.abs(difference_action(op, u) + u)) < 1e-4


def test_local_2d_action_on_paraboloid():
    grid = build_grid(box((0.0, 0.0), (1.0, 1.0)), 0.125)
    op = assemble_local(grid, "neumann")
    values = grid.coordinates[0] ** 2 + grid.coordinates[1] ** 2
    out = difference_action(op, values).reshape(grid.shape)
    np.testing.assert_allclose(out[1:-1, 1:-1], 4.0, atol=1e-11)


def test_local_dirichlet_is_second_order_up_to_the_face():
    # sin(pi x) is odd about each face, so the ghost value -u is its value
    # half a cell outside, and the face cells keep the interior's error.
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    op = assemble_local(grid, "dirichlet")
    u = np.sin(math.pi * grid.coordinates[0])
    out = difference_action(op, u)
    assert np.max(np.abs(out + math.pi**2 * u)) < 0.01


# --------------------------------------------------------------------- #
# Fourier multiplier oracles                                             #
# --------------------------------------------------------------------- #


def test_periodic_jump_operator_is_diagonal_on_cosines():
    """Action on cos(x) equals an independently recomputed multiple of it.

    The weights are rebuilt from the documented rule: nodal kernel values
    scaled so that their second moment sum of w * (o h)**2 is exactly 2.
    """
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 256)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.5, "periodic")
    x = grid.coordinates[0]
    action = difference_action(op, np.cos(x))
    h = grid.h
    reach = int(math.floor(0.5 / h + 1e-12))
    nodal = {
        o: float(scaled_kernel(QUARTIC_1D, 0.5, o * h)) for o in range(-reach, reach + 1) if o != 0
    }
    scale = 2.0 / sum(k * (o * h) ** 2 for o, k in nodal.items())
    multiplier = scale * sum(k * (math.cos(o * h) - 1.0) for o, k in nodal.items())
    assert np.max(np.abs(action - multiplier * np.cos(x))) < 1e-6


def test_nodal_multiplier_tracks_the_continuum_integral():
    """The continuum multiplier is met up to the quadrature's own error.

    At twenty cells per kernel radius the moment-matched weights leave a gap
    near 7e-7 for this family (plain nodal weights, which miss the second
    moment, leave about 6e-5, so this bound also guards the moment match).
    """
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 256)
    op = assemble_nonlocal(grid, QUARTIC_1D, 0.5, "periodic")
    x = grid.coordinates[0]
    action = difference_action(op, np.cos(x))
    integral, err = quad(
        lambda z: continuum_kernel(QUARTIC_1D, 0.5, z) * math.cos(z),
        -0.5,
        0.5,
        epsabs=1e-14,
        limit=200,
    )
    assert err < 1e-10
    continuum = dispersal_rate(QUARTIC_1D, 0.5) * (integral - 1.0)
    assert np.max(np.abs(action - continuum * np.cos(x))) < 5e-6


def test_2d_jump_operator_matches_the_radial_transform():
    """2-D multiplier on cos(x): the angular average turns into a Bessel factor."""
    profile = kernel_profile(QUARTIC, 2)
    grid = build_grid(periodic_cell((2.0 * math.pi, 2.0 * math.pi)), 2.0 * math.pi / 128)
    op = assemble_nonlocal(grid, profile, 0.5, "periodic")
    u = np.cos(grid.coordinates[0])
    action = difference_action(op, u)
    integral, err = quad(lambda r: 6.0 * r * (1 - r * r) ** 2 * j0(0.5 * r), 0.0, 1.0, epsabs=1e-14)
    assert err < 1e-10
    multiplier = dispersal_rate(profile, 0.5) * (integral - 1.0)
    assert multiplier == pytest.approx(-0.9938, abs=2e-4)
    assert np.max(np.abs(action - multiplier * u)) < 2e-5


@pytest.mark.parametrize("delta", [0.025, 0.05])  # delta/h = 4.07 and 8.15
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("family", [QUARTIC, MOLLIFIER])
def test_stencil_carries_the_exact_second_moment(family, dimension, bc, delta):
    """Along every axis the weights satisfy sum of w * (o_a h)**2 == 2."""
    h = 2.0 * math.pi / 1024
    edges = (128 * h,) * dimension
    if bc == "periodic":
        grid = build_grid(periodic_cell(edges), h)
    else:
        grid = build_grid(box((0.0,) * dimension, edges), h)
    op = assemble_nonlocal(grid, kernel_profile(family, dimension), delta, bc)
    for axis in range(dimension):
        moment = math.fsum(w * (o[axis] * h) ** 2 for o, w in op.offsets)
        assert moment == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("ratio", [4.1, 8.2, 20.3])
@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("family", [QUARTIC, MOLLIFIER])
def test_the_continuum_constants_cancel_from_the_weights(family, dimension, ratio):
    """The moment match absorbs the unit-mass factor, C/delta**2 and h**N.

    The stencil rebuilt from the continuum kernel (each weight the rate
    times the cell weight times the unit-mass kernel, then moment-matched)
    is the assembled stencil up to rounding.
    """
    h = 1.0 / 64
    profile = kernel_profile(family, dimension)
    grid = build_grid(periodic_cell((1.0,) * dimension), h)
    op = assemble_nonlocal(grid, profile, ratio * h, "periodic")
    expected = continuum_offsets(grid, profile, ratio * h)
    assert [o for o, _ in op.offsets] == [o for o, _ in expected]
    weights = np.array([w for _, w in op.offsets])
    np.testing.assert_allclose(weights, [w for _, w in expected], rtol=1e-14, atol=0.0)


def test_2d_structure_suite():
    profile = kernel_profile(QUARTIC, 2)
    grid = build_grid(periodic_cell((1.0, 1.0)), 1.0 / 32)
    op = assemble_nonlocal(grid, profile, 0.125, "periodic")
    assert np.all(difference_action(op, np.ones(grid.num_nodes)) == 0.0)
    diff = (op.matrix() - op.matrix().T).tocoo()
    assert diff.nnz == 0 or np.all(diff.data == 0.0)


# --------------------------------------------------------------------- #
# consistency with the Laplacian                                         #
# --------------------------------------------------------------------- #


def test_consistency_vanishes_on_constants():
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    nl = assemble_nonlocal(grid, QUARTIC_1D, 0.1, "neumann")
    loc = assemble_local(grid, "neumann")
    assert consistency_error(nl, loc, constant_field(grid, 5.0)) == 0.0


def test_consistency_on_cosine_matches_the_multiplier_gap():
    """First sweep value sits at the predicted delta**2 / 36 for this family."""
    grid = build_grid(periodic_cell(2.0 * math.pi), 2.0 * math.pi / 2048)
    loc = assemble_local(grid, "periodic")
    f = field_from_function(grid, np.cos)
    errors = [
        consistency_error(assemble_nonlocal(grid, QUARTIC_1D, d, "periodic"), loc, f)
        for d in (0.4, 0.2, 0.1, 0.05)
    ]
    assert errors[0] == pytest.approx(0.16 / 36.0, rel=0.01)
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_consistency_on_smooth_bump_is_second_order():
    grid = build_grid(box(0.0, 1.0), 1.0 / 1024)
    loc = assemble_local(grid, "neumann")
    f = field_from_function(grid, lambda x: x**2 * (1 - x) ** 2)
    errors = [
        consistency_error(assemble_nonlocal(grid, MOLLIFIER_1D, d, "neumann"), loc, f)
        for d in (0.2, 0.1, 0.05)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))
    order = math.log(errors[0] / errors[-1]) / math.log(4.0)
    assert order >= 1.5


def test_consistency_excludes_the_boundary_collar():
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    nl = assemble_nonlocal(grid, QUARTIC_1D, 0.1, "neumann")
    loc = assemble_local(grid, "neumann")
    x = grid.coordinates[0]
    spike = np.where(x < 0.05, 1.0, 0.0)  # nonzero only inside the collar
    error = consistency_error(nl, loc, Field(grid, spike))
    interior = consistency_error(nl, loc, field_from_function(grid, lambda x: x * 0.0))
    assert interior == 0.0
    # The spike still radiates into the first interior nodes beyond the
    # collar, but the collar nodes themselves are not measured.
    full_gap = np.abs(difference_action(nl, spike) - difference_action(loc, spike))
    assert error < np.max(full_gap)


def test_consistency_validates_its_inputs():
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    nl = assemble_nonlocal(grid, QUARTIC_1D, 0.1, "neumann")
    loc = assemble_local(grid, "neumann")
    f = constant_field(grid, 1.0)
    with pytest.raises(ValidationError, match="mismatched"):
        consistency_error(loc, nl, f)  # wrong order
    other = assemble_local(build_grid(box(0.0, 1.0), 1.0 / 32), "neumann")
    with pytest.raises(ValidationError, match="mismatched"):
        consistency_error(nl, other, f)


# --------------------------------------------------------------------- #
# assembly validation                                                    #
# --------------------------------------------------------------------- #


def test_assembly_rejects_unresolved_support():
    grid = build_grid(box(0.0, 1.0), 1.0 / 16)
    with pytest.raises(ValidationError, match="support unresolved"):
        assemble_nonlocal(grid, QUARTIC_1D, 0.1, "neumann")


def test_assembly_rejects_kernel_wider_than_half_the_cell():
    grid = build_grid(periodic_cell(1.0), 1.0 / 64)
    with pytest.raises(ValidationError, match="half the smallest period"):
        assemble_nonlocal(grid, QUARTIC_1D, 0.6, "periodic")


def test_assembly_rejects_mismatched_dimensions_and_domains():
    grid = build_grid(box(0.0, 1.0), 1.0 / 64)
    with pytest.raises(ValidationError, match="dimension"):
        assemble_nonlocal(grid, kernel_profile(QUARTIC, 2), 0.1, "neumann")
    with pytest.raises(ValidationError, match="periodic-cell"):
        assemble_nonlocal(grid, QUARTIC_1D, 0.1, "periodic")
    with pytest.raises(ValidationError, match="too few nodes"):
        assemble_local(build_grid(box(0.0, 1.0), 1.0), "neumann")
    with pytest.raises(ValidationError, match="boundary condition"):
        assemble_local(grid, "absorbing")


# --------------------------------------------------------------------- #
# sweep harness                                                          #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
def test_sweep_operators_share_one_grid_and_assemble_each_radius_when_reached(bc, monkeypatch):
    assembled = []

    def recording(grid, profile, delta, bc):
        assembled.append(delta)
        return assemble_nonlocal(grid, profile, delta, bc)

    monkeypatch.setattr(operators, "assemble_nonlocal", recording)
    domain = periodic_cell(2.0) if bc == "periodic" else box(0.0, 2.0)
    h = 1.0 / 128
    deltas, local_op, nonlocal_ops = sweep_operators(domain, bc, QUARTIC_1D, (0.5, 0.25, 1 / 8), h)
    assert deltas == [0.5, 0.25, 0.125] and all(type(d) is float for d in deltas)
    assert local_op.kind == "local" and local_op.bc is BoundaryCondition(bc)
    grid = local_op.grid
    assert grid.shape == (256,)  # one node per cell of the habitat, none on a face
    assert assembled == deltas  # every radius assembled at once, in order
    for k, op in enumerate(nonlocal_ops):
        assert op.kind == "nonlocal" and op.delta == deltas[k] and op.grid is grid
    assert assembled == deltas


def test_sweep_operators_validate_the_radii():
    domain = box(0.0, 1.0)
    with pytest.raises(ValidationError, match="deltas must be positive"):
        sweep_operators(domain, "neumann", QUARTIC_1D, [], 1.0 / 64)
    with pytest.raises(ValidationError, match="deltas must be positive"):
        sweep_operators(domain, "neumann", QUARTIC_1D, [0.4, -0.2], 1.0 / 64)
    with pytest.raises(ValidationError, match="strictly decreasing"):
        sweep_operators(domain, "neumann", QUARTIC_1D, [0.2, 0.4], 1.0 / 64)
    with pytest.raises(ValidationError, match="min\\(deltas\\)/8"):
        sweep_operators(domain, "neumann", QUARTIC_1D, [0.4, 0.2], 1.0 / 32)
