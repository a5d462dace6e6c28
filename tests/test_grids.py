"""Domains, grids, fields, and the sup-norm machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersal import (
    Field,
    ValidationError,
    box,
    build_grid,
    field_from_function,
    periodic_cell,
    sup_distance,
    sup_norm,
    write_field_csv,
)
from oracles import constant_field, read_field_csv


def test_interval_nodes_sit_at_cell_centres():
    grid = build_grid(box(0.0, 1.0), 0.25)
    assert grid.num_nodes == 4  # one node per cell, none on a face
    np.testing.assert_allclose(grid.coordinates[0], [0.125, 0.375, 0.625, 0.875], atol=0.0)


def test_periodic_cell_identifies_the_wrap_node():
    grid = build_grid(periodic_cell(1.0), 0.25)
    assert grid.num_nodes == 4
    np.testing.assert_allclose(grid.coordinates[0], [0.0, 0.25, 0.5, 0.75], atol=0.0)


def test_incompatible_spacing_is_rejected():
    with pytest.raises(ValidationError, match="incompatible spacing"):
        build_grid(box(0.0, 1.0), 0.3)
    with pytest.raises(ValidationError, match="incompatible spacing"):
        build_grid(periodic_cell(2.0 * math.pi), 0.5)


def test_domain_validation():
    with pytest.raises(ValidationError):
        box(1.0, 0.0)
    with pytest.raises(ValidationError):
        periodic_cell(-2.0)
    with pytest.raises(ValidationError):
        box((0.0, 0.0), (1.0,))


def test_build_grid_is_bitwise_deterministic():
    a = build_grid(box(0.0, 2.0 * math.pi), 2.0 * math.pi / 512)
    b = build_grid(box(0.0, 2.0 * math.pi), 2.0 * math.pi / 512)
    for xa, xb in zip(a.coordinates, b.coordinates):
        assert np.array_equal(xa, xb)  # identical bits, not merely close


def test_two_dimensional_grid_layout():
    grid = build_grid(box((0.0, 0.0), (1.0, 2.0)), 0.5)
    assert grid.shape == (2, 4)
    assert grid.num_nodes == 8
    # C-order flattening: the second axis varies fastest.
    np.testing.assert_allclose(grid.coordinates[0][:4], np.full(4, 0.25), atol=0.0)
    np.testing.assert_allclose(grid.coordinates[1][:4], [0.25, 0.75, 1.25, 1.75], atol=0.0)
    x, y = grid.coordinates
    assert not np.any((x == 0.0) | (x == 1.0) | (y == 0.0) | (y == 2.0))  # no node on a face


def test_sup_distance_examples():
    grid = build_grid(box(0.0, 1.0), 0.25)
    f = constant_field(grid, 2.0)
    g = constant_field(grid, -1.0)
    assert sup_distance(f, f) == 0.0
    assert sup_distance(f, g) == 3.0
    ramp = field_from_function(grid, lambda x: x)
    assert sup_distance(ramp, constant_field(grid, 0.0)) == 0.875
    assert sup_norm(g) == 1.0 and sup_norm(ramp) == 0.875


def test_sup_distance_rejects_mismatched_grids():
    f = constant_field(build_grid(box(0.0, 1.0), 0.25), 1.0)
    g = constant_field(build_grid(box(0.0, 1.0), 0.5), 1.0)
    with pytest.raises(ValidationError, match="grid"):
        sup_distance(f, g)


def test_field_value_count_is_validated():
    grid = build_grid(box(0.0, 1.0), 0.25)
    with pytest.raises(ValidationError):
        Field(grid, np.zeros(5))


def test_field_csv_round_trip(tmp_path):
    grid = build_grid(box(0.0, 1.0), 0.125)
    field = Field(grid, np.sin(3.0 * grid.coordinates[0]), 0.5)
    path = tmp_path / "field.csv"
    write_field_csv(field, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,value"
    restored = read_field_csv(grid, path, time=0.5)
    np.testing.assert_array_equal(restored.values, field.values)
    assert restored.time == 0.5


def test_field_csv_round_trip_2d(tmp_path):
    grid = build_grid(box((0.0, 0.0), (1.0, 1.0)), 0.25)
    field = field_from_function(grid, lambda x, y: x + 10.0 * y)
    path = tmp_path / "field2.csv"
    write_field_csv(field, path)
    assert path.read_text().splitlines()[0] == "x,y,value"
    restored = read_field_csv(grid, path)
    np.testing.assert_array_equal(restored.values, field.values)


@pytest.mark.parametrize(
    "dim, timed",
    [(1, False), (2, False), (1, True), (2, True)],
    ids=["1", "2", "1-orbit", "2-orbit"],
)
def test_field_csv_bytes_match_the_per_value_repr(tmp_path, dim, timed):
    # Reference writer: one repr(float(v)) per cell.  Signed zeros, repeated
    # values, non-finite and subnormal entries must come out the same.  A
    # sequence of fields (an orbit) adds a leading time column.
    grid = build_grid(box([-1.0] * dim, [1.0] * dim), 0.125)
    values = np.random.default_rng(2).standard_normal(grid.num_nodes)
    values[:9] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -0.0, 0.1, 0.1]
    fields = [Field(grid, values), Field(grid, values[::-1], 0.1), Field(grid, -values, 1 / 3)]
    path = tmp_path / "field.csv"
    write_field_csv(fields if timed else fields[0], path)
    lines = [",".join(["t"][:timed] + ["x", "y"][:dim] + ["value"])]
    for field in fields if timed else fields[:1]:
        columns = [*grid.coordinates, field.values]
        lead = [repr(field.time)] if timed else []
        lines += [",".join(lead + [repr(float(v)) for v in row]) for row in zip(*columns)]
    assert path.read_text(encoding="ascii") == "\n".join(lines) + "\n"


def test_field_csv_of_several_fields_needs_one_grid(tmp_path):
    fields = [constant_field(build_grid(box(0.0, 1.0), h), 1.0) for h in (0.25, 0.125)]
    with pytest.raises(ValidationError, match="grid mismatch"):
        write_field_csv(fields, tmp_path / "orbit.csv")


def test_read_field_csv_rejects_wrong_grid(tmp_path):
    grid = build_grid(box(0.0, 1.0), 0.25)
    path = tmp_path / "field.csv"
    write_field_csv(constant_field(grid, 1.0), path)
    other = build_grid(box(0.0, 1.0), 0.125)
    with pytest.raises(ValidationError):
        read_field_csv(other, path)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=12, max_size=12))
def test_sup_distance_is_a_metric(values):
    """Symmetry and the triangle inequality on random field triples."""
    grid = build_grid(box(0.0, 1.0), 0.25)
    chunks = [np.array(values[i : i + 4]) for i in (0, 4, 8)]
    f, g, k = (Field(grid, c) for c in chunks)
    assert sup_distance(f, g) == sup_distance(g, f)
    assert sup_distance(f, k) <= sup_distance(f, g) + sup_distance(g, k) + 1e-9
    assert sup_distance(f, f) == 0.0
