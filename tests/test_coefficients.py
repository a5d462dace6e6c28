"""Time-periodic coefficient catalog: periodicity, exact integrals, parsing."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dispersal import (
    ValidationError,
    constant_coefficient,
    parse_coefficient,
    time_average,
)
from oracles import shift_coefficient, sup_difference

COORDS = (np.linspace(0.0, 2.0 * math.pi, 9),)


def scalar(a, t, x=0.0):
    return float(a.evaluate(t, (np.array([x]),))[0])


@pytest.mark.parametrize(
    "text",
    ["const(0.7)", "time-sine(0.3,1.0)", "space-cosine(1,0.5,2)", "tx-product(1,0.5,1)"],
)
def test_periodicity_is_bitwise_at_representable_times(text):
    """a(t + T) == a(t) exactly whenever t + T carries no rounding."""
    a = parse_coefficient(text, period=1.0)
    for t in [0.0, 0.125, 0.25, 0.59375, 0.875]:
        for x in [0.0, 1.0, 2.5]:
            assert scalar(a, t + 1.0, x) == scalar(a, t, x)
            assert scalar(a, t + 4.0, x) == scalar(a, t, x)
            assert scalar(a, t - 2.0, x) == scalar(a, t, x)


@pytest.mark.parametrize(
    "text,period",
    [
        ("const(0.7)", 1.0),
        ("time-sine(0.3,1.0)", 1.0),
        ("time-sine(-0.2,2.5)", 0.7),
        ("space-cosine(1,0.5,2)", 1.0),
        ("tx-product(1,0.5,1)", 2.0),
    ],
)
def test_closed_form_integral_matches_adaptive_quadrature(text, period):
    a = parse_coefficient(text, period)
    xs = (np.array([0.0, 0.3, 1.7]),)
    for t0, t1 in [(0.0, period), (0.1, 0.55), (0.25, 3.1)]:
        exact = a.integral(t0, t1, xs)
        for i, x in enumerate(xs[0]):
            oracle, err = quad(lambda t: scalar(a, t, float(x)), t0, t1, limit=200)
            assert err < 5e-8
            assert exact[i] == pytest.approx(oracle, abs=5e-9)


def test_integral_is_additive_over_subintervals():
    a = parse_coefficient("tx-product(1,0.5,1)", period=1.0)
    xs = (np.array([0.2, 1.4]),)
    left = a.integral(0.0, 0.37, xs)
    right = a.integral(0.37, 1.0, xs)
    np.testing.assert_allclose(left + right, a.integral(0.0, 1.0, xs), atol=1e-14)


def test_cached_cosine_factor_is_bitwise_and_follows_the_grid(monkeypatch):
    """cos(k x) is computed once per coordinate array, never reused across grids."""
    cosines = []
    numpy_cos = np.cos

    def counting_cos(x):
        cosines.append(x)
        return numpy_cos(x)

    monkeypatch.setattr(np, "cos", counting_cos)
    c0, c1, k, period = 1.0, 0.5, 2.0, 1.5
    omega = 2.0 * math.pi / period
    space = parse_coefficient(f"space-cosine({c0},{c1},{k})", period)
    product = parse_coefficient(f"tx-product({c0},{c1},{k})", period)
    coarse = np.linspace(0.0, 2.0 * math.pi, 9)
    fine = np.linspace(0.0, 2.0 * math.pi, 33)
    for x in (coarse, fine, coarse):
        cosines.clear()
        for t0, t1 in [(0.0, 0.4), (0.4, 1.1), (0.25, 3.1)]:
            t0p, t1p = math.fmod(t0, period), math.fmod(t1, period)
            factor = numpy_cos(k * x)
            swing = math.cos(omega * t1p) - math.cos(omega * t0p)
            assert np.array_equal(space.evaluate(t0, (x,)), c0 + c1 * factor)
            assert np.array_equal(space.integral(t0, t1, (x,)), (c0 + c1 * factor) * (t1 - t0))
            assert np.array_equal(
                product.evaluate(t0, (x,)), c0 + c1 * math.sin(omega * t0p) * factor
            )
            assert np.array_equal(
                product.integral(t0, t1, (x,)), c0 * (t1 - t0) - c1 * factor * swing / omega
            )
        # one factor per coefficient for this grid, however many calls
        assert len(cosines) == 2


def test_time_average_of_pure_oscillation_vanishes():
    a = parse_coefficient("time-sine(0.0,1.0)", period=1.0)
    avg = time_average(a, COORDS)
    np.testing.assert_allclose(avg, 0.0, atol=1e-14)
    b = parse_coefficient("tx-product(2.0,0.5,1)", period=3.0)
    np.testing.assert_allclose(time_average(b, COORDS), 2.0, atol=1e-12)


def test_time_average_is_the_exact_integral_over_one_period():
    a = parse_coefficient("tx-product(1.5,0.5,1)", period=2.0)
    avg = time_average(a, COORDS)
    assert avg.shape == COORDS[0].shape
    assert np.all(avg == 1.5)


def test_shift_adds_a_constant_everywhere():
    a = parse_coefficient("time-sine(0.3,1.0)", period=1.0)
    shifted = shift_coefficient(a, -2.5)
    assert scalar(shifted, 0.3) == pytest.approx(scalar(a, 0.3) - 2.5, abs=1e-15)
    xs = (np.array([0.0]),)
    np.testing.assert_allclose(
        shifted.integral(0.0, 1.0, xs), a.integral(0.0, 1.0, xs) - 2.5, atol=1e-15
    )
    assert shifted.period == a.period


def test_sup_difference_between_shifted_pairs_is_the_shift():
    a = parse_coefficient("time-sine(0.3,1.0)", period=1.0)
    assert sup_difference(a, shift_coefficient(a, 0.25), COORDS) == pytest.approx(0.25, abs=1e-15)
    assert sup_difference(a, a, COORDS) == 0.0


def test_sup_difference_requires_matching_periods():
    a = constant_coefficient(1.0, period=1.0)
    b = constant_coefficient(1.0, period=2.0)
    with pytest.raises(ValidationError):
        sup_difference(a, b, COORDS)


def test_parameters_use_the_config_number_grammar():
    a = parse_coefficient("space-cosine(1,0.5,2*pi)", 1.0)
    b = parse_coefficient("space-cosine(1,0.5,6.283185307179586)", 1.0)
    for t in (0.0, 0.3):
        assert a.evaluate(t, COORDS).tobytes() == b.evaluate(t, COORDS).tobytes()
    for text in ("const(nan)", "tx-product(1,inf,1)"):
        with pytest.raises(ValidationError, match="not finite"):
            parse_coefficient(text, 1.0)


def test_parse_rejects_malformed_entries():
    with pytest.raises(ValidationError, match="catalog"):
        parse_coefficient("gaussian(1)", 1.0)
    with pytest.raises(ValidationError):
        parse_coefficient("const()", 1.0)
    with pytest.raises(ValidationError):
        parse_coefficient("time-sine(1)", 1.0)
    with pytest.raises(ValidationError):
        parse_coefficient("const(two)", 1.0)
    with pytest.raises(ValidationError):
        parse_coefficient("const 1", 1.0)
    with pytest.raises(ValidationError):
        constant_coefficient(1.0, period=-1.0)


def test_descriptions_round_trip_through_the_parser():
    a = parse_coefficient("tx-product(1,0.5,1)", period=1.0)
    b = parse_coefficient(a.description, period=1.0)
    assert scalar(b, 0.33, 1.2) == scalar(a, 0.33, 1.2)
