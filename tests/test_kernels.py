"""Kernel profiles: normalization, moments, rescaling, and failure modes."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dispersal import (
    MOLLIFIER,
    QUARTIC,
    QuadratureFailureError,
    ValidationError,
    dispersal_rate,
    evaluate_k0,
    kernel_profile,
    scaled_kernel,
)
from dispersal.kernels import DEFAULT_PANELS, _normalized_second_moment, _unnormalized_mass
from oracles import kernel_mass, moment_constant, second_moment

# Reference values for the mollifier family, frozen from an independent
# high-resolution quadrature pass (adaptive rule, tolerance 1e-12).
MOLLIFIER_NORM_1D = 2.252283621044
MOLLIFIER_SIGMA2_1D = 0.158113636264
MOLLIFIER_C_1D = 12.649130380274


def test_quartic_1d_moment_constant_is_14():
    profile = kernel_profile(QUARTIC, 1)
    assert profile.moment_constant == pytest.approx(14.0, abs=1e-12)
    assert moment_constant(profile) == pytest.approx(14.0, abs=1e-12)


def test_quartic_2d_moment_constant_is_16():
    profile = kernel_profile(QUARTIC, 2)
    assert profile.moment_constant == pytest.approx(16.0, abs=1e-9)


def test_quartic_normalizations_are_closed_form():
    assert kernel_profile(QUARTIC, 1).normalization == 15.0 / 16.0
    assert kernel_profile(QUARTIC, 2).normalization == 3.0 / math.pi


def test_mollifier_1d_matches_frozen_references():
    profile = kernel_profile(MOLLIFIER, 1)
    assert profile.normalization == pytest.approx(MOLLIFIER_NORM_1D, abs=1e-9)
    assert second_moment(profile) == pytest.approx(MOLLIFIER_SIGMA2_1D, abs=1e-9)
    assert profile.moment_constant == pytest.approx(MOLLIFIER_C_1D, abs=1e-8)


def test_mollifier_against_adaptive_quadrature_oracle():
    """Cross-check the composite rule against an unrelated adaptive rule."""
    profile = kernel_profile(MOLLIFIER, 1)
    mass, err = quad(lambda z: evaluate_k0(profile, z), -1.0, 1.0, epsabs=1e-12)
    assert err < 1e-8
    assert mass == pytest.approx(1.0, abs=1e-10)
    sig2, err = quad(lambda z: z * z * evaluate_k0(profile, z), -1.0, 1.0, epsabs=1e-12)
    assert err < 1e-8
    assert second_moment(profile) == pytest.approx(sig2, abs=1e-10)


def constants_at(family, dimension, panels):
    """The normalization and moment constant as ``kernel_profile`` computes them, at ``panels``."""
    profile = kernel_profile(family, dimension)
    if family == MOLLIFIER:
        mass = _unnormalized_mass(family, dimension, panels)
        profile = dataclasses.replace(profile, normalization=1.0 / mass)
    return profile.normalization, 2.0 / _normalized_second_moment(profile, panels)


def test_refining_panels_does_not_move_the_constants():
    for family in (QUARTIC, MOLLIFIER):
        for dimension in (1, 2):
            profile = kernel_profile(family, dimension)
            coarse = constants_at(family, dimension, DEFAULT_PANELS)  # 512
            fine = constants_at(family, dimension, 4096)
            assert coarse == (profile.normalization, profile.moment_constant)  # bitwise
            assert coarse == pytest.approx(fine, rel=1e-8)


def test_evaluate_quartic_point_values():
    profile = kernel_profile(QUARTIC, 1)
    assert evaluate_k0(profile, 0.0) == 0.9375
    assert evaluate_k0(profile, 0.5) == 0.52734375
    assert evaluate_k0(profile, 1.0) == 0.0
    assert evaluate_k0(profile, -1.2) == 0.0


def test_scaled_kernel_at_half_radius():
    profile = kernel_profile(QUARTIC, 1)
    assert scaled_kernel(profile, 0.5, 0.0) == 1.875
    assert scaled_kernel(profile, 0.5, 0.6) == 0.0
    # delta = 1 leaves the profile untouched.
    z = np.linspace(-1.5, 1.5, 31)
    np.testing.assert_array_equal(scaled_kernel(profile, 1.0, z), evaluate_k0(profile, z))


def test_scaled_kernel_2d_point():
    profile = kernel_profile(QUARTIC, 2)
    value = evaluate_k0(profile, [0.3, 0.4])
    assert value == pytest.approx((3.0 / math.pi) * (1.0 - 0.25) ** 2, rel=1e-15)
    assert scaled_kernel(profile, 0.5, [0.15, 0.2]) == pytest.approx(4.0 * value, rel=1e-15)


@pytest.mark.parametrize("family", [QUARTIC, MOLLIFIER])
@pytest.mark.parametrize("delta", [1.0, 0.5, 0.1])
def test_rescaling_preserves_mass(family, delta):
    profile = kernel_profile(family, 1)
    mass, err = quad(
        lambda z: scaled_kernel(profile, delta, z), -delta, delta, epsabs=1e-12, limit=200
    )
    assert err < 1e-9
    assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("family", [QUARTIC, MOLLIFIER])
def test_unit_mass_under_module_quadrature(family):
    for dimension in (1, 2):
        profile = kernel_profile(family, dimension)
        assert kernel_mass(profile) == pytest.approx(1.0, abs=1e-10)


def test_dispersal_rate_scaling():
    assert dispersal_rate(14.0, 0.1) == pytest.approx(1400.0, rel=1e-14)
    assert dispersal_rate(16.0, 0.5) == pytest.approx(64.0, rel=1e-14)
    with pytest.raises(ValidationError):
        dispersal_rate(14.0, 0.0)
    with pytest.raises(ValidationError):
        dispersal_rate(-1.0, 0.1)


def test_corrupted_normalization_is_caught():
    profile = kernel_profile(MOLLIFIER, 1)
    corrupted = dataclasses.replace(profile, normalization=profile.normalization * (1.0 + 1e-6))
    with pytest.raises(QuadratureFailureError):
        moment_constant(corrupted)


def test_constructor_rejects_bad_requests():
    with pytest.raises(ValidationError):
        kernel_profile("triangle", 1)
    with pytest.raises(ValidationError):
        kernel_profile(QUARTIC, 3)
    with pytest.raises(TypeError):
        kernel_profile(QUARTIC, 1, panels=4)  # the quadrature is fixed at DEFAULT_PANELS
    with pytest.raises(ValidationError):
        scaled_kernel(kernel_profile(QUARTIC, 1), -0.5, 0.0)


@settings(max_examples=50, deadline=None)
@given(
    family=st.sampled_from([QUARTIC, MOLLIFIER]),
    z=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_profile_is_even_and_nonnegative(family, z):
    profile = kernel_profile(family, 1)
    left = evaluate_k0(profile, -z)
    right = evaluate_k0(profile, z)
    assert left == right  # bitwise: the profile only sees z*z
    assert right >= 0.0
    if abs(z) >= 1.0:
        assert right == 0.0


@settings(max_examples=30, deadline=None)
@given(
    delta=st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    z=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_rescaling_is_pure_dilation(delta, z):
    profile = kernel_profile(QUARTIC, 1)
    expected = evaluate_k0(profile, z / delta) / delta
    assert scaled_kernel(profile, delta, z) == pytest.approx(expected, rel=1e-15, abs=0.0)
