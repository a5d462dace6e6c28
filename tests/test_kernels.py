"""Kernel shapes, rescaling and failure modes; the continuum constants of the oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dispersal import MOLLIFIER, QUARTIC, ValidationError, kernel_profile, scaled_kernel
from oracles import (
    QuadratureFailureError,
    continuum_kernel,
    dispersal_rate,
    kernel_mass,
    moment_constant,
    normalization,
    second_moment,
)

# Reference values for the mollifier family, frozen from an independent
# high-resolution quadrature pass (adaptive rule, tolerance 1e-12).
MOLLIFIER_NORM_1D = 2.252283621044
MOLLIFIER_SIGMA2_1D = 0.158113636264
MOLLIFIER_C_1D = 12.649130380274


def test_quartic_1d_moment_constant_is_14():
    assert moment_constant(kernel_profile(QUARTIC, 1)) == pytest.approx(14.0, abs=1e-12)


def test_quartic_2d_moment_constant_is_16():
    assert moment_constant(kernel_profile(QUARTIC, 2)) == pytest.approx(16.0, abs=1e-9)


def test_quartic_normalizations_are_closed_form():
    for dimension, closed_form in ((1, 15.0 / 16.0), (2, 3.0 / math.pi)):
        profile = kernel_profile(QUARTIC, dimension)
        assert normalization(profile) == closed_form
        assert closed_form == pytest.approx(1.0 / kernel_mass(profile, 1.0), rel=1e-12)


def test_mollifier_1d_matches_frozen_references():
    profile = kernel_profile(MOLLIFIER, 1)
    assert normalization(profile) == pytest.approx(MOLLIFIER_NORM_1D, abs=1e-9)
    assert second_moment(profile) == pytest.approx(MOLLIFIER_SIGMA2_1D, abs=1e-9)
    assert moment_constant(profile) == pytest.approx(MOLLIFIER_C_1D, abs=1e-8)


def test_mollifier_against_adaptive_quadrature_oracle():
    """Cross-check the composite rule against an unrelated adaptive rule."""
    profile = kernel_profile(MOLLIFIER, 1)
    mass, err = quad(lambda z: continuum_kernel(profile, 1.0, z), -1.0, 1.0, epsabs=1e-12)
    assert err < 1e-8
    assert mass == pytest.approx(1.0, abs=1e-10)
    sig2, err = quad(lambda z: z * z * continuum_kernel(profile, 1.0, z), -1.0, 1.0, epsabs=1e-12)
    assert err < 1e-8
    assert second_moment(profile) == pytest.approx(sig2, abs=1e-10)


def test_refining_panels_does_not_move_the_constants():
    for family in (QUARTIC, MOLLIFIER):
        for dimension in (1, 2):
            profile = kernel_profile(family, dimension)
            coarse = (normalization(profile), moment_constant(profile))  # 512 panels
            fine = (normalization(profile, 4096), moment_constant(profile, panels=4096))
            assert coarse == pytest.approx(fine, rel=1e-8)


def test_evaluate_quartic_point_values():
    profile = kernel_profile(QUARTIC, 1)
    assert scaled_kernel(profile, 1.0, 0.0) == 1.0
    assert scaled_kernel(profile, 1.0, 0.5) == 0.5625
    assert scaled_kernel(profile, 1.0, 1.0) == 0.0
    assert scaled_kernel(profile, 1.0, -1.2) == 0.0


def test_scaled_kernel_at_half_radius():
    profile = kernel_profile(QUARTIC, 1)
    assert scaled_kernel(profile, 0.5, 0.0) == 1.0
    assert scaled_kernel(profile, 0.5, 0.25) == 0.5625
    assert scaled_kernel(profile, 0.5, 0.6) == 0.0
    z = np.linspace(-1.5, 1.5, 31)
    closed_form = np.where(np.abs(z) < 1.0, (1.0 - z * z) ** 2, 0.0)
    np.testing.assert_array_equal(scaled_kernel(profile, 1.0, z), closed_form)


def test_scaled_kernel_2d_point():
    profile = kernel_profile(QUARTIC, 2)
    value = scaled_kernel(profile, 1.0, [0.3, 0.4])
    assert value == pytest.approx((1.0 - 0.25) ** 2, rel=1e-15)
    assert scaled_kernel(profile, 0.5, [0.15, 0.2]) == pytest.approx(value, rel=1e-15)


@pytest.mark.parametrize("family", [QUARTIC, MOLLIFIER])
@pytest.mark.parametrize("delta", [1.0, 0.5, 0.1])
def test_rescaling_preserves_mass(family, delta):
    profile = kernel_profile(family, 1)
    mass, err = quad(
        lambda z: continuum_kernel(profile, delta, z), -delta, delta, epsabs=1e-12, limit=200
    )
    assert err < 1e-9
    assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("family", [QUARTIC, MOLLIFIER])
def test_unit_mass_under_module_quadrature(family):
    for dimension in (1, 2):
        profile = kernel_profile(family, dimension)
        assert kernel_mass(profile) == pytest.approx(1.0, abs=1e-10)


def test_dispersal_rate_scaling():
    assert dispersal_rate(kernel_profile(QUARTIC, 1), 0.1) == pytest.approx(1400.0, rel=1e-12)
    assert dispersal_rate(kernel_profile(QUARTIC, 2), 0.5) == pytest.approx(64.0, rel=1e-9)


def test_corrupted_normalization_is_caught():
    profile = kernel_profile(MOLLIFIER, 1)
    with pytest.raises(QuadratureFailureError):
        moment_constant(profile, normalization(profile) * (1.0 + 1e-6))


def test_constructor_rejects_bad_requests():
    with pytest.raises(ValidationError):
        kernel_profile("triangle", 1)
    with pytest.raises(ValidationError):
        kernel_profile(QUARTIC, 3)
    with pytest.raises(TypeError):
        kernel_profile(QUARTIC, 1, panels=4)  # the runtime kernel is its shape alone
    with pytest.raises(ValidationError):
        scaled_kernel(kernel_profile(QUARTIC, 1), -0.5, 0.0)
    with pytest.raises(ValidationError, match="2 components"):
        scaled_kernel(kernel_profile(QUARTIC, 2), 1.0, [0.1, 0.2, 0.3])


@settings(max_examples=50, deadline=None)
@given(
    family=st.sampled_from([QUARTIC, MOLLIFIER]),
    z=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_profile_is_even_and_nonnegative(family, z):
    profile = kernel_profile(family, 1)
    left = scaled_kernel(profile, 1.0, -z)
    right = scaled_kernel(profile, 1.0, z)
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
    s = z / delta
    expected = (1.0 - s * s) ** 2 if abs(s) < 1.0 else 0.0
    assert scaled_kernel(profile, delta, z) == pytest.approx(expected, rel=1e-15, abs=0.0)
