"""Compactly supported dispersal kernels and their rescalings.

A kernel profile is a radially symmetric, nonnegative density supported on
the closed unit ball and normalized to unit mass.  Rescaling by the
dispersal distance ``delta`` squeezes the support to radius ``delta`` while
preserving mass, and the associated dispersal rate ``C / delta**2`` is the
scaling under which the resulting jump operator is consistent with the
Laplacian; ``C`` is the reciprocal half second moment of the profile.

Two families are provided:

* ``quartic-polynomial`` — ``(1 - |z|**2)**2`` up to normalization.  Only
  once continuously differentiable at the support edge, but every moment
  has a closed form, so it is the family of choice wherever an analytic
  oracle is wanted.
* ``standard-mollifier`` — ``exp(-1/(1 - |z|**2))`` up to normalization.
  Infinitely smooth with all derivatives vanishing at the edge; the family
  of choice wherever smoothness of the profile matters more than closed
  forms.

All integrals are computed by a composite Gauss-Legendre rule on the radial
profile.  The panel width is ``1/DEFAULT_PANELS`` of the support radius and
the Gauss nodes are strictly interior to each panel, so the mollifier is
never evaluated at the edge of its support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

QUARTIC = "quartic-polynomial"
MOLLIFIER = "standard-mollifier"
FAMILIES = (QUARTIC, MOLLIFIER)

#: Default number of radial quadrature panels (node spacing 1/512 of the
#: support radius; four Gauss nodes per panel).
DEFAULT_PANELS = 512

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class KernelProfile:
    """Immutable description of one normalized kernel.

    Parameters
    ----------
    family:
        One of ``quartic-polynomial`` or ``standard-mollifier``.
    dimension:
        Spatial dimension, 1 or 2.
    normalization:
        Multiplier that makes the profile integrate to one.
    moment_constant:
        Reciprocal half second moment of the normalized profile.
    """

    family: str
    dimension: int
    normalization: float
    moment_constant: float


def _radial_shape(family: str, r: np.ndarray) -> np.ndarray:
    """Unnormalized radial profile evaluated at radii ``r >= 0``."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    if family == QUARTIC:
        s = r[inside]
        out[inside] = (1.0 - s * s) ** 2
    elif family == MOLLIFIER:
        s = r[inside]
        out[inside] = np.exp(-1.0 / (1.0 - s * s))
    else:
        raise ValidationError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
    return out


def _radial_moment(family: str, power: int, panels: int) -> float:
    """Integral of ``r**power * shape(r)`` over ``[0, 1]`` by composite Gauss-Legendre."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    weights = np.broadcast_to(half * _GL_WEIGHTS, (panels, 4)).ravel()
    values = nodes**power * _radial_shape(family, nodes)
    return float(np.dot(weights, values))


def _unnormalized_mass(family: str, dimension: int, panels: int) -> float:
    if dimension == 1:
        return 2.0 * _radial_moment(family, 0, panels)
    return 2.0 * math.pi * _radial_moment(family, 1, panels)


def _normalized_second_moment(profile: KernelProfile, panels: int) -> float:
    """Integral of ``k0(z) * z_N**2`` for the normalized profile."""
    if profile.dimension == 1:
        raw = 2.0 * _radial_moment(profile.family, 2, panels)
    else:
        # In polar coordinates z_N = r sin(theta) and the angular integral of
        # sin(theta)**2 over a full turn is pi.
        raw = math.pi * _radial_moment(profile.family, 3, panels)
    return profile.normalization * raw


def kernel_profile(family: str, dimension: int = 1) -> KernelProfile:
    """Build a normalized :class:`KernelProfile` by quadrature on ``DEFAULT_PANELS`` panels.

    The quartic family uses its closed-form normalization (``15/16`` in one
    dimension, ``3/pi`` in two); the mollifier is normalized by quadrature.
    """
    if dimension not in (1, 2):
        raise ValidationError(f"dimension must be 1 or 2, got {dimension}")
    if family == QUARTIC:
        normalization = 15.0 / 16.0 if dimension == 1 else 3.0 / math.pi
    elif family == MOLLIFIER:
        normalization = 1.0 / _unnormalized_mass(family, dimension, DEFAULT_PANELS)
    else:
        raise ValidationError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
    partial = KernelProfile(family, dimension, normalization, moment_constant=math.nan)
    sigma2 = _normalized_second_moment(partial, DEFAULT_PANELS)
    return KernelProfile(family, dimension, normalization, moment_constant=2.0 / sigma2)


def _radius(dimension: int, z) -> np.ndarray:
    """Euclidean norm of one point or an array of points."""
    z = np.asarray(z, dtype=float)
    if dimension == 1:
        return np.abs(z)
    if z.shape[-1] != dimension:
        raise ValidationError(f"expected points with {dimension} components, got shape {z.shape}")
    return np.sqrt(np.sum(z * z, axis=-1))


def evaluate_k0(profile: KernelProfile, z) -> np.ndarray | float:
    """Evaluate the normalized profile at displacement ``z``.

    Accepts a scalar (1-D), a length-``dimension`` point, or any array of
    such points; returns matching shape.  Zero outside the open unit ball.
    """
    r = _radius(profile.dimension, z)
    out = profile.normalization * _radial_shape(profile.family, r)
    if np.ndim(out) == 0:
        return float(out)
    return out


def scaled_kernel(profile: KernelProfile, delta: float, displacement) -> np.ndarray | float:
    """Evaluate the rescaled kernel ``delta**-N * k0(displacement / delta)``."""
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    scale = delta ** (-profile.dimension)
    z = np.asarray(displacement, dtype=float) / delta
    return scale * evaluate_k0(profile, z)


def dispersal_rate(moment_constant_value: float, delta: float) -> float:
    """Rate ``C / delta**2`` pairing with kernel radius ``delta``."""
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    if moment_constant_value <= 0.0:
        raise ValidationError(f"moment constant must be positive, got {moment_constant_value}")
    return moment_constant_value / (delta * delta)
