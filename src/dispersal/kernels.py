"""Compactly supported dispersal kernels: the shapes the jump operator samples.

A kernel profile is a radially symmetric, nonnegative shape supported on
the open unit ball.  The continuum jump operator is ``(C / delta**2)``
times the integral of ``k_delta(x - y) (u(y) - u(x)) dy``, with
``k_delta`` the profile normalized to unit mass and squeezed to radius
``delta``, and ``C`` its reciprocal half second moment.  The assembly
(:func:`dispersal.operators.assemble_nonlocal`) scales its samples of the
kernel by the one factor that gives the stencil the continuum second
moment 2, and that factor absorbs the unit-mass factor of ``k_delta``,
``C / delta**2`` and the cell weight ``h**N``.  So the runtime holds the
shape alone; the continuum constants (``C`` is 14 and 16 for the quartic
family in one and two dimensions) are recomputed by quadrature in the
tests' oracles.

Two families are provided:

* ``quartic-polynomial`` — ``(1 - |z|**2)**2``.  Only once continuously
  differentiable at the support edge, but every moment has a closed form,
  so it is the family of choice wherever an analytic oracle is wanted.
* ``standard-mollifier`` — ``exp(-1/(1 - |z|**2))``.  Infinitely smooth
  with all derivatives vanishing at the edge; the family of choice
  wherever smoothness of the profile matters more than closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

QUARTIC = "quartic-polynomial"
MOLLIFIER = "standard-mollifier"
FAMILIES = (QUARTIC, MOLLIFIER)


@dataclass(frozen=True)
class KernelProfile:
    """One kernel shape: its ``family`` (one of :data:`FAMILIES`) in ``dimension`` 1 or 2."""

    family: str
    dimension: int


def _radial_shape(family: str, r: np.ndarray) -> np.ndarray:
    """The shape of ``family`` at radii ``r``: zero where ``|r| >= 1``."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    s = r[inside]
    if family == QUARTIC:
        out[inside] = (1.0 - s * s) ** 2
    else:  # MOLLIFIER; kernel_profile admits no other family
        out[inside] = np.exp(-1.0 / (1.0 - s * s))
    return out


def kernel_profile(family: str, dimension: int = 1) -> KernelProfile:
    """Check the request and return the :class:`KernelProfile` of ``family`` in ``dimension``."""
    if dimension not in (1, 2):
        raise ValidationError(f"dimension must be 1 or 2, got {dimension}")
    if family not in FAMILIES:
        raise ValidationError(f"unknown kernel family {family!r}; expected one of {FAMILIES}")
    return KernelProfile(family, dimension)


def scaled_kernel(profile: KernelProfile, delta: float, displacement) -> np.ndarray | float:
    """The shape at ``displacement / delta``: zero at and beyond radius ``delta``.

    Accepts a scalar (1-D), a length-``dimension`` point, or any array of
    such points; returns the matching shape.
    """
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    z = np.asarray(displacement, dtype=float) / delta
    if profile.dimension == 1:
        r = np.abs(z)
    elif z.shape[-1] != profile.dimension:
        raise ValidationError(
            f"expected points with {profile.dimension} components, got shape {z.shape}"
        )
    else:
        r = np.sqrt(np.sum(z * z, axis=-1))
    out = _radial_shape(profile.family, r)
    return float(out) if out.ndim == 0 else out
