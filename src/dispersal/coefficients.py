"""Catalog of analytic time-periodic coefficients a(t, x).

Every coefficient carries its period, a nodal evaluator, and an exact
closed-form time integral.  The exact integral is what lets the spectral
period map treat the reaction factor by an integrating factor with no
additional time-discretization error.

Evaluation reduces the time argument modulo the period first (an exact
floating-point operation), so periodicity ``a(t + T, x) == a(t, x)`` holds
bitwise whenever ``t + T`` is itself exactly representable.

Catalog entries (the names accepted by :func:`parse_coefficient`):

================  =============================================
``const(c)``           ``c``
``time-sine(c0,c1)``   ``c0 + c1 sin(2 pi t / T)``
``space-cosine(c0,c1,k)``  ``c0 + c1 cos(k x)``
``tx-product(c0,c1,k)``    ``c0 + c1 sin(2 pi t / T) cos(k x)``
================  =============================================

``x`` is the first spatial coordinate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

Coords = tuple


def _phase(t: float, period: float) -> float:
    tau = math.fmod(t, period)
    return tau + period if tau < 0.0 else tau


@dataclass(frozen=True)
class TimePeriodicCoefficient:
    """A coefficient ``a(t, x)``, periodic in ``t`` with period ``period``.

    ``evaluate(t, coords)`` returns per-node values given the grid's
    coordinate columns; ``integral(t0, t1, coords)`` returns the exact
    integral of ``a(., x)`` over ``[t0, t1]`` per node.
    """

    period: float
    evaluate: Callable[[float, Coords], np.ndarray]
    integral: Callable[[float, float, Coords], np.ndarray]
    description: str

    def __post_init__(self):
        if self.period <= 0.0:
            raise ValidationError(f"coefficient period must be positive, got {self.period}")


def constant_coefficient(c: float, period: float = 1.0) -> TimePeriodicCoefficient:
    c = float(c)
    return TimePeriodicCoefficient(
        period=period,
        evaluate=lambda t, coords: np.full_like(coords[0], c),
        integral=lambda t0, t1, coords: np.full_like(coords[0], c * (t1 - t0)),
        description=f"const({c!r})",
    )


def time_sine(c0: float, c1: float, period: float) -> TimePeriodicCoefficient:
    c0, c1, period = float(c0), float(c1), float(period)
    omega = 2.0 * math.pi / period

    def evaluate(t, coords):
        return np.full_like(coords[0], c0 + c1 * math.sin(omega * _phase(t, period)))

    def integral(t0, t1, coords):
        swing = math.cos(omega * _phase(t1, period)) - math.cos(omega * _phase(t0, period))
        return np.full_like(coords[0], c0 * (t1 - t0) - c1 * swing / omega)

    return TimePeriodicCoefficient(period, evaluate, integral, f"time-sine({c0!r},{c1!r})")


def _cosine_factor(k: float) -> Callable[[np.ndarray], np.ndarray]:
    """``x -> cos(k x)``, remembering the factor of the last coordinate array.

    Steppers evaluate a coefficient thousands of times on one grid's
    coordinates, so the factor is computed once per coordinate array.
    Only the last ``(array, factor)`` pair is kept, matched by identity:
    memory stays bounded, and a factor never outlives the array it was
    computed from (the pair holds that array, so its identity cannot be
    reused).  Coordinate arrays are not modified in place.
    """
    last: list = [None, None]

    def factor(x: np.ndarray) -> np.ndarray:
        if last[0] is not x:
            last[:] = [x, np.cos(k * x)]
        return last[1]

    return factor


def space_cosine(c0: float, c1: float, k: float, period: float = 1.0) -> TimePeriodicCoefficient:
    c0, c1, k = float(c0), float(c1), float(k)
    cosine = _cosine_factor(k)

    def evaluate(t, coords):
        return c0 + c1 * cosine(coords[0])

    def integral(t0, t1, coords):
        return (c0 + c1 * cosine(coords[0])) * (t1 - t0)

    return TimePeriodicCoefficient(period, evaluate, integral, f"space-cosine({c0!r},{c1!r},{k!r})")


def time_space_product(c0: float, c1: float, k: float, period: float) -> TimePeriodicCoefficient:
    """``c0 + c1 sin(2 pi t / T) cos(k x)`` — oscillates in both arguments."""
    c0, c1, k, period = float(c0), float(c1), float(k), float(period)
    omega = 2.0 * math.pi / period
    cosine = _cosine_factor(k)

    def evaluate(t, coords):
        return c0 + c1 * math.sin(omega * _phase(t, period)) * cosine(coords[0])

    def integral(t0, t1, coords):
        swing = math.cos(omega * _phase(t1, period)) - math.cos(omega * _phase(t0, period))
        return c0 * (t1 - t0) - c1 * cosine(coords[0]) * swing / omega

    return TimePeriodicCoefficient(period, evaluate, integral, f"tx-product({c0!r},{c1!r},{k!r})")


def shift_coefficient(a: TimePeriodicCoefficient, c: float) -> TimePeriodicCoefficient:
    """The coefficient ``a + c`` with the same period."""
    c = float(c)
    return TimePeriodicCoefficient(
        period=a.period,
        evaluate=lambda t, coords: a.evaluate(t, coords) + c,
        integral=lambda t0, t1, coords: a.integral(t0, t1, coords) + c * (t1 - t0),
        description=f"{a.description}+{c!r}",
    )


_CALL = re.compile(r"^\s*([a-z][a-z-]*)\s*\((.*)\)\s*$", re.DOTALL)

_ARITY = {"const": 1, "time-sine": 2, "space-cosine": 3, "tx-product": 3}


def split_call(text: str) -> tuple[str, str]:
    """Split ``name(inner)`` into its parts, or raise."""
    match = _CALL.match(text)
    if not match:
        raise ValidationError(f"cannot parse catalog entry {text!r}; expected name(args)")
    return match.group(1), match.group(2)


def parse_coefficient(text: str, period: float) -> TimePeriodicCoefficient:
    """Build a catalog coefficient from its textual form, e.g. ``tx-product(1,0.5,1)``."""
    name, inner = split_call(text)
    if name not in _ARITY:
        raise ValidationError(
            f"unknown coefficient {name!r}; catalog: {', '.join(sorted(_ARITY))}"
        )
    parts = [p.strip() for p in inner.split(",")] if inner.strip() else []
    if len(parts) != _ARITY[name]:
        raise ValidationError(f"coefficient {name} takes {_ARITY[name]} parameters, got {len(parts)}")
    try:
        args = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"bad numeric parameter in {text!r}: {exc}") from None
    if name == "const":
        return constant_coefficient(args[0], period)
    if name == "time-sine":
        return time_sine(args[0], args[1], period)
    if name == "space-cosine":
        return space_cosine(args[0], args[1], args[2], period)
    return time_space_product(args[0], args[1], args[2], period)


def time_average(a: TimePeriodicCoefficient, coords: Coords) -> np.ndarray:
    """Per-node time average of ``a`` over one period (512-panel composite trapezoid)."""
    times = np.linspace(0.0, a.period, 513)
    total = 0.5 * (a.evaluate(times[0], coords) + a.evaluate(times[-1], coords))
    for t in times[1:-1]:
        total = total + a.evaluate(float(t), coords)
    return total / 512


def sup_difference(
    a1: TimePeriodicCoefficient, a2: TimePeriodicCoefficient, coords: Coords
) -> float:
    """Max of ``|a1 - a2|`` over a lattice of 513 times (period ends included) by all nodes."""
    if a1.period != a2.period:
        raise ValidationError("coefficients must share a period to be compared")
    worst = 0.0
    for t in np.linspace(0.0, a1.period, 513):
        gap = np.max(np.abs(a1.evaluate(float(t), coords) - a2.evaluate(float(t), coords)))
        worst = max(worst, float(gap))
    return worst
