"""Catalog of analytic time-periodic coefficients a(t, x).

Every coefficient carries its period, a nodal evaluator, and an exact
closed-form time integral.  The exact integral is what lets the spectral
period map treat the reaction factor by an integrating factor with no
additional time-discretization error.

Evaluation reduces the time argument modulo the period first (an exact
floating-point operation), so periodicity ``a(t + T, x) == a(t, x)`` holds
bitwise whenever ``t + T`` is itself exactly representable.

Catalog entries (the names accepted by :func:`parse_coefficient`; each
parameter is a number in the config grammar, so ``2*pi`` is allowed):

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

from .config import parse_number
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
        _check_period(self.period)


def _check_period(period: float) -> None:
    if period <= 0.0:
        raise ValidationError(f"the coefficient period T must be positive, got {period!r}")


def _angular_frequency(period: float) -> float:
    """``2 pi / period``, checked first so that ``T = 0`` is refused, not divided by."""
    _check_period(period)
    return 2.0 * math.pi / period


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
    omega = _angular_frequency(period)

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
    omega = _angular_frequency(period)
    cosine = _cosine_factor(k)

    def evaluate(t, coords):
        return c0 + c1 * math.sin(omega * _phase(t, period)) * cosine(coords[0])

    def integral(t0, t1, coords):
        swing = math.cos(omega * _phase(t1, period)) - math.cos(omega * _phase(t0, period))
        return c0 * (t1 - t0) - c1 * cosine(coords[0]) * swing / omega

    return TimePeriodicCoefficient(period, evaluate, integral, f"tx-product({c0!r},{c1!r},{k!r})")


_CALL = re.compile(r"^\s*([a-z][a-z-]*)\s*\((.*)\)\s*$", re.DOTALL)


def split_call(text: str) -> tuple[str, str]:
    """Split ``name(inner)`` into its parts, or raise."""
    match = _CALL.match(text)
    if not match:
        raise ValidationError(f"cannot parse catalog entry {text!r}; expected name(args)")
    return match.group(1), match.group(2)


def parse_call(text: str, what: str, arities: dict[str, int]) -> tuple[str, list[float]]:
    """Read a ``what``'s catalog entry ``name(p, ...)`` or bare ``name``: ``arities`` maps each
    catalog name to its parameter count, and each ``p`` is read by ``config.parse_number``."""
    name, inner = split_call(text) if "(" in text else (text.strip(), "")
    if name not in arities:
        raise ValidationError(f"unknown {what} {name!r}; catalog: {', '.join(sorted(arities))}")
    parts = inner.split(",") if inner.strip() else []
    if len(parts) != arities[name]:
        raise ValidationError(f"{what} {name} takes {arities[name]} parameter(s), got {len(parts)}")
    return name, [parse_number(p) for p in parts]


#: Catalog name -> (parameter count, builder called with the parameters and the period).
_CATALOG = {
    "const": (1, constant_coefficient),
    "time-sine": (2, time_sine),
    "space-cosine": (3, space_cosine),
    "tx-product": (3, time_space_product),
}
_ARITY = {name: arity for name, (arity, _) in _CATALOG.items()}


def parse_coefficient(text: str, period: float) -> TimePeriodicCoefficient:
    """Build a catalog coefficient from its textual form, e.g. ``tx-product(1,0.5,1)``."""
    name, args = parse_call(text, "coefficient", _ARITY)
    return _CATALOG[name][1](*args, period)


def time_average(a: TimePeriodicCoefficient, coords: Coords) -> np.ndarray:
    """Per-node time average of ``a`` over one period, from its exact integral."""
    return a.integral(0.0, a.period, coords) / a.period
