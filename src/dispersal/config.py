"""Flat ``key = value`` experiment configuration files.

One experiment per file; ``#`` starts a comment; keys are case-sensitive.
Numeric values accept restricted arithmetic with the constant ``pi``
(digits, ``+ - * / ( )`` and ``pi``), so exact grid spacings like
``2*pi/1024`` can be written without decimal truncation.  Lists are
comma-separated.

The parser tracks which keys each runner consumes, so a typo or stray key
is reported by name instead of being silently ignored.
"""

from __future__ import annotations

import ast
import math
import operator
from pathlib import Path

from .errors import ValidationError

_MISSING = object()

#: The operations a number may use, by syntax node type.
_OPERATIONS = {
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
}


def parse_number(text: str) -> float:
    """Parse a finite float, allowing restricted arithmetic with ``pi``."""
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        try:
            value = _eval_node(ast.parse(text, mode="eval").body, text)
        except SyntaxError:
            raise ValidationError(f"cannot parse number {text!r}") from None
        except OverflowError:  # an integer literal beyond the float range
            raise ValidationError(f"number {text!r} is not finite") from None
    if not math.isfinite(value):
        raise ValidationError(f"number {text!r} is not finite")
    return value


def _eval_node(node: ast.AST, source: str) -> float:
    """Evaluate one node of a number expression; every value it yields must be finite."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)
    elif isinstance(node, ast.Name) and node.id == "pi":
        value = math.pi
    elif isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATIONS:
        value = _OPERATIONS[type(node.op)](_eval_node(node.operand, source))
    elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATIONS:
        left = _eval_node(node.left, source)
        right = _eval_node(node.right, source)
        if isinstance(node.op, ast.Div) and right == 0.0:
            raise ValidationError(f"division by zero in number {source!r}")
        value = _OPERATIONS[type(node.op)](left, right)
    else:
        raise ValidationError(
            f"cannot parse number {source!r}: only digits, pi, + - * / and parentheses are allowed"
        )
    if not math.isfinite(value):
        raise ValidationError(f"number {source!r} is not finite")
    return value


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines into an ordered mapping of raw strings."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ValidationError(f"{source}:{lineno}: empty key")
        if key in mapping:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


class ExperimentConfig:
    """Typed, consumption-tracked view over a raw key-value mapping."""

    def __init__(self, mapping: dict[str, str], source: str = "<config>"):
        self.mapping = dict(mapping)
        self.source = source
        self._consumed: set[str] = set()
        #: Resolved values echoed into the reproducibility record.
        self.resolved: dict[str, str] = {}

    def _fetch(self, key: str, default):
        self._consumed.add(key)
        if key in self.mapping:
            return self.mapping[key]
        if default is _MISSING:
            raise ValidationError(f"{self.source}: missing required config key {key!r}")
        return None

    def get_str(self, key: str, default=_MISSING, choices: tuple[str, ...] | None = None) -> str:
        raw = self._fetch(key, default)
        value = default if raw is None else raw
        if choices is not None and value not in choices:
            raise ValidationError(
                f"{self.source}: config key {key!r} must be one of {list(choices)}, got {value!r}"
            )
        self.resolved[key] = str(value)
        return value

    def get_number(self, key: str, default=_MISSING) -> float:
        raw = self._fetch(key, default)
        value = float(default) if raw is None else parse_number(raw)
        self.resolved[key] = repr(value)
        return value

    def get_int(self, key: str, default=_MISSING) -> int:
        raw = self._fetch(key, default)
        if raw is None:
            value = int(default)
        else:
            value = parse_number(raw)
            if abs(value - round(value)) > 0:
                raise ValidationError(f"{self.source}: config key {key!r} must be an integer, got {raw!r}")
            value = int(round(value))
        self.resolved[key] = str(value)
        return value

    def get_number_list(self, key: str) -> list[float]:
        parts = [p for p in self._fetch(key, _MISSING).split(",") if p.strip()]
        if not parts:
            raise ValidationError(f"{self.source}: config key {key!r} holds an empty list")
        values = [parse_number(p) for p in parts]
        self.resolved[key] = ",".join(repr(v) for v in values)
        return values

    def reject_unknown_keys(self) -> None:
        stray = sorted(set(self.mapping) - self._consumed)
        if stray:
            raise ValidationError(
                f"{self.source}: unknown config key(s): {', '.join(repr(k) for k in stray)}"
            )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file {path} does not exist")
    return ExperimentConfig(parse_config_text(path.read_text(), source=str(path)), source=str(path))


def format_resolved(resolved: dict[str, str], outcome_lines: list[str]) -> str:
    """Render the reproducibility record: outcome comments, then the config."""
    lines = ["# dispersal run record"]
    lines += [f"# {line}" for line in outcome_lines]
    lines += [f"{key} = {value}" for key, value in resolved.items()]
    return "\n".join(lines) + "\n"
