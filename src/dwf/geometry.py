"""The d x d discrete phase space over GF(d): points, lines and striations.

A line is the solution set of b*q + a*p = c and is stored canonically with
the first nonzero coefficient among (b, a) scaled to one, so two Line
values are equal exactly when they describe the same point set.

A striation is a maximal family of d parallel lines; there are d+1 of
them.  They are built in a fixed order -- vertical (q = c), horizontal
(p = c), then oblique with ray p = omega^k * q for k = 0 .. d-2 -- and the
lines inside a striation are ordered by the constant of the direction form
beta*q - alpha*p = c, which puts the ray (c = 0) first.  For
characteristic 2 the direction form coincides with the stored equation.

Internally a striation is one integer table, position[point index] =
index of beta*q - alpha*p, the position of the line through each point
(points are numbered q-major, q * d + p).  Line, PhasePoint,
line_points and lines_through are the object view at the API edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .galois import FieldElement, FieldSpec


@dataclass(frozen=True)
class PhasePoint:
    q: FieldElement
    p: FieldElement

    @property
    def index(self) -> int:
        """Lexicographic rank, q major."""
        return self.q.index * self.q.field.order + self.p.index

    def __repr__(self) -> str:
        return f"({self.q.index},{self.p.index})"


@dataclass(frozen=True)
class Line:
    """Canonical coefficients of b*q + a*p = c."""

    a: FieldElement
    b: FieldElement
    c: FieldElement

    @classmethod
    def make(cls, a: FieldElement, b: FieldElement, c: FieldElement) -> "Line":
        if not a and not b:
            raise ValueError("a line needs (a, b) != (0, 0)")
        scale = b.inverse() if b else a.inverse()
        return cls(a * scale, b * scale, c * scale)

    def __repr__(self) -> str:
        return f"Line(b={self.b.index}, a={self.a.index}, c={self.c.index})"


@lru_cache(maxsize=None)
def line_points(line: Line) -> frozenset[PhasePoint]:
    """All d solutions of the line equation."""
    gf = line.a.field
    if line.b:
        b_inv = line.b.inverse()
        return frozenset(
            PhasePoint((line.c - line.a * p) * b_inv, p) for p in gf.elements
        )
    a_inv = line.a.inverse()
    return frozenset(PhasePoint(q, line.c * a_inv) for q in gf.elements)


@dataclass(eq=False)
class Striation:
    """One parallel class: index kappa in [1, d+1], d lines, ray first."""

    kappa: int
    alpha: FieldElement  # direction vector (alpha, beta) of every line
    beta: FieldElement
    lines: tuple[Line, ...]
    position: np.ndarray  # position[point index] = t of the line through it, read-only
    positions: dict[Line, int]

    @property
    def ray(self) -> Line:
        return self.lines[0]

    def describe(self) -> str:
        if not self.alpha:
            return "vertical (q = c)"
        if not self.beta:
            return "horizontal (p = c)"
        return f"oblique (p = {self.beta.index}*q + v)"


def _build_striation(gf: FieldSpec, kappa: int, alpha: FieldElement, beta: FieldElement) -> Striation:
    lines = tuple(Line.make(-alpha, beta, c) for c in gf.elements)
    # line t is beta*q - alpha*p = element t, so the constant is the position
    position = np.array([(beta * q - alpha * p).index for q in gf.elements for p in gf.elements])
    position.flags.writeable = False
    return Striation(kappa, alpha, beta, lines, position, {ln: t for t, ln in enumerate(lines)})


@lru_cache(maxsize=None)
def build_striations(gf: FieldSpec) -> tuple[Striation, ...]:
    """The d+1 striations in the fixed vertical/horizontal/oblique order."""
    out = [
        _build_striation(gf, 1, gf.zero, gf.one),
        _build_striation(gf, 2, gf.one, gf.zero),
    ]
    for k in range(gf.order - 1):
        out.append(_build_striation(gf, 3 + k, gf.one, gf.generator_power(k)))
    return tuple(out)


def lines_through(point: PhasePoint, striations: tuple[Striation, ...]) -> tuple[Line, ...]:
    """The pencil through a point: exactly one line per striation."""
    return tuple(s.lines[s.position[point.index]] for s in striations)


def all_points(gf: FieldSpec) -> tuple[PhasePoint, ...]:
    return tuple(PhasePoint(q, p) for q in gf.elements for p in gf.elements)


def origin(gf: FieldSpec) -> PhasePoint:
    return PhasePoint(gf.zero, gf.zero)
