"""Generalized Pauli operators as discrete phase-space translations.

An operator is a phase times the canonical translation T(qvec, pvec) on n
registers of dimension p.  Canonical means the Hermitian convention for
qubits,

    T(qvec, pvec) = X^qvec Z^pvec i^(qvec . pvec)          (p = 2)

and the root-of-unity convention that makes T^p the identity for odd p,

    T(qvec, pvec) = X^qvec Z^pvec w^(-inv2 qvec . pvec)    (odd p)

with w = exp(2 pi i / p) and inv2 the inverse of 2 mod p.  Phases of group
products are tracked exactly as integer exponents of the phase unit (i for
p = 2, w for odd p); a dense matrix is a read-only row of the field's one
table of translations (times the phase unit to its exponent), meant for
verification, not for group arithmetic.

Labeling of phase space: the position tuple of a field element is its
polynomial-basis coordinate vector (so multiplication by omega acts as the
companion matrix M), while the momentum tuple lives in the chart where
multiplication by omega acts as M transpose.  Both charts send 1 to the
unit tuple (1, 0, ..., 0).  With these choices the operators labeled by
the nonzero points of the ray with direction (a, b) are exactly the
members of the commuting set S_(a, b) built from (M^j a, M~^j b).

The labeling is one read-only integer table, Labeling.labels[point index]
= (position tuple | momentum tuple), inverted by Labeling.point_index, with
the dense translations in the same order, Labeling.translations, realized
once per field; every dense translation is a row of it (unitary_at, dense).
Only here does a label become a matrix (`_translation_matrix`) or meet
another label: label(a) J label(b) mod p, J from `_symplectic_form`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

import numpy as np

from .galois import FieldSpec
from .geometry import PhasePoint, build_striations


def _phase_order(p: int) -> int:
    return 4 if p == 2 else p


def _phase_unit(p: int) -> complex:
    return 1j if p == 2 else np.exp(2j * np.pi / p)


def _canonical_product_exponent(gf: FieldSpec, q, p_, q2, p2) -> int:
    """Exponent e with T(q,p) T(q2,p2) = unit^e T(q+q2, p+p2), tuples reduced."""
    if gf.p == 2:
        qs = tuple((a + b) % 2 for a, b in zip(q, q2))
        ps = tuple((a + b) % 2 for a, b in zip(p_, p2))
        e = (
            _dot(q, p_)
            + _dot(q2, p2)
            + 2 * _dot(p_, q2)
            - _dot(qs, ps)
        )
        return e % 4
    inv2 = pow(2, -1, gf.p)
    return (inv2 * (_dot(q, p2) + 3 * _dot(p_, q2))) % gf.p


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


@lru_cache(maxsize=None)  # read-only, built once per n
def _symplectic_form(n: int) -> np.ndarray:
    """J with label(a) J label(b) = qvec_a . pvec_b - pvec_a . qvec_b."""
    j = np.zeros((2 * n, 2 * n), dtype=np.int64)
    j[:n, n:] = np.eye(n, dtype=np.int64)
    j[n:, :n] = -np.eye(n, dtype=np.int64)
    j.flags.writeable = False
    return j


def _translation_matrix(p: int, qvec, pvec) -> np.ndarray:
    """T(qvec, pvec) on len(qvec) registers of dimension p, as a dense matrix."""
    w = np.exp(2j * np.pi / p)
    shift = np.roll(np.eye(p, dtype=complex), 1, axis=0)  # |z> -> |z + 1>
    clock = np.diag([w**z for z in range(p)])
    out = None
    # register i carries digit i of the basis index, digit 0 least significant, hence the
    # reversed Kronecker order; the broadcast product is np.kron's, bit for bit, at less cost
    for qi, pi in reversed(list(zip(qvec, pvec))):
        f = np.linalg.matrix_power(shift, qi) @ np.linalg.matrix_power(clock, pi)
        if p == 2:
            f = (1j) ** (qi * pi) * f
        else:
            eta = np.exp(2j * np.pi * pow(2, -1, p) / p)
            f = eta ** (-qi * pi) * f
        out = f if out is None else (out[:, None, :, None] * f[None, :, None, :]).reshape(len(out) * p, -1)
    return out


@dataclass(unsafe_hash=True)
class PauliOperator:
    """phase_unit^phase_exp times the canonical translation T(qvec, pvec)."""

    field: FieldSpec
    qvec: tuple[int, ...]
    pvec: tuple[int, ...]
    phase_exp: int = 0

    def __post_init__(self):
        gf = self.field
        try:
            qvec, pvec = (tuple(operator.index(x) % gf.p for x in v) for v in (self.qvec, self.pvec))
        except TypeError:
            qvec = pvec = ()
        if not len(qvec) == len(pvec) == gf.n:
            raise ValueError(f"qvec and pvec must each hold {gf.n} integers")
        self.qvec, self.pvec = qvec, pvec
        self.phase_exp = int(self.phase_exp) % _phase_order(gf.p)

    @property
    def label(self) -> tuple[int, ...]:
        """The exponent vector (qvec | pvec) in Z_p^2n."""
        return self.qvec + self.pvec

    @property
    def dense(self) -> np.ndarray:
        """d x d matrix, read-only: the row of the field's translations at
        point_index[label code] itself, times unit^phase_exp if that is not 1."""
        labeling, p = build_labeling(self.field), self.field.p
        code = sum(x * p**i for i, x in enumerate(self.label))
        row = labeling.translations[labeling.point_index[code]]
        if not self.phase_exp:
            return row
        dense = _phase_unit(p) ** self.phase_exp * row
        dense.flags.writeable = False
        return dense

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        gf = self.field
        e = _canonical_product_exponent(gf, self.qvec, self.pvec, other.qvec, other.pvec)
        return PauliOperator(
            gf,
            tuple((a + b) % gf.p for a, b in zip(self.qvec, other.qvec)),
            tuple((a + b) % gf.p for a, b in zip(self.pvec, other.pvec)),
            self.phase_exp + other.phase_exp + e,
        )

    def adjoint(self) -> "PauliOperator":
        gf = self.field
        neg_q = tuple((-x) % gf.p for x in self.qvec)
        neg_p = tuple((-x) % gf.p for x in self.pvec)
        e = _canonical_product_exponent(gf, self.qvec, self.pvec, neg_q, neg_p)
        return PauliOperator(gf, neg_q, neg_p, -(self.phase_exp + e))

    def power(self, k: int) -> "PauliOperator":
        if k < 0:
            return self.adjoint().power(-k)
        out = PauliOperator(self.field, (0,) * self.field.n, (0,) * self.field.n)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self) -> str:
        return f"T(q={self.qvec}, p={self.pvec}, phase^{self.phase_exp})"


def symplectic_product(a: PauliOperator, b: PauliOperator) -> int:
    """label(a) J label(b) mod p; zero iff the operators commute."""
    return int(np.array(a.label) @ _symplectic_form(a.field.n) @ np.array(b.label)) % a.field.p


@dataclass(eq=False)
class AbelianSet:
    """The d-1 commuting translations T(M^j avec, M~^j bvec), j = 0..d-2."""

    avec: tuple[int, ...]
    bvec: tuple[int, ...]
    members: tuple[PauliOperator, ...]
    field: FieldSpec = dc_field(repr=False)

    def generators(self) -> tuple[PauliOperator, ...]:
        """The first n members.  Member j labels the point omega^j (a, b),
        and 1, omega, ..., omega^(n-1) are a Z_p basis of GF(d), so their
        labels are Z_p-independent."""
        return self.members[: self.field.n]

    def label_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(m.label for m in self.members)


def abelian_set(gf: FieldSpec, avec, bvec) -> AbelianSet:
    try:  # numpy integers become Python ints
        avec, bvec = (tuple(operator.index(x) % gf.p for x in v) for v in (avec, bvec))
    except TypeError:
        raise ValueError("avec and bvec must hold integers") from None
    if not any(avec) and not any(bvec):
        raise ValueError("commuting set needs (avec, bvec) != (0, 0)")
    mt = gf.companion.T
    members = []
    a = np.array(avec, dtype=np.int64)
    b = np.array(bvec, dtype=np.int64)
    for _ in range(gf.order - 1):
        members.append(PauliOperator(gf, tuple(a), tuple(b)))
        a = (gf.companion @ a) % gf.p
        b = (mt @ b) % gf.p
    if len({m.label for m in members}) != gf.order - 1:
        raise AssertionError("orbit of (avec, bvec) collapsed early")
    return AbelianSet(avec, bvec, tuple(members), gf)


class Labeling:
    """Charts sending phase-space points to translation-operator labels.

    labels[point index] = (position tuple | momentum tuple), one read-only
    d^2 x 2n integer table.  Positions use polynomial coordinates; momenta
    use the transposed chart (columns (M^T)^i applied to the unit tuple),
    so that moving along a ray multiplies the point by omega and the two
    halves of its row by M and M^T respectively.  Read-only point_index
    inverts it: point_index[label @ p**arange(2n)] is the labeled point.
    """

    def __init__(self, gf: FieldSpec):
        self.field = gf
        # (M^T)^i applied to the unit tuple is row 0 of M^i
        chart = np.stack([np.linalg.matrix_power(gf.companion, i)[0] for i in range(gf.n)])
        momenta = (gf.digits @ chart) % gf.p
        d = gf.order
        # points are numbered q-major, q * d + p
        self.labels = np.hstack([np.repeat(gf.digits, d, axis=0), np.tile(momenta, (d, 1))])
        self.point_index = np.argsort(self.labels @ gf.p ** np.arange(2 * gf.n))
        self.labels.flags.writeable = self.point_index.flags.writeable = False

    @cached_property
    def translations(self) -> np.ndarray:
        """translations[point index] = the dense T(labels[point index]): one
        read-only d^2 x d x d stack, built on first use."""
        p, n = self.field.p, self.field.n
        stack = np.stack([_translation_matrix(p, row[:n], row[n:]) for row in self.labels.tolist()])
        stack.flags.writeable = False
        return stack

    def unitary_at(self, point: PhasePoint) -> np.ndarray:
        return self.translations[point.index]


@lru_cache(maxsize=None)
def build_labeling(gf: FieldSpec) -> Labeling:
    return Labeling(gf)


@lru_cache(maxsize=None)
def standard_sets(gf: FieldSpec) -> tuple[AbelianSet, ...]:
    """The d+1 disjoint commuting sets in striation order: set kappa is S_(a, b)
    for the label (a | b) of the direction point (alpha, beta) of striation
    kappa, so the nonzero points of the striation's ray label its members."""
    labels, d, n = build_labeling(gf).labels, gf.order, gf.n
    directions = (labels[s.alpha.index * d + s.beta.index] for s in build_striations(gf))
    return tuple(abelian_set(gf, label[:n], label[n:]) for label in directions)
