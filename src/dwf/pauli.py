"""Generalized Pauli operators as discrete phase-space translations.

An operator is a phase times the canonical translation T(qvec, pvec) on n
registers of dimension p.  Canonical means the Hermitian convention for
qubits,

    T(qvec, pvec) = X^qvec Z^pvec i^(qvec . pvec)          (p = 2)

and the root-of-unity convention that makes T^p the identity for odd p,

    T(qvec, pvec) = X^qvec Z^pvec w^(-inv2 qvec . pvec)    (odd p)

with w = exp(2 pi i / p) and inv2 the inverse of 2 mod p.  Phases of group
products are tracked exactly as integer exponents of the phase unit (i for
p = 2, w for odd p); dense matrices are realized lazily and are meant for
verification, not for group arithmetic.

Labeling of phase space: the position tuple of a field element is its
polynomial-basis coordinate vector (so multiplication by omega acts as the
companion matrix M), while the momentum tuple lives in the chart where
multiplication by omega acts as M transpose.  Both charts send 1 to the
unit tuple (1, 0, ..., 0).  With these choices the operators labeled by
the nonzero points of the ray with direction (a, b) are exactly the
members of the commuting set S_(a, b) built from (M^j a, M~^j b).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce

import numpy as np

from .galois import FieldElement, FieldSpec
from .geometry import PhasePoint


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


class PauliOperator:
    """phase_unit^phase_exp times the canonical translation T(qvec, pvec)."""

    def __init__(self, gf: FieldSpec, qvec, pvec, phase_exp: int = 0):
        self.field = gf
        self.qvec = tuple(int(x) % gf.p for x in qvec)
        self.pvec = tuple(int(x) % gf.p for x in pvec)
        self.phase_exp = int(phase_exp) % _phase_order(gf.p)
        self._dense = None

    @property
    def label(self) -> tuple[int, ...]:
        """The exponent vector (qvec | pvec) in Z_p^2n."""
        return self.qvec + self.pvec

    def is_identity_label(self) -> bool:
        return not any(self.label)

    @property
    def dense(self) -> np.ndarray:
        """d x d matrix; computed once, then reused."""
        if self._dense is None:
            self._dense = self._realize()
        return self._dense

    def _realize(self) -> np.ndarray:
        gf = self.field
        p = gf.p
        w = np.exp(2j * np.pi / p)
        shift = np.zeros((p, p), dtype=complex)
        for z in range(p):
            shift[(z + 1) % p, z] = 1.0
        clock = np.diag([w**z for z in range(p)])
        factors = []
        for qi, pi in zip(self.qvec, self.pvec):
            f = np.linalg.matrix_power(shift, qi) @ np.linalg.matrix_power(clock, pi)
            if p == 2:
                f = (1j) ** (qi * pi) * f
            else:
                eta = np.exp(2j * np.pi * pow(2, -1, p) / p)
                f = eta ** (-qi * pi) * f
            factors.append(f)
        # register i carries digit i of the basis index, digit 0 least
        # significant, hence the reversed kron order
        full = reduce(np.kron, reversed(factors))
        return _phase_unit(p) ** self.phase_exp * full

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOperator)
            and self.field is other.field
            and self.label == other.label
            and self.phase_exp == other.phase_exp
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.label, self.phase_exp))

    def __repr__(self) -> str:
        return f"T(q={self.qvec}, p={self.pvec}, phase^{self.phase_exp})"


def symplectic_product(a: PauliOperator, b: PauliOperator) -> int:
    """qvec_a . pvec_b - pvec_a . qvec_b mod p; zero iff the operators commute."""
    p = a.field.p
    return (_dot(a.qvec, b.pvec) - _dot(a.pvec, b.qvec)) % p


def commutes(a: PauliOperator, b: PauliOperator) -> bool:
    return symplectic_product(a, b) == 0


@dataclass(eq=False)
class AbelianSet:
    """The d-1 commuting translations T(M^j avec, M~^j bvec), j = 0..d-2."""

    avec: tuple[int, ...]
    bvec: tuple[int, ...]
    members: tuple[PauliOperator, ...]
    field: FieldSpec = dc_field(repr=False)

    def generators(self) -> tuple[PauliOperator, ...]:
        """The first n members whose labels are Z_p-independent."""
        gens: list[PauliOperator] = []
        rows: list[list[int]] = []
        for m in self.members:
            candidate = rows + [list(m.label)]
            if _zp_rank(candidate, self.field.p) == len(candidate):
                gens.append(m)
                rows = candidate
            if len(gens) == self.field.n:
                break
        if len(gens) != self.field.n:
            raise AssertionError("commuting set is not maximal")
        return tuple(gens)

    def label_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(m.label for m in self.members)


def abelian_set(gf: FieldSpec, avec, bvec) -> AbelianSet:
    avec = tuple(int(x) % gf.p for x in avec)
    bvec = tuple(int(x) % gf.p for x in bvec)
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


def _zp_rank(rows: list[list[int]], p: int) -> int:
    mat = [[int(x) % p for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


class Labeling:
    """Charts sending phase-space points to translation-operator tuples.

    Positions use polynomial coordinates; momenta use the transposed chart
    (columns (M^T)^i applied to the unit tuple), so that moving along a ray
    multiplies the point by omega and the tuples by M and M^T respectively.
    """

    def __init__(self, gf: FieldSpec):
        self.field = gf
        mt = gf.companion.T
        cols = []
        e0 = np.zeros(gf.n, dtype=np.int64)
        e0[0] = 1
        acc = e0
        for _ in range(gf.n):
            cols.append(acc)
            acc = (mt @ acc) % gf.p
        self.psi = np.column_stack(cols) % gf.p

    def position_tuple(self, x: FieldElement) -> tuple[int, ...]:
        return x.coords

    def momentum_tuple(self, x: FieldElement) -> tuple[int, ...]:
        return tuple((self.psi @ np.array(x.coords, dtype=np.int64)) % self.field.p)

    def operator_at(self, point: PhasePoint) -> PauliOperator:
        return PauliOperator(
            self.field, self.position_tuple(point.q), self.momentum_tuple(point.p)
        )

    def unitary_at(self, point: PhasePoint) -> np.ndarray:
        return self.operator_at(point).dense


@lru_cache(maxsize=None)
def build_labeling(gf: FieldSpec) -> Labeling:
    return Labeling(gf)


@lru_cache(maxsize=None)
def standard_sets(gf: FieldSpec) -> tuple[AbelianSet, ...]:
    """The d+1 disjoint commuting sets, ordered like the striations:
    vertical (Z-type), horizontal (X-type), then oblique by ray slope."""
    labeling = build_labeling(gf)
    zero = (0,) * gf.n
    e0 = (1,) + (0,) * (gf.n - 1)
    sets = [abelian_set(gf, zero, e0), abelian_set(gf, e0, zero)]
    for k in range(gf.order - 1):
        slope = gf.generator_power(k)
        sets.append(abelian_set(gf, e0, labeling.momentum_tuple(slope)))
    return tuple(sets)

