"""Exact arithmetic in GF(p^n) for the supported phase-space dimensions.

Elements are coordinate tuples over Z_p in the polynomial basis
{1, x, ..., x^(n-1)}; addition is componentwise.  One primitive
polynomial is shipped per dimension so every derived labeling
(striations, commuting sets, net indices) is reproducible run to run:

    d=2 : x + 1              d=3 : x + 1    (root 2)
    d=4 : x^2 + x + 1        d=5 : x + 3    (root 2)
    d=7 : x + 4   (root 3)   d=8 : x^3 + x + 1
    d=9 : x^2 + x + 2

The companion matrix M, read straight off the polynomial (ones on the
subdiagonal, last column -c_i mod p), is the one definition of
multiplication: coords(omega * y) = M @ coords(y), hence
coords(x * y) = (sum_i x_i M^i) @ coords(y).  omega = M @ coords(1) must
have multiplicative order d - 1, which proves the polynomial primitive
(and so irreducible); any other polynomial is refused.  Powers of M and
of its transpose label translations along phase-space rays in the
modules built on top of this one.

Linear algebra over Z_p lives here too: one Gauss-Jordan row reduction,
from which both rank_mod_p and inverse_mod_p are read.

Elements compare and hash by value (a field hashes by its p, n and
polynomial, so set orders repeat run to run) and support +, -, *, unary
minus and `inverse()`; every table is built at construction, never mutated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SUPPORTED_DIMENSIONS = (2, 3, 4, 5, 7, 8, 9)

# Primitive polynomial per dimension, ascending coefficients (constant
# term first, monic leading 1 included).
_PRIMITIVE_POLYS = {
    2: (1, 1),
    3: (1, 1),
    4: (1, 1, 1),
    5: (3, 1),
    7: (4, 1),
    8: (1, 1, 0, 1),
    9: (2, 1, 1),
}

_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """A value in GF(p^n), stored as an index into the field's tables.

    The index encodes the coordinate tuple base p (coords[0] least
    significant), so index order equals lexicographic coordinate order.
    """

    field: FieldSpec
    index: int

    @property
    def coords(self) -> tuple[int, ...]:
        return self.field._coords[self.index]

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self.field._elements[self.field._add[self.index][other.index]]

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __neg__(self) -> "FieldElement":
        return self.field._elements[self.field._neg[self.index]]

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return self.field._elements[self.field._mul[self.index][other.index]]

    def inverse(self) -> "FieldElement":
        if self.index == 0:
            raise ZeroDivisionError("inverse of zero in GF(p^n)")
        return self.field._elements[self.field._inv[self.index]]

    def __bool__(self) -> bool:
        return self.index != 0

    def __repr__(self) -> str:
        return f"GF{self.field.order}({self.index})"


class FieldSpec:
    """GF(p^n) with a fixed primitive polynomial, generator and companion matrix.

    Immutable after construction; all arithmetic goes through precomputed
    index tables.  Use the module-level :func:`field` factory, which caches
    one instance per dimension.
    """

    def __init__(self, p: int, n: int, primitive_poly: tuple[int, ...]):
        if p not in _PRIMES:
            raise ValueError(f"unsupported characteristic p={p}")
        if len(primitive_poly) != n + 1 or primitive_poly[-1] != 1:
            raise ValueError("primitive polynomial must be monic of degree n")
        self.p = p
        self.n = n
        self.order = p**n
        self.primitive_poly = primitive_poly

        self._coords = tuple(
            tuple(reversed(c)) for c in itertools.product(range(p), repeat=n)
        )
        self._elements = tuple(FieldElement(self, i) for i in range(self.order))

        # Multiplication by omega: x * x^j = x^(j+1) below the top power,
        # x * x^(n-1) = -(c_0 + c_1 x + ... + c_(n-1) x^(n-1)).
        m = np.zeros((n, n), dtype=np.int64)
        m[np.arange(1, n), np.arange(n - 1)] = 1
        m[:, -1] = [(-c) % p for c in primitive_poly[:-1]]
        self.companion = m

        # coords(x * y) = (sum_i x_i M^i) coords(y), one matrix per x;
        # digits[z] = coords of element z, one read-only table for all layers
        self.digits = coords = np.array(self._coords, dtype=np.int64)
        coords.flags.writeable = False
        weights = p ** np.arange(n)
        powers = np.stack([np.linalg.matrix_power(m, i) % p for i in range(n)])
        left = np.einsum("xi,ijk->xjk", coords, powers)
        self._add = (((coords[:, None] + coords[None]) % p) @ weights).tolist()
        self._neg = (((-coords) % p) @ weights).tolist()
        self._mul = ((np.einsum("xjk,yk->xyj", left, coords) % p) @ weights).tolist()

        # omega = M applied to 1.  Its powers fill the exp table; full
        # order d - 1 proves the polynomial primitive, hence irreducible.
        omega_index = int(m[:, 0] @ weights)
        self.generator = self._elements[omega_index]
        self._exp = [0] * (self.order - 1)
        acc = 1
        for k in range(self.order - 1):
            self._exp[k] = acc
            acc = self._mul[acc][omega_index]
            if acc == 1:
                break
        if acc != 1 or k != self.order - 2:
            raise ValueError(
                f"{primitive_poly} is not primitive over Z_{p}: x does not have order {self.order - 1}"
            )
        self._inv = [0] * self.order
        for k, x in enumerate(self._exp):  # omega^k omega^-k = 1
            self._inv[x] = self._exp[-k]

    # -- element access -------------------------------------------------

    @property
    def zero(self) -> FieldElement:
        return self._elements[0]

    @property
    def one(self) -> FieldElement:
        return self._elements[1]

    @property
    def elements(self) -> tuple[FieldElement, ...]:
        return self._elements

    def generator_power(self, k: int) -> FieldElement:
        return self._elements[self._exp[k % (self.order - 1)]]

    def __hash__(self) -> int:  # by value, so hashes repeat run to run; equality stays identity
        return hash((self.p, self.n, self.primitive_poly))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, n={self.n}, poly={self.primitive_poly})"


def _row_reduce(a, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of an integer matrix over Z_p, with the
    pivot columns in order.  Plain lists: the matrices are at most 6 x 12,
    where numpy's per-call overhead dominates."""
    m = [[int(x) % p for x in row] for row in a]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    return m, pivots


def rank_mod_p(a, p: int) -> int:
    """Rank over Z_p of the rows of an integer matrix."""
    return len(_row_reduce(a, p)[1])


def inverse_mod_p(a, p: int) -> np.ndarray:
    """Inverse over Z_p of a square integer matrix; raises ValueError if
    it is singular mod p."""
    n = len(a)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = _row_reduce(augmented, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return np.array([row[n:] for row in reduced], dtype=np.int64)


@lru_cache(maxsize=None)
def field(d: int) -> FieldSpec:
    """The shipped GF(d) instance for a supported dimension d."""
    if d not in _PRIMITIVE_POLYS:
        raise ValueError(f"dimension {d} not supported; choose from {SUPPORTED_DIMENSIONS}")
    p = next(q for q in _PRIMES if d % q == 0)
    n = 1
    while p**n < d:
        n += 1
    return FieldSpec(p, n, _PRIMITIVE_POLYS[d])

