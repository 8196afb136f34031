"""Exact arithmetic in GF(p^n) for the supported phase-space dimensions.

Elements are coordinate tuples over Z_p in the polynomial basis
{1, x, ..., x^(n-1)}; addition is componentwise, multiplication reduces
modulo a fixed primitive polynomial.  One polynomial is shipped per
dimension so every derived labeling (striations, commuting sets, net
indices) is reproducible run to run:

    d=2 : x + 1              d=3 : x + 1    (root 2)
    d=4 : x^2 + x + 1        d=5 : x + 3    (root 2)
    d=7 : x + 4   (root 3)   d=8 : x^3 + x + 1
    d=9 : x^2 + x + 2

The companion matrix M of the polynomial represents multiplication by the
generator omega in coordinates: coords(omega * y) = M @ coords(y).  Powers
of M and of its transpose label translations along phase-space rays in the
modules built on top of this one.

Elements carry their field handle and support +, -, *, /, ** and unary
minus; all tables are precomputed at construction (d <= 9, so every table
is tiny) and never mutated afterwards.
"""

from __future__ import annotations

import itertools
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


class FieldElement:
    """A value in GF(p^n), stored as an index into the field's tables.

    The index encodes the coordinate tuple base p (coords[0] least
    significant), so index order equals lexicographic coordinate order.
    """

    __slots__ = ("field", "index")

    def __init__(self, field: "FieldSpec", index: int):
        self.field = field
        self.index = index

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

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def __pow__(self, k: int) -> "FieldElement":
        if self.index == 0:
            if k < 0:
                raise ZeroDivisionError("inverse of zero in GF(p^n)")
            return self.field.one if k == 0 else self
        order = self.field.order - 1
        return self.field._elements[self.field._exp[(self.field._log[self.index] * k) % order]]

    def inverse(self) -> "FieldElement":
        if self.index == 0:
            raise ZeroDivisionError("inverse of zero in GF(p^n)")
        return self.field._elements[self.field._inv[self.index]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.index))

    def __bool__(self) -> bool:
        return self.index != 0

    def __repr__(self) -> str:
        return f"GF{self.field.order}({self.index})"


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(_poly_trim(tuple(a))) - 1 >= dm and any(a):
        a = list(_poly_trim(tuple(a)))
        if len(a) - 1 < dm:
            break
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * mi) % p
    return _poly_trim(tuple(a))


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for k in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            divisor = tuple(tail) + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


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
        if not _is_irreducible(primitive_poly, p):
            raise ValueError(f"{primitive_poly} is reducible over Z_{p}")
        self.p = p
        self.n = n
        self.order = p**n
        self.primitive_poly = primitive_poly

        self._coords = tuple(
            tuple(reversed(c)) for c in itertools.product(range(p), repeat=n)
        )
        self._index_of = {c: i for i, c in enumerate(self._coords)}
        self._elements = tuple(FieldElement(self, i) for i in range(self.order))

        self._add = [
            [self._index_of[tuple((x + y) % p for x, y in zip(a, b))] for b in self._coords]
            for a in self._coords
        ]
        self._neg = [self._index_of[tuple((-x) % p for x in a)] for a in self._coords]
        self._mul = [
            [self._index_of[self._reduced_product(a, b)] for b in self._coords]
            for a in self._coords
        ]

        # omega is the polynomial x itself for n >= 2, the root of the
        # linear polynomial for n = 1.
        omega_index = (
            self._index_of[(0, 1) + (0,) * (n - 2)] if n >= 2
            else (-primitive_poly[0]) % p
        )
        self.generator = self._elements[omega_index]
        self._check_generator_order()

        # Log/exp tables over the multiplicative group.
        self._exp = [0] * (self.order - 1)
        self._log = [0] * self.order
        acc = 1
        for k in range(self.order - 1):
            self._exp[k] = acc
            self._log[acc] = k
            acc = self._mul[acc][omega_index]
        self._inv = [0] * self.order
        for i in range(1, self.order):
            self._inv[i] = self._exp[(self.order - 1 - self._log[i]) % (self.order - 1)]

        self.companion = self._build_companion()

    def _reduced_product(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        prod = _poly_mod(_poly_mul(a, b, self.p), self.primitive_poly, self.p)
        return prod + (0,) * (self.n - len(prod))

    def _check_generator_order(self) -> None:
        acc = self.generator
        for k in range(1, self.order - 1):
            if acc.index == 1:
                raise ValueError(f"generator has order {k} < {self.order - 1}")
            acc = acc * self.generator
        if acc.index != 1:
            raise ValueError("generator does not have full multiplicative order")

    def _build_companion(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=np.int64)
        for j in range(self.n):
            basis_j = self._elements[self._index_of[tuple(1 if i == j else 0 for i in range(self.n))]]
            m[:, j] = (self.generator * basis_j).coords
        return m

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

    def element(self, index: int) -> FieldElement:
        return self._elements[index]

    def from_coords(self, coords) -> FieldElement:
        return self._elements[self._index_of[tuple(int(c) % self.p for c in coords)]]

    def generator_power(self, k: int) -> FieldElement:
        return self._elements[self._exp[k % (self.order - 1)]]

    def companion_power(self, j: int) -> np.ndarray:
        return np.linalg.matrix_power(self.companion, j % (self.order - 1)) % self.p

    def trace(self, x: FieldElement) -> int:
        """Absolute trace GF(p^n) -> Z_p, as an integer in [0, p)."""
        acc = x
        total = x
        for _ in range(self.n - 1):
            acc = acc ** self.p
            total = total + acc
        if any(total.coords[1:]):
            raise AssertionError("trace landed outside the prime subfield")
        return total.coords[0]

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, n={self.n}, poly={self.primitive_poly})"


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

