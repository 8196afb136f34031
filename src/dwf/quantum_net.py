"""Quantum nets: translation-covariant line -> projector assignments.

A net is determined by one free projector choice per striation (the
choice for the ray); covariance under translations fixes every other
line.  The completion is exact integer arithmetic, done once per
dimension.  The translation T(alpha) shifts the eigenvalue label m of
every vector of a basis by the symplectic products of alpha's label with
the basis generators g_i.  One mod-p product of the Labeling table with
the stacked generator labels gives shift[kappa, alpha, i] = <T(alpha), g_i>
at every point, and the line through alpha is the ray translated by
alpha, so

    pencil[kappa, alpha, r] = index of the label (m(r) + shift[kappa, alpha]) mod p

in the basis's lexicographic label order is the projector on the line
through point alpha in striation kappa when the ray gets choice r.  Every
Wigner and classicality kernel gathers from this one table.  Reading it
at each line's anchor a_t, its lowest-index point, gives the per-line view

    sigma[kappa, t, r] = pencil[kappa, a_t, r],

the projector on line t of striation kappa.  Nets are pure index
arithmetic, which keeps exhaustive enumeration over all d^(d+1) of them
cheap.

`is_flow` is the dense flow test: it images all d^2 point operators of a
net in one 2-D product with U (x) conj U and matches each image to its
nearest point operator in real arithmetic on float64 views.  `clifford`
conjugates its translation generators through the same product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

import numpy as np

from .galois import FieldSpec, field
from .geometry import Line, PhasePoint, Striation, all_points, build_striations
from .mub import MubSet, standard_mub
from .pauli import Labeling, build_labeling
from .tolerances import LOOKUP

# Largest d whose nets are enumerated exhaustively (d^(d+1) = 15,625 at
# d = 5, 5,764,801 at d = 7); above it nets are drawn one at a time.
ENUMERATION_MAX_DIM = 5


@dataclass(eq=False)
class NetContext:
    """Everything nets of one dimension share: geometry, bases, tables."""

    field: FieldSpec
    striations: tuple[Striation, ...]
    mub: MubSet
    labeling: Labeling
    sigma: np.ndarray  # sigma[kappa, line position, ray choice] = projector index
    pencil: np.ndarray  # pencil[kappa, point index, ray choice] = projector index
    points: tuple[PhasePoint, ...]

    @property
    def dim(self) -> int:
        return self.field.order

    def complete(self, ray_choices) -> "QuantumNet":
        return covariant_completion(ray_choices, self.mub, self.striations)


@lru_cache(maxsize=None)
def net_context(mub: MubSet, striations: tuple[Striation, ...]) -> NetContext:
    gf = mub.field
    d, n, p = gf.order, gf.n, gf.p
    labeling = build_labeling(gf)
    # <T(alpha), g> = q(alpha) . p(g) - p(alpha) . q(g), so pair the point
    # labels with the generator labels halves swapped and q(g) negated
    gens = np.array([[g.label for g in basis.generators] for basis in mub.bases])
    paired = np.concatenate([gens[..., n:], -gens[..., :n]], axis=-1)
    shift = np.einsum("aj,kij->kai", labeling.labels, paired) % p  # shift[kappa, alpha, i]
    # basis labels run lexicographically, first entry most significant
    m = np.array([basis.labels for basis in mub.bases])  # m[kappa, r, i]
    weights = p ** np.arange(n - 1, -1, -1)
    pencil = ((m[:, None] + shift[:, :, None]) % p) @ weights
    position = np.stack([s.position for s in striations])
    # anchor[kappa, t] = first point index whose line in kappa is t
    anchor = np.argmax(position[:, None, :] == np.arange(d)[:, None], axis=2)
    sigma = pencil[np.arange(d + 1)[:, None], anchor]
    for shared in (sigma, pencil):
        shared.flags.writeable = False
    return NetContext(gf, striations, mub, labeling, sigma, pencil, all_points(gf))


@lru_cache(maxsize=None)
def standard_context(d: int) -> NetContext:
    return net_context(standard_mub(d), build_striations(field(d)))


@dataclass(eq=False)
class QuantumNet:
    """A full line -> (striation, projector) assignment plus its free data."""

    context: NetContext
    ray_choices: tuple[int, ...]
    indices: tuple[tuple[int, ...], ...]  # indices[kappa][line position] = j
    _point_ops: np.ndarray | None = dc_field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.context.dim

    @property
    def pencil(self) -> np.ndarray:
        """pencil[kappa, point index] = j of the line through the point."""
        return self.context.pencil[np.arange(self.dim + 1), :, self.ray_choices]

    @cached_property
    def rows(self) -> np.ndarray:
        """rows[kappa, point index] = kappa * d + pencil[kappa, point index]:
        one flat gather index into any (d+1) x d table of per-projector data."""
        d = self.dim
        return self.pencil + d * np.arange(d + 1)[:, None]

    def projector_index(self, line: Line) -> tuple[int, int]:
        """(kappa, j) for the projector assigned to a line (0-based)."""
        for kappa, s in enumerate(self.context.striations):
            if line in s.positions:
                return kappa, self.indices[kappa][s.positions[line]]
        raise KeyError(f"{line} is not a line of this phase space")

    def pencil_indices(self, point: PhasePoint) -> tuple[tuple[int, int], ...]:
        """The d+1 (kappa, j) pairs of the lines through a point."""
        return tuple(enumerate(self.pencil[:, point.index].tolist()))

    def point_operator(self, point: PhasePoint) -> np.ndarray:
        """(sum of the d+1 projectors through the point - identity) / d."""
        return self.point_operator_table()[point.index]

    def point_operator_table(self) -> np.ndarray:
        """All d^2 point operators stacked in point-index order, read-only."""
        if self._point_ops is None:
            d = self.dim
            total = self.context.mub.projectors.reshape(-1, d, d)[self.rows].sum(axis=0)
            self._point_ops = (total - np.eye(d)) / d
            self._point_ops.flags.writeable = False
        return self._point_ops

    def __repr__(self) -> str:
        return f"QuantumNet(d={self.dim}, ray_choices={self.ray_choices})"


def covariant_completion(
    ray_choices, mub: MubSet, striations: tuple[Striation, ...]
) -> QuantumNet:
    """Extend one projector choice per ray to the whole grid by covariance."""
    ctx = net_context(mub, striations)
    d = ctx.dim
    choices = tuple(int(r) for r in ray_choices)
    if len(choices) != d + 1 or any(not 0 <= r < d for r in choices):
        raise ValueError(f"ray_choices must be {d + 1} indices in [0, {d})")
    indices = tuple(map(tuple, ctx.sigma[np.arange(d + 1), :, choices].tolist()))
    return QuantumNet(ctx, choices, indices)


def fixed_axes_choices(ctx: NetContext) -> tuple[int, int]:
    """Ray choices for the vertical and horizontal striations under the
    coordinate convention: computational 0 for the vertical ray, the
    uniform superposition for the horizontal ray."""
    # overlaps with |0> are row 0 of a basis, with the uniform state its column sums
    j_vert = int(np.argmax(np.abs(ctx.mub.bases[0].vectors[0])))
    j_horiz = int(np.argmax(np.abs(ctx.mub.bases[1].vectors.sum(axis=0))))
    return j_vert, j_horiz


def net_count(d: int, fix_axes: bool = False) -> int:
    return d ** (d - 1) if fix_axes else d ** (d + 1)


def enumerate_nets(gf: FieldSpec, mub: MubSet | None = None, fix_axes: bool = False):
    """Yield nets in lexicographic ray-choice order, each exactly once.

    Enumeration is only allowed for d <= ENUMERATION_MAX_DIM (8, 81, 1024
    and 15625 nets); above it, draw single nets with NetContext.complete.
    """
    mub = mub if mub is not None else standard_mub(gf.order)
    ctx = net_context(mub, build_striations(gf))
    d = ctx.dim
    if d > ENUMERATION_MAX_DIM:
        raise ValueError(
            f"refusing to enumerate {net_count(d, fix_axes)} nets at d={d}; "
            "draw single nets with NetContext.complete"
        )
    if fix_axes:
        j_vert, j_horiz = fixed_axes_choices(ctx)
        for oblique in itertools.product(range(d), repeat=d - 1):
            yield ctx.complete((j_vert, j_horiz) + oblique)
    else:
        for choices in itertools.product(range(d), repeat=d + 1):
            yield ctx.complete(choices)


def _conjugated(unitary: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """U A U~ for every d x d operator A of a stack, raveled row-major into
    one (count, d^2) complex array.

    Row-major vec(U A U~) = (U (x) conj U) vec(A), so the whole stack is one
    2-D product with that d^2 x d^2 matrix instead of a stack of tiny ones.
    A matrix that is not d x d is refused: the outer product of a wrong
    shape can still have d^4 entries.
    """
    d = ops.shape[-1]
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} matrix, got {u.shape}")
    sandwich = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)
    return ops.reshape(-1, d * d) @ sandwich.T


def is_flow(unitary: np.ndarray, net: QuantumNet) -> bool:
    """True iff conjugation by the unitary permutes the net's point
    operators among themselves: every image U A U~ lies within LOOKUP of
    the point operator of largest real overlap with it.

    Point operators and their images under a unitary share one
    Hilbert-Schmidt norm, so that one is the nearest.  The d^2 images come
    from one 2-D product (`_conjugated`); since Re<X, A> = sum Re X Re A +
    Im X Im A, the overlaps are one real product of float64 views.  The
    distance is taken on the difference itself, not as |X|^2 + |A|^2 -
    2 Re<X, A>, which cancels to rounding noise near zero.  A matrix that
    is not d x d raises ValueError; non-finite entries give False.
    """
    table = net.point_operator_table()
    flat = table.reshape(len(table), -1).view(np.float64)
    images = _conjugated(unitary, table).view(np.float64)
    residual = images - flat.take((images @ flat.T).argmax(axis=1), axis=0)
    return math.sqrt(np.einsum("ij,ij->i", residual, residual).max()) < LOOKUP


def squeezing_covariant_nets(
    gf: FieldSpec, mub: MubSet, u_s: np.ndarray
) -> list[QuantumNet]:
    """The nets in the fixed-axes family whose point operators the
    squeezing unitary permutes; there are exactly d of them."""
    return [net for net in enumerate_nets(gf, mub, fix_axes=True) if is_flow(u_s, net)]
