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

`is_flow` decides whether conjugation by U permutes a net's point
operators from U's transition probabilities between basis vectors alone:
one table per unitary, read by every net through its 0/1 incidence.
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

    @cached_property
    def incidence(self) -> np.ndarray:
        """`rows` as a read-only d(d+1) x d^2 matrix, 1.0 at [rows[kappa, alpha], alpha]."""
        d = self.dim
        incidence = np.zeros((d * (d + 1), d * d))
        incidence[self.rows, np.arange(d * d)] = 1.0
        incidence.flags.writeable = False
        return incidence

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


@lru_cache(maxsize=8)
def _transition_table(entries: bytes, mub: MubSet) -> np.ndarray:
    """T~ = (T - a_mu/(d+1) - b_lam/(d+1) + |U|^2/(d+1)^2) / d, read-only, for
    the matrix U whose C-order complex bytes are `entries`: T[lam, mu] =
    |<phi_lam|U|phi_mu>|^2, a_mu = |U phi_mu|^2, b_lam = |U~ phi_lam|^2."""
    d = mub.dim
    u = np.frombuffer(entries, dtype=complex).reshape(d, d)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or nan
        t = np.abs(mub.frame.conj().T @ (u @ mub.frame)) ** 2
        # each basis is complete: a column sum is (d+1) a_mu, a row sum (d+1) b_lam
        a, b = t.sum(axis=0) / (d + 1), t.sum(axis=1) / (d + 1)
        table = (t - a / (d + 1) - b[:, None] / (d + 1) + a.sum() / (d + 1) ** 3) / d
    table.flags.writeable = False
    return table


def is_flow(unitary: np.ndarray, net: QuantumNet) -> bool:
    """True iff conjugation by the unitary permutes the net's point
    operators: each image U A U~ lies within LOOKUP of its nearest one.

    Point operators are orthogonal, Tr(A_alpha A_gamma) = delta / d (Gibbons,
    Hoffman and Wootters), so U A_alpha U~ = sum_gamma X[gamma, alpha] A_gamma
    with X[gamma, alpha] = d Tr(U A_alpha U~ A_gamma) = (E^T T~ E)[gamma, alpha]
    for the net's incidence E and the per-unitary `_transition_table` T~.  The
    nearest is beta = argmax X[:, alpha], at squared distance (1/d) sum_gamma
    (X - e_beta)^2, a sum of small terms that cannot cancel.  A non-d x d
    matrix raises ValueError; huge or non-finite entries give False.
    """
    d = net.dim
    u = np.ascontiguousarray(unitary, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} matrix, got {u.shape}")
    x = net.incidence.T @ _transition_table(u.tobytes(), net.context.mub) @ net.incidence
    x[x.argmax(axis=0), np.arange(d * d)] -= 1.0  # x[gamma, alpha] - e_beta
    # einsum overflows a huge x to inf silently, unlike the ufuncs
    return math.sqrt(np.einsum("ij,ij->j", x, x).max() / d) < LOOKUP


def squeezing_covariant_nets(
    gf: FieldSpec, mub: MubSet, u_s: np.ndarray
) -> list[QuantumNet]:
    """The nets in the fixed-axes family whose point operators the
    squeezing unitary permutes; there are exactly d of them."""
    return [net for net in enumerate_nets(gf, mub, fix_axes=True) if is_flow(u_s, net)]
