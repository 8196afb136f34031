"""Quantum nets: translation-covariant line -> projector assignments.

A net is determined by one free projector choice per striation (the
choice for the ray); covariance under translations fixes every other
line.  The completion is exact integer arithmetic, done once per
dimension.  The translation T(a) shifts the eigenvalue label m of every
vector of a basis by the symplectic products of a with the basis
generators g_i, so with a_t the lowest-index point of line t,

    sigma[kappa, t, r] = index of the label (m_i(r) + <T(a_t), g_i>) mod p

is the projector on line t of striation kappa when the ray gets choice r.
Reading sigma through each striation's position table gives the one
table every Wigner and classicality kernel gathers from,

    pencil[kappa, alpha, r] = sigma[kappa, position[kappa, alpha], r],

the projector on the line through point alpha in striation kappa.  Nets
are pure index arithmetic, which keeps exhaustive enumeration over all
d^(d+1) of them cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

import numpy as np

from .galois import FieldSpec, field
from .geometry import Line, PhasePoint, Striation, all_points, build_striations
from .mub import Basis, MubSet, standard_mub
from .pauli import Labeling, build_labeling, symplectic_product
from .tolerances import LOOKUP

# Largest d whose nets are enumerated exhaustively (d^(d+1) = 15,625 at
# d = 5, 5,764,801 at d = 7); above it only sampling is offered.
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
    projectors: np.ndarray  # projectors[kappa, j] = d x d projector
    points: tuple[PhasePoint, ...]

    @property
    def dim(self) -> int:
        return self.field.order

    def complete(self, ray_choices) -> "QuantumNet":
        return covariant_completion(ray_choices, self.mub, self.striations)


def _label_shift_table(anchors: list[PhasePoint], basis: Basis, labeling: Labeling) -> np.ndarray:
    """sigma[t][r] of one striation: the label of choice r shifted by the
    translation to the anchor (lowest-index point) of line t."""
    p = labeling.field.p
    index = {label: j for j, label in enumerate(basis.labels)}
    table = []
    for anchor in anchors:
        translation = labeling.operator_at(anchor)
        shifts = [symplectic_product(translation, g) for g in basis.generators]
        table.append([
            index[tuple((m + s) % p for m, s in zip(label, shifts))] for label in basis.labels
        ])
    return np.array(table)


@lru_cache(maxsize=None)
def net_context(mub: MubSet, striations: tuple[Striation, ...]) -> NetContext:
    gf = mub.field
    d = gf.order
    labeling = build_labeling(gf)
    points = all_points(gf)
    position = np.stack([s.position for s in striations])
    # anchor[kappa, t] = first point index whose line in kappa is t
    anchor = np.argmax(position[:, None, :] == np.arange(d)[:, None], axis=2)
    sigma = np.stack([
        _label_shift_table([points[a] for a in row], basis, labeling)
        for row, basis in zip(anchor.tolist(), mub.bases)
    ])
    pencil = sigma[np.arange(len(striations))[:, None], position]
    projectors = np.array([
        [mub.projector(kappa, j) for j in range(d)] for kappa in range(len(striations))
    ])
    for shared in (sigma, pencil, projectors):
        shared.flags.writeable = False
    return NetContext(gf, striations, mub, labeling, sigma, pencil, projectors, points)


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

    @cached_property
    def pencil(self) -> np.ndarray:
        """pencil[kappa, point index] = j of the line through the point."""
        return self.context.pencil[np.arange(self.dim + 1), :, self.ray_choices]

    def projector_index(self, line: Line) -> tuple[int, int]:
        """(kappa, j) for the projector assigned to a line (0-based)."""
        for kappa, s in enumerate(self.context.striations):
            if line in s.positions:
                return kappa, self.indices[kappa][s.positions[line]]
        raise KeyError(f"{line} is not a line of this phase space")

    def assignment(self) -> dict[Line, tuple[int, int]]:
        return {
            line: (kappa, self.indices[kappa][t])
            for kappa, s in enumerate(self.context.striations)
            for t, line in enumerate(s.lines)
        }

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
            total = self.context.projectors[np.arange(d + 1)[:, None], self.pencil].sum(axis=0)
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


def enumerate_nets(
    gf: FieldSpec,
    mub: MubSet | None = None,
    fix_axes: bool = False,
    sample: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Yield nets in lexicographic ray-choice order, each exactly once.

    Full enumeration is only allowed for d <= ENUMERATION_MAX_DIM (8, 81,
    1024 and 15625 nets); larger dimensions must pass `sample` to draw that
    many nets at random instead.
    """
    mub = mub if mub is not None else standard_mub(gf.order)
    ctx = net_context(mub, build_striations(gf))
    d = ctx.dim
    if sample is not None:
        rng = rng if rng is not None else np.random.default_rng(0)
        for _ in range(sample):
            choices = list(rng.integers(0, d, d + 1))
            if fix_axes:
                choices[0], choices[1] = fixed_axes_choices(ctx)
            yield ctx.complete(tuple(choices))
        return
    if d > ENUMERATION_MAX_DIM:
        raise ValueError(
            f"refusing to enumerate {net_count(d, fix_axes)} nets at d={d}; "
            "pass sample= to draw a random subset"
        )
    if fix_axes:
        j_vert, j_horiz = fixed_axes_choices(ctx)
        for oblique in itertools.product(range(d), repeat=d - 1):
            yield ctx.complete((j_vert, j_horiz) + oblique)
    else:
        for choices in itertools.product(range(d), repeat=d + 1):
            yield ctx.complete(choices)


def is_flow(unitary: np.ndarray, net: QuantumNet) -> bool:
    """True iff conjugation by the unitary permutes the net's point
    operators among themselves: every image U A U~ lies within LOOKUP of
    some point operator.

    Point operators and their images all have the same Hilbert-Schmidt
    norm, so the nearest point operator is the one of largest overlap;
    only that one distance per image is formed, never all d^2 x d^2.
    """
    table = net.point_operator_table()
    flat = table.reshape(len(table), -1)
    images = (unitary @ table @ unitary.conj().T).reshape(len(table), -1)
    nearest = np.argmax((images @ flat.conj().T).real, axis=1)
    return bool(np.all(np.linalg.norm(images - flat[nearest], axis=1) < LOOKUP))


def squeezing_covariant_nets(
    gf: FieldSpec, mub: MubSet, u_s: np.ndarray
) -> list[QuantumNet]:
    """The nets in the fixed-axes family whose point operators the
    squeezing unitary permutes; there are exactly d of them."""
    return [net for net in enumerate_nets(gf, mub, fix_axes=True) if is_flow(u_s, net)]
