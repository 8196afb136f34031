"""Quantum nets: translation-covariant line -> projector assignments.

A net is determined by one free projector choice per striation (the
choice for the ray); covariance under translations fixes every other
line.  The completion is exact integer arithmetic, done once per
dimension.  The translation T(alpha) shifts the eigenvalue label m of
every vector of a basis by the symplectic products of alpha's label with
the basis generators g_i.  One mod-p product of the Labeling table, the
symplectic form J of `pauli` and the stacked generator labels gives
shift[kappa, alpha, i] = <T(alpha), g_i> = label(alpha) J label(g_i) at
every point, and the line through alpha is the ray translated by
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

`is_flow` and `flow_census` share one kernel, which decides for a stack of
nets whether conjugation by U permutes each net's point operators, from
U's record `clifford._basis_images`: in integers from its projector action
when U sends basis projectors within `tolerances.flow_gate` of them, else
from its transition table gathered at the nets' rows.  The record memoizes
U's verdicts on the census family, whose nets are stacked once per dimension.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

import numpy as np

from .clifford import _images
from .galois import FieldSpec, field
from .geometry import Line, PhasePoint, Striation, all_points, build_striations
from .mub import MubSet, standard_mub
from .pauli import _symplectic_form, build_labeling
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
    # shift[kappa, alpha, i] = <T(alpha), g_i> = label(alpha) J label(g_i)
    gens = np.array([[g.label for g in basis.generators] for basis in mub.bases])
    shift = np.einsum("aj,kij->kai", labeling.labels @ _symplectic_form(n), gens) % p
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
    return NetContext(gf, striations, mub, sigma, pencil, all_points(gf))


@lru_cache(maxsize=None)
def standard_context(d: int) -> NetContext:
    return net_context(standard_mub(d), build_striations(field(d)))


@dataclass(eq=False)
class QuantumNet:
    """A full line -> (striation, projector) assignment plus its free data."""

    context: NetContext
    ray_choices: tuple[int, ...]
    indices: tuple[tuple[int, ...], ...] = dc_field(init=False)  # [kappa][line position] = j, from sigma
    _point_ops: np.ndarray | None = dc_field(default=None, init=False, repr=False)
    # the net's row in a state's scan: ray_choices read as base-d digits, first most significant
    scan_index: int = dc_field(init=False, repr=False)

    def __post_init__(self):
        d, self.scan_index = self.dim, 0  # not np.ravel_multi_index: it costs more than a completion
        try:  # numpy integers become Python ints; a bool is no index (numpy's already fail)
            choices = tuple(self.ray_choices)
            self.ray_choices = () if bool in map(type, choices) else tuple(map(operator.index, choices))
        except TypeError:  # a non-integer choice
            self.ray_choices = ()
        if len(self.ray_choices) != d + 1 or not 0 <= min(self.ray_choices) <= max(self.ray_choices) < d:
            raise ValueError(f"ray_choices must be {d + 1} indices in [0, {d})")
        for r in self.ray_choices:
            self.scan_index = self.scan_index * d + r
        self.indices = tuple(map(tuple, self.context.sigma[range(d + 1), :, self.ray_choices].tolist()))

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
        return (self.pencil + d * np.arange(d + 1)[:, None]).astype(np.intp, copy=False)

    @cached_property
    def meet(self) -> np.ndarray:
        """meet[j0, j1] = the point where the lines of projectors j0 and j1 cross."""
        d = self.dim  # invert each point's key j0 d + j1, its lines in bases 0 and 1
        meet = np.argsort(self.rows[0] * d + self.rows[1] - d).reshape(d, d)
        meet.flags.writeable = False
        return meet

    def projector_index(self, line: Line) -> tuple[int, int]:
        """(kappa, j) for the projector assigned to a line (0-based)."""
        for kappa, s in enumerate(self.context.striations):
            if line in s.positions:
                return kappa, self.indices[kappa][s.positions[line]]
        raise KeyError(f"{line} is not a line of this phase space")

    def point_operator_table(self) -> np.ndarray:
        """Point operators (sum of the projectors through the point - I) / d in point order, read-only."""
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
    return QuantumNet(net_context(mub, striations), ray_choices)


def net_count(d: int, fix_axes: bool = False) -> int:
    return d ** (d - 1) if fix_axes else d ** (d + 1)


def enumerate_nets(gf: FieldSpec, fix_axes: bool = False):
    """Yield nets in lexicographic ray-choice order, each exactly once; with
    fix_axes, the d^(d-1) whose vertical and horizontal rays take vector 0,
    label (0, ..., 0), of their bases: |0> and the uniform superposition.

    Enumeration is only allowed for d <= ENUMERATION_MAX_DIM (8, 81, 1024
    and 15625 nets); above it, draw single nets with NetContext.complete.
    """
    ctx = standard_context(gf.order)
    d = ctx.dim
    if d > ENUMERATION_MAX_DIM:
        raise ValueError(
            f"refusing to enumerate {net_count(d, fix_axes)} nets at d={d}; "
            "draw single nets with NetContext.complete"
        )
    axes = (0, 0) if fix_axes else ()
    for free in itertools.product(range(d), repeat=d + 1 - len(axes)):
        yield ctx.complete(axes + free)


def is_flow(unitary: np.ndarray, net: QuantumNet) -> bool:
    """True iff conjugation by the unitary permutes the net's point
    operators: each image U A U~ lies within LOOKUP of its nearest one.
    Census family nets read their record's memo; others are stacks of one.

    Integer route, when U's record `clifford._basis_images` holds an
    action (U sends each basis projector within flow_gate(d) of one): an
    image of A_alpha lies within LOOKUP/2 of the point operator of its
    image pencil if that is a pencil of the net, else beyond LOOKUP of all
    of them (`tolerances.flow_gate`).  Only beta, where the image lines of
    bases 0 and 1 meet, can carry it: the net flows iff rows[:, beta] is
    the image of rows.  Dense route, otherwise: point operators are
    orthogonal, Tr(A_alpha A_gamma) = delta / d (Gibbons, Hoffman and
    Wootters), so U A_alpha U~ = sum_gamma X[gamma, alpha] A_gamma, where
    X[gamma, alpha] sums the record's T~[rows[:, gamma]][:, rows[:, alpha]],
    T~ = (T - a_mu/(d+1) - b_lam/(d+1) + |U|^2/(d+1)^2) / d, T[lam, mu] =
    |<phi_lam|U|phi_mu>|^2, a_mu = |U phi_mu|^2 and b_lam = |U~ phi_lam|^2.
    The nearest is beta = argmax X[:, alpha], at squared distance (1/d)
    sum_gamma (X - e_beta)^2, a sum of small terms; the origin's column, a
    lower bound, is tested first, on every net of the stack.  A non-d x d
    matrix raises ValueError; huge or non-finite entries give False.
    """
    d, ctx = net.dim, net.context
    if d <= 3 or d <= ENUMERATION_MAX_DIM and net.ray_choices[:2] == (0, 0):  # shaped like a family net
        if ctx is standard_context(d):  # of the standard context, too
            return bool(_family_verdicts(unitary, ctx)[net.scan_index])
    images = _images(unitary, ctx.mub, ctx.mub, strict=False)
    rows = net.rows[:, None]  # a stack of one
    return bool(_flow_verdicts(images, rows, rows, net.meet, 0)[0])


def _flow_verdicts(images, rows: np.ndarray, columns: np.ndarray, meet: np.ndarray, offset: np.ndarray | int) -> np.ndarray:
    """`is_flow` on each net n of a stack: rows[:, n] holds its `rows`, columns = rows * count + n,
    offset[n] = n d^2, and meet (integer route) holds n d^2 + `meet`[j0, j1 - d] at offset[n] + j0 d + j1 - d."""
    d = len(rows) - 1
    if images.action is not None:
        image = images.action.take(rows.take(images.order, axis=0))  # image[kappa] in basis kappa
        beta = meet.take(image[0] * d + image[1] + (offset - d))
        return (rows.reshape(d + 1, -1).take(beta, axis=1) == image).all(axis=(0, 2))
    table = images.transition
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give inf or nan
        origin = table[:, rows[:, :, 0].T].sum(axis=2).take(columns).sum(axis=0)  # X[:, 0]
        origin.reshape(-1)[origin.argmax(axis=1, keepdims=True) + offset] -= 1.0
        verdicts = np.sqrt(np.vecdot(origin, origin) / d) < LOOKUP  # a BLAS dot per net, as origin @ origin
        if np.count_nonzero(verdicts):  # the origin's gather at every alpha, on the nets that pass
            held = rows[:, verdicts]
            x = sum(table[:, h] for h in held)  # x[lam, m, alpha]
            m = np.arange(held.shape[1])[:, None]
            x = sum(x[h, m] for h in held)  # X[m, gamma, alpha]
            x[m, x.argmax(axis=1), np.arange(d * d)] -= 1.0  # X - e_beta
            verdicts[verdicts] = np.sqrt(np.einsum("mij,mij->mj", x, x).max(axis=1) / d) < LOOKUP
    return verdicts


@dataclass(frozen=True)
class FlowCensus:
    """The nets of the census family that one unitary flows on."""

    flows: tuple[QuantumNet, ...]  # in enumeration order
    size: int  # nets in the family
    family: str  # "all" or "fixed-axes"


@lru_cache(maxsize=None)
def _census_family(d: int) -> tuple[tuple[QuantumNet, ...], str, tuple]:
    """(nets, kind, stack) of the census family, completed once per dimension and
    shared; the stack is the rows, columns, meet and offset of `_flow_verdicts`."""
    nets = tuple(enumerate_nets(field(d), d > 3))
    rows, n = np.stack([net.rows for net in nets], axis=1), np.arange(len(nets))[:, None]
    stack = rows, rows * len(nets) + n, np.stack([net.meet.ravel() for net in nets]) + n * d * d, n * d * d
    for array in stack:
        array.flags.writeable = False
    return nets, "fixed-axes" if d > 3 else "all", stack


def _family_verdicts(unitary: np.ndarray, ctx: NetContext) -> np.ndarray:
    """`is_flow` on the census family nets of ctx, in enumeration order, memoized in U's record."""
    images = _images(unitary, ctx.mub, ctx.mub, strict=False)
    if ctx not in images.flows:
        images.flows[ctx] = _flow_verdicts(images, *_census_family(ctx.dim)[2])
    return images.flows[ctx]


def flow_census(unitary: np.ndarray, gf: FieldSpec) -> FlowCensus:
    """The census family nets that `is_flow` passes, read off the family's
    verdicts: all nets at d <= 3, the d^(d-1) fixed-axes nets above (64 at
    d = 4, 625 at d = 5).  Above ENUMERATION_MAX_DIM it raises like `enumerate_nets`."""
    nets, family, _ = _census_family(gf.order)
    verdicts = _family_verdicts(unitary, nets[0].context)
    return FlowCensus(tuple(itertools.compress(nets, verdicts)), len(nets), family)
