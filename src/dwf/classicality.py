"""Membership test and convex decomposition for the polytope of states
whose Wigner function is non-negative for every net.

The closed form rests on one observation: among all nets and points, some
Wigner value collects exactly the smallest probability from each basis, so
the global minimum is (sum of per-basis minima - 1) / d and a minimizing
configuration is explicit -- put each basis's minimizing projector on the
ray and read the value at the origin.  `brute_force_min` enumerates every
net and point and exists to validate that argument; it must never be
shortcut through the closed form.  `classify` shares that exhaustive scan
to list its most negative witnesses.

Membership comes with a constructive certificate: the coefficients

    c[kappa, j] = p[kappa, j] - p_min[kappa] + x / (d + 1),
    x = sum_kappa p_min[kappa] - 1,

always reproduce the state exactly over the basis projectors, and they are
all non-negative precisely on the polytope members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import FieldSpec
from .geometry import PhasePoint, all_points, build_striations, origin
from .mub import MubSet
from .quantum_net import net_context
from .tolerances import MEMBERSHIP
from .wigner import DensityState, ProbabilityTable, probabilities

# The exhaustive scan covers d^(d+1) nets: 1,024 at d = 4, 15,625 at d = 5.
BRUTE_FORCE_MAX_DIM = 4


@dataclass(frozen=True)
class ClassicalityReport:
    min_wigner: float
    sum_of_minima: float
    classical: bool
    witness_point: PhasePoint | None
    witness_ray_choices: tuple[int, ...] | None
    argmin_indices: tuple[int, ...]


@dataclass(frozen=True)
class DecompositionResult:
    coefficients: np.ndarray  # (d+1) x d
    x_total: float
    certified_classical: bool

    def min_coefficient(self) -> float:
        return float(self.coefficients.min())

    def reconstruct(self, mub: MubSet) -> np.ndarray:
        d = mub.dim
        out = np.zeros((d, d), dtype=complex)
        for kappa in range(d + 1):
            for j in range(d):
                out += self.coefficients[kappa, j] * mub.projector(kappa, j)
        return out


@dataclass(frozen=True)
class Witness:
    ray_choices: tuple[int, ...]
    point: PhasePoint
    value: float


@dataclass(eq=False)
class ClassificationReport:
    probabilities: ProbabilityTable
    report: ClassicalityReport
    decomposition: DecompositionResult
    witnesses: tuple[Witness, ...]


def _report(table: ProbabilityTable, gf: FieldSpec) -> ClassicalityReport:
    minima = table.minima()
    total = float(minima.sum())
    value = (total - 1.0) / gf.order
    argmins = table.argmin_choices()
    classical = value >= -MEMBERSHIP
    witness_point, witness_net = (None, None) if classical else (origin(gf), argmins)
    return ClassicalityReport(value, total, classical, witness_point, witness_net, argmins)


def min_wigner(rho: DensityState, mub: MubSet) -> ClassicalityReport:
    """Minimum Wigner value over all nets and points, in closed form,
    with an explicit minimizing net and point when the value is negative."""
    return _report(probabilities(rho, mub), mub.field)


def _scan(table: ProbabilityTable, mub: MubSet, gf: FieldSpec) -> np.ndarray:
    """Wigner values of every net at every point by exhaustive enumeration:
    values[r_0, ..., r_d, alpha] for the net with ray choices (r_0 .. r_d).

    Only the table of basis probabilities enters each value, so the scan
    is one gather over the d^(d+1) ray-choice tuples.  Larger dimensions
    are refused, since the net count grows as d^(d+1)."""
    d = gf.order
    if d > BRUTE_FORCE_MAX_DIM:
        raise ValueError(
            f"brute force over {d ** (d + 1)} nets at d={d} is not supported; use min_wigner"
        )
    pencil = net_context(mub, build_striations(gf)).pencil
    kappas = np.arange(d + 1)
    # on_line[kappa, alpha, r]: probability on the line through alpha when the ray gets r
    on_line = table.values[kappas[:, None, None], pencil]
    choices = np.indices((d,) * (d + 1)).reshape(d + 1, -1).T
    pencil_sum = on_line[kappas, :, choices].sum(axis=1)
    return ((pencil_sum - 1.0) / d).reshape((d,) * (d + 1) + (d * d,))


def brute_force_min(rho: DensityState, mub: MubSet, gf: FieldSpec) -> float:
    """Minimum over every net and every point by exhaustive enumeration,
    never through the closed form; refused for d > 4."""
    return float(_scan(probabilities(rho, mub), mub, gf).min())


def _decomposition(table: ProbabilityTable) -> DecompositionResult:
    d = table.dim
    minima = table.minima()
    x = float(minima.sum() - 1.0)
    coeff = table.values - minima[:, None] + x / (d + 1)
    return DecompositionResult(coeff, x, (x / d) >= -MEMBERSHIP)


def convex_decomposition(rho: DensityState, mub: MubSet) -> DecompositionResult:
    """Expansion of the state over the basis projectors that is convex
    exactly when the state is a polytope member; exact for any input."""
    return _decomposition(probabilities(rho, mub))


def classify(
    rho: DensityState, mub: MubSet, gf: FieldSpec, top_k: int = 5
) -> ClassificationReport:
    """Bundle probabilities, membership, decomposition and the most
    negative witnessing (net, point) pairs.

    For d <= 4 the witness list comes from the exhaustive scan; above that
    only the closed-form minimizing configuration is reported."""
    table = probabilities(rho, mub)
    report = _report(table, mub.field)
    witnesses: list[Witness] = []
    if not report.classical and gf.order > BRUTE_FORCE_MAX_DIM:
        witnesses.append(
            Witness(report.witness_ray_choices, report.witness_point, report.min_wigner)
        )
    elif not report.classical:
        values = _scan(table, mub, gf)
        flat = values.ravel()
        hits = np.flatnonzero(flat < -MEMBERSHIP)
        points = all_points(gf)
        for i in hits[np.argsort(flat[hits], kind="stable")][:top_k]:
            *choices, alpha = np.unravel_index(i, values.shape)
            witnesses.append(Witness(tuple(map(int, choices)), points[alpha], float(flat[i])))
    return ClassificationReport(table, report, _decomposition(table), tuple(witnesses))


def random_projector_mixture(
    mub: MubSet, rng: np.random.Generator, terms: int | None = None
) -> DensityState:
    """A random convex mixture of basis projectors: a certified polytope
    member by construction."""
    d = mub.dim
    count = (d + 1) * d
    weights = rng.dirichlet(np.ones(terms if terms is not None else count))
    picks = rng.choice(count, size=len(weights), replace=False)
    rho = np.zeros((d, d), dtype=complex)
    for w, flat in zip(weights, picks):
        rho += w * mub.projector(int(flat) // d, int(flat) % d)
    return DensityState(rho, kind="mixed")
