"""Membership test and convex decomposition for the polytope of states
whose Wigner function is non-negative for every net.

The closed form rests on one observation: among all nets and points, some
Wigner value collects exactly the smallest probability from each basis, so
the global minimum is (sum of per-basis minima - 1) / d and a minimizing
configuration is explicit -- put each basis's minimizing projector on the
ray and read the value at the origin.  `brute_force_min` validates that
argument with the minimum of `net_minima`, the per-net minima of
`wigner_scan` over every net at every point for d <= ENUMERATION_MAX_DIM;
it must never be shortcut through the closed form.  `classify` lists the
scan's WITNESS_COUNT most negative witnesses.  The scan and its minima
are built in `wigner` and memoized on the state, so these two and every
`wigner_function` call on one state read one scan.

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
from .geometry import PhasePoint, all_points, origin
from .mub import MubSet
from .quantum_net import ENUMERATION_MAX_DIM
from .tolerances import MEMBERSHIP
from .wigner import DensityState, ProbabilityTable, net_minima, probabilities, wigner_scan

WITNESS_COUNT = 5  # witnesses `classify` lists from a scan


@dataclass(frozen=True)
class ClassicalityReport:
    min_wigner: float
    sum_of_minima: float
    classical: bool
    witness_point: PhasePoint | None
    witness_ray_choices: tuple[int, ...] | None


@dataclass(frozen=True)
class DecompositionResult:
    coefficients: np.ndarray  # (d+1) x d
    x_total: float
    certified_classical: bool

    def min_coefficient(self) -> float:
        return float(self.coefficients.min())

    def reconstruct(self, mub: MubSet) -> np.ndarray:
        return np.tensordot(self.coefficients, mub.projectors, axes=2)


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


def _table(rho: DensityState, mub: MubSet) -> ProbabilityTable:
    """The state's memoized probability table, computed on a miss."""
    table = rho._tables.get(mub)
    if table is None:
        table = rho._tables[mub] = probabilities(rho, mub)
    return table


def _report(table: ProbabilityTable, gf: FieldSpec) -> ClassicalityReport:
    minima = table.minima()
    total = float(minima.sum())
    value = (total - 1.0) / gf.order
    classical = value >= -MEMBERSHIP
    # the witness net takes, per striation, the lowest minimizing j
    witness_net = None if classical else tuple(table.values.argmin(axis=1).tolist())
    return ClassicalityReport(value, total, classical, None if classical else origin(gf), witness_net)


def min_wigner(rho: DensityState, mub: MubSet) -> ClassicalityReport:
    """Minimum Wigner value over all nets and points, in closed form,
    with an explicit minimizing net and point when the value is negative."""
    return _report(_table(rho, mub), mub.field)


def _check_field(mub: MubSet, gf: FieldSpec) -> None:
    if gf is not mub.field:
        raise ValueError(
            f"field of order {gf.order} is not the field of the basis set (order {mub.dim})"
        )


def brute_force_min(rho: DensityState, mub: MubSet, gf: FieldSpec) -> float:
    """Minimum of `wigner_scan` over every net and point, read from
    `net_minima`, never through the closed form; gf must be the field of mub."""
    _check_field(mub, gf)
    return float(net_minima(rho, mub).min())


def _decomposition(table: ProbabilityTable) -> DecompositionResult:
    d = table.dim
    minima = table.minima()
    x = float(minima.sum() - 1.0)
    coeff = table.values - minima[:, None] + x / (d + 1)
    return DecompositionResult(coeff, x, (x / d) >= -MEMBERSHIP)


def convex_decomposition(rho: DensityState, mub: MubSet) -> DecompositionResult:
    """Expansion of the state over the basis projectors that is convex
    exactly when the state is a polytope member; exact for any input."""
    return _decomposition(_table(rho, mub))


def classify(rho: DensityState, mub: MubSet, gf: FieldSpec) -> ClassificationReport:
    """Bundle probabilities, membership, decomposition and the WITNESS_COUNT
    most negative witnessing (net, point) pairs, ties broken in scan order.

    For d <= ENUMERATION_MAX_DIM witnesses come from the exhaustive scan;
    above it, only the closed-form minimizing configuration is reported.
    gf must be the field of mub."""
    _check_field(mub, gf)
    table = _table(rho, mub)
    report = _report(table, mub.field)
    witnesses: list[Witness] = []
    if not report.classical and gf.order > ENUMERATION_MAX_DIM:
        witnesses = [Witness(report.witness_ray_choices, report.witness_point, report.min_wigner)]
    elif not report.classical:
        values = wigner_scan(rho, mub)
        flat = values.ravel()
        hits = np.flatnonzero(flat < -MEMBERSHIP)
        if WITNESS_COUNT < len(hits):  # the smallest, ties kept, in scan order
            kth = np.partition(flat[hits], WITNESS_COUNT - 1)[WITNESS_COUNT - 1]
            hits = hits[flat[hits] <= kth]
        points = all_points(gf)
        for i in hits[np.argsort(flat[hits], kind="stable")][:WITNESS_COUNT]:
            *choices, alpha = np.unravel_index(i, values.shape)
            witnesses.append(Witness(tuple(map(int, choices)), points[alpha], float(flat[i])))
    return ClassificationReport(table, report, _decomposition(table), tuple(witnesses))


def random_projector_mixture(mub: MubSet, rng: np.random.Generator) -> DensityState:
    """A random convex mixture of all d(d+1) basis projectors: a certified
    polytope member by construction."""
    d = mub.dim
    count = (d + 1) * d
    weights = rng.dirichlet(np.ones(count))
    picks = rng.choice(count, size=count, replace=False)
    rho = np.tensordot(weights, mub.projectors.reshape(count, d, d)[picks], axes=1)
    return DensityState(rho, kind="mixed")
