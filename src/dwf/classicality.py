"""Membership test and convex decomposition for the polytope of states
whose Wigner function is non-negative for every net.

The closed form rests on one observation: among all nets and points, some
Wigner value collects exactly the smallest probability from each basis, so
the global minimum is (sum of per-basis minima - 1) / d and a minimizing
configuration is explicit -- put each basis's minimizing projector on the
ray and read the value at the origin.  `brute_force_min` validates that
argument with the minimum of `net_minima`, the per-net minima of the scan
of every net at every point for d <= ENUMERATION_MAX_DIM; it must never
be shortcut through the closed form.  The scan is built in `wigner` and
memoized on the state with its minima, so it and every `wigner_function`
call on one state read one scan.  `classify` memoizes no scan: it lists the
WITNESS_COUNT most negative witnesses from a bounded `_pencil_scan`, at every d.

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
from .geometry import PhasePoint, build_striations, origin
from .mub import MubSet
from .quantum_net import NetContext, net_context
from .tolerances import MEMBERSHIP
from .wigner import DensityState, ProbabilityTable, _pencil_scan, net_minima, probabilities

WITNESS_COUNT = 5  # most negative (net, point) pairs `classify` lists


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
    """Minimum of the scan over every net and point, read from
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


def _witnesses(table: ProbabilityTable, ctx: NetContext) -> tuple[Witness, ...]:
    """The WITNESS_COUNT most negative (net, point) pairs below -MEMBERSHIP,
    by value, then `QuantumNet.scan_index`, then point, read off the scan
    of `_pencil_scan` bounded to WITNESS_COUNT ray-choice prefixes per
    striation, which keeps every net those pairs lie on."""
    d = table.dim
    values, _, nets = _pencil_scan(table.values, ctx.pencil, WITNESS_COUNT)
    flat = (nets[:, None] * d * d + np.arange(d * d)).ravel()  # scan_index * d^2 + point
    values = values.ravel()
    picks = np.lexsort((flat, values))[:WITNESS_COUNT]
    picks = picks[values[picks] < -MEMBERSHIP]
    nets, points = np.divmod(flat[picks], d * d)
    choices = zip(*np.unravel_index(nets, (d,) * (d + 1)), points.tolist(), values[picks].tolist())
    return tuple(Witness(tuple(map(int, c)), ctx.points[alpha], value) for *c, alpha, value in choices)


def classify(rho: DensityState, mub: MubSet, gf: FieldSpec) -> ClassificationReport:
    """Bundle probabilities, membership, decomposition and the WITNESS_COUNT
    most negative witnessing (net, point) pairs, ties broken in scan order,
    at every d; gf must be the field of mub."""
    _check_field(mub, gf)
    table = _table(rho, mub)
    report = _report(table, mub.field)
    witnesses = () if report.classical else _witnesses(table, net_context(mub, build_striations(gf)))
    return ClassificationReport(table, report, _decomposition(table), witnesses)


def random_projector_mixture(mub: MubSet, rng: np.random.Generator) -> DensityState:
    """A random convex mixture of all d(d+1) basis projectors: a certified
    polytope member by construction."""
    d = mub.dim
    count = (d + 1) * d
    weights = rng.dirichlet(np.ones(count))
    picks = rng.choice(count, size=count, replace=False)
    rho = np.tensordot(weights, mub.projectors.reshape(count, d, d)[picks], axes=1)
    return DensityState(rho, kind="mixed")
