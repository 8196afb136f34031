"""The invariant suite behind `dwf verify`: one pass/fail row per group.

Each check exercises a module-level guarantee at the requested dimension,
scaled to stay fast: exhaustive where the counts are tiny, sampled where
they are not.  Checks that do not apply at a dimension (squeezing needs an
extension field, the Fourier transform needs characteristic 2, net
enumeration is capped) are skipped rather than failed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .classicality import brute_force_min, convex_decomposition, min_wigner, random_projector_mixture
from .clifford import (
    circuit_unitary,
    fourier_operator,
    is_clifford,
    random_clifford_circuit,
    squeezing_operator,
    standardize_pair,
    tableau_apply,
)
from .galois import field
from .geometry import all_points, build_striations, line_points
from .mub import _fix_phase, standard_mub, unbiasedness_report
from .pauli import _symplectic_form, build_labeling, standard_sets
from .quantum_net import ENUMERATION_MAX_DIM, enumerate_nets, is_flow, net_count, standard_context
from .tolerances import ALGEBRAIC, SPECTRAL
from .wigner import DensityState, line_probability, reconstruct_state, wigner_from_point_operators, wigner_function

DEFAULT_SEED = 20250808


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_field_axioms(d, rng):
    gf = field(d)
    els = gf.elements
    for a, b, c in itertools.product(els, repeat=3):
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            return False, f"associativity broke at {a}, {b}, {c}"
        if a * (b + c) != a * b + a * c:
            return False, "distributivity broke"
    for a in els[1:]:
        if a * a.inverse() != gf.one:
            return False, f"inverse broke at {a}"
    return True, f"{len(els)}^3 triples checked"


def _check_companion(d, rng):
    gf = field(d)
    acc = np.eye(gf.n, dtype=np.int64)
    seen = set()
    for _ in range(d - 1):
        seen.add(acc.tobytes())
        acc = (acc @ gf.companion) % gf.p
    if not np.array_equal(acc, np.eye(gf.n, dtype=np.int64)) or len(seen) != d - 1:
        return False, "companion powers not cyclic of order d-1"
    for x in gf.elements:
        if tuple((gf.companion @ np.array(x.coords)) % gf.p) != (gf.generator * x).coords:
            return False, f"matrix action disagrees at {x}"
    return True, f"M^j distinct for j<{d - 1}, coordinate action exact"


def _check_geometry(d, rng):
    gf = field(d)
    striations = build_striations(gf)
    if len(striations) != d + 1:
        return False, f"{len(striations)} striations"
    # joins[a, b] = number of striations in which points a and b share a line
    position = np.stack([s.position for s in striations])
    joins = (position[:, :, None] == position[:, None, :]).sum(axis=0)
    bad = np.argwhere(joins != 1 + d * np.eye(d * d, dtype=int))
    if len(bad):
        a, b = bad[0]
        pts = all_points(gf)
        return False, f"points {pts[a]}, {pts[b]} share {joins[a, b]} lines"
    return True, f"{d + 1} striations, unique joins over {d * d} points"


def _check_pauli(d, rng):
    gf = field(d)
    labeling = build_labeling(gf)
    picks = np.arange(d * d) if d <= 4 else rng.choice(d * d, size=24, replace=False)
    ops, rows = labeling.translations[picks], labeling.labels[picks]
    # every pair at once: the dense commutators against the symplectic products
    products = np.einsum("aij,bjk->abik", ops, ops)
    dense_zero = np.linalg.norm(products - products.transpose(1, 0, 2, 3), axis=(2, 3)) < ALGEBRAIC
    disagree = np.argwhere((rows @ _symplectic_form(gf.n) @ rows.T % gf.p == 0) != dense_zero)
    if len(disagree):
        a, b = disagree[0]
        return False, f"symplectic test disagrees at {rows[a].tolist()}, {rows[b].tolist()}"
    sets = standard_sets(gf)
    seen = set()
    for s in sets:
        seen |= s.label_set()
    if len(seen) != d * d - 1:
        return False, "standard sets do not partition the labels"
    labels = labeling.labels
    for s, aset in zip(build_striations(gf), sets):
        # the ray's points, minus the origin (index 0, on every ray)
        ray_labels = set(map(tuple, labels[s.position == 0][1:].tolist()))
        if ray_labels != aset.label_set():
            return False, f"ray of striation {s.kappa} carries the wrong set"
    return True, f"{len(picks)}^2 commutator pairs, partition and rays exact"


def _check_mub(d, rng):
    mub = standard_mub(d)
    report = unbiasedness_report(mub)
    if report.max_deviation >= SPECTRAL:
        return False, f"overlap deviation {report.max_deviation:.2e}"
    totals = mub.projectors.sum(axis=1)
    if np.linalg.norm(totals - np.eye(d), axis=(1, 2)).max() > SPECTRAL:
        return False, "projectors do not resolve the identity"
    return True, f"max overlap deviation {report.max_deviation:.2e}"


def _check_nets(d, rng):
    ctx = standard_context(d)
    nets = (
        list(enumerate_nets(field(d)))
        if d <= 3
        else [ctx.complete(tuple(rng.integers(0, d, d + 1))) for _ in range(3)]
    )
    if d <= 3 and len(nets) != net_count(d):
        return False, f"enumerated {len(nets)} nets, expected {net_count(d)}"
    for net in nets[:3]:
        table = net.point_operator_table()
        gram = np.einsum("aij,bji->ab", table, table).real
        target = np.eye(d * d) / d
        if np.max(np.abs(gram - target)) > SPECTRAL:
            return False, "point operators are not orthogonal"
    return True, f"{len(nets)} nets built, point-operator gram exact on 3"


def _check_wigner(d, rng):
    ctx = standard_context(d)
    for _ in range(4):
        rho = DensityState.random_mixed(d, rng)
        net = ctx.complete(tuple(rng.integers(0, d, d + 1)))
        table = wigner_function(rho, net)
        if np.max(np.abs(table.values - wigner_from_point_operators(rho, net))) > ALGEBRAIC:
            return False, "probability route disagrees with trace route"
        for s in ctx.striations:
            for line in s.lines:
                target = line_probability(rho, net, line)
                total = sum(table.value(pt) for pt in line_points(line))
                if abs(total - target) > SPECTRAL:
                    return False, "line sums break the defining property"
        if np.linalg.norm(reconstruct_state(table).rho - rho.rho) > SPECTRAL:
            return False, "reconstruction failed"
    return True, "line sums, dual route and reconstruction on 4 random states"


def _check_classicality(d, rng):
    mub = standard_mub(d)
    for _ in range(10):
        rho = random_projector_mixture(mub, rng)
        result = convex_decomposition(rho, mub)
        if result.min_coefficient() < -SPECTRAL:
            return False, "projector mixture produced a negative coefficient"
        if np.linalg.norm(result.reconstruct(mub) - rho.rho) > SPECTRAL:
            return False, "decomposition does not reconstruct"
    detail = "decomposition convex on 10 mixtures"
    if d <= ENUMERATION_MAX_DIM:
        for _ in range(6):
            rho = DensityState.random_pure(d, rng)
            gap = abs(
                brute_force_min(rho, mub, field(d)) - min_wigner(rho, mub).min_wigner
            )
            if gap > ALGEBRAIC:
                return False, f"oracle mismatch {gap:.2e}"
        detail += f"; brute force over {net_count(d)} nets matches closed form"
    return True, detail


def _check_clifford(d, rng):
    gf = field(d)
    lab = build_labeling(gf)
    ctx = standard_context(d)
    net = ctx.complete(tuple(rng.integers(0, d, d + 1)))
    pts = list(all_points(gf))
    for pt in [pts[i] for i in rng.choice(len(pts), size=min(4, len(pts)), replace=False)]:
        u = lab.unitary_at(pt)
        if not is_clifford(u, gf):
            return False, f"translation at {pt} failed the Clifford check"
        if not is_flow(u, net):
            return False, f"translation at {pt} is not a flow"
    details = ["translations are Clifford flows"]
    if gf.n >= 2:
        us = squeezing_operator(gf)
        if not is_clifford(us.dense, gf):
            return False, "squeezing operator failed the Clifford check"
        details.append("squeezing synthesized")
    if gf.p == 2:
        fop = fourier_operator(gf)
        if np.linalg.norm(fop.dense @ fop.dense - np.eye(d)) > SPECTRAL:
            return False, "Fourier transform is not an involution"
        details.append("Fourier involution")
        sets = standard_sets(gf)
        standardize_pair(sets[0], sets[1])
        details.append("standardization verified")
        for _ in range(5):
            circuit = random_clifford_circuit(gf.n, 12, rng)
            sv = tableau_apply(circuit, gf.n).state_vector()
            dense = circuit_unitary(circuit, gf.n)[:, 0]  # the image of |0..0>
            if np.linalg.norm(sv - _fix_phase(dense)) > SPECTRAL:
                return False, "tableau disagrees with dense simulation"
        details.append("tableau vs dense on 5 circuits")
    return True, ", ".join(details)


_CHECKS = (
    ("galois", "field axioms", _check_field_axioms),
    ("galois", "companion matrix", _check_companion),
    ("geometry", "affine axioms", _check_geometry),
    ("pauli", "commutation and rays", _check_pauli),
    ("mub", "unbiasedness", _check_mub),
    ("nets", "covariance and orthogonality", _check_nets),
    ("wigner", "line sums and reconstruction", _check_wigner),
    ("classicality", "decomposition and oracle", _check_classicality),
    ("clifford", "flows and synthesis", _check_clifford),
)


def run_verification(d: int, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results = []
    for group, name, fn in _CHECKS:
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        try:
            passed, detail = fn(d, rng)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc}"
        results.append(CheckResult(group, name, passed, detail, time.perf_counter() - start))
    return results
