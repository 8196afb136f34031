"""Acceptance suite: every criterion at its stated tolerance, one printed
verdict line per criterion (see the terminal summary section)."""

import importlib.util
import itertools
import time
from pathlib import Path

import numpy as np

from dwf.classicality import (
    brute_force_min,
    convex_decomposition,
    min_wigner,
    random_projector_mixture,
)
from dwf.clifford import (
    AffineData,
    affine_extraction,
    circuit_unitary,
    fourier_operator,
    is_clifford,
    maps_mub_to_mub,
    random_clifford_circuit,
    random_unitary,
    squeezing_operator,
    standardize_pair,
    tableau_apply,
)
from dwf.galois import field
from dwf.geometry import all_points, build_striations, line_points, lines_through
from dwf.mub import standard_mub, unbiasedness_report
from dwf.pauli import build_labeling, standard_sets
from dwf.quantum_net import enumerate_nets, flow_census, is_flow, standard_context
from dwf.wigner import DensityState, line_probability, wigner_function

SEED = 20250808
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """Import one of the experiment scripts as a module, by path."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verdict(log, number, ok, detail):
    log.append(f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_geometry_axioms(acceptance_log):
    start = time.perf_counter()
    for d in (2, 3, 4, 5, 8, 9):
        gf = field(d)
        striations = build_striations(gf)
        assert len(striations) == d + 1
        for s in striations:
            for ln in s.lines:
                assert len(line_points(ln)) == d
        pts = all_points(gf)
        for p1, p2 in itertools.combinations(pts, 2):
            common = [ln for ln in lines_through(p1, striations) if p2 in line_points(ln)]
            assert len(common) == 1
    elapsed = time.perf_counter() - start
    verdict(
        acceptance_log, 1, elapsed < 5.0,
        f"affine axioms exact for d in 2,3,4,5,8,9 in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_mub_correctness(acceptance_log):
    worst = 0.0
    for d in (2, 3, 4, 5, 8):
        report = unbiasedness_report(standard_mub(d))
        worst = max(worst, report.max_deviation)
    verdict(
        acceptance_log, 2, worst < 1e-10,
        f"max overlap deviation {worst:.2e} (< 1e-10) for d in 2,3,4,5,8",
    )


def test_criterion_03_point_operator_orthogonality(acceptance_log):
    worst = 0.0
    rng = np.random.default_rng(SEED)
    for d in (2, 3, 4):
        ctx = standard_context(d)
        nets = [
            ctx.complete((0,) * (d + 1)),
            ctx.complete(tuple(rng.integers(0, d, d + 1))),
            ctx.complete(tuple((k + 1) % d for k in range(d + 1))),
        ]
        target = np.eye(d * d) / d
        for net in nets:
            table = net.point_operator_table()
            gram = np.einsum("aij,bji->ab", table, table).real
            worst = max(worst, float(np.max(np.abs(gram - target))))
    verdict(
        acceptance_log, 3, worst < 1e-10,
        f"Tr(A A) = delta/d to {worst:.2e} (< 1e-10), 3 nets each at d=2,3,4",
    )


def test_criterion_04_line_sum_property(acceptance_log):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (2, 3, 4):
        ctx = standard_context(d)
        nets = [ctx.complete(tuple(rng.integers(0, d, d + 1))) for _ in range(5)]
        for _ in range(20):
            rho = DensityState.random_mixed(d, rng)
            for net in nets:
                table = wigner_function(rho, net)
                for s in ctx.striations:
                    for ln in s.lines:
                        total = sum(table.value(pt) for pt in line_points(ln))
                        gap = abs(total - line_probability(rho, net, ln))
                        worst = max(worst, gap)
    verdict(
        acceptance_log, 4, worst < 1e-10,
        f"line sums match probabilities to {worst:.2e} (< 1e-10), "
        "20 states x 5 nets x all lines, d=2,3,4",
    )


def test_criterion_05_oracle_equivalence(acceptance_log):
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for d in (2, 3):
        gf = field(d)
        mub = standard_mub(d)
        for trial in range(30):
            rho = (
                DensityState.random_pure(d, rng)
                if trial % 2
                else DensityState.random_mixed(d, rng)
            )
            gap = abs(brute_force_min(rho, mub, gf) - min_wigner(rho, mub).min_wigner)
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    verdict(
        acceptance_log, 5, worst < 1e-12 and elapsed < 30.0,
        f"brute force over all nets = closed form to {worst:.2e} (< 1e-12), "
        f"30 states at d=2 (8 nets) and d=3 (81 nets), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_06_convex_members_decompose(acceptance_log):
    rng = np.random.default_rng(SEED)
    worst_coeff = 0.0
    worst_recon = 0.0
    for d in (2, 3, 4):
        mub = standard_mub(d)
        for _ in range(100):
            rho = random_projector_mixture(mub, rng)
            result = convex_decomposition(rho, mub)
            worst_coeff = min(worst_coeff, result.min_coefficient())
            worst_recon = max(
                worst_recon, float(np.linalg.norm(result.reconstruct(mub) - rho.rho))
            )
    ok = worst_coeff >= -1e-10 and worst_recon < 1e-10
    verdict(
        acceptance_log, 6, ok,
        f"100 projector mixtures per d in 2,3,4: min coefficient {worst_coeff:.2e} "
        f"(>= -1e-10), reconstruction error {worst_recon:.2e} (< 1e-10)",
    )


def test_criterion_07_bloch_rigidity(acceptance_log):
    mub = standard_mub(2)
    # degree grid over the sphere: 181 x 360 = 65160 >= 10^4 pure states
    total, flagged, angle, _ = load_script("bloch_rigidity_scan").scan(1.0, 1e-9)
    stray = flagged & (angle > 0.02)
    mub_vectors = [b.vector(j) for b in mub.bases for j in range(2)]
    mub_values = [
        min_wigner(DensityState.from_vector(v), mub).min_wigner for v in mub_vectors
    ]
    boundary_ok = all(-1e-12 <= v <= 1e-12 for v in mub_values)
    ok = not stray.any() and boundary_ok
    verdict(
        acceptance_log, 7, ok,
        f"{total} grid states: {int(flagged.sum())} flagged non-negative, all within "
        f"0.02 rad of a basis state; the 6 basis states report |min| <= "
        f"{max(abs(v) for v in mub_values):.1e} (<= 1e-12)",
    )


def test_criterion_08_witness_value(acceptance_log):
    rho = DensityState.from_vector([1.0, np.exp(1j * np.pi / 4)])
    value = min_wigner(rho, standard_mub(2)).min_wigner
    closed_form = (0.5 + (1.0 - 1.0 / np.sqrt(2)) - 1.0) / 2.0
    ok = abs(value - (-0.103553)) < 1e-6 and abs(value - closed_form) < 1e-12
    verdict(
        acceptance_log, 8, ok,
        f"edge state reports min_wigner {value:.9f} = -0.103553 +/- 1e-6",
    )


def _spot_suite(d, rng):
    gf = field(d)
    lab = build_labeling(gf)
    members = [lab.unitary_at(pt) for pt in all_points(gf)]
    if gf.n >= 2:
        members.append(squeezing_operator(gf).dense)
    if gf.p == 2:
        members.append(fourier_operator(gf).dense)
    products = []
    for _ in range(20):
        i, j = rng.integers(0, len(members), 2)
        products.append(members[i] @ members[j])
    return members, products


def test_criterion_09_classical_unitaries_spot_suite(acceptance_log):
    rng = np.random.default_rng(SEED)
    checked = 0
    affine_checked = 0
    for d in (2, 4):
        gf = field(d)
        mub = standard_mub(d)
        sets = standard_sets(gf)
        c1 = standardize_pair(sets[0], sets[1]).dense
        members, products = _spot_suite(d, rng)
        for u in members + products:
            cert = maps_mub_to_mub(u, mub, mub)
            assert cert, "suite member failed to map the bases onto themselves"
            assert is_clifford(u, gf), "suite member failed the Clifford check"
            checked += 1
            s2 = sets[cert.permutation[0]]
            t2 = sets[cert.permutation[1]]
            c2 = standardize_pair(s2, t2).dense
            out = affine_extraction(c2 @ u @ c1.conj().T, gf)
            assert isinstance(out, AffineData), "composed operator is not affine"
            affine_checked += 1
        for _ in range(20 if d == 4 else 0):
            assert not maps_mub_to_mub(random_unitary(d, rng), mub, mub)
    verdict(
        acceptance_log, 9, True,
        f"{checked} suite members pass the basis-map and Clifford checks, "
        f"{affine_checked} composed operators are affine, 20 Haar unitaries fail",
    )


def test_criterion_10_squeezing_covariant_nets(acceptance_log):
    gf = field(4)
    us = squeezing_operator(gf).dense
    census = flow_census(us, gf)
    keys = {net.ray_choices for net in census.flows}
    exact = all(
        is_flow(us, net) == (net.ray_choices in keys)
        for net in enumerate_nets(gf, fix_axes=True)
    )
    ok = len(keys) == 4 and census.size == 64 and exact
    verdict(
        acceptance_log, 10, ok,
        f"{len(keys)} squeezing-covariant nets at d=4 (= d); "
        f"flow test true exactly on them across all {census.size} {census.family} nets",
    )


def test_criterion_11_fourier_never_flows(acceptance_log):
    start = time.perf_counter()
    c2, c4 = (flow_census(fourier_operator(field(d)).dense, field(d)) for d in (2, 4))
    elapsed = time.perf_counter() - start
    ok = not c2.flows and not c4.flows and (c2.size, c4.size) == (8, 64) and elapsed < 60.0
    verdict(
        acceptance_log, 11, ok,
        f"Fourier flows: {len(c2.flows)}/{c2.size} nets at d=2, "
        f"{len(c4.flows)}/{c4.size} {c4.family} nets at d=4, {elapsed:.2f}s (< 1 min)",
    )


def test_criterion_12_tableau_dense_cross_validation(acceptance_log):
    rng = np.random.default_rng(SEED)
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 21))
        circuit = random_clifford_circuit(3, depth, rng)
        sv = tableau_apply(circuit, 3).state_vector()
        dense = circuit_unitary(circuit, 3) @ e0
        lead = next(x for x in dense if abs(x) > 1e-8)
        dense = dense * (lead.conjugate() / abs(lead))
        worst = max(worst, float(np.linalg.norm(sv - dense)))
    verdict(
        acceptance_log, 12, worst < 1e-10,
        f"100 random 3-qubit circuits, depth <= 20: tableau vs dense gap "
        f"{worst:.2e} (< 1e-10)",
    )
