import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dwf.classicality import (
    brute_force_min,
    classify,
    convex_decomposition,
    min_wigner,
    random_projector_mixture,
    wigner_scan,
)
from dwf.galois import field
from dwf.geometry import build_striations
from dwf.mub import standard_mub
from dwf.quantum_net import covariant_completion, standard_context
from dwf.tolerances import ALGEBRAIC, MEMBERSHIP
from dwf.wigner import DensityState, wigner_function

EDGE_STATE_MIN = (1.0 - np.sqrt(2)) / 4  # approx -0.103553


def test_maximally_mixed_is_interior():
    for d in (2, 3, 4, 5):
        report = min_wigner(DensityState.maximally_mixed(d), standard_mub(d))
        assert abs(report.min_wigner - 1.0 / d**2) < 1e-12
        assert report.classical
        assert report.witness_point is None


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_mub_projectors_sit_on_the_boundary(d):
    mub = standard_mub(d)
    for kappa in range(d + 1):
        for j in range(d):
            rho = DensityState(mub.projector(kappa, j), kind="pure")
            report = min_wigner(rho, mub)
            assert abs(report.min_wigner) < 1e-12
            assert abs(report.sum_of_minima - 1.0) < 1e-12
            assert report.classical


def test_edge_state_value_and_witness():
    rho = DensityState.from_vector([1.0, np.exp(1j * np.pi / 4)])
    mub = standard_mub(2)
    report = min_wigner(rho, mub)
    assert abs(report.min_wigner - EDGE_STATE_MIN) < 1e-12
    assert not report.classical
    # the constructed witness net and point achieve the reported minimum
    net = covariant_completion(
        report.witness_ray_choices, mub, build_striations(field(2))
    )
    table = wigner_function(rho, net)
    assert abs(table.value(report.witness_point) - report.min_wigner) < 1e-12


@pytest.mark.parametrize("d", (2, 3, 4, 5))  # up to ENUMERATION_MAX_DIM
def test_brute_force_agrees_with_closed_form(d):
    gf = field(d)
    mub = standard_mub(d)
    rng = np.random.default_rng(100 + d)
    for trial in range(8):
        rho = (
            DensityState.random_pure(d, rng)
            if trial % 2
            else DensityState.random_mixed(d, rng)
        )
        assert abs(brute_force_min(rho, mub, gf) - min_wigner(rho, mub).min_wigner) < 1e-12


def test_brute_force_d2_zero_ket():
    assert abs(brute_force_min(DensityState.from_vector([1, 0]), standard_mub(2), field(2))) < 1e-12


def test_brute_force_d3_maximally_mixed():
    val = brute_force_min(DensityState.maximally_mixed(3), standard_mub(3), field(3))
    assert abs(val - 1.0 / 9) < 1e-12


def test_brute_force_refuses_large_dimension():
    with pytest.raises(ValueError, match="not supported"):
        brute_force_min(DensityState.maximally_mixed(7), standard_mub(7), field(7))


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_wigner_scan_is_every_net_table_bit_for_bit(d):
    ctx = standard_context(d)
    rng = np.random.default_rng(300 + d)
    if d < 5:
        nets = list(itertools.product(range(d), repeat=d + 1))
    else:  # 15,625 nets: a seeded sample
        nets = [tuple(int(r) for r in rng.integers(0, d, d + 1)) for _ in range(200)]
    for rho in (DensityState.random_pure(d, rng), DensityState.random_mixed(d, rng)):
        values = wigner_scan(rho, ctx.mub)
        assert values.shape == (d,) * (d + 1) + (d * d,)
        for r in nets:
            assert np.array_equal(values[r], wigner_function(rho, ctx.complete(r)).values.ravel())


def test_decomposition_uniform_d2():
    result = convex_decomposition(DensityState.maximally_mixed(2), standard_mub(2))
    assert abs(result.x_total - 0.5) < 1e-12
    assert np.allclose(result.coefficients, 1.0 / 6, atol=1e-12)
    assert abs(result.coefficients.sum() - 1.0) < 1e-10


def test_decomposition_zero_ket_d2():
    result = convex_decomposition(DensityState.from_vector([1, 0]), standard_mub(2))
    assert abs(result.x_total) < 1e-12
    assert np.allclose(result.coefficients[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(result.coefficients[1], [0.0, 0.0], atol=1e-12)
    assert np.allclose(result.coefficients[2], [0.0, 0.0], atol=1e-12)
    recon = result.reconstruct(standard_mub(2))
    assert np.linalg.norm(recon - np.diag([1.0, 0.0])) < 1e-10


@pytest.mark.parametrize("d", (2, 3, 4))
def test_decomposition_reconstructs_any_state(d):
    mub = standard_mub(d)
    rng = np.random.default_rng(17)
    for _ in range(6):
        rho = DensityState.random_pure(d, rng)
        result = convex_decomposition(rho, mub)
        assert abs(result.coefficients.sum() - 1.0) < 1e-10
        assert np.linalg.norm(result.reconstruct(mub) - rho.rho) < 1e-10


def test_nonclassical_state_has_negative_coefficient_but_exact_reconstruction():
    mub = standard_mub(2)
    rho = DensityState.from_vector([1.0, np.exp(1j * np.pi / 4)])
    result = convex_decomposition(rho, mub)
    assert result.min_coefficient() < -1e-6
    assert not result.certified_classical
    assert np.linalg.norm(result.reconstruct(mub) - rho.rho) < 1e-10


@pytest.mark.parametrize("d", (2, 3, 4))
def test_projector_mixtures_decompose_convexly(d):
    mub = standard_mub(d)
    rng = np.random.default_rng(23 + d)
    for _ in range(20):
        rho = random_projector_mixture(mub, rng)
        result = convex_decomposition(rho, mub)
        assert result.certified_classical
        assert result.min_coefficient() >= -1e-10
        assert np.linalg.norm(result.reconstruct(mub) - rho.rho) < 1e-10


@given(seed=st.integers(0, 2**31 - 1))
def test_projector_mixtures_never_go_negative(seed):
    d = 3
    mub = standard_mub(d)
    rho = random_projector_mixture(mub, np.random.default_rng(seed))
    assert min_wigner(rho, mub).min_wigner >= -1e-12


def test_classify_projector_is_classical_with_no_witnesses():
    mub = standard_mub(2)
    rho = DensityState(mub.projector(1, 0), kind="pure")
    out = classify(rho, mub, field(2))
    assert out.report.classical
    assert out.witnesses == ()
    assert out.decomposition.certified_classical


def test_classify_random_pure_d4_is_nonclassical_with_witnesses():
    mub = standard_mub(4)
    rng = np.random.default_rng(5)
    rho = DensityState.random_pure(4, rng)
    out = classify(rho, mub, field(4))
    assert not out.report.classical
    assert len(out.witnesses) == 5
    values = [w.value for w in out.witnesses]
    assert values == sorted(values)
    assert abs(values[0] - out.report.min_wigner) < 1e-12
    # each witness is a real (net, point) pair achieving its value
    w = out.witnesses[0]
    net = covariant_completion(w.ray_choices, mub, build_striations(field(4)))
    assert abs(wigner_function(rho, net).value(w.point) - w.value) < 1e-12


def test_classify_random_pure_d5_lists_the_scanned_witnesses():
    d = 5
    ctx = standard_context(d)
    rho = DensityState.random_pure(d, np.random.default_rng(8))
    out = classify(rho, ctx.mub, field(d))
    assert not out.report.classical
    assert 1 <= len(out.witnesses) <= 5
    values = [w.value for w in out.witnesses]
    assert values == sorted(values)
    assert abs(values[0] - out.report.min_wigner) < ALGEBRAIC
    for w in out.witnesses:
        assert wigner_function(rho, ctx.complete(w.ray_choices)).value(w.point) == w.value


def test_classify_damped_projector_mixture_is_classical():
    mub = standard_mub(3)
    proj = DensityState(mub.projector(2, 1), kind="pure")
    rho = DensityState(0.9 * proj.rho + 0.1 * np.eye(3) / 3)
    out = classify(rho, mub, field(3))
    assert out.report.classical


def test_entry_points_share_one_memoized_table(monkeypatch):
    import dwf.classicality as classicality

    calls = []
    original = classicality.probabilities
    monkeypatch.setattr(
        classicality, "probabilities", lambda rho, mub: calls.append(1) or original(rho, mub)
    )
    d = 3
    mub = standard_mub(d)
    rho = DensityState.random_pure(d, np.random.default_rng(4))
    min_wigner(rho, mub)
    brute_force_min(rho, mub, field(d))
    convex_decomposition(rho, mub)
    table = classify(rho, mub, field(d)).probabilities
    wigner_function(rho, covariant_completion((0,) * (d + 1), mub, build_striations(field(d))))
    assert len(calls) == 1
    assert rho._tables[mub] is table
    with pytest.raises(ValueError):
        table.values[0, 0] = 0.0


def test_classify_witnesses_equal_a_full_stable_sort_of_the_scan():
    """128 seeded (state, top_k) cases at d=2..5: the partial sort keeps
    exactly the witnesses, ties in scan order included, that a stable sort
    of every negative scan value puts first."""
    rng = np.random.default_rng(13)
    for case in range(128):
        d = 2 + case % 4
        mub = standard_mub(d)
        rho = (DensityState.random_pure if case % 3 else DensityState.random_mixed)(d, rng)
        top_k = int(rng.integers(1, 12))
        values = wigner_scan(rho, mub)
        flat = values.ravel()
        hits = np.flatnonzero(flat < -MEMBERSHIP)
        expected = [
            (tuple(int(r) for r in np.unravel_index(i, values.shape)), float(flat[i]))
            for i in hits[np.argsort(flat[hits], kind="stable")][:top_k]
        ]
        got = [
            (w.ray_choices + (w.point.index,), w.value)
            for w in classify(rho, mub, field(d), top_k=top_k).witnesses
        ]
        assert got == expected, (case, d, top_k)
