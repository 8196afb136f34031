import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dwf.galois import field
from dwf.geometry import build_striations, line_points, origin
from dwf.mub import standard_mub
from dwf.quantum_net import covariant_completion, enumerate_nets, standard_context
from dwf.wigner import (
    DensityState,
    line_probability,
    probabilities,
    reconstruct_state,
    wigner_from_point_operators,
    wigner_function,
)


def base_net(d):
    return covariant_completion((0,) * (d + 1), standard_mub(d), build_striations(field(d)))


def test_probabilities_maximally_mixed():
    for d in (2, 3, 4):
        table = probabilities(DensityState.maximally_mixed(d), standard_mub(d))
        assert np.allclose(table.values, 1.0 / d)


def test_probabilities_zero_ket_d2():
    table = probabilities(DensityState.from_vector([1, 0]), standard_mub(2))
    assert np.allclose(table.values[0], [1.0, 0.0])
    assert np.allclose(table.values[1], [0.5, 0.5])
    assert np.allclose(table.values[2], [0.5, 0.5])


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_probabilities_of_mub_projector(d):
    mub = standard_mub(d)
    for kappa in range(d + 1):
        for j in range(d):
            rho = DensityState(mub.projector(kappa, j), kind="pure")
            table = probabilities(rho, mub).values
            expected_own = np.zeros(d)
            expected_own[j] = 1.0
            assert np.allclose(table[kappa], expected_own, atol=1e-10)
            for other in range(d + 1):
                if other != kappa:
                    assert np.allclose(table[other], 1.0 / d, atol=1e-10)


def test_probability_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension"):
        probabilities(DensityState.maximally_mixed(3), standard_mub(2))


def test_point_operator_d2_origin_assembled_entrywise():
    net = base_net(2)
    gf = field(2)
    zero = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    y_plus = np.array([1.0, 1j]) / np.sqrt(2)
    expected = (
        np.outer(zero, zero.conj())
        + np.outer(plus, plus.conj())
        + np.outer(y_plus, y_plus.conj())
        - np.eye(2)
    ) / 2
    a = net.point_operator(origin(gf))
    assert np.linalg.norm(a - expected) < 1e-12


def test_wigner_maximally_mixed_flat():
    for d in (2, 3, 4):
        table = wigner_function(DensityState.maximally_mixed(d), base_net(d))
        assert np.allclose(table.values, 1.0 / d**2, atol=1e-12)


def test_wigner_zero_ket_d2_base_net():
    table = wigner_function(DensityState.from_vector([1, 0]), base_net(2))
    assert np.allclose(
        table.values, np.array([[0.5, 0.5], [0.0, 0.0]]), atol=1e-12
    )


def test_octahedron_edge_state_goes_negative():
    # (|0> + e^{i pi/4}|1>)/sqrt(2): minimum over all 8 nets and 4 points
    rho = DensityState.from_vector([1.0, np.exp(1j * np.pi / 4)])
    best = min(
        wigner_function(rho, net).min() for net in enumerate_nets(field(2))
    )
    assert best < 0
    assert abs(best - (1.0 - np.sqrt(2)) / 4) < 1e-12


@pytest.mark.parametrize("d", (2, 3, 4))
def test_two_routes_agree(d):
    rng = np.random.default_rng(42)
    nets = list(enumerate_nets(field(d))) if d < 4 else None
    ctx = standard_context(d)
    for trial in range(6):
        rho = (
            DensityState.random_pure(d, rng)
            if trial % 2
            else DensityState.random_mixed(d, rng)
        )
        choices = tuple(rng.integers(0, d, d + 1))
        net = ctx.complete(choices)
        via_prob = wigner_function(rho, net).values
        via_trace = wigner_from_point_operators(rho, net)
        assert np.max(np.abs(via_prob - via_trace)) < 1e-12


@pytest.mark.parametrize("d", (2, 3, 5))
def test_gather_equals_per_point_loop_exactly(d):
    # reference: walk each point's pencil through the line geometry and add
    # the assigned probabilities in striation order, as a per-point loop
    rng = np.random.default_rng(11)
    ctx = standard_context(d)
    rho = DensityState.random_mixed(d, rng)
    table = probabilities(rho, ctx.mub).values
    for _ in range(4):
        net = ctx.complete(tuple(rng.integers(0, d, d + 1)))
        expected = np.zeros((d, d))
        for pt in ctx.points:
            total = sum(table[net.projector_index(s.lines[s.position[pt.index]])] for s in ctx.striations)
            expected[pt.q.index, pt.p.index] = (total - 1.0) / d
        assert np.array_equal(wigner_function(rho, net).values, expected)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_line_sums_reproduce_line_probabilities(d):
    rng = np.random.default_rng(7)
    ctx = standard_context(d)
    for _ in range(5):
        rho = DensityState.random_mixed(d, rng)
        net = ctx.complete(tuple(rng.integers(0, d, d + 1)))
        table = wigner_function(rho, net)
        for s in ctx.striations:
            for line in s.lines:
                line_sum = sum(table.value(pt) for pt in line_points(line))
                assert abs(line_sum - line_probability(rho, net, line)) < 1e-10


def test_reconstruction_round_trip_examples():
    # maximally mixed comes back exactly
    net = base_net(2)
    table = wigner_function(DensityState.maximally_mixed(2), net)
    assert np.linalg.norm(reconstruct_state(table).rho - np.eye(2) / 2) < 1e-12
    # |0><0| comes back entrywise
    table = wigner_function(DensityState.from_vector([1, 0]), net)
    assert np.linalg.norm(reconstruct_state(table).rho - np.diag([1.0, 0.0])) < 1e-10


def test_reconstruction_round_trip_random_d4():
    rng = np.random.default_rng(13)
    ctx = standard_context(4)
    for _ in range(20):
        rho = DensityState.random_mixed(4, rng)
        net = ctx.complete(tuple(rng.integers(0, 4, 5)))
        table = wigner_function(rho, net)
        assert np.linalg.norm(reconstruct_state(table).rho - rho.rho) < 1e-10
        again = wigner_function(reconstruct_state(table), net)
        assert np.max(np.abs(again.values - table.values)) < 1e-10


@given(weight=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
def test_wigner_linearity(weight, seed):
    d = 3
    rng = np.random.default_rng(seed)
    net = base_net(d)
    rho1 = DensityState.random_pure(d, rng)
    rho2 = DensityState.random_mixed(d, rng)
    mix = DensityState(weight * rho1.rho + (1 - weight) * rho2.rho)
    w_mix = wigner_function(mix, net).values
    w_parts = (
        weight * wigner_function(rho1, net).values
        + (1 - weight) * wigner_function(rho2, net).values
    )
    assert np.max(np.abs(w_mix - w_parts)) < 1e-12


@given(seed=st.integers(0, 2**31 - 1))
def test_wigner_table_normalized_and_real(seed):
    d = 4
    rng = np.random.default_rng(seed)
    rho = DensityState.random_mixed(d, rng)
    net = base_net(d)
    table = wigner_function(rho, net)
    assert abs(table.values.sum() - 1.0) < 1e-10
    assert table.values.dtype.kind == "f"


def test_non_positive_hermitian_input_accepted():
    # Hermitian, trace one, one negative eigenvalue
    m = np.diag([1.2, -0.2])
    state = DensityState(m)
    assert state.min_eigenvalue() < 0
    table = wigner_function(state, base_net(2))
    assert abs(table.values.sum() - 1.0) < 1e-12


def test_state_validation_errors():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityState(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityState(np.eye(2))
    with pytest.raises(ValueError, match="dimension"):
        wigner_function(DensityState.maximally_mixed(3), base_net(2))


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-320])
def test_from_vector_extreme_amplitudes_give_plus(scale):
    state = DensityState.from_vector([scale, scale])
    assert np.allclose(state.rho, np.full((2, 2), 0.5), atol=1e-15)


def test_from_vector_refuses_only_the_exact_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        DensityState.from_vector([0.0, 0.0])
