import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dwf import classicality, wigner
from dwf.classicality import WITNESS_COUNT, brute_force_min, classify
from dwf.galois import SUPPORTED_DIMENSIONS, field
from dwf.geometry import build_striations, line_points, origin
from dwf.mub import MubSet, standard_mub
from dwf.tolerances import STATE_ENTRY_MAX
from dwf.quantum_net import QuantumNet, covariant_completion, enumerate_nets, standard_context
from dwf.wigner import (
    DensityState,
    line_probability,
    net_minima,
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
    a = net.point_operator_table()[origin(gf).index]
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
    assert np.linalg.eigvalsh(state.rho)[0] < 0
    table = wigner_function(state, base_net(2))
    assert abs(table.values.sum() - 1.0) < 1e-12


def test_state_validation_errors():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityState(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityState(np.eye(2))
    with pytest.raises(ValueError, match="dimension"):
        wigner_function(DensityState.maximally_mixed(3), base_net(2))


def test_a_scalar_state_is_refused_as_not_square():
    # a 0-d array once raised IndexError reading its first axis
    for rho in (np.array(1.0), 1.0, np.ones(2)):
        with pytest.raises(ValueError, match="state matrix must be square"):
            DensityState(rho)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-320])
def test_from_vector_extreme_amplitudes_give_plus(scale):
    state = DensityState.from_vector([scale, scale])
    assert np.allclose(state.rho, np.full((2, 2), 0.5), atol=1e-15)


def test_from_vector_refuses_only_the_exact_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        DensityState.from_vector([0.0, 0.0])


def test_from_vector_refuses_anything_but_a_vector():
    # np.outer flattens its input: np.eye(2) would give a 4 x 4 state, 1.0 a 1 x 1
    for bad in (np.eye(2), [[1, 0], [0, 0]], [[1, 0]], 1.0):
        with pytest.raises(ValueError, match="amplitudes must be a 1-D vector"):
            DensityState.from_vector(bad)
    assert DensityState.from_vector(np.array([1, 0])).rho.shape == (2, 2)


def hermitian_with_largest_entry(d, largest, rng):
    """Seeded Hermitian, trace-one: I/d plus a traceless G + G~ scaled so
    that its largest entry modulus is `largest`."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g + g.conj().T
    h -= np.trace(h).real / d * np.eye(d)
    return h * (largest / np.abs(h).max()) + np.eye(d) / d


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_entries_up_to_the_bound_never_trip_the_sum_checks(d):
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 12])
    nets = [ctx.complete(tuple(rng.integers(0, d, d + 1))) for _ in range(3)]
    for _ in range(40):
        state = DensityState(hermitian_with_largest_entry(d, STATE_ENTRY_MAX - 1, rng))
        for net in nets:
            wigner_function(state, net)  # raises if a sum check trips


def test_entries_above_the_bound_are_refused():
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError, match="modulus"):
        DensityState(hermitian_with_largest_entry(4, 2 * STATE_ENTRY_MAX, rng))
    z = 1.5e308 + 1.5e308j  # finite parts, but |z| overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        with pytest.raises(ValueError, match="modulus inf"):
            DensityState(np.array([[0.5, z], [np.conj(z), 0.5]]))


def pencil_gather(table, net):
    """Reference gather: the probability table indexed by (kappa, pencil)."""
    d = net.dim
    total = table.values[np.arange(d + 1)[:, None], net.pencil].sum(axis=0)
    return ((total - 1.0) / d).reshape(d, d)


@pytest.fixture
def probability_calls(monkeypatch):
    calls = []

    def counting(rho, mub):
        calls.append((rho, mub))
        return probabilities(rho, mub)

    monkeypatch.setattr(wigner, "probabilities", counting)
    return calls


def test_probabilities_computed_once_per_state_over_all_nets(probability_calls):
    nets = list(enumerate_nets(field(4)))
    assert len(nets) == 1024
    rng = np.random.default_rng(5)
    states = [DensityState.random_pure(4, rng), DensityState.random_mixed(4, rng)]
    for rho in states:
        for net in nets:
            wigner_function(rho, net)
    assert [rho for rho, _ in probability_calls] == states


def test_memoized_tables_equal_the_direct_gather_on_every_net():
    rng = np.random.default_rng(6)
    for rho in (DensityState.random_mixed(4, rng), DensityState.random_pure(4, rng)):
        probs = probabilities(rho, standard_mub(4))
        for net in enumerate_nets(field(4)):
            table = wigner_function(rho, net)
            assert table.values.tobytes() == pencil_gather(probs, net).tobytes()
            assert type(table.minimum) is np.float64 and table.minimum == table.values.min()
            assert table.min() == float(table.values.min())


def test_another_mub_object_gets_its_own_table(probability_calls):
    ctx = standard_context(2)
    # a corrupted copy: basis 1 with its two vectors swapped
    bases = list(ctx.mub.bases)
    bases[1] = dataclasses.replace(bases[1], vectors=bases[1].vectors[:, ::-1])
    corrupted = MubSet(ctx.mub.field, tuple(bases))
    net = ctx.complete((0, 0, 0))
    # built by hand so the shared net-context cache never sees the copy
    bad_net = QuantumNet(dataclasses.replace(ctx, mub=corrupted), net.ray_choices)
    rho = DensityState.from_vector([1.0, 1j])
    good = wigner_function(rho, net).values
    bad = wigner_function(rho, bad_net).values
    assert [mub for _, mub in probability_calls] == [ctx.mub, corrupted]
    assert np.array_equal(bad, pencil_gather(probabilities(rho, corrupted), net))
    assert not np.array_equal(good, bad)
    assert np.array_equal(wigner_function(rho, net).values, good)
    assert len(probability_calls) == 2


def test_density_state_is_immutable():
    given_matrix = np.eye(2, dtype=complex) / 2
    state = DensityState(given_matrix)
    with pytest.raises(ValueError):
        state.rho[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.rho = np.eye(2) / 2
    assert given_matrix.flags.writeable
    given_matrix[0, 0] = 0.9  # the caller's array stays theirs: no alias
    assert state.rho[0, 0] == 0.5


def test_one_scan_and_one_table_per_state_across_every_reader(probability_calls, monkeypatch):
    scans, bounded = [], []  # unbounded calls are scans; classify's calls carry a bound
    original = wigner._pencil_scan

    def counting(probs, pencil, keep=None):
        (scans if keep is None else bounded).append(keep)
        return original(probs, pencil, keep)

    for module in (wigner, classicality):  # classicality imports the producer by name
        monkeypatch.setattr(module, "_pencil_scan", counting)
    d = 4
    ctx = standard_context(d)
    rho = DensityState.random_pure(d, np.random.default_rng(8))
    for net in enumerate_nets(field(d)):
        wigner_function(rho, net)
    rng = np.random.default_rng(9)
    for _ in range(8):
        wigner_function(rho, ctx.complete(tuple(rng.integers(0, d, d + 1))))
    brute_force_min(rho, ctx.mub, field(d))
    assert classify(rho, ctx.mub, field(d)).witnesses
    assert len(scans) == 1 and bounded == [WITNESS_COUNT]
    assert [state for state, _ in probability_calls] == [rho]
    assert list(rho._scans) == [ctx]
    # classify runs a bounded producer and memoizes nothing: a fresh state holds no scan
    fresh = DensityState.random_pure(d, rng)
    assert classify(fresh, ctx.mub, field(d)).witnesses
    assert len(scans) == 1 and bounded == [WITNESS_COUNT] * 2 and fresh._scans == {}


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_a_bound_above_the_net_count_is_the_unbounded_scan(d):
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 29])
    for rho in (DensityState.random_pure(d, rng), DensityState.random_mixed(d, rng)):
        probs = probabilities(rho, ctx.mub).values
        values, minima, nets = wigner._pencil_scan(probs, ctx.pencil)
        assert np.array_equal(nets, np.arange(d ** (d + 1)))
        for keep in (d ** (d + 1), d ** (d + 1) + 1):
            bounded = wigner._pencil_scan(probs, ctx.pencil, keep)
            assert [a.tobytes() for a in bounded] == [values.tobytes(), minima.tobytes(), nets.tobytes()]


@pytest.mark.parametrize("d", (2, 3, 5, 7, 8, 9))
def test_every_table_equals_the_direct_gather_bit_for_bit(d):
    # d=4 is every net of test_memoized_tables_equal_the_direct_gather_on_every_net
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 14])
    if d < 4:
        nets = list(enumerate_nets(field(d)))
    else:  # 15,625 nets at d=5, none enumerable above: a seeded sample
        nets = [ctx.complete(tuple(rng.integers(0, d, d + 1))) for _ in range(200 if d == 5 else 12)]
    for rho in (DensityState.random_pure(d, rng), DensityState.random_mixed(d, rng)):
        probs = probabilities(rho, ctx.mub)
        for net in nets:
            table = wigner_function(rho, net)
            assert np.array_equal(table.values, pencil_gather(probs, net))
            assert table.min() == float(table.values.min())


def test_tables_of_a_scanned_state_check_nothing_again(monkeypatch):
    # the producer checks every table's sum, so a scan counts as one check
    dim_reads, sum_checks = [], []
    dim, scan = DensityState.dim, wigner._pencil_scan
    monkeypatch.setattr(DensityState, "dim", property(lambda rho: dim_reads.append(1) or dim.fget(rho)))
    monkeypatch.setattr(wigner, "_pencil_scan", lambda probs, pencil: sum_checks.append(1) or scan(probs, pencil))
    nets = list(enumerate_nets(field(4)))
    rho = DensityState.random_pure(4, np.random.default_rng(21))
    wigner_function(rho, nets[0])
    first = (len(dim_reads), len(sum_checks))
    assert first[0] > 0 and first[1] == 1
    for net in nets:
        wigner_function(rho, net)
    assert (len(dim_reads), len(sum_checks)) == first


@pytest.mark.parametrize("d", (2, 3, 4))
def test_scan_rows_are_in_scan_index_order(d, scan):
    ctx = standard_context(d)
    rho = DensityState.random_mixed(d, np.random.default_rng([d, 22]))
    values, minima = scan(rho, ctx.mub), net_minima(rho, ctx.mub)
    rows, row_minima = rho._scans[ctx]
    assert rows.shape == (d ** (d + 1), d, d) and row_minima.shape == (d ** (d + 1),)
    assert values.shape == (d,) * (d + 1) + (d * d,) and minima.shape == (d,) * (d + 1)
    for view, memo in ((values, rows), (minima, row_minima)):  # views, no copies
        assert np.shares_memory(view, memo)
        assert not view.flags.writeable and not memo.flags.writeable
    for net in enumerate_nets(field(d)):
        assert net.scan_index == np.ravel_multi_index(net.ray_choices, (d,) * (d + 1))
        table = wigner_function(rho, net)
        assert np.shares_memory(table.values, rows[net.scan_index])
        assert np.array_equal(table.values.ravel(), values[net.ray_choices])
        assert table.minimum == minima[net.ray_choices]


def test_a_net_of_another_dimension_is_refused_after_a_scan():
    rho = DensityState.random_pure(4, np.random.default_rng(24))
    wigner_function(rho, base_net(4))
    assert list(rho._scans) == [standard_context(4)]
    for d in (2, 3, 5, 8):
        with pytest.raises(ValueError, match=f"state dimension 4 != net dimension {d}"):
            wigner_function(rho, base_net(d))


def test_net_minima_are_read_only_and_refused_above_enumeration(scan):
    d = 3
    mub = standard_mub(d)
    rho = DensityState.random_pure(d, np.random.default_rng(16))
    minima = net_minima(rho, mub)
    assert minima.shape == (d,) * (d + 1)
    assert np.array_equal(minima, scan(rho, mub).min(axis=-1))
    with pytest.raises(ValueError, match="read-only"):
        minima[(0,) * (d + 1)] = 0.0
    with pytest.raises(ValueError, match="not supported"):
        net_minima(DensityState.maximally_mixed(7), standard_mub(7))


def test_a_scan_with_one_unnormalized_net_is_refused_at_every_net(monkeypatch):
    d = 4
    original = wigner._pencil_scan

    def skewed(probs, pencil):
        # one more choice per ray: a copy of choice 0, except in striation 0,
        # where it assigns projector 0 to every point.  Of the 5^5 nets
        # scanned, those with r_0 = 4 sum to d probs[0, 0]; the rest to one.
        extra = pencil[:, :, :1].copy()
        extra[0] = 0
        return original(probs, np.concatenate([pencil, extra], axis=2))

    monkeypatch.setattr(wigner, "_pencil_scan", skewed)
    rho = DensityState.random_pure(d, np.random.default_rng(17))
    unnormalized = d * probabilities(rho, standard_mub(d)).values[0, 0]
    with pytest.raises(ValueError, match="sums to") as refused:
        wigner_function(rho, standard_context(d).complete((0,) * (d + 1)))
    assert float(str(refused.value).split()[-1]) == pytest.approx(unnormalized, abs=1e-11)
    assert abs(unnormalized - 1.0) > 0.1
    assert not rho._scans  # nothing is memoized from a refused scan


def test_the_gather_refuses_a_table_that_does_not_sum_to_one(monkeypatch):
    def skewed(rho, mub):
        table = probabilities(rho, mub)
        values = table.values.copy()
        values[0, 0] += 1e-6  # after the row check: every net's table sums to 1 + 1e-6
        table.values = values
        return table

    monkeypatch.setattr(wigner, "probabilities", skewed)
    rho = DensityState.random_mixed(8, np.random.default_rng(18))
    with pytest.raises(ValueError, match="sums to 1.000001"):
        wigner_function(rho, base_net(8))


@pytest.mark.parametrize("d", (4, 8))
def test_wigner_tables_are_read_only(d):
    rho = DensityState.maximally_mixed(d)
    table = wigner_function(rho, base_net(d))
    with pytest.raises(ValueError, match="read-only"):
        table.values[0, 0] = 0.0
    assert np.allclose(table.values, 1.0 / d**2, atol=1e-12)
