import itertools
import warnings
import weakref

import numpy as np
import pytest

from dwf.clifford import fourier_operator, random_unitary, squeezing_operator
from dwf.galois import SUPPORTED_DIMENSIONS, FieldSpec, field
from dwf.geometry import PhasePoint, build_striations, line_points
from dwf.mub import standard_mub
from dwf.formats import net_from_payload
from dwf import clifford, quantum_net
from dwf.quantum_net import (
    ENUMERATION_MAX_DIM,
    QuantumNet,
    covariant_completion,
    enumerate_nets,
    flow_census,
    is_flow,
    net_context,
    net_count,
    standard_context,
)
from dwf.tolerances import LOOKUP, SPECTRAL, flow_gate
from dwf.wigner import DensityState, line_probability, wigner_function


def make_net(d, choices):
    return covariant_completion(choices, standard_mub(d), build_striations(field(d)))


def test_d2_base_net_assignments_match_hand_table():
    gf = field(2)
    net = make_net(2, (0, 0, 0))
    striations = build_striations(gf)
    mub = standard_mub(2)

    assert net.projector_index(striations[0].lines[0]) == (0, 0)
    assert np.allclose(mub.projector(0, 0), np.diag([1.0, 0.0]))

    # vertical line q=c carries |c><c|
    for t, line in enumerate(striations[0].lines):
        kappa, j = net.projector_index(line)
        assert kappa == 0
        expected = np.zeros((2, 2))
        expected[t, t] = 1.0
        assert np.linalg.norm(mub.projector(0, j) - expected) < 1e-12

    # horizontal line p=c carries (|0> + (-1)^c |1>)/sqrt(2)
    for t, line in enumerate(striations[1].lines):
        kappa, j = net.projector_index(line)
        assert kappa == 1
        v = np.array([1.0, (-1.0) ** t]) / np.sqrt(2)
        assert np.linalg.norm(mub.projector(1, j) - np.outer(v, v.conj())) < 1e-12

    # diagonal ray carries the +1 eigenvector of Y, its translate the other
    y_plus = np.array([1.0, 1j]) / np.sqrt(2)
    kappa, j = net.projector_index(striations[2].lines[0])
    assert kappa == 2
    assert np.linalg.norm(mub.projector(2, j) - np.outer(y_plus, y_plus.conj())) < 1e-12


def test_assignment_total_and_striation_bijective():
    for d in (2, 3, 4):
        net = make_net(d, (0,) * (d + 1))
        striations = net.context.striations
        assert sum(len(s.lines) for s in striations) == d * (d + 1)
        # every line gets a projector of its own striation, each one once
        for kappa, s in enumerate(striations):
            assigned = [net.projector_index(line) for line in s.lines]
            assert assigned == [(kappa, j) for j in net.indices[kappa]]
            assert sorted(net.indices[kappa]) == list(range(d))


def test_d2_all_eight_nets_distinct():
    nets = list(enumerate_nets(field(2)))
    assert len(nets) == 8
    assert len({net.indices for net in nets}) == 8


@pytest.mark.parametrize("d,expected", [(2, 8), (3, 81)])
def test_full_enumeration_counts(d, expected):
    assert net_count(d) == expected
    assert sum(1 for _ in enumerate_nets(field(d))) == expected


def test_fixed_axes_enumeration_count_d4():
    assert net_count(4, fix_axes=True) == 64
    nets = list(enumerate_nets(field(4), fix_axes=True))
    assert len(nets) == 64
    assert len({net.indices for net in nets}) == 64


@pytest.mark.parametrize("d", (2, 3, 4, 5))
def test_a_hand_built_net_with_bad_ray_choices_is_refused(d):
    # once read a wrong row of a state's scan: a whole scan for too few
    # choices, a wrapped row for -1, an IndexError past d - 1
    ctx = standard_context(d)
    good = ctx.complete((0,) * (d + 1))
    rho = DensityState.random_pure(d, np.random.default_rng([d, 23]))
    wigner_function(rho, good)  # the state now holds its scan
    for choices in ((0,) * d, (0,) * (d + 2), (-1,) + (0,) * d, (0,) * d + (d,), (0,) * d + (7,)):
        with pytest.raises(ValueError):
            QuantumNet(ctx, choices)
    assert QuantumNet(ctx, good.ray_choices).scan_index == 0


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_non_integer_ray_choices_are_refused(d):
    # int() once truncated 1.7 to 1 in a completion, and 0.5 passed the
    # range check of a hand-built net, then failed the gather with IndexError
    ctx = standard_context(d)
    rest = (0,) * d
    for choices in ((1.7,) + rest, (0.5,) + rest, ("1",) + rest, 1):
        with pytest.raises(ValueError, match=f"ray_choices must be {d + 1} indices"):
            ctx.complete(choices)
        with pytest.raises(ValueError, match=f"ray_choices must be {d + 1} indices"):
            QuantumNet(ctx, choices)
    net = ctx.complete(np.arange(d + 1) % d)
    assert net.ray_choices == tuple(range(d)) + (0,)
    assert all(type(r) is int for r in net.ray_choices)


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_a_hand_built_net_derives_indices_that_keep_the_line_sums(d):
    # a net once took its indices as an argument; indices that contradicted
    # its ray choices broke the line sums with no error
    ctx = standard_context(d)
    with pytest.raises(TypeError):
        QuantumNet(ctx, (0,) * (d + 1), ctx.complete((1,) * (d + 1)).indices)
    rng = np.random.default_rng([d, 29])
    rho = DensityState.random_mixed(d, rng)
    if d <= 3:
        drawn = itertools.product(range(d), repeat=d + 1)
    else:
        drawn = [tuple(rng.integers(0, d, d + 1).tolist()) for _ in range(3)]
    for choices in drawn:
        net = QuantumNet(ctx, choices)
        assert net.indices == tuple(map(tuple, ctx.sigma[np.arange(d + 1), :, choices].tolist()))
        values = wigner_function(rho, net).values
        for line in (line for s in ctx.striations for line in s.lines):
            total = sum(values[pt.q.index, pt.p.index] for pt in line_points(line))
            assert abs(total - line_probability(rho, net, line)) <= SPECTRAL


def test_enumeration_refuses_large_dimension():
    with pytest.raises(ValueError, match="refusing"):
        next(enumerate_nets(field(8)))
    rng = np.random.default_rng(1)
    ctx = standard_context(8)
    drawn = [ctx.complete(tuple(rng.integers(0, 8, 9))) for _ in range(3)]
    assert len({net.indices for net in drawn}) == 3


def test_fixed_axes_vertical_lines_carry_coordinate_projectors():
    for d in (2, 3, 4):
        ctx = standard_context(d)
        net = next(enumerate_nets(field(d), fix_axes=True))
        for t, line in enumerate(ctx.striations[0].lines):
            _, j = net.projector_index(line)
            proj = ctx.mub.projector(0, j)
            # line {q = c_t} carries the computational projector |c_t><c_t|
            expected = np.zeros((d, d))
            expected[t, t] = 1.0
            assert np.linalg.norm(proj - expected) < 1e-10


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_fixed_axes_are_vector_zero_of_the_z_and_x_bases(d):
    # the fixed-axes rays take ray choice 0 in both bases, by construction
    z_basis, x_basis = standard_mub(d).bases[:2]
    assert z_basis.labels[0] == x_basis.labels[0] == (0,) * field(d).n
    assert np.array_equal(z_basis.vector(0), np.eye(d)[0])
    assert np.allclose(x_basis.vector(0), np.full(d, d**-0.5), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fixed_axes_enumeration_is_the_nets_starting_0_0(d):
    fixed = [net.ray_choices for net in enumerate_nets(field(d), fix_axes=True)]
    assert fixed == [c for c in itertools.product(range(d), repeat=d + 1) if c[:2] == (0, 0)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_flow_census_is_the_per_net_loop(d):
    gf = field(d)
    fix_axes = d > 3
    family = list(enumerate_nets(gf, fix_axes))
    known = {"translation 0": len(family), "translation 1": len(family), "squeezing": d,
             "fourier": 0, "haar 0": 0, "haar 1": 0}
    for name, u in flow_test_inputs(gf, np.random.default_rng([d, 16])):
        census = flow_census(u, gf)
        assert census.size == len(family) == net_count(d, fix_axes), name
        assert census.family == ("fixed-axes" if fix_axes else "all"), name
        expected = [net.ray_choices for net in family if dense_verdict(u, net)]
        assert [net.ray_choices for net in census.flows] == expected, name
        assert len(expected) == known.get(name, len(expected)), name


def test_flow_census_refuses_what_cannot_be_enumerated():
    with pytest.raises(ValueError, match="refusing to enumerate 2097152 nets at d=8"):
        flow_census(np.eye(8), field(8))


def test_pencil_has_one_projector_per_basis():
    for d in (2, 3, 4, 5):
        net = make_net(d, tuple(min(k, d - 1) for k in range(d + 1)))
        for pt in net.context.points:
            pencil = net.pencil[:, pt.index]
            assert len(pencil) == d + 1
            for kappa, s in enumerate(net.context.striations):
                line = next(ln for ln in s.lines if pt in line_points(ln))
                assert net.projector_index(line) == (kappa, pencil[kappa])


def test_covariance_under_translation_restatement():
    # conjugating an assigned projector with a translation lands on the
    # projector assigned to the translated line
    for d in (2, 3):
        ctx = standard_context(d)
        net = ctx.complete(tuple((k + 1) % d for k in range(d + 1)))
        for s in ctx.striations:
            for line in s.lines:
                kappa, j = net.projector_index(line)
                p_line = ctx.mub.projector(kappa, j)
                for shift_pt in ctx.points:
                    u = ctx.labeling.unitary_at(shift_pt)
                    moved = frozenset(
                        PhasePoint(pt.q + shift_pt.q, pt.p + shift_pt.p)
                        for pt in line_points(line)
                    )
                    target = next(m for m in s.lines if line_points(m) == moved)
                    _, j2 = net.projector_index(target)
                    conj = u @ p_line @ u.conj().T
                    assert np.linalg.norm(conj - ctx.mub.projector(kappa, j2)) < 1e-8


@pytest.mark.parametrize("d", (2, 3, 4))
def test_point_operator_traces(d):
    net = make_net(d, (0,) * (d + 1))
    for pt in net.context.points:
        a = net.point_operator_table()[pt.index]
        assert abs(np.trace(a) - 1.0 / d) < 1e-12
        assert np.linalg.norm(a - a.conj().T) < 1e-12


@pytest.mark.parametrize("d", (2, 3, 4))
def test_point_operator_orthogonality_three_nets(d):
    nets = list(enumerate_nets(field(d)))
    picks = [nets[0], nets[len(nets) // 2], nets[-1]]
    for net in picks:
        table = net.point_operator_table()
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                val = np.trace(a @ b)
                target = (1.0 / d) if i == j else 0.0
                assert abs(val - target) < 1e-10


def test_ray_choice_reconstruction_round_trip():
    for d in (2, 3, 4):
        ctx = standard_context(d)
        for choices in [(0,) * (d + 1), tuple((k * 2 + 1) % d for k in range(d + 1))]:
            net = ctx.complete(choices)
            again = ctx.complete(net.ray_choices)
            assert again.indices == net.indices


def test_bad_ray_choices_rejected():
    ctx = standard_context(3)
    with pytest.raises(ValueError):
        ctx.complete((0, 0))
    with pytest.raises(ValueError):
        ctx.complete((0, 1, 3, 0))


@pytest.mark.parametrize("d", (5, 7, 8, 9))
def test_large_dimension_nets_smoke(d):
    # covariant completion stays exact at the top of the supported range
    rng = np.random.default_rng(d)
    net = standard_context(d).complete(tuple(rng.integers(0, d, d + 1)))
    for pt in net.context.points:
        pencil = net.pencil[:, pt.index]
        assert pencil.shape == (d + 1,) and 0 <= pencil.min() <= pencil.max() < d
    for pt in list(net.context.points)[:: max(1, d // 2)]:
        a = net.point_operator_table()[pt.index]
        assert abs(np.trace(a) - 1.0 / d) < 1e-12
        assert np.linalg.norm(a - a.conj().T) < 1e-12


def test_net_contexts_stay_one_per_dimension():
    # the context cache is keyed on MubSet identity; the standard bases are
    # the only ones the package builds, so it never holds more than one per d
    rng = np.random.default_rng(0)
    for d in SUPPORTED_DIMENSIONS:
        make_net(d, (0,) * (d + 1))
        standard_context(d).complete(tuple(rng.integers(0, d, d + 1)))
        net_from_payload({"dim": d, "ray_choices": [1] * (d + 1)})
    assert net_context.cache_info().currsize <= len(SUPPORTED_DIMENSIONS)


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_point_operators_through_rows_equal_the_per_kappa_gather(d):
    ctx = standard_context(d)
    rng = np.random.default_rng(d)
    for choices in [(0,) * (d + 1), tuple(rng.integers(0, d, d + 1))]:
        net = ctx.complete(choices)
        assert np.array_equal(net.rows, net.pencil + d * np.arange(d + 1)[:, None])
        total = ctx.mub.projectors[np.arange(d + 1)[:, None], net.pencil].sum(axis=0)
        assert np.array_equal(net.point_operator_table(), (total - np.eye(d)) / d)


def dense_transport(ctx, kappa, line):
    """Reference for one row of sigma: conjugate every projector of basis
    kappa with the translation to the lowest-index point of the line and
    match the image against the basis."""
    d = ctx.dim
    u = ctx.labeling.unitary_at(min(line_points(line), key=lambda pt: pt.index))
    row = []
    for r in range(d):
        conj = u @ ctx.mub.projector(kappa, r) @ u.conj().T
        hits = [j for j in range(d) if np.linalg.norm(conj - ctx.mub.projector(kappa, j)) < LOOKUP]
        assert len(hits) == 1
        row.append(hits[0])
    return row


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_exact_sigma_matches_dense_transport(d):
    ctx = standard_context(d)
    for kappa, s in enumerate(ctx.striations):
        for t, line in enumerate(s.lines):
            assert ctx.sigma[kappa, t].tolist() == dense_transport(ctx, kappa, line)
        for pt in ctx.points:
            t = s.positions[s.lines[s.position[pt.index]]]
            assert np.array_equal(ctx.pencil[kappa, pt.index], ctx.sigma[kappa, t])


def nearest_image_distance(u, net):
    """Reference loop for the flow criterion: the largest distance from an
    image U A U~ to its nearest point operator."""
    table = net.point_operator_table()
    return max(min(np.linalg.norm(u @ a @ u.conj().T - b) for b in table) for a in table)


@pytest.mark.parametrize("factor, flows", [(10.0, False), (0.1, True)])
def test_is_flow_is_the_distance_criterion_at_lookup(factor, flows):
    gf = field(4)
    us = squeezing_operator(gf).dense
    net = flow_census(us, gf).flows[0]
    g = np.random.default_rng(3).standard_normal((4, 4, 2)) @ np.array([1.0, 1.0j])
    lam, v = np.linalg.eigh(g + g.conj().T)

    def perturbed(eps):
        return us @ (v * np.exp(1j * eps * lam)) @ v.conj().T

    slope = nearest_image_distance(perturbed(1e-6), net) / 1e-6
    u = perturbed(factor * LOOKUP / slope)
    assert nearest_image_distance(u, net) == pytest.approx(factor * LOOKUP, rel=0.1)
    assert is_flow(u, net) is flows


def flow_test_inputs(gf, rng):
    """Named matrices for the flow test: seeded translations, squeezing
    (n >= 2), Fourier (p = 2), Haar unitaries, squeezing perturbed by
    exp(i eps H) around the LOOKUP scale, a scaled non-unitary and a matrix
    holding NaN."""
    d = gf.order
    ctx = standard_context(d)
    picks = rng.choice(np.arange(1, d * d), 2, replace=False)
    named = [(f"translation {i}", ctx.labeling.unitary_at(ctx.points[pt]))
             for i, pt in enumerate(picks)]
    if gf.n >= 2:
        us = squeezing_operator(gf).dense
        named.append(("squeezing", us))
        g = rng.standard_normal((d, d, 2)) @ np.array([1.0, 1.0j])
        lam, v = np.linalg.eigh(g + g.conj().T)
        named += [(f"squeezing + {eps}", us @ (v * np.exp(1j * eps * lam)) @ v.conj().T)
                  for eps in (1e-12, 1e-10, 3e-9, 1e-8, 1e-7)]
    if gf.p == 2:
        named.append(("fourier", fourier_operator(gf).dense))
    for i in range(2):
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        named.append((f"haar {i}", q * (np.diagonal(r) / np.abs(np.diagonal(r)))))
    named.append(("1.5 x translation", 1.5 * named[0][1]))
    holed = np.array(named[0][1], dtype=complex)
    holed[d - 1, 0] = np.nan
    named.append(("nan entry", holed))
    return named


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_is_flow_agrees_with_the_reference_loop(d):
    gf = field(d)
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 10])
    nets = [ctx.complete(tuple(rng.integers(0, d, d + 1)))]
    if d == 4:  # a net squeezing flows on, so its perturbations cross LOOKUP
        nets += flow_census(squeezing_operator(gf).dense, gf).flows[:1]
    elif d <= ENUMERATION_MAX_DIM:  # the reference loop takes ~70 ms a call at d=9
        nets.append(ctx.complete(tuple(rng.integers(0, d, d + 1))))
    verdicts = {}
    for name, u in flow_test_inputs(gf, rng):
        for k, net in enumerate(nets):
            verdict = is_flow(u, net)
            assert verdict == (nearest_image_distance(u, net) < LOOKUP), (name, net)
            verdicts[name, k] = verdict
    known = {"translation 0": True, "translation 1": True, "haar 0": False, "haar 1": False,
             "1.5 x translation": False, "nan entry": False}
    for (name, _), verdict in verdicts.items():
        assert known.get(name, verdict) == verdict, name
    if d == 4:
        crossing = [verdicts[f"squeezing + {eps}", 1] for eps in (1e-12, 1e-10, 3e-9, 1e-8, 1e-7)]
        assert verdicts["squeezing", 1] and crossing[0] and not crossing[-1]


def test_is_flow_refuses_a_matrix_of_the_wrong_shape():
    net = standard_context(4).complete((0,) * 5)
    # 2 x 8 has the 16 entries of a 4 x 4 matrix, and its outer product 256
    for shape in [(2, 8), (8, 2), (16,), (1, 4, 4), (3, 3)]:
        with pytest.raises(ValueError, match=r"4 x 4 matrix, got \(" + str(shape[0])):
            is_flow(np.ones(shape, dtype=complex), net)


@pytest.mark.parametrize("d", (4, 9))
def test_is_flow_builds_no_point_operator(d):
    ctx = standard_context(d)
    net = ctx.complete((1,) * (d + 1))
    assert is_flow(ctx.labeling.unitary_at(ctx.points[5]), net)
    assert not is_flow(random_unitary(d, np.random.default_rng(d)), net)
    assert net._point_ops is None


def test_is_flow_sees_an_array_rewritten_in_place():
    d = 4
    ctx = standard_context(d)
    net = ctx.complete((0, 1, 2, 3, 0))
    u = np.array(ctx.labeling.unitary_at(ctx.points[7]), dtype=complex)
    assert is_flow(u, net)
    u[...] = random_unitary(d, np.random.default_rng(1))
    assert not is_flow(u, net)
    u[...] = ctx.labeling.unitary_at(ctx.points[7])
    assert is_flow(u, net)


@pytest.mark.parametrize("d", (4, 8, 9))
def test_is_flow_reads_any_memory_layout_as_its_c_complex_copy(d):
    gf = field(d)
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 4])
    nets = [ctx.complete(tuple(rng.integers(0, d, d + 1))) for _ in range(2)]
    if d == 4:
        nets += flow_census(squeezing_operator(gf).dense, gf).flows[:1]
    # the translation by (1, 0) as a real permutation, the real Fourier
    # matrix, squeezing, a Haar unitary and a real non-unitary matrix
    shift = ctx.labeling.unitary_at(ctx.points[d]).real
    inputs = [shift, squeezing_operator(gf).dense, random_unitary(d, rng),
              rng.standard_normal((d, d))]
    if gf.p == 2:
        inputs.append(np.real(fourier_operator(gf).dense))
    verdicts = set()
    for u in inputs:
        wide = np.zeros((d, 2 * d), dtype=u.dtype)
        wide[:, ::2] = u
        for variant in (np.asfortranarray(u), wide[:, ::2], np.real_if_close(u)):
            copy = np.array(variant, dtype=complex, order="C")
            for net in nets:
                verdict = is_flow(variant, net)
                assert verdict == is_flow(copy, net)
                verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_is_flow_is_false_and_silent_on_huge_or_infinite_entries(d):
    ctx = standard_context(d)
    net = ctx.complete((0,) * (d + 1))
    u = ctx.labeling.unitary_at(ctx.points[1])
    holed = np.array(u, dtype=complex)
    holed[0, d - 1] = np.inf
    negative = np.array(u, dtype=complex)
    negative[d - 1, 0] = complex(-np.inf, np.inf)
    haar = random_unitary(d, np.random.default_rng(d))
    inputs = [1e200 * u, 1e150 * u, 1e75 * u, 1e-200 * u, 1e200 * haar, holed, negative,
              np.full((d, d), np.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in inputs:
            assert is_flow(x, net) is False


def nearest_image_distances(u, nets):
    """The reference loop's criterion for many nets, broadcast per net."""
    out = []
    for net in nets:
        table = net.point_operator_table()
        images = u @ table @ u.conj().T
        gaps = np.linalg.norm(images[:, None] - table[None], axis=(2, 3))
        out.append(gaps.min(axis=1).max())
    return np.array(out)


def test_flow_counts_over_every_d4_net_equal_the_reference():
    gf = field(4)
    ctx = standard_context(4)
    nets = list(enumerate_nets(gf))
    assert len(nets) == 1024
    # the broadcast reference is the loop, on a few nets
    for net in nets[::300]:
        u = random_unitary(4, np.random.default_rng(net.ray_choices))
        assert nearest_image_distances(u, [net])[0] == pytest.approx(
            nearest_image_distance(u, net), abs=1e-14)
    unitaries = {
        "translation": ctx.labeling.unitary_at(ctx.points[6]),
        "squeezing": squeezing_operator(gf).dense,
        "fourier": fourier_operator(gf).dense,
        "haar": random_unitary(4, np.random.default_rng(7)),
    }
    counts = {}
    for name, u in unitaries.items():
        verdicts = [is_flow(u, net) for net in nets]
        assert verdicts == (nearest_image_distances(u, nets) < LOOKUP).tolist(), name
        counts[name] = sum(verdicts)
    assert counts["translation"] == 1024 and counts["fourier"] == counts["haar"] == 0
    assert counts["squeezing"] > 0


# -- the two flow routes ---------------------------------------------------------

def dense_verdict(u, net):
    """The dense criterion on X = E^T T~ E for every point, with no
    integer route and no early exit at the origin."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = dense_x(u, net)
        x[x.argmax(axis=0), np.arange(net.dim**2)] -= 1.0
        return bool(np.sqrt(np.einsum("ij,ij->j", x, x).max() / net.dim) < LOOKUP)


def dense_x(u, net):
    """X = E^T T~ E, X[gamma, alpha] the coefficient of A_gamma in U A_alpha U~,
    T~ built here from the transition probabilities T between the basis
    vectors (the frame) and the net's 0/1 incidence E built here from its pencil."""
    d, frame = net.dim, net.context.mub.frame
    incidence = np.zeros((d * (d + 1), d * d))
    for kappa in range(d + 1):
        incidence[kappa * d + net.pencil[kappa], np.arange(d * d)] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.abs(frame.conj().T @ np.asarray(u, dtype=complex) @ frame) ** 2
        # T~ = (T - a_mu/(d+1) - b_lam/(d+1) + |U|^2/(d+1)^2) / d, a_mu = |U phi_mu|^2
        # and b_lam = |U~ phi_lam|^2 from the column and row sums of T
        a, b = t.sum(axis=0) / (d + 1), t.sum(axis=1) / (d + 1)
        table = (t - a / (d + 1) - b[:, None] / (d + 1) + a.sum() / (d + 1) ** 3) / d
        return incidence.T @ table @ incidence


def record(u, mub):
    """The `clifford._basis_images` record of u on one set of bases."""
    return clifford._basis_images(np.ascontiguousarray(u, dtype=complex).tobytes(), mub, mub)


def projector_error(u, mub):
    """The largest bound |w - 1| + 2 sqrt(w) l + l^2 on |U P U~ - Q|_F over
    the basis projectors P, each basis against its best target basis."""
    d = mub.dim
    worst = 0.0
    for source in mub.bases:
        best = np.inf
        for target in mub.bases:
            weight = np.abs(target.vectors.conj().T @ u @ source.vectors) ** 2
            peak = weight.max(axis=0)
            weight[weight.argmax(axis=0), np.arange(d)] = 0.0
            leak = np.sqrt(weight.sum(axis=0))
            best = min(best, float((np.abs(peak - 1) + 2 * np.sqrt(peak) * leak + leak**2).max()))
        worst = max(worst, best)
    return worst


def route_family(d, rng):
    """Every net at d <= 3, the fixed-axes nets at d = 4, 5, 40 seeded nets above."""
    if d <= ENUMERATION_MAX_DIM:
        return list(enumerate_nets(field(d), fix_axes=d > 3))
    ctx = standard_context(d)
    return [ctx.complete(tuple(rng.integers(0, d, d + 1))) for _ in range(40)]


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_both_flow_routes_give_the_dense_verdict(d):
    gf = field(d)
    rng = np.random.default_rng([d, 17])
    nets = route_family(d, rng)
    exact = set()
    for name, u in flow_test_inputs(gf, rng):
        verdicts = [is_flow(u, net) for net in nets]
        assert verdicts == [dense_verdict(u, net) for net in nets], name
        if record(u, standard_context(d).mub).action is not None:
            exact.add(name)
    assert {"translation 0", "translation 1"} <= exact and "haar 0" not in exact


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_flow_routes_meet_at_the_gate(d):
    # a translation perturbed by exp(i eps H) with its projector error just
    # under and just over flow_gate(d): the first takes the integer route,
    # the second the dense one, and both still flow on every net
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 18])
    shift = ctx.labeling.unitary_at(ctx.points[1])
    g = rng.standard_normal((d, d, 2)) @ np.array([1.0, 1.0j])
    lam, v = np.linalg.eigh(g + g.conj().T)

    def perturbed(eps):
        return shift @ (v * np.exp(1j * eps * lam)) @ v.conj().T

    slope = projector_error(perturbed(1e-6), ctx.mub) / 1e-6
    nets = [ctx.complete(tuple(rng.integers(0, d, d + 1))) for _ in range(3)]
    for factor, exact in ((0.9, True), (1.1, False)):
        u = perturbed(factor * flow_gate(d) / slope)
        assert (projector_error(u, ctx.mub) < flow_gate(d)) is exact
        assert (record(u, ctx.mub).action is not None) is exact
        for net in nets:
            assert is_flow(u, net) is dense_verdict(u, net) is True
            if d <= 4:  # the bound the gate rests on, against the reference loop
                assert nearest_image_distance(u, net) <= (2 * d + 1) / d * projector_error(u, ctx.mub)


def exp_origin(net, theta):
    """exp(i theta A_0) from the net's own origin point operator, which it commutes with."""
    w, v = np.linalg.eigh(net.point_operator_table()[0])
    return (v * np.exp(1j * theta * w)) @ v.conj().T


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_the_full_dense_check_refuses_what_the_origin_test_passes(d):
    # exp(i theta A_0) keeps the net's origin point operator fixed, so the
    # origin test passes it (measured distance <= 2e-15 at every d) and only
    # the full check can refuse it; no benchmark unitary gets that far
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 22])
    if d <= ENUMERATION_MAX_DIM:  # family nets, decided with their whole family
        family = list(enumerate_nets(field(d), fix_axes=d > 3))
        nets = [family[k] for k in rng.choice(len(family), min(6, len(family)), replace=False)]
    else:
        nets = [ctx.complete(tuple(rng.integers(0, d, d + 1))) for _ in range(3)]
    for net in nets:
        for theta in (0.3, 1.0):
            u = exp_origin(net, theta)
            origin = dense_x(u, net)[:, 0]
            origin[origin.argmax()] -= 1.0
            assert np.sqrt(origin @ origin / d) < 1e-14
            assert record(u, ctx.mub).transition is not None  # the dense route
            assert is_flow(u, net) is dense_verdict(u, net) is False
            assert (ctx in record(u, ctx.mub).flows) is (d <= ENUMERATION_MAX_DIM)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_family_verdicts_are_the_dense_verdicts(d):
    # every family net at d <= 4 and a seeded 64-net sample at d = 5, as
    # fresh net objects that read the family's verdicts from the record
    gf, ctx = field(d), standard_context(d)
    rng = np.random.default_rng([d, 23])
    family = list(enumerate_nets(gf, fix_axes=d > 3))
    nets = family if d <= 4 else [family[k] for k in np.sort(rng.choice(len(family), 64, replace=False))]
    named = flow_test_inputs(gf, rng)
    named += [(f"exp(i {theta} A_0)", exp_origin(nets[-1], theta)) for theta in (0.3, 1.0)]
    for name, u in named:
        assert [is_flow(u, net) for net in nets] == [dense_verdict(u, net) for net in nets], name
        assert len(record(u, ctx.mub).flows[ctx]) == len(family), name


def test_a_family_is_one_kernel_call_per_unitary(monkeypatch):
    sizes = []
    kernel = quantum_net._flow_verdicts
    monkeypatch.setattr(quantum_net, "_flow_verdicts",
                        lambda images, rows, *rest: sizes.append(rows.shape[1]) or kernel(images, rows, *rest))
    gf, ctx = field(4), standard_context(4)
    u = random_unitary(4, np.random.default_rng(25))
    assert flow_census(u, gf).flows == () and sizes == [64]
    assert not any(is_flow(u, net) for net in enumerate_nets(gf, fix_axes=True))
    assert flow_census(u, gf).flows == () and sizes == [64]
    assert not is_flow(u, ctx.complete((1, 0, 0, 0, 0)))  # a lone net is a stack of one
    assert sizes == [64, 1]


def test_a_family_net_flow_test_hashes_no_field(monkeypatch):
    # the census family is keyed by d and the standard context by int: a
    # repeated family-net test hashes no FieldSpec
    ctx = standard_context(4)
    u = random_unitary(4, np.random.default_rng(29))
    net = ctx.complete((0, 0, 1, 2, 3))
    verdict = is_flow(u, net)  # warm-up: the family and u's record exist
    calls = []
    spec_hash = FieldSpec.__hash__
    monkeypatch.setattr(FieldSpec, "__hash__", lambda gf: calls.append(1) or spec_hash(gf))
    hash(field(4))  # the counter sees a hash
    assert calls == [1]
    calls.clear()
    assert is_flow(u, net) is verdict
    assert calls == []


@pytest.mark.parametrize("d", (4, 8, 9))
def test_clifford_flows_take_the_integer_route(d):
    gf = field(d)
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 19])
    named = dict(flow_test_inputs(gf, rng))
    exact = ["translation 0", "translation 1", "squeezing"] + ["fourier"] * (gf.p == 2)
    family = list(enumerate_nets(gf, fix_axes=True)) if d <= ENUMERATION_MAX_DIM else []
    members = np.random.default_rng([d, 24])
    for name in exact + ["haar 0", "1.5 x translation", "nan entry", "squeezing + 1e-07"]:
        net = ctx.complete(tuple(rng.integers(0, d, d + 1)))
        assert not (d <= ENUMERATION_MAX_DIM and net.ray_choices[:2] == (0, 0))  # a lone net
        is_flow(named[name], net)
        images = record(named[name], ctx.mub)
        # a record holds the projector action or the transition table, never
        # both; only the integer route reads a lone net's meet table
        assert (images.action is None) is (images.transition is not None), name
        assert (images.transition is None and "meet" in vars(net)) is (name in exact), name
        if family:
            # a family net reads neither its meet nor its rows, on either
            # route: the record's verdicts on the family, stacked once
            member = family[int(members.integers(len(family)))]
            assert is_flow(named[name], member) is dense_verdict(named[name], member), name
            assert len(images.flows[ctx]) == len(family) and not {"meet", "rows"} & set(vars(member)), name


def test_transition_memo_is_bounded():
    # the dense route's transition tables live in the basis-pair records
    maxsize = clifford._basis_images.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    ctx = standard_context(9)
    net = ctx.complete((0,) * 10)
    rng = np.random.default_rng(2)
    for _ in range(3 * maxsize):
        u = random_unitary(9, rng)
        is_flow(u, net)
        assert record(u, ctx.mub).transition is not None
    assert clifford._basis_images.cache_info().currsize <= maxsize


def test_basis_pair_memo_is_bounded():
    maxsize = clifford._basis_images.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    ctx = standard_context(9)
    net = ctx.complete((0,) * 10)
    rng = np.random.default_rng(3)
    for k in range(3 * maxsize):
        u = random_unitary(9, rng) if k % 2 else ctx.labeling.unitary_at(ctx.points[k % 81])
        if k % 4 == 1:
            u = 1.5 * u  # not unitary: is_flow builds its record, maps_mub_to_mub refuses it
        is_flow(u, net)
        images = record(u, ctx.mub)
        refused = clifford._certificate(np.ascontiguousarray(u, dtype=complex).tobytes(), ctx.field) is None
        assert refused is (k % 4 == 1)
        assert (images.action is None) is (images.transition is not None) is bool(k % 2)
        if not refused:
            clifford.maps_mub_to_mub(u, ctx.mub, ctx.mub)
    assert clifford._basis_images.cache_info().currsize <= maxsize
    # on d = 5 family nets each record also holds the family's verdicts,
    # which go when their record does
    ctx = standard_context(5)
    nets = list(enumerate_nets(field(5), fix_axes=True))[::125]
    first = random_unitary(5, rng)
    is_flow(first, nets[0])
    verdicts = weakref.ref(record(first, ctx.mub).flows[ctx])
    for k in range(3 * maxsize):
        u = random_unitary(5, rng) if k % 2 else ctx.labeling.unitary_at(ctx.points[1 + k % 24])
        for net in nets:
            is_flow(u, net)
        assert len(record(u, ctx.mub).flows[ctx]) == 625
        assert clifford._basis_images.cache_info().currsize <= maxsize
    assert verdicts() is None


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_one_record_per_unitary(d):
    # is_flow, maps_mub_to_mub and affine_extraction share one overlap
    # product and one unitarity check: the first call builds the record,
    # the other two read it
    gf = field(d)
    ctx = standard_context(d)
    rng = np.random.default_rng([d, 20])
    nets = [ctx.complete(tuple(rng.integers(0, d, d + 1)))]
    if d <= ENUMERATION_MAX_DIM:  # and a net of the census family, which reads its verdicts
        nets.append(ctx.complete((0, 0) + (d - 1,) * (d - 1)))
    for net in nets:
        shift = ctx.labeling.unitary_at(ctx.points[int(rng.integers(1, d * d))])
        fresh = [random_unitary(d, rng), np.exp(2j * np.pi * rng.random()) * shift]
        for u in fresh:
            before = clifford._basis_images.cache_info()
            flows = is_flow(u, net)
            maps = clifford.maps_mub_to_mub(u, ctx.mub, ctx.mub)
            affine = clifford.affine_extraction(u, gf)
            after = clifford._basis_images.cache_info()
            assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)
            assert flows is bool(maps) is bool(affine) is (u is not fresh[0])


@pytest.mark.parametrize("d", (2, 4))
def test_censuses_share_their_family_nets(d):
    gf = field(d)
    ctx = standard_context(d)
    first = flow_census(ctx.labeling.unitary_at(ctx.points[1]), gf)
    second = flow_census(ctx.labeling.unitary_at(ctx.points[2]), gf)
    assert len(first.flows) == len(second.flows) == first.size
    assert all(a is b for a, b in zip(first.flows, second.flows))
    assert all("meet" in vars(net) for net in first.flows)


def test_flow_gate_leaves_both_verdicts_their_margin():
    for d in SUPPORTED_DIMENSIONS:
        c = (2 * d + 1) / d
        assert 0 < c * flow_gate(d) <= LOOKUP / 2
        assert np.sqrt(2) / d - c * flow_gate(d) > LOOKUP
