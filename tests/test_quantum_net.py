import warnings

import numpy as np
import pytest

from dwf.clifford import fourier_operator, random_unitary, squeezing_operator
from dwf.galois import SUPPORTED_DIMENSIONS, field
from dwf.geometry import PhasePoint, build_striations, line_points
from dwf.mub import standard_mub
from dwf.formats import net_from_payload
from dwf import quantum_net
from dwf.quantum_net import (
    ENUMERATION_MAX_DIM,
    covariant_completion,
    enumerate_nets,
    fixed_axes_choices,
    is_flow,
    net_context,
    net_count,
    squeezing_covariant_nets,
    standard_context,
)
from dwf.tolerances import LOOKUP


def make_net(d, choices):
    return covariant_completion(choices, standard_mub(d), build_striations(field(d)))


def test_d2_base_net_assignments_match_hand_table():
    gf = field(2)
    net = make_net(2, (0, 0, 0))
    striations = build_striations(gf)
    mub = standard_mub(2)

    assert net.projector_index(striations[0].ray) == (0, 0)
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
    kappa, j = net.projector_index(striations[2].ray)
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
        j_vert, j_horiz = fixed_axes_choices(ctx)
        net = ctx.complete((j_vert, j_horiz) + (0,) * (d - 1))
        for t, line in enumerate(ctx.striations[0].lines):
            _, j = net.projector_index(line)
            proj = ctx.mub.projector(0, j)
            # line {q = c_t} carries the computational projector |c_t><c_t|
            expected = np.zeros((d, d))
            expected[t, t] = 1.0
            assert np.linalg.norm(proj - expected) < 1e-10


def test_pencil_has_one_projector_per_basis():
    for d in (2, 3, 4, 5):
        net = make_net(d, tuple(min(k, d - 1) for k in range(d + 1)))
        for pt in net.context.points:
            pencil = net.pencil_indices(pt)
            assert len(pencil) == d + 1
            assert [kappa for kappa, _ in pencil] == list(range(d + 1))


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
        a = net.point_operator(pt)
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
        pencil = net.pencil_indices(pt)
        assert [kappa for kappa, _ in pencil] == list(range(d + 1))
    for pt in list(net.context.points)[:: max(1, d // 2)]:
        a = net.point_operator(pt)
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
    net = squeezing_covariant_nets(gf, standard_mub(4), us)[0]
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
        nets += squeezing_covariant_nets(gf, ctx.mub, squeezing_operator(gf).dense)[:1]
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
        nets += squeezing_covariant_nets(gf, ctx.mub, squeezing_operator(gf).dense)[:1]
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


def test_transition_memo_is_bounded():
    maxsize = quantum_net._transition_table.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
    ctx = standard_context(9)
    net = ctx.complete((0,) * 10)
    rng = np.random.default_rng(2)
    for _ in range(3 * maxsize):
        is_flow(random_unitary(9, rng), net)
    assert quantum_net._transition_table.cache_info().currsize <= maxsize


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
