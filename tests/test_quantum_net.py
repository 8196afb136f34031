import numpy as np
import pytest

from dwf.clifford import squeezing_operator
from dwf.galois import SUPPORTED_DIMENSIONS, field
from dwf.geometry import PhasePoint, build_striations, line_points
from dwf.mub import standard_mub
from dwf.formats import net_from_payload
from dwf.quantum_net import (
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
        amap = net.assignment()
        assert len(amap) == d * (d + 1)
        for kappa, s in enumerate(net.context.striations):
            js = [amap[line][1] for line in s.lines]
            assert sorted(js) == list(range(d))
            assert all(amap[line][0] == kappa for line in s.lines)


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
    sampled = list(enumerate_nets(field(8), sample=3, rng=np.random.default_rng(1)))
    assert len(sampled) == 3


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
    net = next(enumerate_nets(field(d), sample=1, rng=rng))
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
    for d in SUPPORTED_DIMENSIONS:
        make_net(d, (0,) * (d + 1))
        next(enumerate_nets(field(d), sample=1))
        net_from_payload({"dim": d, "ray_choices": [1] * (d + 1)})
    assert net_context.cache_info().currsize <= len(SUPPORTED_DIMENSIONS)


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
