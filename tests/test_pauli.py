import itertools

import numpy as np
import pytest

from dwf.galois import field
from dwf.geometry import PhasePoint, build_striations, line_points, origin
from dwf.pauli import (
    PauliOperator,
    abelian_set,
    build_labeling,
    commutes,
    standard_sets,
    symplectic_product,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def all_labels(gf):
    return list(itertools.product(range(gf.p), repeat=2 * gf.n))


def op_from_label(gf, label):
    return PauliOperator(gf, label[: gf.n], label[gf.n :])


def test_single_qubit_translations_are_xyz():
    gf = field(2)
    assert np.allclose(PauliOperator(gf, (1,), (0,)).dense, X)
    assert np.allclose(PauliOperator(gf, (0,), (1,)).dense, Z)
    assert np.allclose(PauliOperator(gf, (1,), (1,)).dense, Y)
    assert np.allclose(PauliOperator(gf, (1,), (1,)).dense, 1j * X @ Z)


def test_two_qubit_translation_without_cross_phase():
    gf = field(4)
    op = PauliOperator(gf, (1, 0), (0, 1))
    # register 0 carries X, register 1 carries Z; no phase since q.p = 0
    expected = np.kron(Z, X)  # register 0 is the least significant factor
    assert np.allclose(op.dense, expected)


@pytest.mark.parametrize("d", (2, 3, 4))
def test_symbolic_products_match_dense_exhaustively(d):
    gf = field(d)
    labels = all_labels(gf)
    ops = [op_from_label(gf, l) for l in labels]
    for a in ops:
        for b in ops:
            symbolic = (a * b).dense
            assert np.linalg.norm(symbolic - a.dense @ b.dense) < 1e-12


@pytest.mark.parametrize("d", (5, 7, 8, 9))
def test_symbolic_products_match_dense_sampled(d):
    gf = field(d)
    rng = np.random.default_rng(11)
    for _ in range(60):
        a = PauliOperator(gf, rng.integers(0, gf.p, gf.n), rng.integers(0, gf.p, gf.n))
        b = PauliOperator(gf, rng.integers(0, gf.p, gf.n), rng.integers(0, gf.p, gf.n))
        assert np.linalg.norm((a * b).dense - a.dense @ b.dense) < 1e-12


@pytest.mark.parametrize("d", (2, 3, 4, 8, 9))
def test_adjoint_matches_dense_conjugate_transpose(d):
    gf = field(d)
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = PauliOperator(
            gf,
            rng.integers(0, gf.p, gf.n),
            rng.integers(0, gf.p, gf.n),
            int(rng.integers(0, 4)),
        )
        assert np.linalg.norm(a.adjoint().dense - a.dense.conj().T) < 1e-12


def test_qubit_translations_hermitian_and_unitary():
    for d in (2, 4, 8):
        gf = field(d)
        for label in all_labels(gf):
            m = op_from_label(gf, label).dense
            assert np.linalg.norm(m - m.conj().T) < 1e-12
            assert np.linalg.norm(m @ m.conj().T - np.eye(d)) < 1e-12


@pytest.mark.parametrize("d", (3, 5, 9))
def test_odd_translations_have_order_p(d):
    gf = field(d)
    for label in all_labels(gf):
        op = op_from_label(gf, label)
        assert np.linalg.norm(np.linalg.matrix_power(op.dense, gf.p) - np.eye(d)) < 1e-10
        assert op.power(gf.p).is_identity_label()
        assert op.power(gf.p).phase_exp == 0


def test_commutation_examples():
    gf = field(2)
    x = PauliOperator(gf, (1,), (0,))
    z = PauliOperator(gf, (0,), (1,))
    assert not commutes(x, z)
    assert commutes(x, x)
    gf3 = field(3)
    a = PauliOperator(gf3, (1,), (0,))
    b = PauliOperator(gf3, (1,), (1,))
    assert symplectic_product(a, b) == 1
    assert not commutes(a, b)
    assert np.linalg.norm(a.dense @ b.dense - b.dense @ a.dense) > 0.1


@pytest.mark.parametrize("d", (2, 3, 4))
def test_symplectic_test_agrees_with_dense_commutators_exhaustive(d):
    gf = field(d)
    ops = [op_from_label(gf, l) for l in all_labels(gf)]
    for a in ops:
        for b in ops:
            dense_zero = np.linalg.norm(a.dense @ b.dense - b.dense @ a.dense) < 1e-12
            assert commutes(a, b) == dense_zero


def test_symplectic_test_agrees_with_dense_commutators_sampled_d8():
    gf = field(8)
    rng = np.random.default_rng(23)
    for _ in range(80):
        a = PauliOperator(gf, rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        b = PauliOperator(gf, rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        dense_zero = np.linalg.norm(a.dense @ b.dense - b.dense @ a.dense) < 1e-12
        assert commutes(a, b) == dense_zero


def test_abelian_set_single_qubit_x():
    gf = field(2)
    s = abelian_set(gf, (1,), (0,))
    assert len(s.members) == 1
    assert np.allclose(s.members[0].dense, X)


def test_abelian_set_rejects_zero_labels():
    with pytest.raises(ValueError):
        abelian_set(field(4), (0, 0), (0, 0))


def test_abelian_set_x_type_two_qubits():
    gf = field(4)
    s = abelian_set(gf, (1, 0), (0, 0))
    assert len(s.members) == 3
    for a, b in itertools.combinations(s.members, 2):
        assert np.linalg.norm(a.dense @ b.dense - b.dense @ a.dense) < 1e-12
    for m in s.members:
        assert m.pvec == (0, 0)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 7, 8, 9))
def test_standard_sets_partition_nonidentity_labels(d):
    gf = field(d)
    sets = standard_sets(gf)
    assert len(sets) == d + 1
    seen = set()
    for s in sets:
        labels = s.label_set()
        assert len(labels) == d - 1
        assert not (labels & seen)
        seen |= labels
    assert len(seen) == d * d - 1


@pytest.mark.parametrize("d", (2, 3, 4, 8, 9))
def test_standard_sets_members_commute_and_close(d):
    gf = field(d)
    for s in standard_sets(gf):
        labels = s.label_set() | {(0,) * (2 * gf.n)}
        for a, b in itertools.combinations_with_replacement(s.members, 2):
            assert commutes(a, b)
            assert (a * b).label in labels


@pytest.mark.parametrize("d", (2, 3, 4, 8))
def test_set_generators_are_independent_and_span(d):
    gf = field(d)
    for s in standard_sets(gf):
        gens = s.generators()
        assert len(gens) == gf.n
        # every member is a product of generator powers up to phase
        spanned = {(0,) * (2 * gf.n)}
        frontier = [(0,) * (2 * gf.n)]
        for g in gens:
            new = set()
            for base in spanned:
                acc = base
                for _ in range(gf.p - 1):
                    acc = tuple((x + y) % gf.p for x, y in zip(acc, g.label))
                    new.add(acc)
            spanned |= new
        assert s.label_set() <= spanned


@pytest.mark.parametrize("d", (2, 3, 4, 5, 8, 9))
def test_translation_basis_orthogonality(d):
    gf = field(d)
    labels = all_labels(gf)
    mats = [op_from_label(gf, l).dense for l in labels]
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            val = np.trace(a @ b.conj().T)
            assert abs(val - (d if i == j else 0.0)) < 1e-10


def test_point_to_translation_identity_at_origin():
    for d in (2, 3, 4):
        gf = field(d)
        lab = build_labeling(gf)
        assert lab.operator_at(origin(gf)).is_identity_label()


def test_point_to_translation_d2_pauli_triple():
    gf = field(2)
    lab = build_labeling(gf)
    pt = lambda a, b: PhasePoint(gf.element(a), gf.element(b))
    assert np.allclose(lab.operator_at(pt(1, 0)).dense, X)
    assert np.allclose(lab.operator_at(pt(0, 1)).dense, Z)
    assert np.allclose(lab.operator_at(pt(1, 1)).dense, Y)


def test_point_to_translation_horizontal_ray_d4():
    gf = field(4)
    lab = build_labeling(gf)
    omega = gf.generator
    op = lab.operator_at(PhasePoint(omega, gf.zero))
    expected_q = tuple((gf.companion @ np.array([1, 0])) % 2)
    assert op.qvec == expected_q
    assert op.pvec == (0, 0)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 8, 9))
def test_labeling_is_additive(d):
    gf = field(d)
    lab = build_labeling(gf)
    pts = [PhasePoint(q, p) for q in gf.elements for p in gf.elements]
    rng = np.random.default_rng(3)
    idx = rng.integers(0, len(pts), size=(40, 2))
    for i, j in idx:
        v, w = pts[i], pts[j]
        s = PhasePoint(v.q + w.q, v.p + w.p)
        lhs = lab.operator_at(s).label
        a = lab.operator_at(v).label
        b = lab.operator_at(w).label
        assert lhs == tuple((x + y) % gf.p for x, y in zip(a, b))


@pytest.mark.parametrize("d", (2, 3, 4, 5, 7, 8, 9))
def test_ray_points_carry_the_striation_set(d):
    gf = field(d)
    lab = build_labeling(gf)
    striations = build_striations(gf)
    sets = standard_sets(gf)
    o = origin(gf)
    for s, aset in zip(striations, sets):
        ray_ops = {
            lab.operator_at(pt).label
            for pt in line_points(s.ray)
            if pt != o
        }
        assert ray_ops == aset.label_set()
