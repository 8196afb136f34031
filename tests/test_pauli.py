import functools
import itertools

import numpy as np
import pytest

from dwf.galois import SUPPORTED_DIMENSIONS, FieldSpec, field, rank_mod_p
from dwf.geometry import PhasePoint, all_points, build_striations, line_points, origin
from dwf.pauli import (
    PauliOperator,
    _translation_matrix,
    abelian_set,
    build_labeling,
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
        assert not any(op.power(gf.p).label)
        assert op.power(gf.p).phase_exp == 0


def test_commutation_examples():
    gf = field(2)
    x = PauliOperator(gf, (1,), (0,))
    z = PauliOperator(gf, (0,), (1,))
    assert symplectic_product(x, z) != 0
    assert symplectic_product(x, x) == 0
    gf3 = field(3)
    a = PauliOperator(gf3, (1,), (0,))
    b = PauliOperator(gf3, (1,), (1,))
    assert symplectic_product(a, b) == 1
    assert symplectic_product(a, b) != 0
    assert np.linalg.norm(a.dense @ b.dense - b.dense @ a.dense) > 0.1


@pytest.mark.parametrize("d", (2, 3, 4))
def test_symplectic_test_agrees_with_dense_commutators_exhaustive(d):
    gf = field(d)
    ops = [op_from_label(gf, l) for l in all_labels(gf)]
    for a in ops:
        for b in ops:
            dense_zero = np.linalg.norm(a.dense @ b.dense - b.dense @ a.dense) < 1e-12
            assert (symplectic_product(a, b) == 0) == dense_zero


def test_symplectic_test_agrees_with_dense_commutators_sampled_d8():
    gf = field(8)
    rng = np.random.default_rng(23)
    for _ in range(80):
        a = PauliOperator(gf, rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        b = PauliOperator(gf, rng.integers(0, 2, 3), rng.integers(0, 2, 3))
        dense_zero = np.linalg.norm(a.dense @ b.dense - b.dense @ a.dense) < 1e-12
        assert (symplectic_product(a, b) == 0) == dense_zero


def test_abelian_set_single_qubit_x():
    gf = field(2)
    s = abelian_set(gf, (1,), (0,))
    assert len(s.members) == 1
    assert np.allclose(s.members[0].dense, X)


@pytest.mark.parametrize("d", (2, 4, 8, 9))
def test_labels_of_the_wrong_length_or_kind_are_refused(d):
    # a short label once read another translation's row of the table
    gf = field(d)
    zero, one = (0,) * gf.n, (1,) + (0,) * (gf.n - 1)
    for qvec, pvec in ((one[:-1], zero), (zero, one + (0,)), ((0.5,) + zero[1:], zero),
                       (zero, ("1",) + zero[1:]), (1, zero)):
        with pytest.raises(ValueError, match=f"must each hold {gf.n} integers"):
            PauliOperator(gf, qvec, pvec)
    op = PauliOperator(gf, np.array(one), zero)
    assert op.qvec == one and type(op.qvec[0]) is int


def test_abelian_set_rejects_zero_labels():
    with pytest.raises(ValueError):
        abelian_set(field(4), (0, 0), (0, 0))


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_abelian_set_reads_integer_labels_only(d):
    # int() would truncate (0.7, ...) to the label (0, ...)
    gf = field(d)
    unit, zero = (1,) + (0,) * (gf.n - 1), (0,) * gf.n
    expected = abelian_set(gf, unit, unit)
    same = abelian_set(gf, np.array(unit), tuple(np.int8(x + gf.p) for x in unit))
    assert (same.avec, same.bvec, same.label_set()) == (unit, unit, expected.label_set())
    assert {type(x) for x in same.avec + same.bvec} == {int}
    for bad in ((0.7,) + zero[1:], (1.0,) + zero[1:], ("1",) + zero[1:], 1):
        for avec, bvec in ((bad, unit), (unit, bad)):
            with pytest.raises(ValueError, match="avec and bvec must hold integers"):
                abelian_set(gf, avec, bvec)


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
            assert symplectic_product(a, b) == 0
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


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_first_n_members_are_independent(d):
    gf = field(d)
    rng = np.random.default_rng(d)
    for _ in range(8):
        label = rng.integers(0, gf.p, 2 * gf.n)
        while not label.any():
            label = rng.integers(0, gf.p, 2 * gf.n)
        s = abelian_set(gf, label[: gf.n], label[gf.n :])
        assert s.generators() == s.members[: gf.n]
        assert rank_mod_p([g.label for g in s.generators()], gf.p) == gf.n


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_stepping_along_a_ray_multiplies_labels_by_m_and_m_transpose(d):
    gf = field(d)
    n, m = gf.n, gf.companion
    labels = build_labeling(gf).labels
    assert labels.shape == (d * d, 2 * n) and not labels.flags.writeable
    points = all_points(gf)
    for s in build_striations(gf):
        for alpha in np.flatnonzero(s.position == 0):
            pt = points[alpha]
            step = PhasePoint(gf.generator * pt.q, gf.generator * pt.p).index
            assert s.position[step] == 0
            assert np.array_equal(labels[step, :n], (m @ labels[alpha, :n]) % gf.p)
            assert np.array_equal(labels[step, n:], (m.T @ labels[alpha, n:]) % gf.p)


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
        assert not lab.labels[origin(gf).index].any()


def test_point_to_translation_d2_pauli_triple():
    gf = field(2)
    lab = build_labeling(gf)
    pt = lambda a, b: PhasePoint(gf.elements[a], gf.elements[b])
    assert np.allclose(lab.unitary_at(pt(1, 0)), X)
    assert np.allclose(lab.unitary_at(pt(0, 1)), Z)
    assert np.allclose(lab.unitary_at(pt(1, 1)), Y)


def test_point_to_translation_horizontal_ray_d4():
    gf = field(4)
    lab = build_labeling(gf)
    omega = gf.generator
    label = lab.labels[PhasePoint(omega, gf.zero).index]
    expected_q = tuple((gf.companion @ np.array([1, 0])) % 2)
    assert tuple(label[:2]) == expected_q
    assert tuple(label[2:]) == (0, 0)


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
        a, b = lab.labels[v.index], lab.labels[w.index]
        assert np.array_equal(lab.labels[s.index], (a + b) % gf.p)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 7, 8, 9))
def test_ray_points_carry_the_striation_set(d):
    gf = field(d)
    lab = build_labeling(gf)
    striations = build_striations(gf)
    sets = standard_sets(gf)
    o = origin(gf)
    for s, aset in zip(striations, sets):
        ray_ops = {
            tuple(lab.labels[pt.index].tolist())
            for pt in line_points(s.lines[0])
            if pt != o
        }
        assert ray_ops == aset.label_set()


# -- the table of translations ---------------------------------------------------

@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_translation_table_rows_are_the_operators(d):
    gf = field(d)
    labeling = build_labeling(gf)
    table = labeling.translations
    assert table is build_labeling(gf).translations  # built once per field
    assert table.shape == (d * d, d, d) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0.0
    for pt in all_points(gf):
        row = labeling.labels[pt.index]
        # realized afresh: PauliOperator.dense reads this very table
        assert table[pt.index].tobytes() == _translation_matrix(gf.p, row[: gf.n], row[gf.n :]).tobytes()
        assert np.shares_memory(labeling.unitary_at(pt), table)


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_point_index_inverts_the_labels(d):
    gf = field(d)
    labeling = build_labeling(gf)
    codes = labeling.labels @ gf.p ** np.arange(2 * gf.n)
    assert labeling.point_index[codes].tolist() == list(range(d * d))
    assert not labeling.point_index.flags.writeable


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_dense_translations_are_read_from_the_table(d, monkeypatch):
    from dwf import pauli
    from dwf.clifford import clifford_from_symplectic, squeezing_operator, standardize_pair
    from dwf.mub import joint_eigenbasis

    gf = field(d)
    labeling = build_labeling(gf)
    table = labeling.translations
    sets = standard_sets(gf)
    calls = []
    monkeypatch.setattr(pauli, "_translation_matrix", lambda *args: calls.append(args))
    for s in sets:
        joint_eigenbasis(s)
    if gf.n >= 2:
        clifford_from_symplectic(squeezing_operator(gf).symplectic, gf)
    standardize_pair(sets[0], sets[1])
    label = labeling.labels[-1]
    for e in range(pauli._phase_order(gf.p)):
        dense = PauliOperator(gf, label[: gf.n], label[gf.n :], e).dense
        row = table[labeling.point_index[label @ gf.p ** np.arange(2 * gf.n)]]
        assert not dense.flags.writeable
        if e == 0:
            assert np.shares_memory(dense, table) and dense.tobytes() == row.tobytes()
        else:
            assert dense.tobytes() == (pauli._phase_unit(gf.p) ** e * row).tobytes()
    assert calls == []


def _kron_reference(p, qvec, pvec, phase_exp):
    """The dense translation as np.kron of the register factors: the
    reference that the broadcast product in _translation_matrix must match."""
    w = np.exp(2j * np.pi / p)
    shift = np.roll(np.eye(p, dtype=complex), 1, axis=0)
    clock = np.diag([w**z for z in range(p)])
    factors = []
    for qi, pi in zip(qvec, pvec):
        f = np.linalg.matrix_power(shift, qi) @ np.linalg.matrix_power(clock, pi)
        if p == 2:
            f = (1j) ** (qi * pi) * f
        else:
            f = np.exp(2j * np.pi * pow(2, -1, p) / p) ** (-qi * pi) * f
        factors.append(f)
    return (1j if p == 2 else np.exp(2j * np.pi / p)) ** phase_exp * functools.reduce(np.kron, reversed(factors))


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_translation_matrix_equals_the_kron_reference_bit_for_bit(d):
    gf = field(d)
    for label in all_labels(gf):
        for e in range(4 if gf.p == 2 else gf.p):
            reference = _kron_reference(gf.p, label[: gf.n], label[gf.n :], e)
            unit = 1j if gf.p == 2 else np.exp(2j * np.pi / gf.p)
            assert (unit**e * _translation_matrix(gf.p, label[: gf.n], label[gf.n :])).tobytes() == reference.tobytes()


def test_translation_matrix_is_the_qubit_pauli_string():
    one_qubit = {(0, 0): np.eye(2, dtype=complex), (1, 0): X, (0, 1): Z, (1, 1): Y}
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=2 * n):
            xbits, zbits = bits[:n], bits[n:]
            # qubit 0 is the least significant index digit, hence the reversed order
            reference = functools.reduce(np.kron, [one_qubit[b] for b in zip(xbits, zbits)][::-1])
            assert np.abs(_translation_matrix(2, xbits, zbits) - reference).max() <= 1e-15, bits


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_a_second_instance_of_a_field_hashes_like_the_cached_one(d):
    # hashes once mixed in id(field), so a set of points iterated, and a sum
    # over it was taken, in an order set by where the field was allocated
    gf = field(d)
    twin = FieldSpec(gf.p, gf.n, gf.primitive_poly)
    assert hash(twin) == hash(gf) and twin != gf  # equality stays identity
    assert [hash(x) for x in twin.elements] == [hash(x) for x in gf.elements]
    assert [hash(pt) for pt in all_points(twin)] == [hash(pt) for pt in all_points(gf)]
    for label in all_labels(gf):
        ops = [PauliOperator(f, label[: gf.n], label[gf.n :], 1) for f in (gf, twin)]
        assert hash(ops[0]) == hash(ops[1]) and ops[0] != ops[1]
    assert [pt.index for pt in set(all_points(twin))] == [pt.index for pt in set(all_points(gf))]
