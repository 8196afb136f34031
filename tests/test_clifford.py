import itertools
import warnings

import numpy as np
import pytest

from dwf.clifford import (
    AffineData,
    SymplecticClifford,
    NotBasisPreserving,
    NotClifford,
    affine_extraction,
    circuit_unitary,
    clifford_from_symplectic,
    fourier_operator,
    generator_operators,
    hadamard_in_chart,
    is_clifford,
    is_symplectic_table,
    maps_mub_to_mub,
    random_clifford_circuit,
    random_unitary,
    squeezing_operator,
    standardize_pair,
    tableau_apply,
)
from dwf.galois import SUPPORTED_DIMENSIONS, field, inverse_mod_p
from dwf.geometry import all_points
from dwf.mub import MubSet, standard_mub
from dwf.pauli import PauliOperator, build_labeling, standard_sets
from dwf.quantum_net import enumerate_nets, is_flow, standard_context
from dwf.tolerances import ALGEBRAIC, LOOKUP

H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def match_label(gf, op):
    from dwf.clifford import _match_translation

    labels, phases, deficits = _match_translation(gf, op[None])
    assert deficits[0] <= LOOKUP, f"not a scaled translation (deficit {deficits[0]})"
    return tuple(labels[0].tolist()), phases[0]


# -- membership -------------------------------------------------------------

def test_hadamard_is_clifford_swapping_x_and_z():
    result = is_clifford(H2, field(2))
    assert result
    assert result.symplectic.tolist() == [[0, 1], [1, 0]]
    assert result.phase_exponents == (0, 0)


def test_eighth_turn_phase_gate_is_not_clifford_with_witness_x():
    result = is_clifford(np.diag([1.0, np.exp(1j * np.pi / 4)]), field(2))
    assert isinstance(result, NotClifford)
    assert result.witness.qvec == (1,) and result.witness.pvec == (0,)
    assert result.deficit > 1e-8


def test_a_phase_off_the_unit_roots_is_an_internal_error(monkeypatch):
    # a generator image matched with deficit 0 but a phase that is no
    # power of the unit root cannot come from a unitary
    from dwf import clifford

    match = clifford._match_translation

    def skewed(gf, ops):
        labels, phases, deficits = match(gf, ops)
        phases[-1] *= np.exp(0.3j)
        return labels, phases, deficits

    monkeypatch.setattr(clifford, "_match_translation", skewed)
    clifford._certificate.cache_clear()  # verdicts are memoized by value: H2 may be known
    with pytest.raises(AssertionError, match="is not a unit root of order 4"):
        is_clifford(H2, field(2))
    with pytest.raises(AssertionError, match="is not a unit root of order 3"):
        is_clifford(np.eye(3), field(3))


def test_cnot_symplectic_table():
    gf = field(4)
    result = is_clifford(circuit_unitary([("CNOT", 0, 1)], 2), gf)
    assert result
    # conjugation: X0 -> X0 X1, X1 -> X1, Z0 -> Z0, Z1 -> Z0 Z1
    assert result.symplectic[:, 0].tolist() == [1, 1, 0, 0]
    assert result.symplectic[:, 1].tolist() == [0, 1, 0, 0]
    assert result.symplectic[:, 2].tolist() == [0, 0, 1, 0]
    assert result.symplectic[:, 3].tolist() == [0, 0, 1, 1]
    assert is_symplectic_table(result.symplectic, 2)


def test_is_clifford_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        is_clifford(np.ones((2, 2)), field(2))


@pytest.mark.parametrize("d", (2, 3, 4))
def test_translations_are_clifford(d):
    gf = field(d)
    lab = build_labeling(gf)
    for pt in all_points(gf):
        result = is_clifford(lab.unitary_at(pt), gf)
        assert result
        # translations never move labels: the table is the identity
        assert np.array_equal(result.symplectic % gf.p, np.eye(2 * gf.n, dtype=np.int64))


# -- standardization ---------------------------------------------------------

def test_standardize_z_x_pair_is_identity():
    sets = standard_sets(field(2))
    result = standardize_pair(sets[0], sets[1])
    assert np.linalg.norm(result.dense - np.eye(2)) < 1e-10


def test_standardize_x_z_pair_is_hadamard_like():
    sets = standard_sets(field(2))
    result = standardize_pair(sets[1], sets[0])
    assert np.linalg.norm(result.dense - H2) < 1e-10


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_standardize_every_pair_maps_onto_the_z_and_x_sets(d):
    # read on the integer table: s's labels go onto the Z-type set and t's
    # onto the X-type set, for every ordered pair of distinct standard sets
    gf = field(d)
    sets = standard_sets(gf)
    z_labels, x_labels = sets[0].label_set(), sets[1].label_set()
    for s, t in itertools.permutations(sets, 2):
        table = standardize_pair(s, t).symplectic
        for members, target in ((s.members, z_labels), (t.members, x_labels)):
            images = np.array([m.label for m in members]) @ table.T % gf.p
            assert {tuple(row) for row in images.tolist()} == target


def test_standardize_rejects_intersecting_sets():
    sets = standard_sets(field(4))
    with pytest.raises(ValueError, match="intersect"):
        standardize_pair(sets[0], sets[0])


# -- synthesis from a symplectic table ---------------------------------------

@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_clifford_from_symplectic_round_trip(d, symplectic_tables):
    gf = field(d)
    n, p = gf.n, gf.p
    tables = symplectic_tables(gf)
    assert len(tables) == 7
    for f in tables:
        assert is_symplectic_table(f, p)
        result = clifford_from_symplectic(f, gf)
        assert np.array_equal(result.symplectic, f)
        assert result.phase_exponents == (0,) * (2 * n)


def test_clifford_from_symplectic_rejects_non_symplectic():
    gf = field(4)
    with pytest.raises(ValueError, match="symplectic"):
        clifford_from_symplectic(np.eye(4, dtype=np.int64) * 0, gf)


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_clifford_from_symplectic_reads_a_square_integer_table_of_side_2n_only(d):
    # an int64 cast once truncated float tables (to the identity here), and other
    # shapes died in numpy's matmul or in PauliOperator with messages of their own
    gf = field(d)
    n = gf.n
    eye = np.eye(2 * n, dtype=np.int64)
    for bad in ((eye + 0.2).tolist(), eye + 0.7, np.eye(2 * n + 1, dtype=np.int64),
                np.eye(2 * n - 1, dtype=np.int64), np.eye(2 * n + 2, dtype=np.int64)[:2 * n],
                [[1] * 2 * n, [0]], eye[0], 3, "ab"):
        with pytest.raises(ValueError, match=rf"^table must be a {2 * n} x {2 * n} integer matrix$"):
            clifford_from_symplectic(bad, gf)
    for good in (eye, eye.astype(np.int8), eye.tolist(), (eye + gf.p).tolist()):
        assert np.array_equal(clifford_from_symplectic(good, gf).symplectic, eye)


# -- squeezing ----------------------------------------------------------------

def test_squeezing_rejected_for_prime_dimension():
    with pytest.raises(ValueError, match="n >= 2"):
        squeezing_operator(field(3))


@pytest.mark.parametrize("d", (4, 8, 9))
def test_squeezing_conjugation_relation(d):
    gf = field(d)
    us = squeezing_operator(gf).dense
    m = gf.companion
    mt_inv = inverse_mod_p(m.T, gf.p)
    rng = np.random.default_rng(2)
    labels = list(itertools.product(range(gf.p), repeat=2 * gf.n))
    picks = labels if d == 4 else [labels[i] for i in rng.choice(len(labels), 12, replace=False)]
    for lab in picks:
        t = PauliOperator(gf, lab[: gf.n], lab[gf.n:])
        img = us @ t.dense @ us.conj().T
        (label, phase) = match_label(gf, img)
        expected_q = tuple((m @ np.array(lab[: gf.n])) % gf.p)
        expected_p = tuple((mt_inv @ np.array(lab[gf.n:])) % gf.p)
        assert tuple(label) == expected_q + expected_p
        assert abs(abs(phase) - 1) < 1e-8


def test_squeezing_fixes_axes_and_cycles_obliques_d4():
    gf = field(4)
    us = squeezing_operator(gf).dense
    mub = standard_mub(4)
    result = maps_mub_to_mub(us, mub, mub)
    assert result
    perm = result.permutation
    assert perm[0] == 0 and perm[1] == 1
    oblique = {2: perm[2], 3: perm[3], 4: perm[4]}
    # one 3-cycle through the oblique striations
    seen = set()
    k = 2
    for _ in range(3):
        seen.add(k)
        k = oblique[k]
    assert seen == {2, 3, 4} and k == 2
    assert is_clifford(us, gf)


def test_exactly_four_squeezing_covariant_nets_d4():
    gf = field(4)
    mub = standard_mub(4)
    us = squeezing_operator(gf).dense
    from dwf.quantum_net import flow_census

    covariant = flow_census(us, gf).flows
    assert len(covariant) == 4
    covariant_keys = {net.ray_choices for net in covariant}
    for net in enumerate_nets(gf, fix_axes=True):
        assert is_flow(us, net) == (net.ray_choices in covariant_keys)


# -- Fourier -------------------------------------------------------------------

def test_fourier_d2_is_hadamard():
    result = fourier_operator(field(2))
    assert np.linalg.norm(result.dense - H2) < 1e-12
    # Z <-> X, Y -> -Y
    y = PauliOperator(field(2), (1,), (1,))
    img = result.dense @ y.dense @ result.dense.conj().T
    assert np.linalg.norm(img + y.dense) < 1e-12


def test_fourier_rejects_odd_characteristic():
    with pytest.raises(ValueError, match="p = 2"):
        fourier_operator(field(3))


@pytest.mark.parametrize("d", (2, 4, 8))
def test_fourier_is_involution_and_matches_chart_hadamard(d):
    gf = field(d)
    f = fourier_operator(gf).dense
    assert np.linalg.norm(f @ f - np.eye(d)) < 1e-10
    assert np.linalg.norm(f - hadamard_in_chart(gf)) < 1e-10


@pytest.mark.parametrize("d", (2, 4, 8))
def test_fourier_reflects_across_main_diagonal(d):
    gf = field(d)
    f = fourier_operator(gf).dense
    m = gf.companion
    e0 = np.zeros(gf.n, dtype=np.int64)
    e0[0] = 1
    for j in range(d - 1):
        for k in range(d - 1):
            q = tuple((np.linalg.matrix_power(m, j) @ e0) % 2)
            p_ = tuple((np.linalg.matrix_power(m.T, k) @ e0) % 2)
            t = PauliOperator(gf, q, p_)
            img = f @ t.dense @ f.conj().T
            q2 = tuple((np.linalg.matrix_power(m, k) @ e0) % 2)
            p2 = tuple((np.linalg.matrix_power(m.T, j) @ e0) % 2)
            target = PauliOperator(gf, q2, p2)
            label, phase = match_label(gf, img)
            assert tuple(label) == q2 + p2
            assert abs(phase.imag) < 1e-8 and abs(abs(phase.real) - 1) < 1e-8


def test_fourier_maps_main_diagonal_set_to_itself_d4():
    gf = field(4)
    f = fourier_operator(gf).dense
    mub = standard_mub(4)
    result = maps_mub_to_mub(f, mub, mub)
    assert result
    # vertical <-> horizontal, main diagonal (slope 1) fixed, other two swapped
    assert result.permutation == (1, 0, 2, 4, 3)


# -- MUB images ---------------------------------------------------------------

def test_identity_maps_mub_to_itself():
    mub = standard_mub(3)
    result = maps_mub_to_mub(np.eye(3), mub, mub)
    assert result and result.permutation == (0, 1, 2, 3)


def test_hadamard_permutes_d2_mub():
    mub = standard_mub(2)
    result = maps_mub_to_mub(H2, mub, mub)
    assert result and result.permutation == (1, 0, 2)


def test_haar_random_unitary_does_not_preserve_mub():
    mub = standard_mub(4)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = random_unitary(4, rng)
        assert not maps_mub_to_mub(u, mub, mub)


def test_phase_gate_fails_mub_map_despite_unbiased_image():
    # eighth-turn phase gate: the image of the X basis stays unbiased to Z
    # but is not a basis of the standard set
    mub = standard_mub(2)
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    assert not maps_mub_to_mub(t, mub, mub)


@pytest.mark.parametrize("d", (2, 4, 9))
def test_basis_maps_refuse_what_is_not_a_unitary(d):
    # before, 1.5 I mapped the bases onto themselves and was affine, and
    # huge or infinite entries warned from inside the products
    gf = field(d)
    mub = standard_mub(d)
    shift = build_labeling(gf).unitary_at(list(all_points(gf))[1])
    holed, nan = np.array(shift, dtype=complex), np.array(shift, dtype=complex)
    holed[0, d - 1], nan[d - 1, 0] = np.inf, np.nan
    refused = [1.5 * np.eye(d), 1.5 * shift, 1e200 * shift, holed, nan, np.full((d, d), np.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in refused:
            with pytest.raises(ValueError, match="^input matrix is not unitary$"):
                maps_mub_to_mub(u, mub, mub)
            with pytest.raises(ValueError, match="^input matrix is not unitary$"):
                affine_extraction(u, gf)
        for shape in [(3, 3), (d, d + 1), (d * d,)]:
            message = rf"^expected a {d} x {d} matrix, got \({shape[0]},"
            with pytest.raises(ValueError, match=message):
                maps_mub_to_mub(np.ones(shape), mub, mub)
            with pytest.raises(ValueError, match=message):
                affine_extraction(np.ones(shape), gf)
        # the unitary itself still passes both
        assert maps_mub_to_mub(shift, mub, mub).permutation == tuple(range(d + 1))
        assert affine_extraction(shift, gf)


@pytest.mark.parametrize("d", [2, 4, 8, 9])
def test_basis_maps_into_a_second_basis_set(d):
    # the source-is-not-target branch of _basis_images, onto the standard
    # bases in reverse order: basis k of the standard set is basis d - k there
    gf, mub = field(d), standard_mub(d)
    rev = MubSet(gf, tuple(reversed(mub.bases)))
    assert maps_mub_to_mub(np.eye(d), mub, rev).permutation == tuple(d - k for k in range(d + 1))
    if gf.n >= 2:
        us = squeezing_operator(gf).dense
        perm = maps_mub_to_mub(us, mub, mub).permutation
        into_rev = maps_mub_to_mub(us, mub, rev).permutation
        assert into_rev == tuple(d - k for k in perm)
        assert d != 4 or (perm, into_rev) == ((0, 1, 3, 4, 2), (4, 3, 1, 0, 2))
    haar = maps_mub_to_mub(random_unitary(d, np.random.default_rng(d)), mub, rev)
    assert not haar and haar.permutation is None


# -- affine certificates --------------------------------------------------------

def test_affine_extraction_x_gate():
    out = affine_extraction(np.array([[0, 1], [1, 0]], dtype=complex), field(2))
    assert isinstance(out, AffineData)
    assert out.a_matrix.tolist() == [[1]]
    assert out.b_shift == (1,)
    assert out.c_phase == (0,)


def test_affine_extraction_z_gate():
    out = affine_extraction(np.diag([1.0, -1.0]), field(2))
    assert isinstance(out, AffineData)
    assert out.a_matrix.tolist() == [[1]]
    assert out.b_shift == (0,)
    assert out.c_phase == (1,)


def test_affine_extraction_cnot():
    gf = field(4)
    u = circuit_unitary([("CNOT", 0, 1)], 2)
    out = affine_extraction(u, gf)
    assert isinstance(out, AffineData)
    assert out.b_shift == (0, 0)
    assert out.c_phase == (0, 0)
    assert out.a_matrix.tolist() in ([[1, 0], [1, 1]], [[1, 1], [0, 1]])
    for z in range(4):
        idx, phase = out.predicted_column(gf, z)
        col = np.zeros(4, dtype=complex)
        col[idx] = phase
        assert np.linalg.norm(u[:, z] - col) < 1e-8


def test_affine_extraction_reports_failures():
    out = affine_extraction(H2, field(2))
    assert isinstance(out, NotBasisPreserving)
    assert out.basis == "Z"
    s = np.diag([1.0, 1j])
    out = affine_extraction(s, field(2))
    assert isinstance(out, NotBasisPreserving)
    assert out.basis == "X"


def test_affine_extraction_odd_characteristic():
    gf = field(3)
    # scalar multiplication |z> -> |2z> is a basis-preserving Clifford
    u = np.zeros((3, 3), dtype=complex)
    for z in range(3):
        u[(2 * z) % 3, z] = 1.0
    out = affine_extraction(u, gf)
    assert isinstance(out, AffineData)
    assert out.a_matrix.tolist() == [[2]]


def test_affine_certificate_is_the_forward_map():
    # |z> -> |2z + 1> at d = 5 is not its own inverse (that is |3z + 2>)
    gf = field(5)
    u = np.zeros((5, 5), dtype=complex)
    for z in range(5):
        u[(2 * z + 1) % 5, z] = 1.0
    out = affine_extraction(u, gf)
    assert isinstance(out, AffineData)
    assert out.a_matrix.tolist() == [[2]]
    assert out.b_shift == (1,)
    assert out.c_phase == (0,)


@pytest.mark.parametrize("d, kind", [(4, "squeezing"), (8, "squeezing"), (9, "translation")])
def test_predicted_column_reproduces_every_column(d, kind):
    gf = field(d)
    if kind == "squeezing":
        u = squeezing_operator(gf).dense
    else:
        u = build_labeling(gf).unitary_at(list(all_points(gf))[d + 2])
    out = affine_extraction(u, gf)
    assert isinstance(out, AffineData)
    for z in range(d):
        row, phase = out.predicted_column(gf, z)
        col = np.zeros(d, dtype=complex)
        col[row] = phase
        assert np.linalg.norm(u[:, z] - col) < 1e-8


def test_composed_standardizers_make_any_mub_map_affine():
    gf = field(4)
    mub = standard_mub(4)
    sets = standard_sets(gf)
    lab = build_labeling(gf)
    candidates = [squeezing_operator(gf).dense, fourier_operator(gf).dense]
    candidates += [lab.unitary_at(pt) for pt in list(all_points(gf))[:4]]
    c1 = standardize_pair(sets[0], sets[1]).dense
    for u in candidates:
        cert = maps_mub_to_mub(u, mub, mub)
        assert cert
        s2 = sets[cert.permutation[0]]
        t2 = sets[cert.permutation[1]]
        c2 = standardize_pair(s2, t2).dense
        out = affine_extraction(c2 @ u @ c1.conj().T, gf)
        assert isinstance(out, AffineData)


def direct_affine(u, gf):
    """The certificate from u and W~ u W directly, with no record: the
    column-by-column `reference_monomial` on both, then the affine
    arithmetic on u's permutation."""
    p, n, d = gf.p, gf.n, gf.order
    w = standard_mub(d).bases[1].vectors
    for basis, block in zip("ZX", (u, w.conj().T @ u @ w)):
        perm, col, leak = reference_monomial(block)
        if perm is None:
            return NotBasisPreserving(basis, col, leak)
    perm = np.array(reference_monomial(u)[0])
    phases = np.angle(u[perm, np.arange(d)])
    coords = np.array([e.coords for e in gf.elements], dtype=np.int64)
    units = p ** np.arange(n)
    b = coords[perm[0]]
    a = (coords[perm[units]] - b).T % p
    delta = float(phases[0])
    c = np.round((phases[units] - delta) / (2 * np.pi / p)).astype(np.int64) % p
    return AffineData(a, tuple(int(x) for x in b), tuple(int(x) for x in c), delta)


def affine_oracle_inputs(gf, rng):
    """Named unitaries: seeded translations, squeezing or a shear, Fourier
    (p = 2), the composed standardizer products of criterion 9, Haar
    unitaries, random diagonal phases (Z kept, X broken), a Haar rotation
    of computational columns 1 and 2 alone (its first failing Z column in
    label order is 2 at d = 4 and 8), and H and S at d = 2."""
    d = gf.order
    mub, sets = standard_mub(d), standard_sets(gf)
    named = [(name, u) for name, u in kernel_inputs(gf, rng) if "+" not in name]
    c1 = standardize_pair(sets[0], sets[1]).dense
    for name, u in list(named):
        cert = maps_mub_to_mub(u, mub, mub)
        if cert:
            c2 = standardize_pair(sets[cert.permutation[0]], sets[cert.permutation[1]]).dense
            named.append((f"standardized {name}", c2 @ u @ c1.conj().T))
    named.append(("diagonal phases", np.diag(np.exp(2j * np.pi * rng.random(d)))))
    if d > 2:
        rotation = np.eye(d, dtype=complex)
        rotation[1:3, 1:3] = random_unitary(2, rng)
        named.append(("rotation of columns 1, 2", rotation))
    if d == 2:
        named += [("H", H2), ("S", np.diag([1.0, 1j]))]
    return named


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_affine_extraction_equals_the_direct_route(d, symplectic_tables):
    # the unitary's record keeps the result: a repeated call returns it, and
    # it equals the certificate computed with no record at all
    gf = field(d)
    named = affine_oracle_inputs(gf, np.random.default_rng([d, 21]))
    named += [(f"table {k}", clifford_from_symplectic(f, gf).dense) for k, f in enumerate(symplectic_tables(gf))]
    kinds = set()
    for name, u in named:
        out, reference = affine_extraction(u, gf), direct_affine(u, gf)
        assert affine_extraction(u, gf) is out, name
        assert type(out) is type(reference), name
        if isinstance(reference, AffineData):
            assert np.array_equal(out.a_matrix, reference.a_matrix), name
            assert not out.a_matrix.flags.writeable, name
            assert (out.b_shift, out.c_phase) == (reference.b_shift, reference.c_phase), name
            assert out.global_phase == reference.global_phase, name
        else:
            assert (out.basis, out.state_index) == (reference.basis, reference.state_index), name
            assert abs(out.leak - reference.leak) <= ALGEBRAIC, name
        kinds.add(out.basis if isinstance(out, NotBasisPreserving) else "affine")
    assert kinds == {"affine", "Z", "X"}


# -- tableau --------------------------------------------------------------------

def test_tableau_empty_circuit_keeps_z_stabilizers():
    tab = tableau_apply([], 3)
    assert tab.x.tolist() == [[0, 0, 0]] * 3
    assert tab.z.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert tab.r.tolist() == [0, 0, 0]  # sign bits: every generator is +Z_i


def test_tableau_h_gate_gives_x_stabilizer():
    tab = tableau_apply([("H", 0)], 1)
    assert (tab.x.tolist(), tab.z.tolist(), tab.r.tolist()) == ([[1]], [[0]], [0])


def test_tableau_bell_circuit():
    tab = tableau_apply([("H", 0), ("CNOT", 0, 1)], 2)
    rows = {(tuple(x), tuple(z), r) for x, z, r in zip(tab.x.tolist(), tab.z.tolist(), tab.r.tolist())}
    assert ((1, 1), (0, 0), 0) in rows  # +XX
    assert ((0, 0), (1, 1), 0) in rows  # +ZZ
    expected = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert np.linalg.norm(tab.state_vector() - expected) < 1e-10


def test_tableau_rejects_malformed_circuits():
    with pytest.raises(ValueError, match="unknown gate"):
        tableau_apply([("T", 0)], 1)
    with pytest.raises(ValueError, match="index"):
        tableau_apply([("H", 5)], 2)
    with pytest.raises(ValueError, match="distinct"):
        tableau_apply([("CNOT", 1, 1)], 2)
    with pytest.raises(ValueError, match="tuple"):
        tableau_apply(["H0"], 1)


def test_tableau_refuses_non_integer_qubits():
    # int() once truncated ("H", 0.5) to qubit 0
    for bad in (("H", 0.5), ("CNOT", 0, 1.0), ("S", "0")):
        with pytest.raises(ValueError, match="circuit step 1 is not a"):
            tableau_apply([("H", 0), bad], 2)
    tab = tableau_apply([("H", np.int64(0))], 1)
    assert (tab.x.tolist(), tab.z.tolist(), tab.r.tolist()) == ([[1]], [[0]], [0])


def test_tableau_dense_cross_validation_random_circuits():
    rng = np.random.default_rng(99)
    e0 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    for _ in range(25):
        circuit = random_clifford_circuit(3, 20, rng)
        tab = tableau_apply(circuit, 3)
        sv = tab.state_vector()
        dense = circuit_unitary(circuit, 3) @ e0
        lead = next(x for x in dense if abs(x) > 1e-8)
        dense = dense * (lead.conjugate() / abs(lead))
        assert np.linalg.norm(sv - dense) < 1e-10


def test_tableau_sign_tracking():
    # S S X S S = X conjugated by Z: S^2 = Z, so stabilizer X flips sign
    tab = tableau_apply([("H", 0), ("S", 0), ("S", 0)], 1)
    assert (tab.x.tolist(), tab.z.tolist(), tab.r.tolist()) == ([[1]], [[0]], [1])  # -X


@pytest.mark.parametrize("circuit, n, message", [
    ([("CNOT", 0, 0)], 2, "CNOT needs distinct control and target"),
    ([("H", 5)], 2, "gate H takes 1 qubit index(es) in [0, 2)"),
    ([("H", 0.5)], 2, "circuit step 0 is not a (name, qubits...) tuple"),
    ([("h", -1)], 2, "gate H takes 1 qubit index(es) in [0, 2)"),
    ([("CNOT", 0)], 2, "gate CNOT takes 2 qubit index(es) in [0, 2)"),
    ([("X", 0)], 2, "unknown gate 'X'; supported: ('H', 'S', 'CNOT')"),
    ([], 0, "circuits act on 1 to 8 qubits"),
    ([], 9, "circuits act on 1 to 8 qubits"),
])
def test_both_simulations_read_a_circuit_one_way(circuit, n, message):
    # the dense side once parsed circuits on its own: it built a non-unitary
    # matrix for ("CNOT", 0, 0) and raised TypeError or IndexError elsewhere
    for simulate in (tableau_apply, circuit_unitary):
        with pytest.raises(ValueError) as refused:
            simulate(circuit, n)
        assert str(refused.value) == message, simulate.__name__


# -- translations act as flows on every net ------------------------------------

def test_translations_flow_on_all_nets_d2():
    gf = field(2)
    lab = build_labeling(gf)
    for net in enumerate_nets(gf):
        for pt in all_points(gf):
            assert is_flow(lab.unitary_at(pt), net)


def test_translations_flow_on_sampled_nets_d4():
    gf = field(4)
    lab = build_labeling(gf)
    ctx = standard_context(4)
    rng = np.random.default_rng(8)
    nets = [ctx.complete(tuple(rng.integers(0, 4, 5))) for _ in range(3)]
    for net in nets:
        for pt in all_points(gf):
            assert is_flow(lab.unitary_at(pt), net)


# -- batched kernels against per-item reference loops ----------------------------

def reference_monomial(m):
    """The monomial test one column at a time: (perm, -1, 0.0), else
    (None, first leaky column, its leak), or (None, perm[0], 1.0) when two
    peaks share a row."""
    d = m.shape[0]
    perm = []
    for col in range(d):
        column = m[:, col]
        row = int(np.argmax(np.abs(column)))
        leak = np.linalg.norm(np.delete(column, row))
        if leak > LOOKUP:
            return None, col, leak
        perm.append(row)
    if len(set(perm)) != d:
        return None, perm[0], 1.0
    return perm, -1, 0.0


def reference_mub_map(u, b1, b2):
    """The striation permutation, one basis pair at a time, each source
    basis taking its first passing target, or None."""
    perm = []
    for source in b1.bases:
        image = u @ source.vectors
        target = next(
            (k for k, other in enumerate(b2.bases)
             if reference_monomial(other.vectors.conj().T @ image)[0] is not None),
            None,
        )
        if target is None:
            return None
        perm.append(target)
    return tuple(perm) if len(set(perm)) == len(perm) else None


def reference_is_clifford(u, gf):
    """(table, phase exponents), or (first failing generator, deficit),
    matching one generator image at a time against every translation."""
    d, n = gf.order, gf.n
    labels = list(itertools.product(range(gf.p), repeat=2 * n))
    catalogue = [PauliOperator(gf, l[:n], l[n:]).dense for l in labels]
    order = 4 if gf.p == 2 else gf.p
    table = np.zeros((2 * n, 2 * n), dtype=np.int64)
    phases = []
    for col in range(2 * n):
        unit = np.eye(2 * n, dtype=np.int64)[col]
        g = PauliOperator(gf, unit[:n], unit[n:]).dense
        image = u @ g @ u.conj().T
        coeffs = np.array([np.vdot(t, image) for t in catalogue]) / d
        best = int(np.argmax(np.abs(coeffs)))
        deficit = 1.0 - abs(coeffs[best])
        if deficit > LOOKUP:
            return col, deficit
        table[:, col] = labels[best]
        phases.append(int(round(np.angle(coeffs[best]) / (2 * np.pi / order))) % order)
    return table, tuple(phases)


def perturbed(u, eps, rng):
    """exp(i eps H) u for a seeded Hermitian H = G + G~, G complex Gaussian."""
    d = u.shape[0]
    g = rng.standard_normal((d, d, 2)) @ np.array([1.0, 1.0j])
    lam, v = np.linalg.eigh(g + g.conj().T)
    return (v * np.exp(1j * eps * lam)) @ v.conj().T @ u


def kernel_inputs(gf, rng):
    """Named unitaries: seeded translations, squeezing (a shear table at
    prime d, where there is no squeezing), Fourier where p = 2, Haar
    unitaries and the squeezing perturbed at the LOOKUP scale."""
    d = gf.order
    lab = build_labeling(gf)
    points = list(all_points(gf))
    picks = points if d <= 4 else [points[i] for i in rng.choice(d * d, 6, replace=False)]
    named = [(f"translation {pt}", lab.unitary_at(pt)) for pt in picks]
    if gf.n >= 2:
        base = squeezing_operator(gf).dense
    else:
        base = clifford_from_symplectic(np.array([[1, 0], [1, 1]]), gf).dense
    named.append(("squeezing", base))
    if gf.p == 2:
        named.append(("fourier", fourier_operator(gf).dense))
    named += [(f"haar {i}", random_unitary(d, rng)) for i in range(2)]
    named += [(f"squeezing + {eps}", perturbed(base, eps, rng)) for eps in (1e-12, 1e-10, 3e-9, 1e-8)]
    return named


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_batched_kernels_equal_the_per_item_loops(d):
    gf = field(d)
    mub = standard_mub(d)
    doubled = MubSet(gf, mub.bases + mub.bases)  # every basis has two passing targets
    verdicts = set()
    for name, u in kernel_inputs(gf, np.random.default_rng([d, 7])):
        result = is_clifford(u, gf)
        reference = reference_is_clifford(u, gf)
        if isinstance(reference[0], int):
            col, deficit = reference
            assert isinstance(result, NotClifford), name
            assert result.witness.label == tuple(np.eye(2 * gf.n, dtype=int)[col]), name
            assert abs(result.deficit - deficit) < 1e-12, name
        else:
            table, phases = reference
            assert isinstance(result, SymplecticClifford), name
            assert np.array_equal(result.symplectic, table), name
            assert result.phase_exponents == phases, name
        mapped = maps_mub_to_mub(u, mub, mub)
        assert mapped.permutation == reference_mub_map(u, mub, mub), name
        first = maps_mub_to_mub(u, mub, doubled).permutation
        assert first == reference_mub_map(u, mub, doubled) == mapped.permutation, name
        verdicts.add((bool(result), bool(mapped)))
    # the inputs reach every verdict pair: the perturbed squeezing stays
    # Clifford but stops mapping bases onto bases between 1e-10 and 1e-8
    assert {(True, True), (True, False), (False, False)} <= verdicts


def test_stacked_monomial_test_matches_single_calls_at_lookup():
    from dwf.clifford import _column_peaks

    d = 4
    rng = np.random.default_rng(5)

    def monomial():
        m = np.zeros((d, d), dtype=complex)
        m[rng.permutation(d), np.arange(d)] = np.exp(2j * np.pi * rng.random(d))
        return m

    def leaking(factor, m=None, col=1):
        m = monomial() if m is None else m
        row = (int(np.argmax(np.abs(m[:, col]))) + 1) % d
        m[row, col] = factor * LOOKUP * np.exp(0.3j)
        return m

    shared_row = monomial()
    shared_row[:, 2] = shared_row[:, 0]
    two_leaks = leaking(100.0, leaking(10.0), col=3)  # the first leak is reported
    blocks = [monomial(), leaking(0.1), monomial(), leaking(10.0), shared_row, two_leaks]
    stack = np.stack(blocks).reshape(2, 3, d, d)
    # each matrix of the stack holds three blocks side by side, as a record's overlap does
    weight = np.abs(stack.transpose(0, 2, 1, 3).reshape(2, d, 3 * d)) ** 2
    *columns, passes = _column_peaks(weight)
    perms, peaks, column_leaks = (a.reshape(2, 3, d) for a in columns)
    # the failing column and its leak, read as `affine_extraction` reads them:
    # the first leaky column, else the first peak's row when two peaks share a row
    leaky = column_leaks > LOOKUP
    first = leaky.argmax(axis=2)
    bad = np.where(passes, -1, np.where(leaky.any(axis=2), first, perms[..., 0]))
    leak_at_first = np.take_along_axis(column_leaks, first[..., None], axis=2)[..., 0]
    leaks = np.where(passes, 0.0, np.where(leaky.any(axis=2), leak_at_first, 1.0))
    assert bad.shape == leaks.shape == passes.shape == (2, 3) and perms.shape == (2, 3, d)
    for index, block in zip(np.ndindex(2, 3), blocks):
        reference = reference_monomial(block)
        assert (bad[index] >= 0) == (reference[0] is None) == (not passes[index])
        assert bad[index] == reference[1]
        assert abs(leaks[index] - reference[2]) < 1e-15
        if reference[0] is not None:
            assert perms[index].tolist() == reference[0]
            assert np.allclose(peaks[index], np.abs(block[perms[index], np.arange(d)]) ** 2)
    assert bad.ravel().tolist() == [-1, -1, -1, 1, int(np.argmax(np.abs(blocks[4][:, 0]))), 1]
    assert leaks[1, 0] == leaks[1, 2] == pytest.approx(10 * LOOKUP)


# -- per-field constants are shared and read-only ------------------------------------

def test_field_constants_are_built_once_and_read_only():
    from dwf.clifford import _generator_stack, _symplectic_form

    for d in SUPPORTED_DIMENSIONS:
        gf = field(d)
        labeling = build_labeling(gf)
        shared = [generator_operators(gf)[0].dense, _generator_stack(gf), labeling.labels, labeling.translations]
        assert generator_operators(gf) is generator_operators(gf)
        for name, build in (("squeezing", squeezing_operator), ("fourier", fourier_operator)):
            if (name == "squeezing" and gf.n < 2) or (name == "fourier" and gf.p != 2):
                continue
            assert build(gf) is build(gf)
            shared += [build(gf).dense, build(gf).symplectic]
        for array in shared:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = array[(0,) * array.ndim]
        u = np.array(labeling.unitary_at(list(all_points(gf))[1]))
        result = is_clifford(u, gf)
        assert result.dense is u and u.flags.writeable
        u[0, 0] = u[0, 0]
    for n in (1, 2, 3):
        form = _symplectic_form(n)
        assert form is _symplectic_form(n) and not form.flags.writeable
    for cached in (generator_operators, _generator_stack, squeezing_operator, fourier_operator):
        assert cached.cache_info().currsize <= len(SUPPORTED_DIMENSIONS)


# -- per-unitary memos: keyed by value and bounded ----------------------------------

@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_is_clifford_memo_is_keyed_by_value(d, symplectic_tables):
    from dwf import clifford

    gf = field(d)
    for f in symplectic_tables(gf):
        u = np.array(clifford_from_symplectic(f, gf).dense)  # a writable copy
        before = clifford._certificate.cache_info()
        results = [is_clifford(u, gf) for _ in range(3)]
        after = clifford._certificate.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (0, 3)  # synthesis certified u
        assert all(r.dense is u for r in results) and u.flags.writeable
        for r in results:
            assert np.array_equal(r.symplectic, f) and r.phase_exponents == results[0].phase_exponents
            assert not r.symplectic.flags.writeable
        # an in-place edit is a new value: U diag(e^0.3i, 1, ...) is no Clifford
        kept = u.copy()
        u[:, 0] *= np.exp(0.3j)
        edited = is_clifford(u, gf)
        assert isinstance(edited, NotClifford) and edited.deficit > LOOKUP
        u[:] = kept
        again = is_clifford(u, gf)
        assert again.dense is u and np.array_equal(again.symplectic, f)


@pytest.mark.parametrize("d", (2, 4, 9))
def test_a_fresh_unitary_checks_unitarity_once(d, monkeypatch, symplectic_tables):
    # the record reads its unitary bit off the certificate, so the four
    # questions about one unitary share one unitarity check
    from dwf import clifford

    calls = []
    is_unitary = clifford._is_unitary
    monkeypatch.setattr(clifford, "_is_unitary", lambda u: calls.append(1) or is_unitary(u))
    gf, ctx = field(d), standard_context(d)
    rng = np.random.default_rng([d, 29])
    phase = np.exp(2j * np.pi * rng.random())  # a fresh value: no memo holds it
    haar, clifford_u = random_unitary(d, rng), clifford_from_symplectic(symplectic_tables(gf)[1], gf).dense * phase
    for u in (haar, clifford_u):
        calls.clear()
        is_flow(u, ctx.complete((0,) * (d + 1)))
        assert bool(is_clifford(u, gf)) is (u is clifford_u)
        maps_mub_to_mub(u, ctx.mub, ctx.mub)
        affine_extraction(u, gf)
        assert len(calls) == 1


@pytest.mark.parametrize("d", (2, 4, 9))
def test_a_record_holds_no_unitarity_check(d, monkeypatch):
    # a strict reader asks the certificate before it builds a record, so a
    # refused matrix leaves none behind, and is_flow alone builds no certificate
    from dwf import clifford

    gf, ctx = field(d), standard_context(d)
    rng = np.random.default_rng([d, 32])
    u = 1.5 * random_unitary(d, rng)
    before = clifford._basis_images.cache_info()
    for reader in (lambda: maps_mub_to_mub(u, ctx.mub, ctx.mub), lambda: affine_extraction(u, gf)):
        with pytest.raises(ValueError, match="not unitary"):
            reader()
    after = clifford._basis_images.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    calls = []
    certificate = clifford._certificate
    monkeypatch.setattr(clifford, "_certificate", lambda *key: calls.append(1) or certificate(*key))
    is_flow(random_unitary(d, rng), ctx.complete((0,) * (d + 1)))
    assert calls == []


def test_certificate_memos_are_bounded(symplectic_tables):
    from dwf import clifford

    memos = (clifford._certificate, clifford._basis_images)
    for memo in memos:
        assert memo.cache_info().maxsize is not None and memo.cache_info().maxsize <= 16
    for d in SUPPORTED_DIMENSIONS:
        gf = field(d)
        rng = np.random.default_rng([d, 28])
        tables = symplectic_tables(gf)
        for k in range(3 * 16):
            if k % 2:  # a Clifford with a fresh global phase
                u = clifford_from_symplectic(tables[k % len(tables)], gf).dense * np.exp(2j * np.pi * rng.random())
            else:
                u = random_unitary(d, rng)
            assert bool(is_clifford(u, gf)) is bool(k % 2)
            affine_extraction(u, gf)
            for memo in memos:
                assert memo.cache_info().currsize <= memo.cache_info().maxsize
