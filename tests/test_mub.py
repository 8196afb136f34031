import dataclasses

import numpy as np
import pytest

from dwf.galois import field
from dwf.mub import MubSet, joint_eigenbasis, standard_mub, unbiasedness_report
from dwf.pauli import abelian_set

MUB_DIMS = (2, 3, 4, 5, 7, 8, 9)


def test_z_set_eigenbasis_is_computational():
    gf = field(2)
    basis = joint_eigenbasis(abelian_set(gf, (0,), (1,)))
    assert np.allclose(basis.vectors, np.eye(2))
    assert basis.labels == ((0,), (1,))


def test_x_set_eigenbasis_is_plus_minus():
    gf = field(2)
    basis = joint_eigenbasis(abelian_set(gf, (1,), (0,)))
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(basis.vector(0), plus)
    assert np.allclose(basis.vector(1), minus)


def test_d2_three_bases_pairwise_half_overlap():
    mub = standard_mub(2)
    assert len(mub.bases) == 3
    for k1 in range(3):
        for k2 in range(k1 + 1, 3):
            for j1 in range(2):
                for j2 in range(2):
                    ov = abs(np.vdot(mub.bases[k1].vector(j1), mub.bases[k2].vector(j2))) ** 2
                    assert abs(ov - 0.5) < 1e-12


@pytest.mark.parametrize("d", MUB_DIMS)
def test_build_mub_unbiased(d):
    mub = standard_mub(d)
    assert len(mub.bases) == d + 1
    report = unbiasedness_report(mub)
    assert report.max_deviation < 1e-10


@pytest.mark.parametrize("d", MUB_DIMS)
def test_bases_orthonormal_and_complete(d):
    mub = standard_mub(d)
    for basis in mub.bases:
        gram = basis.vectors.conj().T @ basis.vectors
        assert np.linalg.norm(gram - np.eye(d)) < 1e-10
        total = sum(basis.projector(j) for j in range(d))
        assert np.linalg.norm(total - np.eye(d)) < 1e-10


@pytest.mark.parametrize("d", MUB_DIMS)
def test_vectors_are_joint_eigenvectors_of_their_set(d):
    mub = standard_mub(d)
    w = np.exp(2j * np.pi / mub.field.p)
    for basis in mub.bases:
        for j, label in enumerate(basis.labels):
            v = basis.vector(j)
            for g, m in zip(basis.generators, label):
                assert np.linalg.norm(g.dense @ v - w**m * v) < 1e-10
            # eigenvector of every member, not only the generators
            for member in basis.provenance.members:
                img = member.dense @ v
                phase = np.vdot(v, img)
                assert abs(abs(phase) - 1) < 1e-10
                assert np.linalg.norm(img - phase * v) < 1e-10


def test_unbiasedness_report_flags_corrupted_basis():
    # a copy, so the cached standard bases stay intact
    bases = [dataclasses.replace(b) for b in standard_mub(2).bases]
    vecs = bases[1].vectors.copy()
    vecs[:, 0] = np.array([1.0, 0.0])  # replace |+> by |0>
    bases[1].vectors = vecs
    mub = MubSet(field(2), tuple(bases))
    report = unbiasedness_report(mub)
    assert report.max_deviation >= 1.0 / 2 - 1e-12


def test_first_vector_of_computational_basis_is_zero_ket():
    for d in MUB_DIMS:
        mub = standard_mub(d)
        e0 = np.zeros(d)
        e0[0] = 1.0
        assert np.linalg.norm(mub.bases[0].vector(0) - e0) < 1e-10


def test_phase_convention_first_amplitude_real_positive():
    for d in (3, 4, 8):
        mub = standard_mub(d)
        for basis in mub.bases:
            for j in range(d):
                v = basis.vector(j)
                lead = next(x for x in v if abs(x) > 1e-8)
                assert abs(lead.imag) < 1e-12
                assert lead.real > 0
