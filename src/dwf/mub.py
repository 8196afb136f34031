"""Mutually unbiased bases as joint eigenbases of the commuting sets.

One basis per striation, built by spectral projection: for commuting
generators g_1 .. g_n, the vector with eigenvalue label (m_1 .. m_n) is
extracted from the rank-one projector

    prod_i  (1/p) sum_t  w^(-m_i t) g_i^t ,        w = exp(2 pi i / p).

Vectors are ordered lexicographically by label (so the all +1 vector comes
first) and each global phase is fixed by making the first significant
amplitude real positive, which keeps serialized bases stable across runs.

`joint_eigenvector` is the one place a spectral projector becomes a
phase-fixed vector; the synthesized Clifford unitaries (all-zero label)
and the qubit tableau (p = 2, projector (I + (-1)^r P) / 2) use it too.
`MubSet.frame` (all d(d+1) basis vectors as columns) and the stack of
their rank-one projectors, `MubSet.projectors`, are what kernels contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .galois import FieldSpec, field
from .pauli import AbelianSet, PauliOperator, standard_sets
from .tolerances import LOOKUP, SPECTRAL


@dataclass(eq=False)
class Basis:
    """An ordered orthonormal eigenbasis with its provenance."""

    vectors: np.ndarray  # d x d, column j is the j-th basis vector
    labels: tuple[tuple[int, ...], ...]
    provenance: AbelianSet
    generators: tuple[PauliOperator, ...]

    def vector(self, j: int) -> np.ndarray:
        return self.vectors[:, j]


@dataclass(eq=False)
class MubSet:
    field: FieldSpec
    bases: tuple[Basis, ...]

    @property
    def dim(self) -> int:
        return self.field.order

    @cached_property
    def frame(self) -> np.ndarray:
        """frame[:, kappa * d + j] = vector j of basis kappa, read-only."""
        frame = np.concatenate([basis.vectors for basis in self.bases], axis=1)
        frame.flags.writeable = False
        return frame

    @cached_property
    def projectors(self) -> np.ndarray:
        """projectors[kappa, j] = rank-one projector onto vector j of basis
        kappa: one read-only (d+1) x d x d x d stack, built once."""
        v = self.frame.T.reshape(len(self.bases), -1, self.dim)  # v[kappa, j] = vector j
        stack = v[..., :, None] * v.conj()[..., None, :]  # the outer products
        stack.flags.writeable = False
        return stack

    @cached_property
    def z_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(z, z^-1), read-only: vector j of basis 0 is |z[j]> up to phase."""
        z = np.argmax(np.abs(self.bases[0].vectors), axis=0)
        label = np.argsort(z)
        z.flags.writeable = label.flags.writeable = False
        return z, label

    def projector(self, kappa: int, j: int) -> np.ndarray:
        """Read-only view of the projector onto vector j of basis kappa."""
        return self.projectors[kappa, j]


@dataclass(frozen=True)
class UnbiasednessReport:
    max_deviation: float
    worst_pair: tuple[tuple[int, int], tuple[int, int]]


def _fix_phase(v: np.ndarray) -> np.ndarray:
    for x in v:
        if abs(x) > LOOKUP:
            return v * (x.conjugate() / abs(x))
    raise AssertionError("zero vector cannot be phase-normalized")


def joint_eigenvector(generators, label, p: int) -> np.ndarray:
    """The phase-fixed unit vector v with g_i v = w^(m_i) v for dense
    commuting generators g_i and label (m_i), w = exp(2 pi i / p).

    A joint eigenspace of dimension other than one means the generators
    do not form a maximal commuting set and raises.
    """
    d = generators[0].shape[0]
    w = np.exp(2j * np.pi / p)
    proj = np.eye(d, dtype=complex)
    for g, m in zip(generators, label):
        spectral = np.eye(d, dtype=complex)  # the t = 0 term
        power = g
        for t in range(1, p):
            spectral += w ** (-m * t) * power
            power = power @ g
        proj = proj @ (spectral / p)
    if abs(np.trace(proj) - 1.0) > SPECTRAL * 100:
        raise AssertionError(
            f"joint eigenspace for label {tuple(label)} has dimension "
            f"{np.trace(proj).real:.6f}, generators are not maximal commuting"
        )
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    v = proj[:, col]
    return _fix_phase(v / np.linalg.norm(v))


def joint_eigenbasis(s: AbelianSet) -> Basis:
    """Diagonalize a maximal commuting set, labeling vectors by eigenvalues.

    Labels are read off by applying each generator, never from
    diagonalization order, so degeneracy in any single generator is
    harmless.
    """
    gf = s.field
    w = np.exp(2j * np.pi / gf.p)
    gens = s.generators()
    dense = [g.dense for g in gens]
    labels = tuple(itertools.product(range(gf.p), repeat=gf.n))
    columns = []
    for label in labels:
        v = joint_eigenvector(dense, label, gf.p)
        for i, m in enumerate(label):
            if np.linalg.norm(dense[i] @ v - w**m * v) > SPECTRAL:
                raise AssertionError(f"label {label} not reproduced by generator {i}")
        columns.append(v)
    return Basis(np.column_stack(columns), labels, s, gens)


@lru_cache(maxsize=None)
def standard_mub(d: int) -> MubSet:
    """The d+1 bases attached to the standard sets in striation order."""
    gf = field(d)
    return MubSet(gf, tuple(joint_eigenbasis(s) for s in standard_sets(gf)))


def unbiasedness_report(mub: MubSet) -> UnbiasednessReport:
    """Worst absolute deviation of squared overlaps from the MUB pattern
    (1/d across bases, identity within a basis)."""
    d = mub.dim
    worst = 0.0
    worst_pair = ((0, 0), (0, 0))
    n_bases = len(mub.bases)
    for k1 in range(n_bases):
        v1 = mub.bases[k1].vectors
        for k2 in range(k1, n_bases):
            v2 = mub.bases[k2].vectors
            overlaps = np.abs(v1.conj().T @ v2) ** 2
            target = np.eye(d) if k1 == k2 else np.full((d, d), 1.0 / d)
            dev = np.abs(overlaps - target)
            j1, j2 = np.unravel_index(np.argmax(dev), dev.shape)
            if dev[j1, j2] > worst:
                worst = float(dev[j1, j2])
                worst_pair = ((k1, int(j1)), (k2, int(j2)))
    return UnbiasednessReport(worst, worst_pair)
