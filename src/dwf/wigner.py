"""Wigner values on the discrete grid, and state reconstruction.

Two independent routes to the same numbers exist on purpose: the
production path sums measured basis probabilities along the pencil of
lines through a point, while `wigner_from_point_operators` traces the
state against the net's point operators.  Tests hold the two routes
together; the functions never call each other.

States are accepted whenever they are Hermitian with unit trace.
Positivity is reported, not required: a matrix can fail positivity and
still produce a perfectly well-formed (possibly negative) Wigner table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PhasePoint
from .mub import MubSet
from .quantum_net import QuantumNet
from .tolerances import SPECTRAL


@dataclass(eq=False)
class DensityState:
    """A d x d Hermitian, trace-one matrix; kind records its origin."""

    rho: np.ndarray
    kind: str = "mixed"  # "pure" | "mixed"

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        d = self.rho.shape[0]
        if self.rho.shape != (d, d):
            raise ValueError(f"state matrix must be square, got {self.rho.shape}")
        if not np.isfinite(self.rho).all():
            raise ValueError("state matrix has non-finite entries")
        if np.linalg.norm(self.rho - self.rho.conj().T) > SPECTRAL:
            raise ValueError("state matrix is not Hermitian")
        if abs(np.trace(self.rho) - 1.0) > SPECTRAL:
            raise ValueError(f"state trace is {np.trace(self.rho):.12f}, not 1")

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def min_eigenvalue(self) -> float:
        """Most negative eigenvalue; negative values flag a non-physical
        input, which is allowed everywhere in this package."""
        return float(np.linalg.eigvalsh(self.rho)[0])

    @classmethod
    def from_vector(cls, amplitudes) -> "DensityState":
        v = np.asarray(amplitudes, dtype=complex)
        if not np.isfinite(v).all():
            raise ValueError("amplitudes must be finite")
        # scale by the largest modulus first, so the norm neither overflows
        # nor underflows; only the exact zero vector has no direction
        largest = np.abs(v).max(initial=0.0)
        if largest == 0.0:
            raise ValueError("cannot normalize the zero vector")
        v = v.real / largest + 1j * (v.imag / largest)  # real division: no overflow
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), kind="pure")

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityState":
        return cls(np.eye(d) / d, kind="mixed")

    @classmethod
    def random_pure(cls, d: int, rng: np.random.Generator) -> "DensityState":
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return cls.from_vector(v)

    @classmethod
    def random_mixed(cls, d: int, rng: np.random.Generator) -> "DensityState":
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return cls(m / np.trace(m), kind="mixed")


@dataclass(eq=False)
class ProbabilityTable:
    """values[kappa, j] = <phi_j^kappa| rho |phi_j^kappa>, rows sum to one."""

    values: np.ndarray  # (d+1) x d, real

    def __post_init__(self):
        sums = self.values.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > SPECTRAL:
            raise ValueError(f"striation sums deviate from 1 by {np.max(np.abs(sums - 1)):.3e}")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def minima(self) -> np.ndarray:
        """Smallest probability in each striation."""
        return self.values.min(axis=1)

    def argmin_choices(self) -> tuple[int, ...]:
        """Per striation, the lowest projector index achieving the minimum."""
        return tuple(int(j) for j in self.values.argmin(axis=1))


def probabilities(rho: DensityState, mub: MubSet) -> ProbabilityTable:
    """Measurement distribution of the state over every basis."""
    if rho.dim != mub.dim:
        raise ValueError(f"state dimension {rho.dim} != basis dimension {mub.dim}")
    rows = []
    for basis in mub.bases:
        v = basis.vectors
        rows.append(np.einsum("ij,ik,kj->j", v.conj(), rho.rho, v).real)
    return ProbabilityTable(np.array(rows))


@dataclass(eq=False)
class WignerTable:
    """values[q_index, p_index]; normalized to one, real by construction."""

    values: np.ndarray
    net: QuantumNet

    def __post_init__(self):
        if abs(self.values.sum() - 1.0) > SPECTRAL:
            raise ValueError(f"Wigner table sums to {self.values.sum():.12f}")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def value(self, point: PhasePoint) -> float:
        return float(self.values[point.q.index, point.p.index])

    def min(self) -> float:
        return float(self.values.min())


def wigner_function(rho: DensityState, net: QuantumNet) -> WignerTable:
    """Wigner values from basis probabilities: at each point, the pencil sum
    of assigned-line probabilities minus one, over d."""
    d = net.dim
    if rho.dim != d:
        raise ValueError(f"state dimension {rho.dim} != net dimension {d}")
    table = probabilities(rho, net.context.mub).values
    pencil_sum = table[np.arange(d + 1)[:, None], net.pencil].sum(axis=0)
    return WignerTable(((pencil_sum - 1.0) / d).reshape(d, d), net)


def wigner_from_point_operators(rho: DensityState, net: QuantumNet) -> np.ndarray:
    """Independent route: trace the state against each point operator."""
    d = net.dim
    return np.einsum("xy,ayx->a", rho.rho, net.point_operator_table()).real.reshape(d, d)


def reconstruct_state(table: WignerTable) -> DensityState:
    """Invert the Wigner map: rho = d * sum_alpha W_alpha A(alpha)."""
    ops = table.net.point_operator_table()
    return DensityState(table.dim * np.tensordot(table.values.ravel(), ops, axes=1), kind="mixed")


def line_probability(rho: DensityState, net: QuantumNet, line) -> float:
    """Expectation of the projector the net assigns to a line."""
    kappa, j = net.projector_index(line)
    return float(np.trace(rho.rho @ net.context.mub.projector(kappa, j)).real)
