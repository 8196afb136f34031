"""Wigner values on the discrete grid, and state reconstruction.

Two independent routes to the same numbers exist on purpose: the
production path sums measured basis probabilities along the pencil of
lines through a point, while `wigner_from_point_operators` traces the
state against the net's point operators.  Tests hold the two routes
together; the functions never call each other.

States are accepted when Hermitian, within `trace_slack(d)` of trace one
and with no entry of modulus above STATE_ENTRY_MAX: no such state breaks the
probability and Wigner sum checks.  Positivity is reported, not required: a
non-positive matrix still gives a well-formed (possibly negative) table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PhasePoint
from .mub import MubSet
from .quantum_net import QuantumNet
from .tolerances import SPECTRAL, STATE_ENTRY_MAX, trace_slack


@dataclass(eq=False, frozen=True)
class DensityState:
    """A d x d Hermitian, trace-one matrix with no entry of modulus above
    STATE_ENTRY_MAX; kind records its origin.

    Immutable: rho is a read-only copy of the input, so the probability
    table memoized per basis set can never go stale.
    """

    rho: np.ndarray
    kind: str = "mixed"  # "pure" | "mixed"
    # ProbabilityTable per MubSet (identity-keyed, MubSet is eq=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)  # a copy: never freeze the caller's array
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        d = rho.shape[0]
        if rho.shape != (d, d):
            raise ValueError(f"state matrix must be square, got {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("state matrix has non-finite entries")
        with np.errstate(over="ignore"):  # |re + i im| of huge finite parts is inf
            largest = np.abs(rho).max(initial=0.0)
        if largest > STATE_ENTRY_MAX:
            raise ValueError(
                f"state matrix has an entry of modulus {largest:.3g}, above {STATE_ENTRY_MAX:.3g}"
            )
        if np.linalg.norm(rho - rho.conj().T) > SPECTRAL:
            raise ValueError("state matrix is not Hermitian")
        if abs(np.trace(rho) - 1.0) > trace_slack(d):
            raise ValueError(f"state trace is {np.trace(rho).real:.15f}, not 1")

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
    f = mub.frame
    values = np.einsum("ij,ik,kj->j", f.conj(), rho.rho, f).real.reshape(-1, mub.dim).copy()
    values.flags.writeable = False  # memoized per state and shared by every reader
    return ProbabilityTable(values)


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
    mub = net.context.mub
    table = rho._tables.get(mub)
    if table is None:
        table = rho._tables[mub] = probabilities(rho, mub)
    pencil_sum = table.values.ravel()[net.rows].sum(axis=0)
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
