"""Wigner values on the discrete grid, and state reconstruction.

Two independent routes to the same numbers exist on purpose: the
production path sums measured basis probabilities along the pencil of
lines through a point, while `wigner_from_point_operators` traces the
state against the net's point operators.  Tests hold the two routes
together; the functions never call each other.

Every net's table is a sum of the same (d+1) x d probabilities (Gibbons,
Hoffman and Wootters), so a state memoizes its probability table per
basis set.  One producer, `_pencil_scan`, sums that table point-major into
the tables of every net a pencil holds, or, under a bound, of the nets that
hold its least values (`classicality.classify`'s witnesses, memoized
nowhere).  At d <= ENUMERATION_MAX_DIM the state memoizes its scan per
net context: the Wigner values of all d^(d+1) nets at once, read one row
per net in `QuantumNet.scan_index` order, where `wigner_function` looks up
the net's row; above it, the producer runs on the one net's pencil.
Tables are read-only at every d.

The producer checks that every table sums to one and computes every
table's minimum, so a `WignerTable` does no reduction of its own.  A
scan's minima are memoized next to it (`net_minima`); reading a table
from it then reduces nothing.

States are accepted when Hermitian, within `trace_slack(d)` of trace one
and with no entry of modulus above STATE_ENTRY_MAX: no such state breaks the
probability and Wigner sum checks.  Positivity is reported, not required: a
non-positive matrix still gives a well-formed (possibly negative) table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import PhasePoint, build_striations
from .mub import MubSet
from .quantum_net import ENUMERATION_MAX_DIM, NetContext, QuantumNet, net_context, net_count
from .tolerances import SPECTRAL, STATE_ENTRY_MAX, trace_slack


@dataclass(eq=False, frozen=True)
class DensityState:
    """A d x d Hermitian, trace-one matrix with no entry of modulus above
    STATE_ENTRY_MAX; kind records its origin.

    Immutable: rho is a read-only copy of the input, so the probability
    table memoized per basis set and the scan memoized per net context
    can never go stale.
    """

    rho: np.ndarray
    kind: str = "mixed"  # "pure" | "mixed"
    # ProbabilityTable per MubSet (identity-keyed, MubSet is eq=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False)
    # read-only (scan, per-net minima) per NetContext (identity-keyed),
    # d <= ENUMERATION_MAX_DIM only
    _scans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)  # a copy: never freeze the caller's array
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        d = rho.shape[0] if rho.ndim else 0
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

    @classmethod
    def from_vector(cls, amplitudes) -> "DensityState":
        v = np.asarray(amplitudes, dtype=complex)
        if v.ndim != 1:  # np.outer would flatten a matrix into a vector
            raise ValueError("amplitudes must be a 1-D vector")
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


def probabilities(rho: DensityState, mub: MubSet) -> ProbabilityTable:
    """Measurement distribution of the state over every basis."""
    if rho.dim != mub.dim:
        raise ValueError(f"state dimension {rho.dim} != basis dimension {mub.dim}")
    f = mub.frame
    values = np.einsum("ij,ik,kj->j", f.conj(), rho.rho, f).real.reshape(-1, mub.dim).copy()
    values.flags.writeable = False  # memoized per state and shared by every reader
    return ProbabilityTable(values)


@dataclass(eq=False, slots=True)
class WignerTable:
    """values[q_index, p_index]; normalized to one, real by construction.

    Built only by `wigner_function` from a row of `_pencil_scan`, which
    has checked the sum and computed the minimum."""

    values: np.ndarray
    net: QuantumNet
    minimum: float  # values.min(), from the producer

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def value(self, point: PhasePoint) -> float:
        return float(self.values[point.q.index, point.p.index])

    def min(self) -> float:
        return float(self.minimum)


def _table(rho: DensityState, mub: MubSet) -> ProbabilityTable:
    """The state's memoized probability table, computed on a miss."""
    table = rho._tables.get(mub)
    if table is None:
        table = rho._tables[mub] = probabilities(rho, mub)
    return table


def _pencil_scan(probs: np.ndarray, pencil: np.ndarray, keep: int | None = None):
    """(values[i, q, p], minima[i], nets[i]): the read-only Wigner values and
    minimum and the scan index of every net of a pencil[kappa, alpha, r] of
    c ray choices (base-c digits, first most significant), from a (d+1) x d
    probability table.  Raises on the table whose sum strays furthest from one.

    The sums grow one striation at a time, point-major, so every reduction
    runs along the leading axis: striation kappa opens axis r_kappa and adds
    the probability of the line through alpha that ray r_kappa assigns, the
    order in which a per-net gather sums them: each net's values equal it.
    A bound keeps the first `keep` prefixes by (least value, prefix) per step.
    Float addition is monotone, so a prefix's smallest sum ended with each
    later striation's least probability is the least value of its nets, one
    of which attains it in a pencil of all d choices: a dropped prefix's
    (net, point) pairs sort after the `keep` least of the kept nets."""
    d, choices = probs.shape[1], np.arange(pencil.shape[2])
    nets, values = choices, probs[0, pencil[0]]  # values[alpha, prefix]
    for kappa in range(1, d + 1):
        if keep is not None and len(nets) > keep:
            least = values.min(axis=0)
            for smallest in probs[kappa:].min(axis=1):
                least += smallest
            kept = np.lexsort((nets, (least - 1.0) / d))[:keep]
            nets, values = nets[kept], values.take(kept, axis=1)  # C order: [:, kept] would make the reshape copy
        values = (values[:, :, None] + probs[kappa, pencil[kappa]][:, None, :]).reshape(d * d, -1)
        nets = (nets[:, None] * len(choices) + choices).ravel()
    values -= 1.0
    values /= d
    sums = values.sum(axis=0)
    worst = np.abs(sums - 1.0).argmax()
    if abs(sums[worst] - 1.0) > SPECTRAL:
        raise ValueError(f"Wigner table sums to {sums[worst]:.12f}")
    minima = values.min(axis=0)
    values = values.T.reshape(-1, d, d)  # a view, one row per net
    values.flags.writeable = minima.flags.writeable = False  # memoized per state, shared by every reader
    return values, minima, nets


def _scan(rho: DensityState, ctx: NetContext) -> tuple[np.ndarray, np.ndarray]:
    """The state's memoized `_pencil_scan` values and minima over the nets of
    ctx, one row per net in `QuantumNet.scan_index` order, built on a miss."""
    memo = rho._scans.get(ctx)
    if memo is None:
        memo = rho._scans[ctx] = _pencil_scan(_table(rho, ctx.mub).values, ctx.pencil)[:2]
    return memo


def net_minima(rho: DensityState, mub: MubSet) -> np.ndarray:
    """Each net's smallest Wigner value, minima[r_0, ..., r_d]: the state's
    memoized minima of its scan over the standard nets of mub, read-only.
    Refused above ENUMERATION_MAX_DIM."""
    d = mub.dim
    if d > ENUMERATION_MAX_DIM:
        raise ValueError(
            f"brute force over {net_count(d)} nets at d={d} is not supported; use min_wigner"
        )
    return _scan(rho, net_context(mub, build_striations(mub.field)))[1].reshape((d,) * (d + 1))


def wigner_function(rho: DensityState, net: QuantumNet) -> WignerTable:
    """Wigner values from basis probabilities: at each point, the pencil sum
    of assigned-line probabilities minus one, over d.  Read-only: a row of
    `_pencil_scan`, of the state's memoized scan at d <= ENUMERATION_MAX_DIM
    (once it exists, a table is one lookup at `net.scan_index` and checks
    nothing), of the net's own pencil above."""
    memo = rho._scans.get(net.context)
    if memo is None:
        d = net.dim
        if rho.dim != d:
            raise ValueError(f"state dimension {rho.dim} != net dimension {d}")
        if d > ENUMERATION_MAX_DIM:
            values, minima, _ = _pencil_scan(_table(rho, net.context.mub).values, net.pencil[:, :, None])
            return WignerTable(values[0], net, minima[0])
        memo = _scan(rho, net.context)
    values, minima = memo
    return WignerTable(values[net.scan_index], net, minima[net.scan_index])


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
