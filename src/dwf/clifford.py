"""Clifford-group verification and synthesis.

Membership is checked by conjugating the stack of all 2n translation
generators at once, u G u~, and matching every image against the scaled
translation catalogue in one product with its flattened conjugate;
success yields the symplectic table over Z_p plus per-generator phase
exponents.  The generator stack and the catalogue are built once per
field and are read-only, as are the cached squeezing and Fourier results.

Synthesis goes the other way.  Given commuting tuples M_1..M_n and
N_1..N_n with symplectic pairing delta_ij, the unitary sending M_i to Z_i
and N_i to X_i is written down directly: take the joint +1 eigenvector of
the M_i as column zero and generate the remaining columns with products of
the N_i.  The syndrome construction reduces an arbitrary pair of maximal
commuting sets with trivial intersection to exactly this situation, and a
symplectic table F reduces to it through the pairs T(F(0|e_i)), T(F(e_i|0)).

The discrete squeezing operator and the finite Fourier transform are both
obtained this way; the stabilizer tableau at the bottom cross-validates
generator-level circuits against dense simulation for qubit registers.

Primitives come from the layers below: mod-p rank and inverse from
`galois`, index <-> digit maps from the field (element(z).coords,
from_coords), the spectral projection to a phase-fixed vector from
`mub.joint_eigenvector` and the X-type basis from `mub.standard_mub`.
One monomial test, `_extract_permutation`, takes stacks only: it decides
all (d+1)^2 basis-pair blocks of one overlap product V2~ u V1 for
`maps_mub_to_mub`, and [u, W~ u W] in one call for `affine_extraction`,
whose certificate U|z> = e^(i(2 pi/p c.z + delta)) |A z + b> is read
straight off the permutation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .galois import FieldSpec, inverse_mod_p, rank_mod_p
from .mub import MubSet, joint_eigenvector, standard_mub
from .pauli import PauliOperator, AbelianSet, symplectic_product
from .tolerances import LOOKUP, SPECTRAL


# ---------------------------------------------------------------------------
# small mod-p linear algebra
# ---------------------------------------------------------------------------

def _symplectic_form(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n), dtype=np.int64)
    j[:n, n:] = np.eye(n, dtype=np.int64)
    j[n:, :n] = -np.eye(n, dtype=np.int64)
    return j


def is_symplectic_table(f: np.ndarray, p: int) -> bool:
    n = f.shape[0] // 2
    j = _symplectic_form(n)
    return np.array_equal((f.T @ j @ f) % p, j % p)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

@dataclass(eq=False, frozen=True)
class SymplecticClifford:
    """Symplectic table + phase corrections certifying U T(v) U~ = phase T(Fv)."""

    field: FieldSpec
    symplectic: np.ndarray  # 2n x 2n over Z_p, columns ordered X_1..X_n, Z_1..Z_n
    phase_exponents: tuple[int, ...]  # per generator, exponent of the phase unit
    dense: np.ndarray | None = None

    def __bool__(self) -> bool:
        return True


@dataclass(eq=False)
class NotClifford:
    witness: PauliOperator
    deficit: float

    def __bool__(self) -> bool:
        return False


@lru_cache(maxsize=None)
def generator_operators(gf: FieldSpec) -> tuple[PauliOperator, ...]:
    """X_1..X_n then Z_1..Z_n as canonical translations."""
    units, zero = np.eye(gf.n, dtype=np.int64), (0,) * gf.n
    xs = tuple(PauliOperator(gf, e, zero) for e in units)
    return xs + tuple(PauliOperator(gf, zero, e) for e in units)


@lru_cache(maxsize=None)
def _translation_catalogue(gf: FieldSpec):
    """Read-only (labels, conj_flat, generators): row k of labels (d^2 x 2n)
    labels translation k, row k of conj_flat (d^2 x d^2) is its conjugated
    dense matrix raveled, and generators (2n x d x d) stacks the dense
    generator_operators."""
    n, d = gf.n, gf.order
    labels = np.array(list(itertools.product(range(gf.p), repeat=2 * n)), dtype=np.int64)
    dense = np.stack([PauliOperator(gf, l[:n], l[n:]).dense for l in labels])
    catalogue = (
        labels,
        dense.reshape(d * d, d * d).conj(),
        np.stack([g.dense for g in generator_operators(gf)]),
    )
    for table in catalogue:
        table.flags.writeable = False
    return catalogue


def _match_translation(gf: FieldSpec, ops: np.ndarray):
    """Match a stack of operators, (count, d, d) or raveled (count, d^2),
    against the catalogue in one product: label rows, phases and deficits
    1 - |phase| per operator, unfiltered.  Where a deficit is <= LOOKUP,
    op = phase * T(label).
    """
    labels, conj_flat, _ = _translation_catalogue(gf)
    d = gf.order
    coeffs = ops.reshape(len(ops), d * d) @ conj_flat.T / d
    best = np.argmax(np.abs(coeffs), axis=-1)
    phases = np.take_along_axis(coeffs, best[..., None], axis=-1)[..., 0]
    return labels[best], phases, 1.0 - np.abs(phases)


def _phase_to_exponent(gf: FieldSpec, phase: complex) -> int:
    order = 4 if gf.p == 2 else gf.p
    k = int(round(np.angle(phase) / (2 * np.pi / order))) % order
    if abs(phase - np.exp(2j * np.pi * k / order)) > LOOKUP * 100:
        raise AssertionError(f"phase {phase} is not a unit root of order {order}")
    return k


def is_clifford(u: np.ndarray, gf: FieldSpec):
    """SymplecticClifford if conjugation maps every generator to a scaled
    translation, else NotClifford carrying the first failing generator."""
    d = gf.order
    if u.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} matrix, got {u.shape}")
    # huge finite entries make u u~ overflow to NaN, which only a <= test rejects
    with np.errstate(over="ignore", invalid="ignore"):
        unitary = np.linalg.norm(u @ u.conj().T - np.eye(d)) <= SPECTRAL * 100
    if not (np.isfinite(u).all() and unitary):
        raise ValueError("input matrix is not unitary")
    generators = _translation_catalogue(gf)[2]
    labels, phases, deficits = _match_translation(gf, u @ generators @ u.conj().T)
    exponents = []
    for col, g in enumerate(generator_operators(gf)):
        if deficits[col] > LOOKUP:
            return NotClifford(g, deficits[col])
        exponents.append(_phase_to_exponent(gf, phases[col]))
    table = labels.T.copy()
    if not is_symplectic_table(table, gf.p):
        raise AssertionError("conjugation table does not preserve the symplectic form")
    return SymplecticClifford(gf, table, tuple(exponents), dense=u)


def _shared(result: SymplecticClifford) -> SymplecticClifford:
    """Freeze the arrays of a result that every caller receives."""
    result.symplectic.flags.writeable = False
    result.dense.flags.writeable = False
    return result


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def synthesize_from_pairs(
    ms: tuple[PauliOperator, ...], ns: tuple[PauliOperator, ...]
) -> np.ndarray:
    """The unitary C with C M_i C~ = Z_i and C N_i C~ = X_i exactly.

    Requires pairwise commuting ms, pairwise commuting ns and the pairing
    symplectic(N_i, M_j) = delta_ij; all three are checked.
    """
    gf = ms[0].field
    d = gf.order
    n = len(ms)
    gram = np.array([[symplectic_product(a, b) for b in ms + ns] for a in ms + ns])
    if gram[:n, :n].any():
        raise ValueError("ms do not commute")
    if gram[n:, n:].any():
        raise ValueError("ns do not commute")
    if not np.array_equal(gram[n:, :n], np.eye(n)):
        raise ValueError("pairing of ns against ms is not the identity")
    psi0 = joint_eigenvector([m.dense for m in ms], (0,) * gf.n, gf.p)
    columns = np.zeros((d, d), dtype=complex)
    for z in range(d):
        v = psi0
        for i, digit in enumerate(gf.element(z).coords):
            for _ in range(digit):
                v = ns[i].dense @ v
        columns[:, z] = v
    return columns.conj().T


@dataclass(eq=False)
class SyndromeData:
    generators: tuple[PauliOperator, ...]
    partners: tuple[PauliOperator, ...]


def syndrome_standard_pairs(s: AbelianSet, t: AbelianSet) -> SyndromeData:
    """Pick N_i in t with syndrome e_i against the generators M_i of s.

    The syndrome of N is the vector of symplectic products against the
    M_i.  With h_k the generators of t, the n x n syndrome matrix
    S[k, i] = <h_k, M_i> is invertible exactly when s and t intersect
    trivially, and row j of S^-1 holds the exponents of N_j = prod_k h_k^x.
    """
    gf = s.field
    ms, hs = s.generators(), t.generators()
    syndrome = [[symplectic_product(h, m) for m in ms] for h in hs]
    try:
        exponents = inverse_mod_p(syndrome, gf.p)
    except ValueError:
        raise ValueError("sets intersect nontrivially; no standardization exists") from None
    labels = exponents @ np.array([h.label for h in hs]) % gf.p
    return SyndromeData(ms, tuple(PauliOperator(gf, l[:gf.n], l[gf.n:]) for l in labels))


def standardize_pair(s: AbelianSet, t: AbelianSet) -> SymplecticClifford:
    """The Clifford sending s onto the Z-type set and t onto the X-type set."""
    gf = s.field
    data = syndrome_standard_pairs(s, t)
    c = synthesize_from_pairs(data.generators, data.partners)
    # generator_operators lists X_1..X_n, then Z_1..Z_n
    for source, target in zip(data.partners + data.generators, generator_operators(gf)):
        if np.linalg.norm(c @ source.dense @ c.conj().T - target.dense) > LOOKUP:
            raise AssertionError(f"standardization failed to map {source} onto {target}")
    result = is_clifford(c, gf)
    if not result:
        raise AssertionError("synthesized standardizer is not Clifford")
    return result


def clifford_from_symplectic(f: np.ndarray, gf: FieldSpec) -> SymplecticClifford:
    """A unitary realizing a symplectic table with all-positive generator
    phases: U T(v) U~ = T(Fv) exactly for v among the 2n generators."""
    p, n = gf.p, gf.n
    f = np.array(f, dtype=np.int64) % p
    if not is_symplectic_table(f, p):
        raise ValueError("table does not preserve the symplectic form mod p")
    # column n + i of F is the image label of Z_i, column i that of X_i
    ms = tuple(PauliOperator(gf, f[:n, n + i], f[n:, n + i]) for i in range(n))
    ns = tuple(PauliOperator(gf, f[:n, i], f[n:, i]) for i in range(n))
    u = synthesize_from_pairs(ms, ns).conj().T
    result = is_clifford(u, gf)
    if not result or not np.array_equal(result.symplectic, f):
        raise AssertionError("synthesis did not reproduce the requested table")
    return result


@lru_cache(maxsize=None)
def squeezing_operator(gf: FieldSpec) -> SymplecticClifford:
    """The unitary with conjugation action T(q, p) -> +/- T(Mq, M~^-1 p).

    It fixes the vertical and horizontal striation sets and cycles the
    oblique ones.  Trivial for n = 1 (the table is scalar), hence refused.
    Built once per field; the result and its arrays are shared, read-only.
    """
    if gf.n < 2:
        raise ValueError("squeezing needs an extension field (n >= 2)")
    m = gf.companion
    zero = np.zeros_like(m)
    f = np.block([[m, zero], [zero, inverse_mod_p(m.T, gf.p)]])
    return _shared(clifford_from_symplectic(f, gf))


@lru_cache(maxsize=None)
def _reflection_form_basis(gf: FieldSpec) -> tuple:
    """A basis orthonormal for the pairing (x, y) -> first coordinate of
    x*y, the bilinear form induced by the point-operator labeling."""
    ell = lambda x: x.coords[0]
    nonzero = gf.elements[1:]
    for cand in itertools.permutations(nonzero, gf.n):
        if rank_mod_p([e.coords for e in cand], 2) < gf.n:
            continue
        if all(
            ell(cand[i] * cand[j]) == (1 if i == j else 0)
            for i in range(gf.n)
            for j in range(i, gf.n)
        ):
            return cand
    raise AssertionError("no orthonormal basis for the labeling form")


@lru_cache(maxsize=None)
def fourier_operator(gf: FieldSpec) -> SymplecticClifford:
    """The finite Fourier transform compatible with the labeling: the
    matrix (-1)^(first coordinate of y'*y) / sqrt(d), which is the tensor
    Hadamard written in coordinates self-dual for the labeling form.

    Its conjugation action reflects translation labels across the main
    diagonal of phase space, up to recorded signs.  Characteristic 2 only.
    Built once per field; the result and its arrays are shared, read-only.
    """
    if gf.p != 2:
        raise ValueError("the Fourier construction is only supported for p = 2")
    signs = np.array([[(x * y).coords[0] for y in gf.elements] for x in gf.elements])
    result = is_clifford((-1.0) ** signs / np.sqrt(gf.order), gf)
    if not result:
        raise AssertionError("Fourier matrix failed the Clifford check")
    return _shared(result)


def hadamard_in_chart(gf: FieldSpec) -> np.ndarray:
    """Tensor Hadamard conjugated into the labeling-form self-dual chart;
    equals the Fourier matrix (used as an independent construction)."""
    basis = _reflection_form_basis(gf)
    d, n = gf.order, gf.n
    mat = np.array([e.coords for e in basis], dtype=np.int64)
    inv = inverse_mod_p(mat.T, 2)
    v = np.zeros((d, d))
    for z in range(d):
        chart = inv @ np.array(gf.element(z).coords)
        v[gf.from_coords(chart).index, z] = 1.0
    return v.T @ reduce(np.kron, [_H] * n) @ v


# ---------------------------------------------------------------------------
# MUB images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MubMapResult:
    is_map: bool
    permutation: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.is_map


def maps_mub_to_mub(u: np.ndarray, b1: MubSet, b2: MubSet) -> MubMapResult:
    """Does conjugation by u send every basis of b1 onto a basis of b2
    (as unordered sets of rays)?  Returns the striation permutation.

    One overlap product V2~ u V1 of the two frames (`MubSet.frame`) holds
    every basis pair as a d x d block; the monomial test decides all blocks at
    once, and each source basis takes its first passing target.
    """
    if b1.dim != b2.dim:
        raise ValueError("basis sets live in different dimensions")
    d = b1.dim
    overlap = b2.frame.conj().T @ (u @ b1.frame)
    # blocks[k1, k2] = V2[k2]~ u V1[k1]
    blocks = overlap.reshape(len(b2.bases), d, len(b1.bases), d).transpose(2, 0, 1, 3)
    _, bad, _ = _extract_permutation(blocks)
    passes = bad < 0
    if not passes.any(axis=1).all():
        return MubMapResult(False, None)
    perm = tuple(int(k2) for k2 in np.argmax(passes, axis=1))
    if len(set(perm)) != len(b1.bases):
        return MubMapResult(False, None)
    return MubMapResult(True, perm)


# ---------------------------------------------------------------------------
# basis-preserving unitaries and their affine certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineData:
    """Certificate: U|z> = exp(i(2 pi/p c.z + phase)) |A z + b>."""

    a_matrix: np.ndarray
    b_shift: tuple[int, ...]
    c_phase: tuple[int, ...]
    global_phase: float

    def predicted_column(self, gf: FieldSpec, z: int) -> tuple[int, complex]:
        """(row, phase) of column z of U: U|z> = phase |row>."""
        zd = np.array(gf.element(z).coords, dtype=np.int64)
        image = self.a_matrix @ zd + np.array(self.b_shift, dtype=np.int64)
        angle = 2 * np.pi / gf.p * int(np.dot(self.c_phase, zd)) + self.global_phase
        return gf.from_coords(image).index, np.exp(1j * angle)


@dataclass(frozen=True)
class NotBasisPreserving:
    basis: str  # "Z" or "X"
    state_index: int
    leak: float

    def __bool__(self) -> bool:
        return False


def _extract_permutation(u: np.ndarray):
    """The monomial test on a stack (..., d, d): is each matrix a
    permutation matrix with phases?  Each column's leak (norm off its
    largest entry) must be <= LOOKUP and the largest entries must sit in
    distinct rows.  Returns ((perms, phases), bad, leaks) as arrays over
    the leading axes: perms[..., z] is the row of column z's peak, and
    bad = -1, leak = 0.0 exactly where a matrix passes; elsewhere bad is
    the failing column and leak its leak.
    """
    *lead, d, _ = u.shape
    flat = u.reshape(-1, d, d)
    stack, cols = np.arange(len(flat))[:, None], np.arange(d)
    weight = flat.real**2 + flat.imag**2
    perm = np.argmax(weight, axis=1)
    # zero each column's peak, then take the norm of the rest
    weight[stack, perm, cols] = 0.0
    leaks = np.sqrt(weight.sum(axis=1))
    distinct = (np.sort(perm, axis=1) == cols).all(axis=1)
    leaky = leaks > LOOKUP
    has_leak = leaky.any(axis=1)
    first = np.argmax(leaky, axis=1)
    bad = np.where(has_leak, first, np.where(distinct, -1, perm[:, 0]))
    leak = np.where(has_leak, leaks[stack[:, 0], first], np.where(distinct, 0.0, 1.0))
    phases = np.angle(flat[stack, perm, cols])
    return (perm.reshape(*lead, d), phases.reshape(*lead, d)), bad.reshape(lead), leak.reshape(lead)


def affine_extraction(u: np.ndarray, gf: FieldSpec):
    """AffineData when u preserves both the computational and the X-type
    bases (up to phases), else NotBasisPreserving naming the failure, the
    Z basis first.  The certificate is read straight off the permutation
    z -> A z + b of the computational basis."""
    p, n, d = gf.p, gf.n, gf.order
    w = standard_mub(d).bases[1].vectors
    (perms, phase_rows), bad, leaks = _extract_permutation(np.stack([u, w.conj().T @ u @ w]))
    for basis, col, leak in zip("ZX", bad.tolist(), leaks.tolist()):
        if col >= 0:
            return NotBasisPreserving(basis, col, leak)
    perm, phases = perms[0], phase_rows[0]

    # row z of coords is the digit vector of index z; index p^i is unit vector e_i
    coords = np.array([e.coords for e in gf.elements], dtype=np.int64)
    units = p ** np.arange(n)
    b = coords[perm[0]]
    a = (coords[perm[units]] - b).T % p
    # perm is a bijection, so agreeing with it also proves A invertible
    if [gf.from_coords(v).index for v in coords @ a.T + b] != perm.tolist():
        raise AssertionError("basis-preserving map is not affine; internal error")

    delta = float(phases[0])
    c = np.round((phases[units] - delta) / (2 * np.pi / p)).astype(np.int64) % p
    predicted = np.exp(1j * (2 * np.pi / p * (coords @ c) + delta))
    if np.max(np.abs(np.exp(1j * phases) - predicted)) > LOOKUP * 100:
        raise AssertionError("basis-preserving phases are not affine; internal error")
    return AffineData(a, tuple(int(x) for x in b), tuple(int(x) for x in c), delta)


# ---------------------------------------------------------------------------
# stabilizer tableau (qubit registers, independent of the field machinery)
# ---------------------------------------------------------------------------

GATE_NAMES = ("H", "S", "CNOT")

_PAULI_1Q = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def _row_dense(xbits, zbits, r_bit: int) -> np.ndarray:
    """(-1)^r times the Hermitian Pauli string with the given bits, qubit 0
    on the least significant index digit."""
    factors = [_PAULI_1Q[(int(xb), int(zb))] for xb, zb in zip(xbits, zbits)]
    return (-1.0) ** r_bit * reduce(np.kron, list(reversed(factors)))


@dataclass(eq=False)
class StabilizerTableau:
    """n stabilizer generators as rows of X/Z bit matrices plus sign bits.

    Row i represents (-1)^r[i] times the Hermitian Pauli string with bits
    (x[i], z[i]).  Supports up to 8 qubits; dense reconstruction is meant
    for small n.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    r: np.ndarray

    @classmethod
    def zero_state(cls, n: int) -> "StabilizerTableau":
        if not 1 <= n <= 8:
            raise ValueError("tableau supports 1 to 8 qubits")
        return cls(
            n,
            np.zeros((n, n), dtype=np.uint8),
            np.eye(n, dtype=np.uint8),
            np.zeros(n, dtype=np.uint8),
        )

    @classmethod
    def from_rows(cls, n: int, rows) -> "StabilizerTableau":
        """rows: (xbits, zbits, sign) triples with sign in {+1, -1}."""
        if len(rows) != n:
            raise ValueError(f"need exactly {n} stabilizer generators")
        x = np.zeros((n, n), dtype=np.uint8)
        z = np.zeros((n, n), dtype=np.uint8)
        r = np.zeros(n, dtype=np.uint8)
        for i, (xbits, zbits, sign) in enumerate(rows):
            if sign not in (1, -1):
                raise ValueError("stabilizer signs must be +1 or -1")
            x[i] = [int(b) % 2 for b in xbits]
            z[i] = [int(b) % 2 for b in zbits]
            r[i] = 0 if sign == 1 else 1
        if rank_mod_p(np.concatenate([x, z], axis=1), 2) != n:
            raise ValueError("stabilizer generators are not independent")
        for i in range(n):
            for j in range(i + 1, n):
                if (int(x[i] @ z[j]) - int(z[i] @ x[j])) % 2:
                    raise ValueError("stabilizer generators do not commute")
        return cls(n, x, z, r)

    def apply_gate(self, name: str, *qubits: int) -> None:
        if name not in GATE_NAMES:
            raise ValueError(f"unknown gate {name!r}; supported: {GATE_NAMES}")
        expected = 2 if name == "CNOT" else 1
        if len(qubits) != expected or any(not 0 <= q < self.n for q in qubits):
            raise ValueError(f"gate {name} takes {expected} qubit index(es) in [0, {self.n})")
        x, z, r = self.x, self.z, self.r
        if name == "H":
            (q,) = qubits
            r ^= x[:, q] & z[:, q]
            x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
        elif name == "S":
            (q,) = qubits
            r ^= x[:, q] & z[:, q]
            z[:, q] ^= x[:, q]
        else:
            a, b = qubits
            if a == b:
                raise ValueError("CNOT needs distinct control and target")
            r ^= x[:, a] & z[:, b] & (x[:, b] ^ z[:, a] ^ 1)
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]

    def rows(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
        return tuple(
            (
                tuple(int(b) for b in self.x[i]),
                tuple(int(b) for b in self.z[i]),
                -1 if self.r[i] else 1,
            )
            for i in range(self.n)
        )

    def state_vector(self) -> np.ndarray:
        """The stabilized state: the joint eigenvector of the unsigned rows
        with eigenvalue (-1)^r[i], phase-fixed like the MUB vectors."""
        rows = [_row_dense(xbits, zbits, 0) for xbits, zbits in zip(self.x, self.z)]
        return joint_eigenvector(rows, self.r.astype(int), 2)


def tableau_apply(circuit, n: int, initial=None) -> StabilizerTableau:
    """Run a {H, S, CNOT} circuit on a stabilizer state (default |0..0>).

    The circuit is a sequence of (name, *qubits) tuples; anything else is
    rejected before any gate is applied.  Qubit registers only, n <= 8.
    """
    ops = []
    for step, gate in enumerate(circuit):
        if not isinstance(gate, (tuple, list)) or not gate:
            raise ValueError(f"circuit step {step} is not a (name, qubits...) tuple")
        ops.append((str(gate[0]).upper(), tuple(int(q) for q in gate[1:])))
    tab = (
        StabilizerTableau.zero_state(n)
        if initial is None
        else StabilizerTableau.from_rows(n, initial)
    )
    for name, qubits in ops:
        tab.apply_gate(name, *qubits)
    return tab


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
_S = np.diag([1.0, 1j])


def _embed(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    return reduce(
        np.kron,
        [np.eye(2 ** (n - 1 - qubit)), gate, np.eye(2**qubit)],
    )


def circuit_unitary(circuit, n: int) -> np.ndarray:
    """Dense matrix of a {H, S, CNOT} circuit, for cross-validation."""
    u = np.eye(2**n, dtype=complex)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for gate in circuit:
        name = str(gate[0]).upper()
        if name == "H":
            step = _embed(_H, gate[1], n)
        elif name == "S":
            step = _embed(_S, gate[1], n)
        elif name == "CNOT":
            a, b = gate[1], gate[2]
            step = _embed(p0, a, n) + _embed(p1, a, n) @ _embed(x, b, n)
        else:
            raise ValueError(f"unknown gate {name!r}")
        u = step @ u
    return u


def random_clifford_circuit(n: int, depth: int, rng: np.random.Generator):
    """A random gate list over {H, S, CNOT}."""
    circuit = []
    for _ in range(depth):
        kind = rng.integers(0, 3)
        if kind == 2 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            circuit.append(("CNOT", int(a), int(b)))
        elif kind == 1:
            circuit.append(("S", int(rng.integers(0, n))))
        else:
            circuit.append(("H", int(rng.integers(0, n))))
    return circuit


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
