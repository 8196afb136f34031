"""Clifford-group verification and synthesis.

Membership is checked by conjugating the stack of all 2n translation
generators at once, u G u~, and matching every image against the field's
table of d^2 translations (`pauli.Labeling.translations`, read in place)
in one product; success yields the symplectic table over Z_p plus
per-generator phase exponents.  The generator stack is built once per
field and is read-only, as are the cached squeezing and Fourier results.

Synthesis goes the other way, along one path: `clifford_from_symplectic`
writes down the unitary of a symplectic table F, with the joint +1
eigenvector of the Z_i images T(F(0|e_i)) as column zero and powers of the
X_i images T(F(e_i|0)) generating the rest, and certifies it in integers.
Standardizing a pair of maximal commuting sets with trivial intersection
is its inverse: the syndrome construction builds the table sending the
Z- and X-type generators onto the pair, and the standardizer is the
adjoint of that table's unitary.

The discrete squeezing operator is synthesized from its table; the finite
Fourier transform is written down directly and certified by membership.
The stabilizer tableau at the bottom cross-validates generator-level
circuits against dense simulation for qubit registers.

Primitives come from the layers below: mod-p rank and inverse from
`galois`, index <-> digit maps from the field's digit table, the
symplectic form and dense Pauli strings from `pauli`, the spectral
projection to a phase-fixed vector from `mub.joint_eigenvector` and the
X-type basis from `mub.standard_mub`.
The per-unitary record `_basis_images`, which `quantum_net.is_flow`,
`maps_mub_to_mub` and `affine_extraction` read, holds only the monomial test
of all (d+1)^2 basis-pair blocks of one overlap product V2~ u V1, decided in
one pass of `_column_peaks`.  `is_clifford` memoizes its certificate by u's
value, and the last two readers refuse non-unitaries by asking it first.  The
certificate U|z> = e^(i(2 pi/p c.z + delta)) |A z + b> reads A and b off the
record's Z block and its phases off u, and stays in the record.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce

import numpy as np

from .galois import FieldSpec, inverse_mod_p, rank_mod_p
from .mub import MubSet, joint_eigenvector, standard_mub
from .pauli import AbelianSet, PauliOperator, build_labeling
from .pauli import _phase_order, _symplectic_form, _translation_matrix
from .tolerances import LOOKUP, SPECTRAL, flow_gate


# ---------------------------------------------------------------------------
# small mod-p linear algebra
# ---------------------------------------------------------------------------

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
    dense: np.ndarray


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
def _generator_stack(gf: FieldSpec) -> np.ndarray:
    """The dense generator_operators as one read-only 2n x d x d stack."""
    generators = np.stack([g.dense for g in generator_operators(gf)])
    generators.flags.writeable = False
    return generators


def _match_translation(gf: FieldSpec, ops: np.ndarray):
    """Match a stack of operators, (count, d, d) or raveled (count, d^2),
    against the field's Labeling (labels and translations, in point order)
    in one product: label rows, phases and deficits 1 - |phase| per
    operator, unfiltered.  Where a deficit is <= LOOKUP, op = phase * T(label).
    """
    labeling, d = build_labeling(gf), gf.order
    flat = labeling.translations.reshape(d * d, d * d)
    coeffs = (ops.reshape(len(ops), d * d).conj() @ flat.T).conj() / d
    best = np.argmax(np.abs(coeffs), axis=-1)
    phases = coeffs[np.arange(len(coeffs)), best]
    return labeling.labels[best], phases, 1.0 - np.abs(phases)


def _entries(u: np.ndarray, d: int) -> bytes:
    """The C-order complex bytes of the d x d matrix u, which key its memos."""
    u = np.asarray(u)
    if u.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} matrix, got {u.shape}")
    return u.astype(complex, copy=False).tobytes()


def _is_unitary(u: np.ndarray) -> bool:
    """Finite, with |u u~ - I|_F <= 100 SPECTRAL."""
    # huge finite entries make u u~ overflow to NaN, which only a <= test rejects
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(u).all() and np.linalg.norm(u @ u.conj().T - np.eye(len(u))) <= SPECTRAL * 100)


def is_clifford(u: np.ndarray, gf: FieldSpec):
    """SymplecticClifford if conjugation maps every generator to a scaled
    translation, else NotClifford carrying the first failing generator; the
    certificate is memoized by u's value, and `dense` is u itself."""
    u = np.asarray(u)
    verdict = _certificate(_entries(u, gf.order), gf)
    if verdict is None:
        raise ValueError("input matrix is not unitary")
    if isinstance(verdict[0], int):
        return NotClifford(generator_operators(gf)[verdict[0]], verdict[1])
    return SymplecticClifford(gf, *verdict, u)


@lru_cache(maxsize=16)  # like `_basis_images`: a `flows` round's 11 unitaries
def _certificate(entries: bytes, gf: FieldSpec):
    """`is_clifford` on the matrix of C-order complex bytes `entries`: None if not unitary,
    (read-only table, exponents), or (first failing generator's index, its deficit)."""
    u = np.frombuffer(entries, dtype=complex).reshape(gf.order, gf.order)
    if not _is_unitary(u):
        return None
    labels, phases, deficits = _match_translation(gf, u @ _generator_stack(gf) @ u.conj().T)
    failing = np.flatnonzero(deficits > LOOKUP)
    if failing.size:
        return int(failing[0]), deficits[failing[0]]
    order = _phase_order(gf.p)
    exponents = np.rint(np.angle(phases) / (2 * np.pi / order)).astype(np.int64) % order
    off = np.abs(phases - np.exp(2j * np.pi * exponents / order)) > LOOKUP * 100
    if off.any():
        raise AssertionError(f"phase {phases[off.argmax()]} is not a unit root of order {order}")
    table = labels.T.copy()
    if not is_symplectic_table(table, gf.p):
        raise AssertionError("conjugation table does not preserve the symplectic form")
    table.flags.writeable = False
    return table, tuple(exponents.tolist())


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def clifford_from_symplectic(f: np.ndarray, gf: FieldSpec) -> SymplecticClifford:
    """A unitary realizing a symplectic table with every generator phase
    exponent zero: U T(v) U~ = T(Fv) exactly for v among the 2n generators.

    Column zero of U is the joint +1 eigenvector of the images
    M_i = T(F(0|e_i)) of the Z_i, and column z applies the powers N_i^z_i of
    the images N_i = T(F(e_i|0)) of the X_i to it.  A symplectic F already
    makes the M_i commute, the N_i commute and <N_i, M_j> = delta_ij, which
    is all the construction needs.  Certified in integers: is_clifford must
    return F with every exponent zero.
    """
    p, n, d = gf.p, gf.n, gf.order
    try:  # operator.index refuses floats and takes numpy integers
        f = np.array([[operator.index(x) % p for x in row] for row in f], dtype=np.int64)
    except (TypeError, ValueError):  # a non-integer entry, a non-table or ragged rows
        f = None
    if f is None or f.shape != (2 * n, 2 * n):
        raise ValueError(f"table must be a {2 * n} x {2 * n} integer matrix")
    if not is_symplectic_table(f, p):
        raise ValueError("table does not preserve the symplectic form mod p")
    # column i of F is the image label of X_i, column n + i that of Z_i
    images = [PauliOperator(gf, col[:n], col[n:]).dense for col in f.T]
    psi0 = joint_eigenvector(images[n:], (0,) * n, p)
    u = np.zeros((d, d), dtype=complex)
    for z in range(d):
        v = psi0
        for x_image, digit in zip(images[:n], gf.digits[z]):
            for _ in range(digit):
                v = x_image @ v
        u[:, z] = v
    result = is_clifford(u, gf)
    if not result or not np.array_equal(result.symplectic, f) or any(result.phase_exponents):
        raise AssertionError("synthesis did not reproduce the requested table")
    return result


def standardize_pair(s: AbelianSet, t: AbelianSet) -> SymplecticClifford:
    """The Clifford sending s onto the Z-type set and t onto the X-type set.

    It inverts the synthesized unitary whose table has columns
    N_1..N_n, M_1..M_n: the M_i generate s, and N_i is the member of t with
    syndrome e_i, the vector of its symplectic products against the M_i.
    With h_k the generators of t, the syndrome matrix S[k, i] = <h_k, M_i>
    is invertible exactly when s and t intersect trivially, and row j of
    S^-1 holds the exponents of N_j = prod_k h_k^x.
    """
    gf = s.field
    ms = np.array([m.label for m in s.generators()])
    hs = np.array([h.label for h in t.generators()])
    try:
        exponents = inverse_mod_p(hs @ _symplectic_form(gf.n) @ ms.T % gf.p, gf.p)
    except ValueError:
        raise ValueError("sets intersect nontrivially; no standardization exists") from None
    f = np.vstack([exponents @ hs % gf.p, ms]).T
    return is_clifford(clifford_from_symplectic(f, gf).dense.conj().T, gf)


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
    result = clifford_from_symplectic(f, gf)
    result.dense.flags.writeable = False  # the table already is
    return result


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
    result.dense.flags.writeable = False  # the table already is
    return result


def hadamard_in_chart(gf: FieldSpec) -> np.ndarray:
    """Tensor Hadamard conjugated into the labeling-form self-dual chart;
    equals the Fourier matrix (used as an independent construction)."""
    basis = _reflection_form_basis(gf)
    d, n = gf.order, gf.n
    mat = np.array([e.coords for e in basis], dtype=np.int64)
    inv = inverse_mod_p(mat.T, 2)
    v = np.zeros((d, d))
    v[(gf.digits @ inv.T % 2) @ 2 ** np.arange(n), np.arange(d)] = 1.0  # |z> -> |chart of z>
    return v.T @ reduce(np.kron, [_H] * n) @ v


# ---------------------------------------------------------------------------
# MUB images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MubMapResult:
    permutation: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.permutation is not None


@dataclass(frozen=True, eq=False)
class BasisImages:
    """What one overlap product says about U, and no unitarity check: read-only arrays
    indexed by block [k1, k2] = V2[k2]~ U V1[k1], then column j.  When source is
    target, the action if the blocks within flow_gate(d) permute the bases, else T~."""

    passes: np.ndarray  # the block's monomial test (`_column_peaks`)
    perms: np.ndarray  # the row of column j's peak
    leaks: np.ndarray  # the column's norm off its peak
    action: np.ndarray | None = None  # action[k d + j] = sigma(k) d + pi_k(j)
    order: np.ndarray | None = None  # sigma^-1
    transition: np.ndarray | None = None  # T~ of `quantum_net.is_flow`
    flows: dict = dc_field(default_factory=dict)  # net context -> `is_flow` verdicts on its census family
    affine: dict = dc_field(default_factory=dict)  # field -> `affine_extraction`'s result


@lru_cache(maxsize=16)  # holds every record of one `flows` benchmark round: 11 unitaries
@np.errstate(over="ignore", invalid="ignore")  # huge or non-finite entries
def _basis_images(entries: bytes, source: MubSet, target: MubSet) -> BasisImages:
    """The record of the matrix U whose C-order complex bytes are `entries`."""
    d, k1, k2 = source.dim, len(source.bases), len(target.bases)
    u = np.frombuffer(entries, dtype=complex).reshape(d, d)
    overlap = target.frame.conj().T @ (u @ source.frame)
    t = np.abs(overlap) ** 2  # T[lam, mu]
    # each overlap column's peak within each target basis, put in block order
    *peaks, passes = _column_peaks(t.reshape(k2, d, k1 * d).copy())
    perms, peak, leaks = [a.reshape(k2, k1, d).swapaxes(0, 1) for a in peaks]
    passes = passes.T
    error = np.abs(peak - 1.0) + 2.0 * np.sqrt(peak) * leaks + leaks**2  # >= |U P U~ - Q|
    record = (passes, perms, leaks)
    for array in record:
        array.flags.writeable = False
    within = passes & (error.max(axis=2) <= flow_gate(d))
    if source is not target:
        return BasisImages(*record)
    if not ((within.sum(axis=0) == 1).all() and (within.sum(axis=1) == 1).all()):
        # each basis is complete: a column sum is (d+1) a_mu, a row sum (d+1) b_lam
        a, b = t.sum(axis=0) / (d + 1), t.sum(axis=1) / (d + 1)
        table = (t - a / (d + 1) - b[:, None] / (d + 1) + a.sum() / (d + 1) ** 3) / d
        table.flags.writeable = False
        return BasisImages(*record, transition=table)
    sigma = np.argmax(within, axis=1)
    action = (sigma[:, None] * d + perms[np.arange(len(sigma)), sigma]).ravel()
    order = np.argsort(sigma)
    action.flags.writeable = order.flags.writeable = False
    return BasisImages(*record, action=action, order=order)


def _images(u: np.ndarray, source: MubSet, target: MubSet, strict: bool) -> BasisImages:
    """The `_basis_images` record of u.  A wrong shape raises ValueError, and so, when
    strict, does anything but a finite unitary (`_certificate`), before any record is built."""
    entries = _entries(u, source.dim)
    if strict and _certificate(entries, source.field) is None:
        raise ValueError("input matrix is not unitary")
    return _basis_images(entries, source, target)


def maps_mub_to_mub(u: np.ndarray, b1: MubSet, b2: MubSet) -> MubMapResult:
    """Does conjugation by u send every basis of b1 onto a basis of b2
    (as unordered sets of rays)?  Returns the striation permutation.

    Reads the blocks' monomial verdicts from the `_basis_images` record;
    each source basis takes its first passing target.  Anything but a
    finite d x d unitary raises ValueError.
    """
    if b1.dim != b2.dim:
        raise ValueError("basis sets live in different dimensions")
    passes = _images(u, b1, b2, strict=True).passes
    perm = tuple(int(k2) for k2 in np.argmax(passes, axis=1))
    maps = passes.any(axis=1).all() and len(set(perm)) == len(perm)
    return MubMapResult(perm if maps else None)


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
        zd = gf.digits[z]
        image = (self.a_matrix @ zd + self.b_shift) % gf.p
        angle = 2 * np.pi / gf.p * int(np.dot(self.c_phase, zd)) + self.global_phase
        return int(image @ gf.p ** np.arange(gf.n)), np.exp(1j * angle)


@dataclass(frozen=True)
class NotBasisPreserving:
    basis: str  # "Z" or "X"
    state_index: int
    leak: float

    def __bool__(self) -> bool:
        return False


def _column_peaks(weight: np.ndarray):
    """The monomial test on a stack (count, d, blocks d) of squared moduli: (perm, peak,
    leak, passes), each column's peak row and value and its norm off the peak (zeroed in
    place), and passes[c, b] iff block b of matrix c has every leak <= LOOKUP and its
    peaks in distinct rows, so that it is a permutation matrix with phases."""
    count, d, width = weight.shape
    stack, cols = np.arange(count)[:, None], np.arange(width)
    perm = np.argmax(weight, axis=1)
    peak = weight[stack, perm, cols]
    weight[stack, perm, cols] = 0.0
    leak = np.sqrt(weight.sum(axis=1))
    distinct = (np.sort(perm.reshape(count, -1, d), axis=2) == np.arange(d)).all(axis=2)
    return perm, peak, leak, distinct & ~(leak > LOOKUP).reshape(count, -1, d).any(axis=2)


def affine_extraction(u: np.ndarray, gf: FieldSpec):
    """AffineData when u preserves both the computational and the X-type bases
    (up to phases), else NotBasisPreserving naming the failure, the Z basis
    first: the Z and X blocks of the `_basis_images` record on `standard_mub(d)`,
    the certificate read off the Z block's permutation z -> A z + b in
    computational order and kept there, a_matrix read-only.  Anything but a
    finite d x d unitary raises ValueError."""
    mub = standard_mub(gf.order)
    images = _images(u, mub, mub, strict=True)
    if gf not in images.affine:
        images.affine[gf] = _affine(images, np.asarray(u), mub.z_order, gf)
    return images.affine[gf]


def _affine(images: BasisImages, u: np.ndarray, z_order: tuple, gf: FieldSpec):
    """`affine_extraction`'s result from u and its record."""
    p, n = gf.p, gf.n
    # vector j of the Z basis is |z[j]>, so column z[j] of u peaks at row z[perm[j]]
    z, label = z_order
    perm = z[images.perms[0, 0]][label]
    # a unitary's columns are orthogonal, so where none leaks their peaks are distinct
    for basis, leaks in (("Z", images.leaks[0, 0][label]), ("X", images.leaks[1, 1])):
        if (leaks > LOOKUP).any():
            col = int(np.argmax(leaks > LOOKUP))
            return NotBasisPreserving(basis, col, float(leaks[col]))

    # row z of coords is the digit vector of index z, so z = coords[z] @ units
    coords = gf.digits
    units = p ** np.arange(n)
    b = coords[perm[0]]
    a = (coords[perm[units]] - b).T % p
    # perm is a bijection, so agreeing with it also proves A invertible
    if not np.array_equal((coords @ a.T + b) % p @ units, perm):
        raise AssertionError("basis-preserving map is not affine; internal error")

    phases = np.angle(u[perm, np.arange(len(perm))])  # the peaks' angles: the Z vectors are exact unit vectors
    delta = float(phases[0])
    c = np.round((phases[units] - delta) / (2 * np.pi / p)).astype(np.int64) % p
    predicted = np.exp(1j * (2 * np.pi / p * (coords @ c) + delta))
    if np.max(np.abs(np.exp(1j * phases) - predicted)) > LOOKUP * 100:
        raise AssertionError("basis-preserving phases are not affine; internal error")
    a.flags.writeable = False
    return AffineData(a, tuple(int(x) for x in b), tuple(int(x) for x in c), delta)


# ---------------------------------------------------------------------------
# stabilizer tableau (qubit registers, independent of the field machinery)
# ---------------------------------------------------------------------------

GATE_NAMES = ("H", "S", "CNOT")


def _circuit_steps(circuit, n: int) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, qubits) steps of a {H, S, CNOT} circuit on 1 to 8 qubits:
    the one reading of a circuit that both simulations share.  Anything
    else raises ValueError before any gate is applied."""
    if not 1 <= n <= 8:
        raise ValueError("circuits act on 1 to 8 qubits")
    steps = []
    for step, gate in enumerate(circuit):
        try:  # a non-tuple, an empty tuple or a non-integer qubit
            name, *qubits = gate if isinstance(gate, (tuple, list)) else ()
            name, qubits = str(name).upper(), tuple(map(operator.index, qubits))
        except (TypeError, ValueError):
            raise ValueError(f"circuit step {step} is not a (name, qubits...) tuple") from None
        if name not in GATE_NAMES:
            raise ValueError(f"unknown gate {name!r}; supported: {GATE_NAMES}")
        expected = 2 if name == "CNOT" else 1
        if len(qubits) != expected or any(not 0 <= q < n for q in qubits):
            raise ValueError(f"gate {name} takes {expected} qubit index(es) in [0, {n})")
        if len(set(qubits)) < expected:
            raise ValueError("CNOT needs distinct control and target")
        steps.append((name, qubits))
    return steps


@dataclass(eq=False)
class StabilizerTableau:
    """n stabilizer generators as rows of X/Z bit matrices plus sign bits.

    Row i represents (-1)^r[i] times the Hermitian Pauli string with bits
    (x[i], z[i]), the canonical translation T(x[i], z[i]) of `pauli`.
    Dense reconstruction is meant for small n.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    r: np.ndarray

    def state_vector(self) -> np.ndarray:
        """The stabilized state: the joint eigenvector of the unsigned rows
        with eigenvalue (-1)^r[i], phase-fixed like the MUB vectors."""
        rows = [_translation_matrix(2, x, z) for x, z in zip(self.x.tolist(), self.z.tolist())]
        return joint_eigenvector(rows, self.r.astype(int), 2)


def tableau_apply(circuit, n: int) -> StabilizerTableau:
    """Run a {H, S, CNOT} circuit on the n-qubit state |0..0>.

    The circuit is a sequence of (name, *qubits) tuples, read by
    `_circuit_steps`.  Qubit registers only, n <= 8.
    """
    steps = _circuit_steps(circuit, n)
    x, z, r = np.zeros((n, n), dtype=np.uint8), np.eye(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8)
    for name, qubits in steps:
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
            r ^= x[:, a] & z[:, b] & (x[:, b] ^ z[:, a] ^ 1)
            x[:, b] ^= x[:, a]
            z[:, a] ^= z[:, b]
    return StabilizerTableau(n, x, z, r)


_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
_S = np.diag([1.0, 1j])


def _embed(gate: np.ndarray, qubit: int, n: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(2 ** (n - 1 - qubit)), gate), np.eye(2**qubit))


def circuit_unitary(circuit, n: int) -> np.ndarray:
    """Dense matrix of a {H, S, CNOT} circuit, for cross-validation; it
    reads the circuit through `_circuit_steps`, as `tableau_apply` does."""
    steps = _circuit_steps(circuit, n)
    u = np.eye(2**n, dtype=complex)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for name, qubits in steps:
        if name == "CNOT":
            a, b = qubits
            step = _embed(p0, a, n) + _embed(p1, a, n) @ _embed(x, b, n)
        else:
            step = _embed(_H if name == "H" else _S, qubits[0], n)
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
