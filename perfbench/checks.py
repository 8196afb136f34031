"""Output checks, independent of the program where an independent route exists.

Every check raises `WrongAnswer` naming what disagreed, and returns
nothing when the output is right.  Each takes plain numbers and arrays,
so the benchmark's own tests can hand it a planted wrong answer.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np

TOL = 1e-9  # numeric agreement of two routes to one value
PRINT_TOL = 1e-11  # a value the CLI prints with 12 decimals


class WrongAnswer(AssertionError):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def close(name: str, got: float, want: float, tol: float = TOL) -> None:
    expect(
        bool(np.isfinite(got)) and abs(got - want) <= tol,
        f"{name}: got {got!r}, expected {want!r} (tolerance {tol:g})",
    )


# -- bases and states ------------------------------------------------------


def check_bases(bases: np.ndarray) -> None:
    """bases[kappa, j] is vector j of basis kappa: each basis orthonormal,
    every pair of bases mutually unbiased."""
    k, d, d2 = bases.shape
    expect(k == d + 1 and d == d2, f"expected {d + 1} bases of {d} vectors, got {bases.shape}")
    gram = np.einsum("aiz,bjz->abij", bases.conj(), bases)
    overlap = np.abs(gram) ** 2
    for a in range(k):
        for b in range(k):
            target = np.eye(d) if a == b else np.full((d, d), 1.0 / d)
            dev = float(np.max(np.abs(overlap[a, b] - target)))
            expect(dev <= TOL, f"bases {a},{b}: |overlap|^2 off the MUB pattern by {dev:.2e}")


def basis_probabilities(bases: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """p[kappa, j] = <phi_j^kappa| rho |phi_j^kappa>."""
    return np.einsum("kjx,xy,kjy->kj", bases.conj(), rho, bases).real


def closed_form_min(bases: np.ndarray, rho: np.ndarray) -> float:
    """(sum over bases of the smallest probability - 1) / d."""
    d = rho.shape[0]
    return float((basis_probabilities(bases, rho).min(axis=1).sum() - 1.0) / d)


def projector_sum(bases: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    return np.einsum("kj,kjx,kjy->xy", coefficients, bases, bases.conj())


def check_decomposition(bases: np.ndarray, rho: np.ndarray, coefficients, classical: bool) -> None:
    """The coefficients rebuild rho; a classical state's are non-negative."""
    coefficients = np.asarray(coefficients, dtype=float)
    expect(coefficients.shape == bases.shape[:2], f"coefficients have shape {coefficients.shape}")
    gap = float(np.linalg.norm(projector_sum(bases, coefficients) - rho))
    expect(gap <= TOL, f"decomposition rebuilds rho only to {gap:.2e}")
    if classical:
        lowest = float(coefficients.min())
        expect(lowest >= -TOL, f"classical state has coefficient {lowest:.3e} < 0")


# -- census ----------------------------------------------------------------


def check_census(
    bases: np.ndarray,
    rho: np.ndarray,
    pure: bool,
    per_net_min: float,
    min_wigner: float,
    brute_force: float,
    classical: bool,
    coefficients,
) -> None:
    close("minimum over the per-net tables vs min_wigner", per_net_min, min_wigner)
    close("minimum over the per-net tables vs brute_force_min", per_net_min, brute_force)
    close("minimum over the per-net tables vs the closed form", per_net_min,
          closed_form_min(bases, rho))
    if pure:
        expect(not classical, "a Haar-random pure state came out classical")
    else:
        expect(classical, "a mixture of basis projectors came out non-classical")
        check_decomposition(bases, rho, coefficients, classical=True)


def check_line_sums(bases, rho, table, lines, assigned) -> None:
    """Sum of W along each line equals tr(rho P) for the line's projector.

    lines[kappa][t] are flat point indices (q * d + p) of line t of
    striation kappa; assigned[kappa][t] is the projector index the net
    puts on it."""
    probs = basis_probabilities(bases, rho)
    flat = np.asarray(table).reshape(-1)
    for kappa, striation in enumerate(lines):
        for t, points in enumerate(striation):
            want = probs[kappa, assigned[kappa][t]]
            close(f"line sum, striation {kappa} line {t}", float(flat[points].sum()), float(want))


def check_tables_agree(name: str, got, want, tol: float = 1e-12) -> None:
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    expect(gap <= tol, f"{name}: tables differ by {gap:.2e}")


# -- flows -----------------------------------------------------------------


def check_symplectic(table, p: int) -> None:
    """F^T J F == J (mod p) in integer arithmetic, J = [[0, I], [-I, 0]]."""
    f = np.asarray(table, dtype=np.int64)
    m = len(f)
    expect(f.shape == (m, m) and m % 2 == 0, f"table of shape {f.shape} is not square of even size")
    eye, zero = np.eye(m // 2, dtype=np.int64), np.zeros((m // 2, m // 2), dtype=np.int64)
    j = np.block([[zero, eye], [-eye, zero]])
    expect(not np.any((f.T @ j @ f - j) % p), f"table {f.tolist()} is not symplectic mod {p}")


def check_identity_table(table, p: int) -> None:
    """A translation fixes every translation label."""
    f = np.asarray(table, dtype=np.int64) % p
    expect(np.array_equal(f, np.eye(len(f), dtype=np.int64)), f"translation table {f.tolist()}")


def check_flow_count(name: str, flows, expected: int) -> None:
    count = int(sum(bool(x) for x in flows))
    expect(count == expected, f"{name} flows on {count} nets, expected {expected}")


def check_permuted_table(w_rho, w_image) -> None:
    """Where U flows on a net, W(U rho U~) is W(rho) with points permuted."""
    gap = float(np.max(np.abs(np.sort(np.ravel(w_rho)) - np.sort(np.ravel(w_image)))))
    expect(gap <= TOL, f"W(U rho U~) is no permutation of W(rho): gap {gap:.2e}")


def check_basis_map(u: np.ndarray, bases: np.ndarray, permutation) -> None:
    """Conjugation by u sends basis kappa onto basis permutation[kappa]."""
    expect(permutation is not None and sorted(permutation) == list(range(len(bases))),
           f"striation permutation {permutation}")
    for kappa, target in enumerate(permutation):
        overlaps = np.abs(bases[target].conj() @ (u @ bases[kappa].T))
        expect(np.allclose(np.sort(overlaps, axis=0)[-1], 1.0, atol=1e-8)
               and len(set(np.argmax(overlaps, axis=0).tolist())) == len(overlaps),
               f"basis {kappa} is not sent onto basis {target}")


def check_affine(u: np.ndarray, columns) -> None:
    """columns[z] = (image index, phase) predicted by an affine certificate."""
    d = u.shape[0]
    for z, (image, phase) in enumerate(columns):
        want = np.zeros(d, dtype=complex)
        want[image] = phase
        gap = float(np.linalg.norm(u[:, z] - want))
        expect(gap <= 1e-8, f"affine certificate misses column {z} by {gap:.2e}")


# -- CLI outputs -----------------------------------------------------------


def parse_value(stdout: str, key: str) -> float:
    m = re.search(rf"^{re.escape(key)}: (\S+)", stdout, re.MULTILINE)
    expect(m is not None, f"no '{key}:' line in the output")
    return float(m.group(1))


def parse_table(stdout: str) -> list[list[int]]:
    """The integer rows printed under a 'symplectic table' header."""
    lines = stdout.splitlines()
    start = next((i for i, ln in enumerate(lines) if ln.startswith("symplectic table")), None)
    expect(start is not None, "no symplectic table in the output")
    rows = []
    for ln in lines[start + 1:]:
        if not ln.startswith("  "):
            break
        rows.append([int(x) for x in ln.split()])
    expect(rows != [], "empty symplectic table")
    return rows


def bases_from_payload(payload: dict) -> np.ndarray:
    raw = np.asarray(payload["bases"], dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


def parse_wigner_csv(text: str, d: int) -> np.ndarray:
    """Rows 'q,p,W', every (q, p) exactly once, in lexicographic order."""
    rows = list(csv.reader(io.StringIO(text)))
    expect(rows[:1] == [["q", "p", "W"]], "CSV header is not 'q,p,W'")
    body = rows[1:]
    expect(len(body) == d * d, f"CSV holds {len(body)} rows, expected {d * d}")
    values = np.zeros((d, d))
    for k, row in enumerate(body):
        expect(len(row) == 3, f"CSV row {k} is not 'q,p,W'")
        q, p = int(row[0]), int(row[1])
        expect((q, p) == divmod(k, d), f"CSV row {k} is ({q},{p}), expected {divmod(k, d)}")
        values[q, p] = float(row[2])
    return values


def check_wigner_csv(values: np.ndarray, reference: np.ndarray) -> None:
    close("Wigner CSV total", float(values.sum()), 1.0)
    check_tables_agree("Wigner CSV vs wigner_from_point_operators", values, reference)


def pauli_matrix(label, p: int) -> np.ndarray:
    """X^q Z^p on each register (register i is digit i of the index,
    least significant first) for the label (q_1..q_n | p_1..p_n), up to
    phase: built here without the program."""
    n = len(label) // 2
    shift = np.roll(np.eye(p), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(p) / p))
    out = np.eye(1)
    for i in reversed(range(n)):
        factor = np.linalg.matrix_power(shift, int(label[i]) % p) @ np.linalg.matrix_power(
            clock, int(label[n + i]) % p)
        out = np.kron(out, factor)
    return out


def check_clifford_conjugation(u: np.ndarray, table, p: int) -> None:
    """For every generator g (columns X_1..X_n, Z_1..Z_n), u g u~ is a
    multiple of the translation labelled by the table's column."""
    f = np.asarray(table, dtype=np.int64)
    n = len(f) // 2
    for col in range(2 * n):
        unit = np.zeros(2 * n, dtype=np.int64)
        unit[col] = 1
        image = u @ pauli_matrix(unit, p) @ u.conj().T
        target = pauli_matrix(f[:, col], p)
        overlap = abs(np.trace(target.conj().T @ image)) / len(u)
        expect(abs(overlap - 1.0) <= 1e-8, f"column {col} of the table is not the conjugation image")
