"""Each output check accepts the right answer and rejects a planted wrong one."""

import json

import numpy as np
import pytest

import checks
from checks import WrongAnswer
from dwf import classicality, clifford, galois, mub, quantum_net, wigner
from dwf.formats import wigner_to_csv
from workload_census import _lines
from workload_cli import WITNESS_D2, WITNESS_STATE, Cli, clifford_d3


def bases_of(d):
    return np.stack([b.vectors.T for b in mub.standard_mub(d).bases])


def pure(d, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def mixture(bases, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(bases.shape[0] * bases.shape[1]))
    vecs = bases.reshape(-1, bases.shape[-1])
    return np.einsum("k,kx,ky->xy", w, vecs, vecs.conj())


def test_bases_accept_the_program_bases_and_reject_a_rotated_vector():
    bases = bases_of(4)
    checks.check_bases(bases)
    bad = bases.copy()
    c, s = np.cos(1e-3), np.sin(1e-3)
    bad[2, 0], bad[2, 1] = c * bases[2, 0] + s * bases[2, 1], -s * bases[2, 0] + c * bases[2, 1]
    with pytest.raises(WrongAnswer):
        checks.check_bases(bad)


def census_answer(rho):
    gf, mubs = galois.field(4), mub.standard_mub(4)
    state = wigner.DensityState(rho)
    nets = list(quantum_net.enumerate_nets(gf))
    per_net = min(wigner.wigner_function(state, n).min() for n in nets)
    report = classicality.min_wigner(state, mubs)
    return dict(
        per_net_min=per_net,
        min_wigner=report.min_wigner,
        brute_force=classicality.brute_force_min(state, mubs, gf),
        classical=report.classical,
        coefficients=classicality.convex_decomposition(state, mubs).coefficients,
    )


@pytest.mark.parametrize("field", ["per_net_min", "min_wigner", "brute_force"])
def test_census_rejects_a_minimum_off_by_1e_6(field):
    bases, rho = bases_of(4), pure(4)
    answer = census_answer(rho)
    checks.check_census(bases, rho, True, **answer)
    answer[field] += 1e-6
    with pytest.raises(WrongAnswer):
        checks.check_census(bases, rho, True, **answer)


def test_census_rejects_wrong_verdicts_and_decompositions():
    bases = bases_of(4)
    rho = mixture(bases)
    answer = census_answer(rho)
    checks.check_census(bases, rho, False, **answer)
    with pytest.raises(WrongAnswer):
        checks.check_census(bases, rho, False, **{**answer, "classical": False})
    coefficients = answer["coefficients"].copy()
    coefficients[0, 0] += 1e-6
    with pytest.raises(WrongAnswer):
        checks.check_census(bases, rho, False, **{**answer, "coefficients": coefficients})
    rho_pure = pure(4)
    answer = census_answer(rho_pure)
    with pytest.raises(WrongAnswer):
        checks.check_census(bases, rho_pure, True, **{**answer, "classical": True})


def test_decomposition_rejects_a_negative_coefficient_of_a_classical_state():
    bases = bases_of(2)
    rho = np.eye(2) / 2
    good = np.full((3, 2), 1.0 / 6)
    checks.check_decomposition(bases, rho, good, classical=True)
    # Each basis resolves the identity, so shifting weight between bases
    # keeps the sum but drives basis 0 negative.
    bad = good.copy()
    bad[0] -= 0.2
    bad[1:] += 0.1
    np.testing.assert_allclose(checks.projector_sum(bases, bad), rho, atol=1e-12)
    with pytest.raises(WrongAnswer):
        checks.check_decomposition(bases, rho, bad, classical=True)


def test_line_sums_reject_a_changed_value():
    ctx = quantum_net.standard_context(4)
    bases, rho = bases_of(4), pure(4, seed=3)
    net = ctx.complete((1, 0, 3, 2, 1))
    table = wigner.wigner_function(wigner.DensityState(rho), net).values
    checks.check_line_sums(bases, rho, table, _lines(ctx), net.indices)
    bad = table.copy()
    bad[1, 2] += 1e-6
    with pytest.raises(WrongAnswer):
        checks.check_line_sums(bases, rho, bad, _lines(ctx), net.indices)


def test_symplectic_rejects_a_table_that_is_not():
    gf = galois.field(4)
    table = clifford.squeezing_operator(gf).symplectic
    checks.check_symplectic(table, 2)
    checks.check_symplectic(np.eye(4, dtype=int), 2)
    bad = table.copy()
    bad[0, 0] = (bad[0, 0] + 1) % 2
    with pytest.raises(WrongAnswer):
        checks.check_symplectic(bad, 2)
    with pytest.raises(WrongAnswer):
        checks.check_symplectic([[1, 1], [0, 2]], 3)  # determinant 2, not 1


def test_translation_table_must_be_the_identity():
    checks.check_identity_table(np.eye(4, dtype=int), 2)
    with pytest.raises(WrongAnswer):
        checks.check_identity_table([[1, 1], [0, 1]], 3)


def test_flow_count_rejects_five_squeezing_flows():
    checks.check_flow_count("squeezing", [True] * 4 + [False] * 60, 4)
    with pytest.raises(WrongAnswer):
        checks.check_flow_count("squeezing", [True] * 5 + [False] * 59, 4)


def test_permuted_table_rejects_a_changed_value():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    checks.check_permuted_table(w, w[[2, 0, 3, 1]])
    with pytest.raises(WrongAnswer):
        checks.check_permuted_table(w, w[[2, 0, 3, 1]] + np.array([0, 0, 1e-6, 0]))


def test_basis_map_rejects_a_wrong_permutation():
    gf, bases = galois.field(4), bases_of(4)
    u = clifford.fourier_operator(gf).dense
    perm = clifford.maps_mub_to_mub(u, mub.standard_mub(4), mub.standard_mub(4)).permutation
    checks.check_basis_map(u, bases, perm)
    wrong = list(perm)
    wrong[0], wrong[1] = wrong[1], wrong[0]
    assert wrong != list(perm)
    with pytest.raises(WrongAnswer):
        checks.check_basis_map(u, bases, wrong)


def test_affine_rejects_a_wrong_column():
    gf = galois.field(4)
    u = clifford.squeezing_operator(gf).dense
    cert = clifford.affine_extraction(u, gf)
    columns = [cert.predicted_column(gf, z) for z in range(4)]
    checks.check_affine(u, columns)
    bad = list(columns)
    bad[1] = ((columns[1][0] + 1) % 4, columns[1][1])
    with pytest.raises(WrongAnswer):
        checks.check_affine(u, bad)


def test_clifford_conjugation_rejects_a_wrong_table():
    u = clifford_d3(np.random.default_rng(5))
    table = clifford.is_clifford(u, galois.field(3)).symplectic
    checks.check_clifford_conjugation(u, table, 3)
    bad = table.copy()
    bad[:, [0, 1]] = bad[:, [1, 0]]
    with pytest.raises(WrongAnswer):
        checks.check_clifford_conjugation(u, bad, 3)


def csv_and_reference():
    rho = wigner.DensityState(pure(4, seed=7))
    net = quantum_net.standard_context(4).complete((0, 1, 2, 3, 0))
    return wigner_to_csv(wigner.wigner_function(rho, net)), wigner.wigner_from_point_operators(rho, net)


def test_wigner_csv_rejects_a_changed_row():
    text, reference = csv_and_reference()
    checks.check_wigner_csv(checks.parse_wigner_csv(text, 4), reference)
    lines = text.splitlines()
    q, p, w = lines[5].split(",")
    lines[5] = f"{q},{p},{float(w) + 1e-6!r}"
    with pytest.raises(WrongAnswer):
        checks.check_wigner_csv(checks.parse_wigner_csv("\n".join(lines), 4), reference)


@pytest.mark.parametrize("edit", ["swap", "drop", "header"])
def test_wigner_csv_rejects_misplaced_rows(edit):
    text, _ = csv_and_reference()
    lines = text.splitlines()
    if edit == "swap":
        lines[3], lines[4] = lines[4], lines[3]
    elif edit == "drop":
        del lines[7]
    else:
        lines[0] = "q,p,V"
    with pytest.raises(WrongAnswer):
        checks.parse_wigner_csv("\n".join(lines), 4)


def test_printed_minimum_off_by_1e_6_is_rejected():
    out = f"min_wigner: {WITNESS_D2:.12f}\nclassical: False\n"
    checks.close("d=2", checks.parse_value(out, "min_wigner"), WITNESS_D2, checks.PRINT_TOL)
    out = f"min_wigner: {WITNESS_D2 + 1e-6:.12f}\nclassical: False\n"
    with pytest.raises(WrongAnswer):
        checks.close("d=2", checks.parse_value(out, "min_wigner"), WITNESS_D2, checks.PRINT_TOL)


def test_printed_table_is_parsed():
    out = "clifford: yes\nsymplectic table (columns X_1..X_n, Z_1..Z_n):\n  0 2\n  1 0\nphase exponents: (0, 0)\n"
    assert checks.parse_table(out) == [[0, 2], [1, 0]]
    with pytest.raises(WrongAnswer):
        checks.parse_table("clifford: no\n")


@pytest.fixture
def cli(tmp_path):
    return Cli(seed=1, workdir=str(tmp_path), spans_dir=None)


def answer(cli, out, err=""):
    for name, text in (("out.txt", out), ("err.txt", err)):
        with open(cli.path(name), "w") as fh:
            fh.write(text)


def test_cli_counts_the_known_faults_as_failed_and_their_fixes_as_done(cli):
    answer(cli, "", "Traceback ...\nValueError: refusing to enumerate 2097152 nets")
    assert cli._check("flowscan", 8, None, {}, 1) is False
    answer(cli, "Fourier flow scan at d=8: 0 flows among 2097152 fixed-axes nets\n")
    assert cli._check("flowscan", 8, None, {}, 0) is True
    answer(cli, "Fourier flow scan at d=8: 3 flows among 2097152 fixed-axes nets\n")
    with pytest.raises(WrongAnswer):
        cli._check("flowscan", 8, None, {}, 0)
    answer(cli, "min_wigner: nan\nclassical: False\n")
    assert cli._check("nan", 3, None, {}, 0) is False
    answer(cli, "", "error: field 'data': state matrix holds a non-finite entry\n")
    assert cli._check("nan", 3, None, {}, 2) is True


def test_cli_checks_exit_codes_and_verify_totals(cli):
    answer(cli, "clifford: no\n")
    assert cli._check("check", 4, "haar", {}, 1) is True
    assert cli._check("check", 4, "haar", {}, 0) is False
    answer(cli, "9/9 checks passed at d=8\n")
    assert cli._check("verify", 8, None, {}, 0) is True
    answer(cli, "8/9 checks passed at d=8\n")
    with pytest.raises(WrongAnswer):
        cli._check("verify", 8, None, {}, 0)


def test_cli_classicality_rejects_a_wrong_decomposition(cli):
    d = 2
    cli.bases[d] = bases_of(d)
    rho = np.outer(WITNESS_STATE, WITNESS_STATE.conj())
    report = classicality.min_wigner(wigner.DensityState(rho), mub.standard_mub(d))
    coefficients = classicality.convex_decomposition(wigner.DensityState(rho), mub.standard_mub(d)).coefficients
    out = f"min_wigner: {report.min_wigner:.12f}\nclassical: False\nbrute_force_min: {report.min_wigner:.12f} (gap 0)\n"
    with open(cli.path("dec2.json"), "w") as fh:
        json.dump({"coefficients": coefficients.tolist()}, fh)
    cli._check_classicality(d, "brute", rho, out)
    with open(cli.path("dec2.json"), "w") as fh:
        json.dump({"coefficients": (coefficients + 1e-6).tolist()}, fh)
    with pytest.raises(WrongAnswer):
        cli._check_classicality(d, "brute", rho, out)
