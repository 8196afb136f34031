import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwf.cli import main
from dwf.clifford import is_clifford, squeezing_operator
from dwf.formats import unitary_from_payload, unitary_to_payload, wigner_values_from_csv
from dwf.galois import field
from dwf.tolerances import SPECTRAL, trace_slack


def write_state(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def zero_state(tmp_path):
    return write_state(
        tmp_path / "zero.json", {"dim": 2, "kind": "pure", "data": [[1, 0], [0, 0]]}
    )


def test_field_subcommand(capsys):
    assert main(["field", "--p", "2", "--n", "2", "--tables"]) == 0
    out = capsys.readouterr().out
    assert "companion matrix" in out
    assert "multiplication table" in out


def test_field_rejects_unsupported(capsys):
    assert main(["field", "--p", "2", "--n", "4"]) == 2


def test_geometry_subcommand(capsys):
    assert main(["geometry", "--d", "3", "--striations"]) == 0
    out = capsys.readouterr().out
    assert "4 striations" in out
    assert out.count("striation ") == 4


def test_pauli_subcommand(capsys):
    assert main(["pauli", "--d", "2", "--sets"]) == 0
    out = capsys.readouterr().out
    assert "3 disjoint maximal commuting sets" in out


def test_mub_subcommand_with_json(tmp_path, capsys):
    out_path = tmp_path / "mub.json"
    assert main(["mub", "--d", "4", "--check", "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "5 bases" in out
    payload = json.loads(out_path.read_text())
    assert payload["dim"] == 4
    assert len(payload["bases"]) == 5
    assert payload["meta"]["dimension"] == 4


def test_nets_count_only(capsys):
    assert main(["nets", "--d", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "81"
    assert main(["nets", "--d", "4", "--fix-axes", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "64"


def test_nets_enumeration_and_export(tmp_path, capsys):
    assert main(["nets", "--d", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "total: 8"
    assert len(lines) == 9

    out_path = tmp_path / "net.json"
    assert main(["nets", "--d", "2", "--ray-choices", "0,1,0", "--out", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["ray_choices"] == [0, 1, 0]


def test_nets_bad_ray_choices(capsys):
    assert main(["nets", "--d", "2", "--ray-choices", "0,9,0"]) == 2
    assert main(["nets", "--d", "2", "--ray-choices", "a,b,c"]) == 2


def test_nets_empty_ray_choices_is_a_usage_error(capsys):
    assert main(["nets", "--d", "2", "--ray-choices", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field 'ray_choices' must be comma-separated integers\n"


def test_nets_out_without_ray_choices_refused_before_enumerating(tmp_path, capsys):
    out_path = tmp_path / "net.json"
    assert main(["nets", "--d", "5", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out needs --ray-choices" in captured.err
    assert not out_path.exists()


def test_nets_ray_choices_conflict_with_count_only(tmp_path, capsys):
    out_path = tmp_path / "net.json"
    argv = ["nets", "--d", "4", "--count-only", "--ray-choices", "9,9", "--out", str(out_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --ray-choices conflicts with --count-only\n"
    assert not out_path.exists()


def test_nets_ray_choices_conflict_with_fix_axes(capsys):
    assert main(["nets", "--d", "2", "--fix-axes", "--ray-choices", "1,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --ray-choices conflicts with --fix-axes\n"


def test_nets_large_dimension_refused(capsys):
    assert main(["nets", "--d", "8"]) == 2
    assert "refused" in capsys.readouterr().err


def test_wigner_pipeline(tmp_path, zero_state, capsys):
    net_path = tmp_path / "net.json"
    assert main(["nets", "--d", "2", "--ray-choices", "0,0,0", "--out", str(net_path)]) == 0
    csv_path = tmp_path / "w.csv"
    assert main(["wigner", "--state", zero_state, "--net", str(net_path), "--out", str(csv_path)]) == 0
    values = wigner_values_from_csv(csv_path.read_text())
    assert values.shape == (2, 2)
    assert abs(values.sum() - 1.0) < 1e-12
    assert np.allclose(values, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_trace_slack_is_sized_for_the_wigner_sum_check(tmp_path, capsys, d):
    """I/d with entry (0, 0) raised: a trace just inside trace_slack(d)
    gives a valid table at every d; just outside, and the 9e-11 that
    once passed the state check only to fail the table's sum check, exit
    2 with one line naming field 'data'."""
    net = write_state(tmp_path / "net.json", {"dim": d, "ray_choices": [1] * (d + 1)})
    csv_path = tmp_path / "w.csv"
    for excess, accepted in [(0.99 * trace_slack(d), True), (1.01 * trace_slack(d), False),
                             (9e-11, False)]:
        rho = np.eye(d) / d
        rho[0, 0] += excess
        data = [[[x, 0.0] for x in row] for row in rho.tolist()]
        state = write_state(tmp_path / "s.json", {"dim": d, "kind": "density", "data": data})
        code = main(["wigner", "--state", state, "--net", net, "--out", str(csv_path)])
        err = capsys.readouterr().err
        if accepted:
            assert code == 0 and err == "", err
            values = wigner_values_from_csv(csv_path.read_text())
            assert abs(values.sum() - 1.0) <= SPECTRAL
        else:
            assert code == 2, excess
            lines = err.splitlines()
            assert len(lines) == 1 and "'data'" in lines[0] and "trace" in lines[0], err


def test_wigner_dimension_mismatch(tmp_path, zero_state, capsys):
    net_path = write_state(tmp_path / "net3.json", {"dim": 3, "ray_choices": [0, 0, 0, 0]})
    assert main(["wigner", "--state", zero_state, "--net", net_path, "--out", str(tmp_path / "w.csv")]) == 2
    assert "dim" in capsys.readouterr().err


def test_wigner_missing_file(tmp_path, capsys):
    assert main(["wigner", "--state", str(tmp_path / "nope.json"),
                 "--net", str(tmp_path / "nope2.json"), "--out", str(tmp_path / "w.csv")]) == 2
    assert "not found" in capsys.readouterr().err


def test_classicality_zero_state(tmp_path, zero_state, capsys):
    dec_path = tmp_path / "dec.json"
    assert main(["classicality", "--state", zero_state, "--decompose", str(dec_path),
                 "--brute-force"]) == 0
    out = capsys.readouterr().out
    assert "classical: True" in out
    payload = json.loads(dec_path.read_text())
    assert payload["certified_classical"] is True
    assert abs(sum(sum(row) for row in payload["coefficients"]) - 1.0) < 1e-9


def test_classicality_huge_pure_amplitudes(tmp_path, capsys):
    state = write_state(tmp_path / "huge.json",
                        {"dim": 2, "kind": "pure", "data": [[1e200, 0], [1e200, 0]]})
    assert main(["classicality", "--state", state]) == 0
    assert "classical: True" in capsys.readouterr().out  # |+> is a basis state


def test_classicality_nonclassical_state(tmp_path, capsys):
    a = 1 / np.sqrt(2)
    state = write_state(
        tmp_path / "edge.json",
        {"dim": 2, "kind": "pure", "data": [[a, 0], [0.5, 0.5]]},
    )
    assert main(["classicality", "--state", state]) == 0
    out = capsys.readouterr().out
    assert "classical: False" in out
    assert "-0.103553" in out
    assert "witness" in out


def test_classicality_malformed_state(tmp_path, capsys):
    bad = write_state(tmp_path / "bad.json", {"dim": 2, "kind": "pure"})
    assert main(["classicality", "--state", bad]) == 2
    assert "data" in capsys.readouterr().err


@pytest.mark.parametrize("kind,data", [
    ("density", [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]),
    ("density", [[[0.5, 0], [float("inf"), 0]], [[float("inf"), 0], [0.5, 0]]]),
    ("pure", [[float("nan"), 0], [1, 0]]),
])
def test_non_finite_state_is_a_usage_error(tmp_path, capsys, kind, data):
    state = write_state(tmp_path / "bad.json", {"dim": 2, "kind": kind, "data": data})
    net = write_state(tmp_path / "net.json", {"dim": 2, "ray_choices": [0, 0, 0]})
    for argv in (
        ["classicality", "--state", state],
        ["classicality", "--state", state, "--brute-force"],
        ["wigner", "--state", state, "--net", net, "--out", str(tmp_path / "w.csv")],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "'data'" in captured.err
        assert "nan" not in captured.out
    assert not (tmp_path / "w.csv").exists()


def test_classicality_brute_force_at_d5_matches_the_closed_form(tmp_path, capsys):
    amps = [[0.6, 0], [0, 0.8]] + [[0, 0]] * 3
    state = write_state(tmp_path / "d5.json", {"dim": 5, "kind": "pure", "data": amps})
    assert main(["classicality", "--state", state, "--brute-force"]) == 0
    out = capsys.readouterr().out
    assert "brute_force_min:" in out
    assert out.count("  witness net=") == 5


def test_classicality_brute_force_above_d5_is_a_usage_error(tmp_path, capsys):
    amps = [[1, 0]] + [[0, 0]] * 6
    state = write_state(tmp_path / "d7.json", {"dim": 7, "kind": "pure", "data": amps})
    assert main(["classicality", "--state", state, "--brute-force"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --brute-force supports d <= 5, got d=7")
    assert len(err.strip().splitlines()) == 1


def test_classicality_above_d5_lists_five_witnesses(tmp_path, capsys):
    amps = [[0.6, 0], [0, 0.8]] + [[0, 0]] * 5
    state = write_state(tmp_path / "d7.json", {"dim": 7, "kind": "pure", "data": amps})
    assert main(["classicality", "--state", state]) == 0
    out = capsys.readouterr().out
    assert "classical: False" in out
    assert out.count("  witness net=") == 5


def test_clifford_check_accepts_hadamard(tmp_path, capsys):
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    path = write_state(tmp_path / "h.json", unitary_to_payload(h))
    assert main(["clifford", "--check", path]) == 0
    out = capsys.readouterr().out
    assert "clifford: yes" in out


def test_check_and_squeeze_print_the_same_table(tmp_path, capsys):
    # both branches of `dwf clifford` print the table and the phases one way
    u = squeezing_operator(field(4)).dense
    assert main(["clifford", "--squeeze", "--d", "4"]) == 0
    squeezed = capsys.readouterr().out.splitlines()
    assert main(["clifford", "--check", write_state(tmp_path / "s.json", unitary_to_payload(u))]) == 0
    checked = capsys.readouterr().out.splitlines()
    result = is_clifford(u, field(4))
    table = ["symplectic table (columns X_1..X_n, Z_1..Z_n):",
             *("  " + " ".join(map(str, row)) for row in result.symplectic),
             f"phase exponents: {result.phase_exponents}"]
    assert checked == ["clifford: yes", *table]
    assert squeezed == ["squeezing operator synthesized for d=4", *table]


def test_unwritable_output_is_a_one_line_usage_error(tmp_path, capsys, zero_state):
    net = write_state(tmp_path / "n.json", {"dim": 2, "ray_choices": [0, 0, 0]})
    code = main(["wigner", "--state", zero_state, "--net", net, "--out", str(tmp_path / "no" / "w.csv")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "w.csv" in err


def test_clifford_check_rejects_eighth_turn(tmp_path, capsys):
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    path = write_state(tmp_path / "t.json", unitary_to_payload(t))
    assert main(["clifford", "--check", path]) == 1
    out = capsys.readouterr().out
    assert "clifford: no" in out
    assert "witness" in out


def run_dwf(capsys, fresh, *argv):
    """(exit code, stdout, stderr) of `dwf argv`: in a fresh interpreter when
    fresh, else through main in this one, where an uncaught exception fails
    the test instead of printing a traceback."""
    if fresh:
        proc = run_python("-m", "dwf.cli", *argv)
        return proc.returncode, proc.stdout, proc.stderr
    code = main(list(argv))
    return (code, *capsys.readouterr())


# nan stands for its class in a fresh interpreter, inf runs in process
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_unitary_is_a_usage_error(tmp_path, capsys, bad):
    payload = unitary_to_payload(np.eye(2))
    payload["matrix"][1][0] = [bad, 0.0]
    path = write_state(tmp_path / "u.json", payload)
    code, out, err = run_dwf(capsys, np.isnan(bad), "clifford", "--check", path)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "'matrix'" in lines[0], err
    assert "Traceback" not in err


HUGE = b"1" * 401


# deep nesting stands for its class in a fresh interpreter, the others run in process
@pytest.mark.parametrize("subcommand, flag, document, names, fresh", [
    ("classicality", "--state", b"[" * 100_000 + b"]" * 100_000, "nested too deeply", True),
    ("classicality", "--state", b'{"dim": 2, "kind": "pure", "data": "\xff"}', "not valid JSON", False),
    ("classicality", "--state", b'{"dim": 2, "kind": "pure", "data": [[' + HUGE + b', 0], [0, 0]]}',
     "'data'", False),
    ("classicality", "--state", b'{"dim": ' + b"1" * 5001 + b', "kind": "pure", "data": []}',
     "not valid JSON", False),
    ("clifford", "--check", b'{"dim": 2, "matrix": [[[' + HUGE + b', 0], [0, 0]], [[0, 0], [1, 0]]]}',
     "'matrix'", False),
], ids=["deep nesting", "not utf-8", "huge amplitude", "huge dim", "huge matrix entry"])
def test_unreadable_file_is_a_one_line_usage_error(tmp_path, capsys, subcommand, flag, document, names,
                                                   fresh):
    path = tmp_path / "input.json"
    path.write_bytes(document)
    code, out, err = run_dwf(capsys, fresh, subcommand, flag, str(path))
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and names in lines[0], err
    assert "Traceback" not in err


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_states_with_large_entries_end_cleanly(tmp_path, capsys, d):
    """Seeded Hermitian, trace-one matrices scaled to largest entries 1e1,
    1e4 and 1e12: each command prints finite numbers and exits 0, or exits
    2 with one line naming field 'data'.  Rounding once broke the table
    sum checks here and ended in a traceback; in process, an uncaught
    exception fails the test."""
    rng = np.random.default_rng([d, 11])
    net = write_state(tmp_path / "net.json", {"dim": d, "ray_choices": [0] * (d + 1)})
    runs = []
    for largest in (1e1, 1e4, 1e12):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        h *= largest / np.abs(h).max()
        h[np.diag_indices(d)] -= (np.trace(h).real - 1) / d
        data = [[[x.real, x.imag] for x in row.tolist()] for row in h]
        state = write_state(tmp_path / f"{largest:g}.json", {"dim": d, "kind": "density", "data": data})
        runs.append(["wigner", "--state", state, "--net", net, "--out", str(tmp_path / "w.csv")])
        runs.append(["classicality", "--state", state])
    codes = []
    for argv in runs:
        where = (argv[0], argv[2])
        codes.append(main(argv))
        out, err = capsys.readouterr()
        if codes[-1] == 0:
            assert err == "", where
            assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), where
        else:
            assert codes[-1] == 2, (where, err)
            lines = err.splitlines()
            assert len(lines) == 1 and "'data'" in lines[0], (where, err)
    # the smallest scale is accepted by both commands
    assert codes[0] == codes[1] == 0


def test_non_finite_unitary_is_refused_by_the_library():
    payload = unitary_to_payload(np.eye(2))
    payload["matrix"][0][0] = [float("nan"), 0.0]
    with pytest.raises(ValueError, match="'matrix'"):
        unitary_from_payload(payload)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not unitary"):
            is_clifford(np.array([[bad, 0], [0, 1]], dtype=complex), field(2))


def test_clifford_scan_and_squeeze(capsys):
    assert main(["clifford", "--no-flow-scan", "--d", "2"]) == 0
    assert "0 flows among 8" in capsys.readouterr().out
    assert main(["clifford", "--squeeze", "--d", "4"]) == 0
    assert "symplectic table" in capsys.readouterr().out


def test_clifford_scan_refuses_unenumerable_dimension(capsys, monkeypatch):
    def unexpected(gf):
        raise AssertionError("the Fourier operator was built before the refusal")

    monkeypatch.setattr("dwf.cli.fourier_operator", unexpected)
    assert main(["clifford", "--no-flow-scan", "--d", "8"]) == 2
    err = capsys.readouterr().err
    assert err == "error: the Fourier scan enumerates nets only for d <= 5, got d=8\n"


def test_clifford_flag_validation(capsys):
    assert main(["clifford"]) == 2
    capsys.readouterr()
    assert main(["clifford", "--no-flow-scan"]) == 2
    capsys.readouterr()
    assert main(["clifford", "--squeeze", "--d", "2"]) == 2  # squeezing needs n >= 2


@pytest.mark.parametrize("argv, message", [
    (["field", "--p", "3", "--n", "3"], "dimension 27 not supported; choose from (2, 3, 4, 5, 7, 8, 9)"),
    (["field", "--p", "9", "--n", "1"], "p=9, n=1 is not a supported field"),
    (["nets", "--d", "4", "--out", "net.json"], "--out needs --ray-choices"),
    (["nets", "--d", "4", "--count-only", "--ray-choices", "0,0,0,0,0"],
     "--ray-choices conflicts with --count-only"),
    (["nets", "--d", "4", "--fix-axes", "--ray-choices", "0,0,0,0,0"],
     "--ray-choices conflicts with --fix-axes"),
    (["nets", "--d", "4", "--ray-choices", "a,b"], "field 'ray_choices' must be comma-separated integers"),
    (["nets", "--d", "4", "--ray-choices", "0,0,0"], "ray_choices must be 5 indices in [0, 4)"),
    (["nets", "--d", "7"], "enumeration of 5764801 nets at d=7 is refused; use --ray-choices to select one"),
    (["classicality", "--brute-force", "--state", "STATE9"], "--brute-force supports d <= 5, got d=9"),
    (["clifford"], "pick exactly one of --check, --no-flow-scan, --squeeze"),
    (["clifford", "--squeeze"], "--no-flow-scan and --squeeze require --d"),
    (["clifford", "--no-flow-scan"], "--no-flow-scan and --squeeze require --d"),
    (["clifford", "--no-flow-scan", "--d", "3"], "the Fourier scan needs characteristic 2"),
    (["clifford", "--no-flow-scan", "--d", "8"], "the Fourier scan enumerates nets only for d <= 5, got d=8"),
    (["clifford", "--squeeze", "--d", "5"], "squeezing needs an extension field (n >= 2)"),
    (["field", "--p", "3", "--n", "1000000"], "p=3, n=1000000 is not a supported field"),
    (["field", "--p", "3", "--n", "0"], "p=3, n=0 is not a supported field"),
    (["field", "--p", "3", "--n", "-1"], "p=3, n=-1 is not a supported field"),
])
def test_every_usage_error_of_a_command_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # --out names a file that must not appear
    write_state(tmp_path / "STATE9", {"dim": 9, "kind": "pure", "data": [[1, 0]] + [[0, 0]] * 8})
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["STATE9"]


def test_verify_passes_at_d2(capsys):
    assert main(["verify", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "9/9 checks passed" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["verify", "--d", "2"],
    ["field", "--p", "2", "--n", "1"],
    ["nets", "--d", "2", "--count-only"],
    ["clifford", "--squeeze", "--d", "4"],
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    # numpy refuses a negative seed; it once ended `verify` in a traceback, exit 1
    with pytest.raises(SystemExit) as exit_info:
        main(["--seed", "-1", *argv])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.split("dwf: error: ")  # argparse's usage, then one line
    assert usage.startswith("usage: ")
    assert error == "argument --seed: must be non-negative, got -1\n"


@pytest.mark.parametrize("argv, flag, kind, value", [
    (["--seed", "abc", "verify", "--d", "2"], "--seed", "seed", "abc"),
    (["verify", "--d", "x"], "--d", "dimension", "x"),
])
def test_unparsable_argument_names_the_kind_of_value(capsys, argv, flag, kind, value):
    # argparse names a type by its callable's __name__; it once named private functions
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.split(": error: ")  # argparse's usage, then one line
    assert usage.startswith("usage: ")
    assert error == f"argument {flag}: invalid {kind} value: '{value}'\n"
    assert "_seed" not in err and "_dimension" not in err


def test_unknown_dimension_rejected():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--d", "6"])
    assert err.value.code == 2


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args, scale=None):
    """A fresh interpreter with the package on its path and, unless scale
    is None, DWF_TOLERANCE_SCALE set to it."""
    env = {k: v for k, v in os.environ.items() if k != "DWF_TOLERANCE_SCALE"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if scale is not None:
        env["DWF_TOLERANCE_SCALE"] = scale
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


BAD_SCALES = ["abc", "nan", "inf", "0", "-1"]


@pytest.fixture(params=["module", "console script"])
def launcher(request, tmp_path):
    """The two ways to start the program: `python -m dwf.cli`, and a file
    named `dwf` shaped like the console script pip installs."""
    if request.param == "module":
        return ["-m", "dwf.cli"]
    script = tmp_path / "dwf"
    script.write_text("import sys\nfrom dwf.cli import main\nsys.exit(main())\n")
    return [str(script)]


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_bad_tolerance_scale_is_a_usage_error(launcher, scale):
    proc = run_python(*launcher, "verify", "--d", "2", scale=scale)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "DWF_TOLERANCE_SCALE" in lines[0]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_bad_tolerance_scale_fails_the_library_import(scale):
    code = "try:\n    import dwf\nexcept ValueError as exc:\n    print(exc)"
    proc = run_python("-c", code, scale=scale)
    assert proc.returncode == 0, proc.stderr
    assert "DWF_TOLERANCE_SCALE" in proc.stdout


@pytest.mark.parametrize("scale, factor", [(None, 1.0), ("2.0", 2.0)])
def test_tolerance_scale_multiplies_all_four_tiers(scale, factor):
    code = "import dwf.tolerances as t; print(t.ALGEBRAIC, t.SPECTRAL, t.LOOKUP, t.MEMBERSHIP)"
    proc = run_python("-c", code, scale=scale)
    assert proc.returncode == 0, proc.stderr
    tiers = [float(x) for x in proc.stdout.split()]
    assert tiers == [1e-12 * factor, 1e-10 * factor, 1e-8 * factor, 1e-9 * factor]
