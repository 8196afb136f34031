import json

import numpy as np
import pytest

from dwf.cli import main
from dwf.formats import unitary_to_payload, wigner_values_from_csv


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


def test_nets_out_without_ray_choices_refused_before_enumerating(tmp_path, capsys):
    out_path = tmp_path / "net.json"
    assert main(["nets", "--d", "5", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out needs --ray-choices" in captured.err
    assert not out_path.exists()


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


def test_classicality_brute_force_above_d4_is_a_usage_error(tmp_path, capsys):
    amps = [[1, 0]] + [[0, 0]] * 4
    state = write_state(tmp_path / "d5.json", {"dim": 5, "kind": "pure", "data": amps})
    assert main(["classicality", "--state", state, "--brute-force"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --brute-force supports d <= 4")
    assert len(err.strip().splitlines()) == 1


def test_clifford_check_accepts_hadamard(tmp_path, capsys):
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    path = write_state(tmp_path / "h.json", unitary_to_payload(h))
    assert main(["clifford", "--check", path]) == 0
    out = capsys.readouterr().out
    assert "clifford: yes" in out


def test_clifford_check_rejects_eighth_turn(tmp_path, capsys):
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    path = write_state(tmp_path / "t.json", unitary_to_payload(t))
    assert main(["clifford", "--check", path]) == 1
    out = capsys.readouterr().out
    assert "clifford: no" in out
    assert "witness" in out


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


def test_verify_passes_at_d2(capsys):
    assert main(["verify", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "9/9 checks passed" in out
    assert "FAIL" not in out


def test_unknown_dimension_rejected():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--d", "6"])
    assert err.value.code == 2
