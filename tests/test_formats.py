import json

import numpy as np
import pytest

from dwf.formats import (
    FormatError,
    meta_block,
    mub_to_payload,
    net_from_payload,
    net_to_payload,
    read_json,
    state_from_payload,
    state_to_payload,
    unitary_from_payload,
    unitary_to_payload,
    wigner_to_csv,
    wigner_values_from_csv,
    write_json,
)
from dwf.mub import standard_mub
from dwf.quantum_net import standard_context
from dwf.wigner import DensityState, wigner_function


def test_state_round_trip_density():
    rng = np.random.default_rng(1)
    state = DensityState.random_mixed(3, rng)
    payload = state_to_payload(state)
    again = state_from_payload(payload)
    assert np.linalg.norm(again.rho - state.rho) < 1e-15


def test_state_pure_payload():
    state = state_from_payload(
        {"dim": 2, "kind": "pure", "data": [[1.0, 0.0], [0.0, 1.0]]}
    )
    assert state.kind == "pure"
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.linalg.norm(state.rho - expected) < 1e-12


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({}, "dim"),
        ({"dim": 2}, "kind"),
        ({"dim": 2, "kind": "pure"}, "data"),
        ({"dim": 2, "kind": "funky", "data": []}, "kind"),
        ({"dim": 2, "kind": "pure", "data": [[1, 0]]}, "data"),
        ({"dim": 2, "kind": "pure", "data": [[1, 0], ["x", 0]]}, "data"),
        ({"dim": 2, "kind": "density", "data": [[1, 0], [0, 0]]}, "data"),
        ({"dim": "2", "kind": "pure", "data": [[1, 0], [0, 0]]}, "dim"),
    ],
)
def test_state_payload_errors_name_the_field(payload, fragment):
    with pytest.raises(FormatError, match=fragment):
        state_from_payload(payload)


def test_non_hermitian_density_payload_rejected():
    bad = [[[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    with pytest.raises(FormatError, match="data"):
        state_from_payload({"dim": 2, "kind": "density", "data": bad})


def test_net_round_trip():
    net = standard_context(3).complete((0, 2, 1, 0))
    payload = net_to_payload(net)
    assert payload == {"dim": 3, "ray_choices": [0, 2, 1, 0]}
    again = net_from_payload(json.loads(json.dumps(payload)))
    assert again.ray_choices == net.ray_choices
    assert again.indices == net.indices


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"dim": 3}, "ray_choices"),
        ({"dim": 3, "ray_choices": [0, 0]}, "ray_choices"),
        ({"dim": 3, "ray_choices": [0, 0, 3, 0]}, "ray_choices"),
        ({"dim": 6, "ray_choices": [0] * 7}, "dim"),
    ],
)
def test_net_payload_errors(payload, fragment):
    with pytest.raises(FormatError, match=fragment):
        net_from_payload(payload)


def test_unitary_round_trip():
    u = np.array([[0, 1j], [1, 0]], dtype=complex)
    again = unitary_from_payload(unitary_to_payload(u))
    assert np.linalg.norm(again - u) < 1e-15


def test_unitary_payload_errors():
    with pytest.raises(FormatError, match="matrix"):
        unitary_from_payload({"dim": 2, "matrix": [[[1, 0]]]})


def test_mub_payload_shape():
    mub = standard_mub(2)
    payload = mub_to_payload(mub)
    assert payload["dim"] == 2
    assert len(payload["bases"]) == 3
    assert len(payload["bases"][0]) == 2
    assert payload["bases"][0][0][0] == [1.0, 0.0]


def test_wigner_csv_round_trip_17_digits():
    net = standard_context(2).complete((0, 0, 0))
    rng = np.random.default_rng(3)
    table = wigner_function(DensityState.random_mixed(2, rng), net)
    text = wigner_to_csv(table)
    assert text.splitlines()[0] == "q,p,W"
    values = wigner_values_from_csv(text)
    assert np.array_equal(values, table.values)  # exact, not approximate


def test_wigner_csv_header_required():
    with pytest.raises(FormatError, match="header"):
        wigner_values_from_csv("a,b,c\n0,0,1.0\n")


@pytest.mark.parametrize("row, fragment", [
    ("0,x,0.25", "row 3 '0,x,0.25' must hold integers"),
    ("0,2,0.25", "row 3 '0,2,0.25' needs q, p in [0, 2)"),
    ("0,0,0.25", "row 3 '0,0,0.25' repeats the point (0, 0)"),
])
def test_wigner_csv_bad_row_is_named(row, fragment):
    text = f"q,p,W\n0,0,0.25\n{row}\n1,0,0.25\n1,1,0.25\n"
    with pytest.raises(FormatError) as err:
        wigner_values_from_csv(text)
    assert fragment in str(err.value)


def test_read_json_errors(tmp_path):
    with pytest.raises(FormatError, match="not found"):
        read_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(FormatError, match="not valid JSON"):
        read_json(str(bad))


def test_write_json_embeds_meta(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"x": 1}, d=4, seed=7)
    payload = json.loads(path.read_text())
    assert payload["x"] == 1
    assert payload["meta"]["dimension"] == 4
    assert payload["meta"]["primitive_poly"] == [1, 1, 1]
    assert payload["meta"]["seed"] == 7
    assert payload["meta"]["tool_version"]


def test_meta_block_contents():
    block = meta_block(8, 99)
    assert block == {
        "dimension": 8,
        "primitive_poly": [1, 1, 0, 1],
        "seed": 99,
        "tool_version": block["tool_version"],
    }
