"""On-disk formats: state JSON, net JSON, unitary JSON, Wigner CSV.

Complex numbers are [re, im] pairs everywhere.  Loaders raise FormatError
with the offending field named, so the CLI can turn any malformed input
into a usage error that says what to fix.  Writers embed a meta block
(dimension, primitive polynomial, seed, tool version) making every output
reproducible from its own header.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import __version__
from .galois import field
from .geometry import build_striations
from .mub import MubSet, standard_mub
from .quantum_net import QuantumNet, covariant_completion
from .wigner import DensityState, WignerTable


class FormatError(ValueError):
    pass


def _require(payload: dict, key: str, kind) -> Any:
    if key not in payload:
        raise FormatError(f"missing field '{key}'")
    value = payload[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise FormatError(f"field '{key}' must be {kind.__name__}, got {type(value).__name__}")
    return value


def _pair_to_complex(entry, where: str) -> complex:
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise FormatError(f"field '{where}' must contain [re, im] pairs")
    re, im = entry
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise FormatError(f"field '{where}' must contain numeric [re, im] pairs")
    return complex(re, im)


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def meta_block(d: int, seed: int) -> dict:
    return {
        "dimension": d,
        "primitive_poly": list(field(d).primitive_poly),
        "seed": seed,
        "tool_version": __version__,
    }


# -- states -------------------------------------------------------------------

def state_to_payload(state: DensityState) -> dict:
    return {
        "dim": state.dim,
        "kind": "density",
        "data": [[_complex_to_pair(z) for z in row] for row in state.rho],
    }


def state_from_payload(payload: dict) -> DensityState:
    d = _require(payload, "dim", int)
    kind = _require(payload, "kind", str)
    data = _require(payload, "data", list)
    if kind == "pure":
        if len(data) != d:
            raise FormatError(f"field 'data' must hold {d} amplitudes for a pure state")
        amps = [_pair_to_complex(x, "data") for x in data]
        try:
            return DensityState.from_vector(amps)
        except ValueError as exc:
            raise FormatError(f"field 'data': {exc}") from exc
    if kind == "density":
        if len(data) != d or any(not isinstance(row, list) or len(row) != d for row in data):
            raise FormatError(f"field 'data' must be a {d}x{d} matrix of [re, im] pairs")
        rho = np.array(
            [[_pair_to_complex(x, "data") for x in row] for row in data]
        )
        try:
            return DensityState(rho, kind="mixed")
        except ValueError as exc:
            raise FormatError(f"field 'data': {exc}") from exc
    raise FormatError("field 'kind' must be 'pure' or 'density'")


# -- nets ----------------------------------------------------------------------

def net_to_payload(net: QuantumNet) -> dict:
    return {"dim": net.dim, "ray_choices": list(net.ray_choices)}


def net_from_payload(payload: dict) -> QuantumNet:
    d = _require(payload, "dim", int)
    choices = _require(payload, "ray_choices", list)
    if len(choices) != d + 1 or any(
        isinstance(r, bool) or not isinstance(r, int) or not 0 <= r < d for r in choices
    ):
        raise FormatError(f"field 'ray_choices' must be {d + 1} integers in [0, {d})")
    try:
        gf = field(d)
    except ValueError as exc:
        raise FormatError(f"field 'dim': {exc}") from exc
    return covariant_completion(tuple(choices), standard_mub(d), build_striations(gf))


# -- unitaries -------------------------------------------------------------------

def unitary_to_payload(u: np.ndarray) -> dict:
    return {
        "dim": u.shape[0],
        "matrix": [[_complex_to_pair(z) for z in row] for row in u],
    }


def unitary_from_payload(payload: dict) -> np.ndarray:
    d = _require(payload, "dim", int)
    rows = _require(payload, "matrix", list)
    if len(rows) != d or any(not isinstance(row, list) or len(row) != d for row in rows):
        raise FormatError(f"field 'matrix' must be a {d}x{d} array of [re, im] pairs")
    return np.array([[_pair_to_complex(x, "matrix") for x in row] for row in rows])


# -- bases -----------------------------------------------------------------------

def mub_to_payload(mub: MubSet) -> dict:
    return {
        "dim": mub.dim,
        "bases": [
            [[_complex_to_pair(z) for z in basis.vector(j)] for j in range(mub.dim)]
            for basis in mub.bases
        ],
    }


# -- Wigner tables -----------------------------------------------------------------

def wigner_to_csv(table: WignerTable) -> str:
    lines = ["q,p,W"]
    d = table.dim
    for qi in range(d):
        for pi in range(d):
            lines.append(f"{qi},{pi},{table.values[qi, pi]:.17g}")
    return "\n".join(lines) + "\n"


def wigner_values_from_csv(text: str) -> np.ndarray:
    rows = text.strip().splitlines()
    if not rows or rows[0].strip() != "q,p,W":
        raise FormatError("CSV must start with the header 'q,p,W'")
    body = rows[1:]
    d = int(round(np.sqrt(len(body))))
    if d * d != len(body):
        raise FormatError(f"CSV holds {len(body)} rows, expected a square count")
    values = np.full((d, d), np.nan)
    for row, line in enumerate(body, start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise FormatError(f"CSV row {row} '{line}' is not 'q,p,W'")
        try:
            qi, pi, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise FormatError(f"CSV row {row} '{line}' must hold integers q, p and a number W") from None
        if not (0 <= qi < d and 0 <= pi < d and np.isfinite(w)):
            raise FormatError(f"CSV row {row} '{line}' needs q, p in [0, {d}) and a finite W")
        if not np.isnan(values[qi, pi]):
            raise FormatError(f"CSV row {row} '{line}' repeats the point ({qi}, {pi})")
        values[qi, pi] = w
    return values


# -- files -------------------------------------------------------------------------

def read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise FormatError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path} must hold a JSON object")
    return payload


def write_json(path: str, payload: dict, d: int, seed: int) -> None:
    with open(path, "w") as fh:
        json.dump({**payload, "meta": meta_block(d, seed)}, fh, indent=2)
        fh.write("\n")
