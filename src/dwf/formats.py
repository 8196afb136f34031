"""On-disk formats: state JSON, net JSON, unitary JSON, Wigner CSV.

Complex numbers are [re, im] pairs everywhere.  Each field has one checked
reader, which raises FormatError naming the field, so the CLI can turn any
malformed input into a usage error that says what to fix: `dim` passes on
`galois.field`'s refusal, [re, im] arrays hold finite JSON numbers (a
boolean is none) and `ray_choices` passes on `QuantumNet`'s.  Writers embed
a meta block (dimension, primitive polynomial, seed, tool version) making
every output reproducible from its own header.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from . import __version__
from .galois import field
from .mub import MubSet
from .quantum_net import QuantumNet, standard_context
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


def _read_dim(payload: dict) -> int:
    d = _require(payload, "dim", int)
    try:
        return field(d).order
    except ValueError as exc:
        raise FormatError(f"field 'dim': {exc}") from None


def _read_pairs(payload: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of the given shape held in field `key` as nested
    [re, im] pairs of JSON numbers, read one nesting level at a time."""
    level = [_require(payload, key, list)]
    for n in shape + (2,):
        if set(map(type, level)) != {list} or set(map(len, level)) != {n}:
            raise FormatError(f"field '{key}' must hold {' rows of '.join(map(str, shape))} [re, im] pairs")
        level = [x for entry in level for x in entry]
    if not set(map(type, level)) <= {int, float}:  # type, not isinstance: a bool is no number
        raise FormatError(f"field '{key}' must contain numeric [re, im] pairs")
    try:
        finite = all(map(math.isfinite, level))
    except OverflowError:  # an int beyond the largest float
        raise FormatError(f"field '{key}' has a number too large for a float") from None
    if not finite:
        raise FormatError(f"field '{key}' has non-finite entries")
    return np.array(level, dtype=float).view(complex).reshape(shape)


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
    d = _read_dim(payload)
    kind = _require(payload, "kind", str)
    if kind not in ("pure", "density"):
        raise FormatError("field 'kind' must be 'pure' or 'density'")
    data = _read_pairs(payload, "data", (d,) if kind == "pure" else (d, d))
    try:
        return DensityState.from_vector(data) if kind == "pure" else DensityState(data, kind="mixed")
    except ValueError as exc:
        raise FormatError(f"field 'data': {exc}") from exc


# -- nets ----------------------------------------------------------------------

def net_to_payload(net: QuantumNet) -> dict:
    return {"dim": net.dim, "ray_choices": list(net.ray_choices)}


def net_from_payload(payload: dict) -> QuantumNet:
    d = _read_dim(payload)
    choices = _require(payload, "ray_choices", list)
    try:
        return standard_context(d).complete(choices)
    except ValueError as exc:
        raise FormatError(f"field 'ray_choices': {exc}") from None


# -- unitaries -------------------------------------------------------------------

def unitary_to_payload(u: np.ndarray) -> dict:
    return {
        "dim": u.shape[0],
        "matrix": [[_complex_to_pair(z) for z in row] for row in u],
    }


def unitary_from_payload(payload: dict) -> np.ndarray:
    d = _read_dim(payload)
    return _read_pairs(payload, "matrix", (d, d))


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
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise FormatError(f"file not found: {path}") from exc
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise FormatError(f"{path} is nested too deeply to read") from None
    if not isinstance(payload, dict):
        raise FormatError(f"{path} must hold a JSON object")
    return payload


def write_json(path: str, payload: dict, d: int, seed: int) -> None:
    with open(path, "w") as fh:
        json.dump({**payload, "meta": meta_block(d, seed)}, fh, indent=2)
        fh.write("\n")
