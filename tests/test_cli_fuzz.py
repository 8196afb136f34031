"""In-process fuzzing of the file-reading subcommands.

Malformed and extreme state, net and unitary files go through `cli.main`
for `classicality`, `wigner` and `clifford --check`.  Whatever the input,
the command must return 0, 1 or 2 without raising; print only finite
numbers on success; and return 1 only when a check failed (a non-Clifford
under `clifford --check`, or a `--brute-force` disagreement).
"""

import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dwf.cli import main

DIMS = (2, 3, 4, 5, 7, 8, 9)
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|\bnan\b|\binf\b)", re.IGNORECASE)

# the four inputs that once ended in a traceback
DEEP = b"[" * 100_000 + b"]" * 100_000
NOT_UTF8 = b'{"dim": 2, "kind": "pure", "data": "\xff\xfe"}'
HUGE_AMPLITUDE = b'{"dim": 2, "kind": "pure", "data": [[' + b"1" * 401 + b", 0], [0, 0]]}"
HUGE_DIM = b'{"dim": ' + b"1" * 5001 + b', "kind": "pure", "data": []}'
# finite, but u u~ overflows to NaN, which once passed the unitarity test
OVERFLOWING_ENTRY = b'{"dim": 2, "matrix": [[[0, 1.35e154], [0, 0]], [[0, 0], [1, 0]]]}'

numbers = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**450), 10**450),
    st.sampled_from([0, 1, -1, 0.5, 1e-300, 1e300]),
)
pairs = st.one_of(
    st.tuples(numbers, numbers).map(list),
    st.lists(numbers, max_size=3),
    st.sampled_from([None, "1", True, {}]),
)
dims = st.one_of(st.sampled_from(DIMS), st.integers(-2, 12), st.sampled_from([True, 2.0, "2", None]))


@st.composite
def states(draw):
    d = draw(dims)
    size = d if isinstance(d, int) and 0 <= d <= 9 else 2
    size = draw(st.sampled_from([size, size, max(size - 1, 0), size + 1]))
    kind = draw(st.sampled_from(["pure", "density", "mixed"]))
    if kind == "pure":
        data = draw(st.lists(pairs, min_size=size, max_size=size))
    else:
        data = draw(st.lists(st.lists(pairs, min_size=size, max_size=size), min_size=size, max_size=size))
    return {"dim": d, "kind": kind, "data": data}


@st.composite
def nets(draw):
    d = draw(dims)
    size = d + 1 if isinstance(d, int) and 0 <= d <= 9 else 3
    choices = draw(st.lists(st.one_of(st.integers(-1, 9), st.sampled_from([True, 0.0, "0"])),
                            min_size=size - 1, max_size=size + 1))
    return {"dim": d, "ray_choices": choices}


KNOWN_UNITARIES = [
    np.eye(2),
    np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    np.diag([1, np.exp(1j * np.pi / 4)]),  # not Clifford
    np.eye(3),
    np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3),
    np.eye(4)[[1, 0, 3, 2]],
    np.eye(6),  # unsupported dimension
]


@st.composite
def unitaries(draw):
    u = draw(st.sampled_from(KNOWN_UNITARIES)).astype(complex)
    matrix = [[[z.real, z.imag] for z in row] for row in u]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(matrix) - 1))
        j = draw(st.integers(0, len(matrix) - 1))
        matrix[i][j] = draw(pairs)
    return {"dim": draw(st.sampled_from([len(matrix), len(matrix), 2, 0])), "matrix": matrix}


def documents(payloads):
    """Well-formed JSON of the payload, truncated JSON, or arbitrary bytes."""
    encoded = payloads.map(lambda p: json.dumps(p).encode())
    return st.one_of(
        encoded,
        encoded,
        st.tuples(encoded, st.integers(0, 40)).map(lambda t: t[0][: t[1]]),
        st.binary(max_size=40),
    )


VALID_STATE = json.dumps({"dim": 2, "kind": "pure", "data": [[1, 0], [0, 0]]}).encode()
VALID_NET = json.dumps({"dim": 2, "ray_choices": [0, 1, 0]}).encode()

# argv per command; the fuzzed file is input.json, its partner a valid d=2 file
COMMANDS = {
    "classicality": ["classicality", "--state", "input.json"],
    "classicality --brute-force": ["classicality", "--state", "input.json", "--brute-force"],
    "wigner --state": ["wigner", "--state", "input.json", "--net", "net.json", "--out", "w.csv"],
    "wigner --net": ["wigner", "--state", "state.json", "--net", "input.json", "--out", "w.csv"],
    "clifford --check": ["clifford", "--check", "input.json"],
}
cases = st.one_of(
    st.tuples(st.sampled_from(["classicality", "classicality --brute-force", "wigner --state"]),
              documents(states())),
    st.tuples(st.just("wigner --net"), documents(nets())),
    st.tuples(st.just("clifford --check"), documents(unitaries())),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "state.json").write_bytes(VALID_STATE)
    (path / "net.json").write_bytes(VALID_NET)
    return path


def run(command, document, workdir):
    (workdir / "input.json").write_bytes(document)
    argv = [str(workdir / a) if a.endswith((".json", ".csv")) else a for a in COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    # a warning is one more stderr line of the real command
    return code, out.getvalue(), err.getvalue() + "".join(f"{w.message}\n" for w in caught)


@given(case=cases)
@example(case=("classicality", DEEP))
@example(case=("classicality", NOT_UTF8))
@example(case=("classicality", HUGE_AMPLITUDE))
@example(case=("classicality", HUGE_DIM))
@example(case=("clifford --check", OVERFLOWING_ENTRY))
def test_file_commands_end_in_an_exit_code(workdir, case):
    command, document = case
    code, out, err = run(command, document, workdir)
    assert code in (0, 1, 2), (code, out, err)
    if code == 0:
        assert all(math.isfinite(float(x)) for x in NUMBER.findall(out)), out
    if code == 1:
        failed_check = (
            command == "clifford --check" and "clifford: no" in out
        ) or "brute force disagrees" in err
        assert failed_check, (out, err)
    if code == 2:
        assert len(err.splitlines()) == 1, err
    else:
        assert code == 1 or err == "", err
