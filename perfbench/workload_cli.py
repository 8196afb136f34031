"""cli: `dwf` commands, each in a fresh interpreter, from a fixed cycle.

Every command pays for the interpreter and numpy import and for the cold
build of its dimension's tables, and most read or write files, so this
workload measures the cold builds, `formats` and `cli`.  A round is one
pass over CYCLE (25 commands).  Inputs (states, ray choices, unitaries)
are drawn from the seed afresh for every round and written as files the
command reads.

Two commands are known to be faulty and are counted as failed until they
are mended:

- `clifford --no-flow-scan --d 8` should print 0 flows and exit 0; it
  dies with an uncaught ValueError from `enumerate_nets`.
- `classicality` on a density JSON holding NaN should exit 2 naming
  field 'data'; it prints `min_wigner: nan` and exits 0.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np

import checks
from dwf import formats, wigner
from workload_flows import haar_unitary, random_density

HERE = os.path.dirname(os.path.abspath(__file__))
WITNESS_STATE = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2.0)
WITNESS_D2 = (1.0 - np.sqrt(2.0)) / 4.0  # its minimum Wigner value

# (kind, d, extra): one entry per command of a round.
CYCLE = (
    ("mub", 2, None),
    ("classicality", 2, "brute"),
    ("mub", 4, None),
    ("nets", 4, None),
    ("wigner", 4, None),
    ("classicality", 4, "brute"),
    ("mub", 5, None),
    ("classicality", 5, None),
    ("mub", 7, None),
    ("classicality", 7, None),
    ("mub", 8, None),
    ("nets", 8, None),
    ("wigner", 8, None),
    ("classicality", 8, None),
    ("mub", 9, None),
    ("nets", 9, None),
    ("wigner", 9, None),
    ("classicality", 9, None),
    ("check", 3, "clifford"),
    ("check", 4, "haar"),
    ("squeeze", 9, None),
    ("verify", 8, None),
    ("verify", 9, None),
    ("flowscan", 8, None),
    ("nan", 3, None),
)
PURE_DIMS = (2, 4, 7, 9)  # the other state files hold density matrices
CHARACTERISTIC = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3}
STATES_PER_OP = sum(kind in ("classicality", "wigner", "nan") for kind, _, _ in CYCLE) / len(CYCLE)


def dwf_command(args: list[str], spans: str | None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "dwf.cli", *args]
    return [sys.executable, os.path.join(HERE, "layers.py"), "--spans", spans, "--", *args]


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def clifford_d3(rng: np.random.Generator) -> np.ndarray:
    """X^a Z^b D^k F^m at d=3: D the quadratic phase, F the Fourier matrix."""
    p = 3
    w = np.exp(2j * np.pi / p)
    a, b, k, m = (int(x) for x in rng.integers(0, p, 4))
    x = np.roll(np.eye(p), 1, axis=0)
    z = np.diag(w ** np.arange(p))
    phase = np.diag(w ** (k * 2 * np.arange(p) ** 2))  # w^(k j^2 / 2), 1/2 = 2 mod 3
    fourier = w ** np.outer(np.arange(p), np.arange(p)) / np.sqrt(p)
    return (np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) @ phase
            @ np.linalg.matrix_power(fourier, m % 2))


class Cli:
    def __init__(self, seed: int, workdir: str, spans_dir: str | None):
        self.dir = workdir
        self.spans_dir = spans_dir
        self.rng = np.random.default_rng([seed, 3])
        self.bases: dict[int, np.ndarray] = {}
        self.count = 0
        self.max_rss_kb = 0
        self.span_files: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _write(self, name: str, payload: dict) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh)

    def _inputs(self) -> dict:
        """Fresh input files for one round; returns the states by dimension."""
        rng = self.rng
        states = {}
        for d in (2, 4, 5, 7, 8, 9):
            if d in PURE_DIMS:
                amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                amps = WITNESS_STATE if d == 2 else amps / np.linalg.norm(amps)
                payload = {"dim": d, "kind": "pure", "data": _pairs(amps)}
                rho = np.outer(amps, amps.conj())
            else:
                rho = random_density(d, rng)
                payload = {"dim": d, "kind": "density", "data": [_pairs(r) for r in rho]}
            self._write(f"state{d}.json", payload)
            states[d] = (payload, rho)
        for d in (4, 8, 9):
            states[("net", d)] = [int(r) for r in rng.integers(0, d, d + 1)]
        clifford = clifford_d3(rng)
        self._write("clifford3.json", {"dim": 3, "matrix": [_pairs(r) for r in clifford]})
        states["clifford"] = clifford
        haar = haar_unitary(4, rng)
        self._write("haar4.json", {"dim": 4, "matrix": [_pairs(r) for r in haar]})
        nan = np.eye(3) / 3
        data = [_pairs(r) for r in nan]
        data[0][1] = [float("nan"), 0.0]
        self._write("nan3.json", {"dim": 3, "kind": "density", "data": data})
        return states

    def _args(self, kind: str, d: int, extra, states) -> list[str]:
        if kind == "mub":
            return ["mub", "--d", str(d), "--json", self.path(f"mub{d}.json")]
        if kind == "nets":
            choices = ",".join(map(str, states[("net", d)]))
            return ["nets", "--d", str(d), "--ray-choices", choices, "--out", self.path(f"net{d}.json")]
        if kind == "wigner":
            return ["wigner", "--state", self.path(f"state{d}.json"), "--net",
                    self.path(f"net{d}.json"), "--out", self.path(f"w{d}.csv")]
        if kind == "classicality":
            args = ["classicality", "--state", self.path(f"state{d}.json"),
                    "--decompose", self.path(f"dec{d}.json")]
            return args + (["--brute-force"] if extra == "brute" else [])
        if kind == "check":
            name = "clifford3.json" if extra == "clifford" else "haar4.json"
            return ["clifford", "--check", self.path(name)]
        if kind == "squeeze":
            return ["clifford", "--squeeze", "--d", str(d)]
        if kind == "verify":
            return ["verify", "--d", str(d)]
        if kind == "flowscan":
            return ["clifford", "--no-flow-scan", "--d", str(d)]
        return ["classicality", "--state", self.path("nan3.json")]

    def round(self):
        states = self._inputs()
        return [self._op(kind, d, extra, states) for kind, d, extra in CYCLE]

    def _op(self, kind, d, extra, states):
        args = self._args(kind, d, extra, states)
        self.count += 1
        spans = None
        if self.spans_dir is not None:
            spans = os.path.join(self.spans_dir, f"cmd{self.count:05d}.npz")
            self.span_files.append(spans)
        command = dwf_command(args, spans)
        return (lambda: self._run(command), lambda rc: self._check(kind, d, extra, states, rc))

    def _run(self, command) -> int:
        with open(self.path("out.txt"), "w") as out, open(self.path("err.txt"), "w") as err:
            proc = subprocess.Popen(command, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def _read(self, name: str) -> str:
        with open(self.path(name)) as fh:
            return fh.read()

    def _check(self, kind, d, extra, states, rc) -> bool:
        """True when the command did its job, False when it failed; raises
        WrongAnswer when it claimed success with a wrong result."""
        out, err = self._read("out.txt"), self._read("err.txt")
        if kind == "flowscan":
            if rc != 0:
                return False
            m = re.search(r"(\d+) flows among", out)
            checks.expect(m is not None and int(m.group(1)) == 0, f"Fourier flow scan: {out!r}")
            return True
        if kind == "nan":
            return rc == 2 and "'data'" in err
        expected_rc = 1 if extra == "haar" else 0
        if rc != expected_rc:
            print(f"cli: {kind} d={d} exited {rc}: {err.strip()[-300:]}", file=sys.stderr)
            return False
        if kind == "mub":
            bases = checks.bases_from_payload(json.loads(self._read(f"mub{d}.json")))
            checks.check_bases(bases)
            self.bases[d] = bases
        elif kind == "nets":
            payload = json.loads(self._read(f"net{d}.json"))
            checks.expect(payload.get("dim") == d and payload.get("ray_choices") == states[("net", d)],
                          f"net file {payload}")
        elif kind == "wigner":
            values = checks.parse_wigner_csv(self._read(f"w{d}.csv"), d)
            state = formats.state_from_payload(states[d][0])
            net = formats.net_from_payload(json.loads(self._read(f"net{d}.json")))
            checks.check_wigner_csv(values, wigner.wigner_from_point_operators(state, net))
        elif kind == "classicality":
            self._check_classicality(d, extra, states[d][1], out)
        elif kind == "check" and extra == "clifford":
            checks.expect("clifford: yes" in out, "a Clifford unitary was not recognized")
            table = checks.parse_table(out)
            checks.check_symplectic(table, CHARACTERISTIC[d])
            checks.check_clifford_conjugation(states["clifford"], table, CHARACTERISTIC[d])
        elif kind == "check":
            checks.expect("clifford: no" in out, "a Haar-random unitary came out Clifford")
        elif kind == "squeeze":
            checks.check_symplectic(checks.parse_table(out), CHARACTERISTIC[d])
        elif kind == "verify":
            checks.expect(f"9/9 checks passed at d={d}" in out, f"verify --d {d}: {out[-200:]!r}")
        return True

    def _check_classicality(self, d, extra, rho, out) -> None:
        bases = self.bases[d]
        value = checks.parse_value(out, "min_wigner")
        want = checks.closed_form_min(bases, rho)
        checks.close(f"min_wigner at d={d}", value, want, checks.PRINT_TOL)
        if d == 2:
            checks.close("min_wigner of the d=2 witness state", value, WITNESS_D2, checks.PRINT_TOL)
        classical = out.count("classical: True") == 1
        checks.expect(classical == (want >= -checks.TOL), f"classical flag wrong at d={d}")
        if extra == "brute":
            checks.close(f"brute_force_min at d={d}", checks.parse_value(out, "brute_force_min"),
                         want, checks.PRINT_TOL)
        payload = json.loads(self._read(f"dec{d}.json"))
        checks.check_decomposition(bases, rho, payload["coefficients"], classical)
