"""Smoke tests of the experiment scripts at their documented arguments.

Each script runs in a fresh interpreter, as a user would run it, and its
printed summary is held to the expectation stated in its docstring.  Bad
arguments run in one fresh interpreter per script and otherwise through
the script's `main` in this one.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def spawn_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, *args):
    proc = spawn_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_flow_census_d4():
    out = run_script("flow_census.py", "--d", "4")
    assert "translations flow on 64/64 nets" in out
    assert "squeezing flows on 4/64 nets" in out
    assert "Fourier flows on 0/64 nets" in out


def test_flow_census_d5():
    out = run_script("flow_census.py", "--d", "5")
    assert "d=5: scanning 625 fixed-axes nets" in out
    assert "translations flow on 625/625 nets" in out


def test_negativity_census_oracle_gap_is_zero():
    out = run_script("negativity_census.py", "--d", "4", "--states", "3")
    gaps = [float(g) for g in re.findall(r"oracle gap (\S+)", out)]
    assert gaps == [0.0, 0.0, 0.0]


def test_negativity_census_runs_every_net_at_d5():
    out = run_script("negativity_census.py", "--d", "5", "--states", "1")
    assert "d=5: 15625 nets" in out
    gaps = [float(g) for g in re.findall(r"oracle gap (\S+)", out)]
    assert gaps == [0.0]


def test_bloch_rigidity_scan_flags_only_basis_states():
    out = run_script("bloch_rigidity_scan.py", "--resolution-deg", "1.0")
    m = re.search(r"max angular distance of a flagged state to a basis axis: (\S+) rad", out)
    assert m is not None and float(m.group(1)) == 0.0


@pytest.mark.parametrize("resolution", [7.0, 0.7])
def test_bloch_grid_ends_exactly_at_the_south_pole(resolution):
    bloch = load_script("bloch_rigidity_scan.py")
    assert np.array_equal(bloch.polar_angles_deg(1.0), np.arange(181.0))
    thetas = bloch.polar_angles_deg(resolution)
    assert thetas[0] == 0.0 and thetas[-1] == 180.0
    assert 0.0 < np.diff(thetas).min() and np.diff(thetas).max() <= resolution
    # every azimuth of both polar rows is a basis state, so non-negative
    _, flagged, _, _ = bloch.scan(resolution, 1e-9)
    rows = flagged.reshape(len(thetas), -1)
    assert rows[0].all() and rows[-1].all()


# one bad argument per script runs in a fresh interpreter
FRESH = {("negativity_census.py", "--mixing", "nan"), ("bloch_rigidity_scan.py", "--resolution-deg", "0")}


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("negativity_census.py", "--mixing", "nan"),
        ("negativity_census.py", "--states", "-2"),
        ("negativity_census.py", "--seed", "-1"),
        ("bloch_rigidity_scan.py", "--resolution-deg", "0"),
        ("bloch_rigidity_scan.py", "--resolution-deg", "-5"),
        ("bloch_rigidity_scan.py", "--slack", "nan"),
    ],
)
def test_bad_argument_exits_2_naming_the_flag(monkeypatch, capsys, name, flag, value):
    if (name, flag, value) in FRESH:
        proc = spawn_script(name, flag, value)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:  # in process, any exception but SystemExit fails the test
        monkeypatch.setattr(sys, "argv", [name, flag, value])
        with pytest.raises(SystemExit) as exit_info:
            load_script(name).main()
        code, (out, err) = exit_info.value.code, capsys.readouterr()
    assert code == 2
    assert out == ""
    usage, error = err.split(f"{name}: error: ")  # argparse's usage, then one line
    assert usage.startswith("usage: ")
    assert error.startswith(f"argument {flag}: ") and error.count("\n") == 1
