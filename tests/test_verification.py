import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dwf.galois import SUPPORTED_DIMENSIONS
from dwf.verification import run_verification


@pytest.mark.parametrize("d", SUPPORTED_DIMENSIONS)
def test_all_checks_pass(d):
    results = run_verification(d)
    assert len(results) == 9
    for r in results:
        assert r.passed, f"{r.group}: {r.name} failed ({r.detail})"


def test_verify_d2_within_runtime_budget():
    start = time.perf_counter()
    results = run_verification(2)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results)
    assert elapsed < 10.0


def test_verify_d4_within_runtime_budget():
    start = time.perf_counter()
    results = run_verification(4)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in results)
    assert elapsed < 120.0


def test_tolerance_scale_env_knob():
    code = (
        "import dwf.tolerances as t; "
        "print(t.ALGEBRAIC, t.SPECTRAL, t.LOOKUP)"
    )
    env = dict(os.environ, DWF_TOLERANCE_SCALE="10")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert [float(x) for x in out] == [1e-11, 1e-9, 1e-7]
    plain = subprocess.run(
        [sys.executable, "-c", code],
        env={k: v for k, v in os.environ.items() if k != "DWF_TOLERANCE_SCALE"},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert [float(x) for x in plain] == [1e-12, 1e-10, 1e-8]


def test_no_tolerance_literals_outside_tolerances_module():
    # every small float threshold comes from dwf.tolerances, so
    # DWF_TOLERANCE_SCALE scales them all
    package = Path(__file__).resolve().parents[1] / "src" / "dwf"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0 < node.value < 1e-6
    ]
    assert found == []
