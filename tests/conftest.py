import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dwf import wigner
from dwf.geometry import build_striations
from dwf.quantum_net import ENUMERATION_MAX_DIM, net_context

settings.register_profile(
    "ci",
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared sink for the acceptance suite's one-line verdicts."""
    return _acceptance_lines


@pytest.fixture
def scan():
    """scan(rho, mub): the state's memoized Wigner values of every net at
    every point as values[r_0, ..., r_d, alpha], a read-only view."""
    def values(rho, mub):
        d = mub.dim
        assert d <= ENUMERATION_MAX_DIM, f"no scan of {d ** (d + 1)} nets at d={d}"
        ctx = net_context(mub, build_striations(mub.field))
        return wigner._scan(rho, ctx)[0].reshape((d,) * (d + 1) + (d * d,))
    return values


@pytest.fixture
def symplectic_tables():
    """symplectic_tables(gf): the X <-> Z swap table (its lower block negated
    for odd p, to stay symplectic), then six seeded products of it with
    transvections x -> x + <x, v> v, the same tables at every call."""
    def tables(gf):
        n, p = gf.n, gf.p
        j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]]).astype(np.int64)
        rng = np.random.default_rng(gf.order)
        f = np.zeros((2 * n, 2 * n), dtype=np.int64)
        f[:n, n:] = np.eye(n, dtype=np.int64)
        f[n:, :n] = (-np.eye(n, dtype=np.int64)) % p
        found = [f]
        for _ in range(6):
            for v in rng.integers(0, p, size=(4, 2 * n)):
                f = (np.eye(2 * n, dtype=np.int64) + np.outer(v, j @ v)) @ f % p
            found.append(f)
        return found
    return tables


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
