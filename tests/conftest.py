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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
