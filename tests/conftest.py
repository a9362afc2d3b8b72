import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from prorl import oracle, pipelines

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def cold_instances():
    """Each test starts with no prepared instance, so its counts do not depend on test order."""
    pipelines._registry.clear()


@pytest.fixture
def no_solver(monkeypatch):
    """_newton and _highs_qp raise if called, so an input check that misses fails, not hangs."""
    def never(*args, **kwargs):
        raise AssertionError("a solver ran on an input that should have been rejected")

    monkeypatch.setattr(oracle, "_newton", never)
    monkeypatch.setattr(oracle, "_highs_qp", never)
