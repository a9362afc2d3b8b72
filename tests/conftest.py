import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from prorl import pipelines

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
