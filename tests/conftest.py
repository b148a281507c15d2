import json
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session")
def schemas_dir():
    return os.path.join(REPO_ROOT, "src", "funcobs", "schemas")


@pytest.fixture(scope="session")
def load_schema(schemas_dir):
    def _load(name):
        with open(os.path.join(schemas_dir, name)) as fh:
            return json.load(fh)

    return _load
