import functools

import pytest

from dendrite import checks


@pytest.fixture(scope="session")
def check_result():
    """`checks.run_check`, run at most once per (suite, label) in a test session."""
    return functools.cache(checks.run_check)
