import functools
import gc
import tracemalloc

import pytest

from dendrite import checks


@pytest.fixture(scope="session")
def check_result():
    """`checks.run_check`, run at most once per (suite, label) in a test session."""
    return functools.cache(checks.run_check)


@pytest.fixture(scope="session")
def traced():
    """Calls a function under tracemalloc and returns its result, the bytes it still holds
    after a garbage collection and its peak bytes, both counted over the bytes traced before."""

    def run(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            gc.collect()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held - base, peak - base

    return run
