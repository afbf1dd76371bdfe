import pytest

from sgw import localize


@pytest.fixture(autouse=True)
def cold_symbolic_grid():
    """Each test builds the symbolic grid afresh: a patched helper is neither skipped by the cache nor left in it."""
    localize._symbolic_sum.cache_clear()
    yield
    localize._symbolic_sum.cache_clear()
