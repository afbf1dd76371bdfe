import pytest

from sgw import localize, quantum, taut


@pytest.fixture(autouse=True)
def cold_symbolic_grid():
    """Each test builds the symbolic grid afresh: a patched helper is neither skipped by the cache nor left in it."""
    localize._symbolic_sum.cache_clear()
    yield
    localize._symbolic_sum.cache_clear()


@pytest.fixture
def no_work(monkeypatch):
    """The localization points, the quantum sweep and the pushforward kernel raise: a refusal comes before any work."""
    def work(*args, **kwargs):
        raise AssertionError("work began before the input was refused")

    for module, name in [(localize, "_points"), (quantum, "_three_point"), (taut, "_push")]:
        monkeypatch.setattr(module, name, work)
