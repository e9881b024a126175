"""Fixtures shared by the test modules."""

import pytest

from activedesign.policies import RandomizedDesignPolicy


@pytest.fixture()
def fail_randomized_at(monkeypatch):
    """``fail_randomized_at(T)``: every ``randomized`` episode of T steps run in
    this process then raises as its step loop starts, a failure no check made
    before the episode starts can see."""

    def inject(horizon: int) -> None:
        run = RandomizedDesignPolicy.run

        def failing(self, t, stop, query):
            if self.horizon == horizon:
                raise RuntimeError(f"injected failure at T={horizon}")
            return run(self, t, stop, query)

        monkeypatch.setattr(RandomizedDesignPolicy, "run", failing)

    return inject
