"""Fixtures shared by the test modules."""

import pytest

from activedesign.policies import RandomizedDesignPolicy


@pytest.fixture()
def fail_randomized_at(monkeypatch):
    """``fail_randomized_at(T)``: every ``randomized`` episode of T steps run in
    this process then raises at its first step, a failure no check made before
    the episode starts can see."""

    def inject(horizon: int) -> None:
        select = RandomizedDesignPolicy.select

        def failing(self, t):
            if self.horizon == horizon:
                raise RuntimeError(f"injected failure at T={horizon}")
            return select(self, t)

        monkeypatch.setattr(RandomizedDesignPolicy, "select", failing)

    return inject
