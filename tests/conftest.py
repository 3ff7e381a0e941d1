import time

import pytest


@pytest.fixture
def expire_after(monkeypatch):
    """expire_after(owner, name): the clock runs out as soon as owner.name returns."""
    def patch(owner, name):
        fn = getattr(owner, name)

        def expiring(*args, **kwargs):
            out = fn(*args, **kwargs)
            monkeypatch.setattr(time, "monotonic", lambda: float("inf"))
            return out

        monkeypatch.setattr(owner, name, expiring)
    return patch
