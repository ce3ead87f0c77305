import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every process pool asked for, in order.  The
    pools start no process: their chunks run in this one."""
    sizes: list[int] = []

    class InProcessExecutor:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessExecutor)
    return sizes
