import multiprocessing as mp

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every spawn pool asked for, in order.  The
    pools start no process: their chunks run in this one."""
    sizes: list[int] = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, items):
            return map(func, items)

    monkeypatch.setattr(mp.get_context("spawn"), "Pool", InProcessPool)
    return sizes
