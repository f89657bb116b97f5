import multiprocessing

import pytest


@pytest.fixture
def pool_requests(monkeypatch):
    """Swap the enumerations' process pool for an in-process recorder.

    Returns the list of ``processes`` values the pools were asked for; no
    process is started.
    """
    requests = []

    class RecordingPool:
        def __init__(self, processes=None):
            requests.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

        def starmap(self, fn, items):
            return [fn(*item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return requests
