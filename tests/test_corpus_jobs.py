"""corpus --jobs starts no more workers than there are CPUs or seeds."""

import pytest

import comring.cli as cli
from comring.cli import RunConfig, run


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Replace the process pool by a serial stand-in that records its size."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize(
    "jobs, count, cpus, expected",
    [
        (5000, 3, 8, [3]),
        (5000, 3, 2, [2]),
        (4, 2, 8, [2]),
        (4, 3, None, []),
        (4, 1, 8, []),
        (1, 3, 8, []),
    ],
)
def test_corpus_jobs_capped(monkeypatch, pool_sizes, jobs, count, cpus, expected):
    serial = run(RunConfig("corpus", count=count))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert run(RunConfig("corpus", count=count, jobs=jobs)) == serial
    assert pool_sizes == expected
