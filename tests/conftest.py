"""Shared test fixtures."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_live_child_processes():
    """Fail a test that leaves a live multiprocessing child behind (a worker
    that was never reaped), after terminating it so later tests run clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    if left:
        pytest.fail(f"test left live child processes: {left}")
