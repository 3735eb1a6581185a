"""Fixtures that every test gets."""

import gc

import pytest


@pytest.fixture(autouse=True)
def unfreeze_collector():
    """The CLI freezes its loaded input for the cyclic collector, which
    suits a process that exits after one command. Unfreezing after each
    test leaves the next test's collector as it was, so a reference cycle
    that a test leaks is still collected and its ResourceWarning shows."""
    yield
    gc.unfreeze()
