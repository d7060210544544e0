"""Shared test set-up."""

import pytest

from wcmc.harness import runner


@pytest.fixture(autouse=True)
def cold_chain_cache():
    """Each test starts with no cached Gibbs chains, so a test that counts or
    records chains sees the ones its own builds run, not another test's hit."""
    runner._CHAINS.clear()
