"""Fixtures shared by the test modules."""

import pytest

from ppsim import harness


@pytest.fixture
def sessions_computed(monkeypatch):
    """Lists the configs of the sessions ``run_session`` computes: each asks ``block_form`` once."""
    computed = []
    build = harness.block_form

    def counted(cfg, adv):
        computed.append(cfg)
        return build(cfg, adv)

    monkeypatch.setattr(harness, "block_form", counted)
    return computed
