"""Fixtures shared by the test modules."""

import pytest

from hsde import chain as chain_module
from hsde import toy_exact as toy_exact_module

# steps per chunk under `small_chunks`, and per gathered run of the exact
# kernel's operands within a chunk
SMALL_CHUNK = 7
SMALL_GATHER = 3


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of SMALL_CHUNK steps whatever the ensemble, and exact-kernel
    gather runs of SMALL_GATHER steps, so short runs cross many boundaries of
    both kinds and end on partial ones. Gives the chunk length."""
    monkeypatch.setattr(chain_module, "_chunk_steps", lambda n_chains, width: SMALL_CHUNK)
    monkeypatch.setattr(toy_exact_module, "_GATHER_STEPS", SMALL_GATHER)
    return SMALL_CHUNK


@pytest.fixture
def chunk_lengths(monkeypatch):
    """The list of chunk lengths the chain loop's runs take, one entry per
    run in the order they start."""
    lengths = []
    rule = chain_module._chunk_steps

    def recorded(n_chains, width):
        lengths.append(rule(n_chains, width))
        return lengths[-1]

    monkeypatch.setattr(chain_module, "_chunk_steps", recorded)
    return lengths
