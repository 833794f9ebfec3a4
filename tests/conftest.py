"""Fixtures shared by the test modules."""

import pytest

from hsde import chain as chain_module

# steps per chunk under `small_chunks`
SMALL_CHUNK = 7
# the float64 values an exact-kernel chain holds per step of a chunk: 9 for
# its noise, states and checks, 14 for its gathered operands and noise
EXACT_WIDTH = 23


@pytest.fixture
def small_chunks(monkeypatch):
    """Chunks of SMALL_CHUNK steps whatever the ensemble, so short runs cross
    many chunk boundaries and end on a partial chunk. Gives the chunk
    length."""
    monkeypatch.setattr(chain_module, "_chunk_steps", lambda n_chains, width: SMALL_CHUNK)
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


@pytest.fixture
def chunks_taken(monkeypatch):
    """The length of each chunk the chain loop takes, in the order taken:
    one entry per `take_all` call, so an empty list means no chain
    stepped."""
    lengths = []
    take_all = chain_module.take_all

    def recorded(scheds, m):
        lengths.append(m)
        return take_all(scheds, m)

    monkeypatch.setattr(chain_module, "take_all", recorded)
    return lengths
