import numpy as np
import pytest

from geoslice.rng import make_stream, pcg64_states, stream_seed, stream_states


def test_pcg64_states_equal_numpy_on_raw_seeds():
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    states = pcg64_states(np.array(seeds, dtype=np.uint64))
    assert states == [np.random.PCG64(s).state for s in seeds]


@pytest.mark.parametrize("master", [0, 7, 0xB007, 2**63 + 5, 2**64 - 1])
def test_stream_states_equal_make_stream(master):
    states = stream_states(master, 1000, 3000)
    assert len(states) == 2000
    for i, state in enumerate(states, 1000):
        assert state == make_stream(master, i).bit_generator.state
        assert state == np.random.PCG64(stream_seed(master, i)).state


def test_a_set_state_draws_as_a_fresh_stream():
    # the reused generator's buffered 32-bit half is cleared with each state
    rng = np.random.Generator(np.random.PCG64(0))
    rng.integers(0, 5, size=3, dtype=np.int32)
    for i, state in enumerate(stream_states(9, 0, 4)):
        rng.bit_generator.state = state
        fresh = make_stream(9, i)
        assert rng.integers(0, 5, size=7, dtype=np.int32).tolist() == fresh.integers(
            0, 5, size=7, dtype=np.int32).tolist()
        assert rng.random() == fresh.random()


def test_stream_states_of_an_empty_block():
    assert stream_states(3, 5, 5) == []
