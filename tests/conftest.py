"""numpy's own SeedSequence streams: the reference for kcompress's seeding.

The package derives every seed and Philox key through its vectorized
SeedSequence mirror, so spawn_rng, derive_seed and draw_sample(seed=...)
cannot serve as references for one another.  These fixtures build the
streams with numpy alone.
"""

import numpy as np
import pytest


def _seed_sequence(seed, path):
    return np.random.SeedSequence(seed, spawn_key=tuple(path))


@pytest.fixture(scope="session")
def numpy_seed():
    """numpy_seed(seed, *path): the 64-bit child seed of (seed, path)."""
    return lambda seed, *path: int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


@pytest.fixture(scope="session")
def numpy_stream():
    """numpy_stream(seed, *path): a new Generator(Philox) at the start of
    the stream (seed, path)."""
    return lambda seed, *path: np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))
