import numpy as np
import pytest

from fuselab import data


@pytest.fixture(scope="session")
def tiny_samples():
    """Small but split-friendly synthetic set: 20/class, 16x16, P=2, B=3."""
    return data.synth_generate(20, size=16, channels_a=2, channels_b=3, n_classes=5, seed=11)


@pytest.fixture(scope="session")
def tiny_split(tiny_samples):
    return data.split(tiny_samples, seed=3)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
