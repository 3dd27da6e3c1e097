import numpy as np
import pytest
from hypothesis import settings

import shiftmix as sm

# property tests draw the same examples on every run, with no example store
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def chain():
    return sm.build_growth_chain("log", 128)


@pytest.fixture(scope="session")
def weights40(chain):
    return sm.build_symbol_weights(chain, d_max=3, length=40)


@pytest.fixture(scope="session")
def model2(chain):
    return sm.canonical_shift(2.0, chain=chain)


@pytest.fixture(scope="session")
def basis40(weights40):
    return sm.build_basis(weights40)


@pytest.fixture(scope="session")
def amp_moments(model2, weights40):
    """Mean and variance of the seed amplitude under the symbol weights."""
    a = model2.seed_values[: weights40.length]
    mean = float(np.dot(weights40.p, a))
    var = float(np.dot(weights40.p, a**2)) - mean**2
    return mean, var
