import numpy as np
import pytest

from crlab.projlin import sym_power_rep
from crlab.surfgrp import octagon_fuchsian, sample_boundary


@pytest.fixture(scope="session")
def octagon():
    return octagon_fuchsian()


@pytest.fixture(scope="session")
def sample_l3(octagon):
    return sample_boundary(octagon, 3)


@pytest.fixture(scope="session")
def sample_l4(octagon):
    return sample_boundary(octagon, 4)


@pytest.fixture(scope="session")
def sample_l2(octagon):
    return sample_boundary(octagon, 2)


@pytest.fixture(scope="session")
def sym_reps(octagon):
    """Symmetric-power generator images for n = 2..5, 7 and 9."""
    return {
        n: tuple(sym_power_rep(n, m) for m in octagon.matrices)
        for n in (2, 3, 4, 5, 7, 9)
    }
