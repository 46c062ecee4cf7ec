import numpy as np
import pytest

from nichewave import Kernel, bump_growth, build_grid, rescale_kernel
from nichewave.operators import build_operator


@pytest.fixture
def tent():
    return Kernel("tent")


@pytest.fixture
def bump():
    return bump_growth(2.0, 1.0, -1.0)


@pytest.fixture
def ball_op(tent, bump):
    grid = build_grid(1, 8.0, 0.05)
    return build_operator(grid, rescale_kernel(tent, 1.0, 0.0), bump)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
