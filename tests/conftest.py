import numpy as np
import pytest

from hmflow.grid import build_grid


@pytest.fixture(scope="session")
def default_grid():
    """The default production grid: geometric, [1e-4, 1e3], 2048 nodes."""
    return build_grid(1e-4, 1e3, 2048)


@pytest.fixture(scope="session")
def small_grid():
    return build_grid(1e-3, 1e2, 256)


def gaussian_bump(grid, amplitude=1.0, sigma=1.0, m=2):
    """Smooth zero-degree test profile A (r/sigma)^m exp(-(r/sigma)^2)."""
    rho = grid.nodes / sigma
    return amplitude * rho**m * np.exp(-(rho**2))


def same_bits(a, b):
    """Equal values and equal signs of zeros."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                   np.signbit(b))
