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


def trig_probe_points():
    """Offsets on which the one-tangent trig terms are checked: |v| log
    spaced over [1e-7, pi] with both signs, and points within 1e-9 of
    +-pi/2 and -pi, the pole of tan and the end of the degree-m range."""
    mag = np.logspace(-7.0, np.log10(np.pi), 1200)
    near = [c + np.linspace(-1e-9, 1e-9, 41)
            for c in (0.5 * np.pi, -0.5 * np.pi, -np.pi)]
    return np.concatenate([mag, -mag, *near])
