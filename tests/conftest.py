import warnings

import numpy as np
import pytest

from hmflow.grid import build_grid

# Hypothesis imports this module from its report hook when a property test
# fails, and the import raises mypy_extensions' DeprecationWarning, which
# the suite's filterwarnings = error turns into an INTERNALERROR that ends
# the session.  Importing it here once, with that one warning ignored,
# lets the session report every test.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


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


def seeded_states(g, m, inner, rng, count):
    """Offsets of count seeded states: a bump (zero-degree) or a bubble
    (degree-m) of random scale, plus a rough perturbation."""
    r = g.nodes
    for _ in range(count):
        s = 10.0 ** rng.uniform(-2.0, 1.0)
        rho = (r / s) ** m
        if inner == 0.0:
            off = rng.uniform(0.5, 2.5) * rho * np.exp(-(r / s) ** 2)
        else:
            off = -2.0 * np.arctan(rho)
        yield off + (rng.uniform(0.0, 0.3) * rng.normal(size=g.n)
                     * rho / (1.0 + rho * rho))


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
