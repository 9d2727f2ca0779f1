"""Shared fixtures: catalogs and continued equilibria reused across files."""

import numpy as np
import pytest

from vortexeq import (
    CriticalPoint,
    continue_equilibrium,
    multistart_search,
    newton_refine,
    ngon,
    spectra,
)


@pytest.fixture(scope="session")
def catalog2():
    return multistart_search(2, 200, seed=1)


@pytest.fixture(scope="session")
def catalog3():
    return multistart_search(3, 500, seed=1)


@pytest.fixture(scope="session")
def catalog4():
    return multistart_search(4, 500, seed=1)


@pytest.fixture(scope="session")
def census_catalogs():
    # the catalog of every N = 2..12 that the census tests walk, built once
    return {n: multistart_search(n, 200, seed=n) for n in range(2, 13)}


@pytest.fixture(scope="session")
def triangle_point():
    return newton_refine(np.array([0.0, np.pi / 3]))


@pytest.fixture(scope="session")
def collinear_point():
    return newton_refine(np.array([0.0, np.pi]))


@pytest.fixture(scope="session")
def min3_point(catalog3):
    return catalog3.points[0]


@pytest.fixture(scope="session")
def ring_points():
    return {n: newton_refine(ngon(n)) for n in (4, 5, 10)}


@pytest.fixture(scope="session")
def degenerate_point():
    # the N = 3 ring's Hessian spectrum is {-1/2, -1/2, 0}; with every
    # |eigenvalue| below max(1, 1/2) counted as zero, all three are zeros
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_ZERO_TOL", 1.0)
        return CriticalPoint(ngon(3))


@pytest.fixture(scope="session")
def triangle_eq(triangle_point):
    return continue_equilibrium(triangle_point, 1e-3)


@pytest.fixture(scope="session")
def collinear_eq(collinear_point):
    return continue_equilibrium(collinear_point, 1e-3)


@pytest.fixture(scope="session")
def min3_eq(min3_point):
    return continue_equilibrium(min3_point, 1e-3)
