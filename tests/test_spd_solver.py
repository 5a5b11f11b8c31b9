"""Differential tests of the tracking layer's SPD solver against a sparse
direct solve, and of the Newton state solve against a frozen sparse-direct copy.

Every tracking solve goes through one conjugate-gradient solver for
``(-lap + diag(d)) x = b`` preconditioned by the exact fast-Poisson inverse
of ``-lap``, and applies ``-lap`` as a matrix-free stencil.  The references
below are the assembled CSR matrix, ``scipy.sparse.linalg.spsolve`` on it,
and a frozen copy of the damped Newton iteration that used it.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from _reference import neg_laplacian as _neg_laplacian
from growthlab import tracking as trk
from growthlab.tracking import (
    LINEAR_RESIDUAL_TOL,
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITERS,
    STATE_RESIDUAL_TOL,
    Grid2D,
)

SIZES = (8, 16, 24, 32, 64, 128)
BASES = ("target", "saturated", "random")


def base_state(kind, grid):
    n = grid.n
    if kind == "target":
        return 0.63 * trk.default_target(grid)
    if kind == "saturated":
        return trk.solve_state(np.full((n, n), 8.0), grid)
    return np.random.default_rng(n).standard_normal((n, n))


def assembled(y, grid):
    return (_neg_laplacian(grid.n) + sp.diags(3.0 * y.ravel() ** 2)).tocsr()


def rel_diff(a, b):
    return float(np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b)))


def spsolve_newton(u, grid):
    """Frozen copy of the damped Newton state solve with a sparse direct
    solve per step."""
    u = u.ravel()
    a = _neg_laplacian(grid.n)
    y = np.zeros_like(u)

    def residual(vec):
        return a @ vec + vec**3 - u

    res = residual(y)
    rnorm = grid.h * float(np.linalg.norm(res))
    for _ in range(NEWTON_MAX_ITERS):
        if rnorm <= STATE_RESIDUAL_TOL:
            return y.reshape(grid.n, grid.n)
        step = spsolve((a + sp.diags(3.0 * y**2)).tocsr(), -res)
        t = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            y_try = y + t * step
            res_try = residual(y_try)
            rnorm_try = grid.h * float(np.linalg.norm(res_try))
            if rnorm_try < rnorm:
                break
            t *= 0.5
        else:
            raise AssertionError("reference Newton stalled")
        y, res, rnorm = y_try, res_try, rnorm_try
    assert rnorm <= STATE_RESIDUAL_TOL
    return y.reshape(grid.n, grid.n)


@pytest.mark.parametrize("n", (4, 8, 16, 24, 32, 64, 128))
def test_stencil_equals_assembled_product_bitwise(n):
    a = _neg_laplacian(n)
    rng = np.random.default_rng(n)
    for _ in range(8):
        # magnitudes from 1e-8 to 1e8, both signs
        x = rng.choice((-1.0, 1.0), n * n) * 10.0 ** rng.uniform(-8.0, 8.0, n * n)
        assert np.array_equal(trk._neg_lap_stencil(x, n), a @ x)
        d = 3.0 * x**2
        assert np.array_equal(trk._spd_matvec(d, x, n), a @ x + d * x)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", BASES)
def test_linear_solves_match_sparse_direct(n, kind):
    grid = Grid2D(n)
    y = base_state(kind, grid)
    m = assembled(y, grid)
    rng = np.random.default_rng([n, len(kind)])
    for rhs in (rng.standard_normal((n, n)), trk.default_target(grid)):
        ref = spsolve(m, rhs.ravel()).reshape(n, n)
        z = trk.solve_linearized(rhs, y, grid)
        assert rel_diff(z, ref) <= 1e-12
        assert grid.h * np.linalg.norm(rhs.ravel() - m @ z.ravel()) <= LINEAR_RESIDUAL_TOL


@pytest.mark.parametrize("n", SIZES)
def test_adjoint_matches_sparse_direct(n):
    grid = Grid2D(n)
    y = base_state("saturated", grid)
    y_d = 0.65 * trk.default_target(grid)
    ref = spsolve(assembled(y, grid), (y - y_d).ravel()).reshape(n, n)
    assert rel_diff(trk.solve_adjoint(y, y_d, grid), ref) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("control", ("saturated", "manufactured", "random"))
def test_state_solve_matches_spsolve_newton(n, control):
    grid = Grid2D(n)
    if control == "saturated":
        u = np.full((n, n), 8.0)
    elif control == "manufactured":
        ystar = trk.default_target(grid)
        u = 2.0 * np.pi**2 * ystar + ystar**3
    else:
        u = np.random.default_rng(n).uniform(0.0, 8.0, (n, n))
    assert rel_diff(trk.solve_state(u, grid), spsolve_newton(u, grid)) <= 1e-12


@pytest.mark.parametrize("n", (16, 32, 64, 128))
def test_iteration_count_does_not_grow_with_the_mesh(n, monkeypatch):
    # the preconditioned spectrum lies in [1, 1 + max d / (2 pi^2)]
    monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d, n: 8)
    grid = Grid2D(n)
    d = 3.0 * (0.65 * trk.default_target(grid)).ravel() ** 2
    b = np.random.default_rng(n).standard_normal(n * n)
    x = trk._pcg_solve(d, b, n)
    assert np.linalg.norm(b - trk._spd_matvec(d, x, n)) <= 1e-13 * np.linalg.norm(b)

