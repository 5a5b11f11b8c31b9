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
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

import _reference as reference
from _reference import neg_laplacian as _neg_laplacian
from growthlab import tracking as trk
from growthlab.tracking import (
    LINEAR_RESIDUAL_TOL,
    NEWTON_MAX_HALVINGS,
    NEWTON_MAX_ITERS,
    STATE_RESIDUAL_TOL,
)

SIZES = (8, 16, 24, 32, 64, 128)
BASES = ("target", "saturated", "random")


def base_state(kind, n):
    if kind == "target":
        return 0.63 * trk.default_target(n)
    if kind == "saturated":
        return trk.solve_state(np.full((n, n), 8.0))
    return np.random.default_rng(n).standard_normal((n, n))


def assembled(y):
    return (_neg_laplacian(len(y)) + sp.diags(3.0 * y.ravel() ** 2)).tocsr()


def rel_diff(a, b):
    return float(np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b)))


def spsolve_newton(u):
    """Frozen copy of the damped Newton state solve with a sparse direct
    solve per step."""
    n = len(u)
    h = 1.0 / (n + 1)
    u = u.ravel()
    a = _neg_laplacian(n)
    y = np.zeros_like(u)

    def residual(vec):
        return a @ vec + vec**3 - u

    res = residual(y)
    rnorm = h * float(np.linalg.norm(res))
    for _ in range(NEWTON_MAX_ITERS):
        if rnorm <= STATE_RESIDUAL_TOL:
            return y.reshape(n, n)
        step = spsolve((a + sp.diags(3.0 * y**2)).tocsr(), -res)
        t = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            y_try = y + t * step
            res_try = residual(y_try)
            rnorm_try = h * float(np.linalg.norm(res_try))
            if rnorm_try < rnorm:
                break
            t *= 0.5
        else:
            raise AssertionError("reference Newton stalled")
        y, res, rnorm = y_try, res_try, rnorm_try
    assert rnorm <= STATE_RESIDUAL_TOL
    return y.reshape(n, n)


@pytest.mark.parametrize("n", (4, 8, 16, 24, 32, 64, 128))
def test_stencil_equals_assembled_product_bitwise(n):
    a = _neg_laplacian(n)
    rng = np.random.default_rng(n)
    for _ in range(8):
        # magnitudes from 1e-8 to 1e8, both signs
        x = rng.choice((-1.0, 1.0), n * n) * 10.0 ** rng.uniform(-8.0, 8.0, n * n)
        field = x.reshape(n, n)
        assert np.array_equal(trk._neg_lap_stencil(field).ravel(), a @ x)
        d = 3.0 * field**2
        assert np.array_equal(trk._spd_matvec(d, field).ravel(), a @ x + d.ravel() * x)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", BASES)
def test_linear_solves_match_sparse_direct(n, kind):
    y = base_state(kind, n)
    m = assembled(y)
    rng = np.random.default_rng([n, len(kind)])
    for rhs in (rng.standard_normal((n, n)), trk.default_target(n)):
        ref = spsolve(m, rhs.ravel()).reshape(n, n)
        z = trk.solve_linearized(rhs, y)
        assert rel_diff(z, ref) <= 1e-12
        assert (1.0 / (n + 1)) * np.linalg.norm(rhs.ravel() - m @ z.ravel()) <= LINEAR_RESIDUAL_TOL


@pytest.mark.parametrize("n", SIZES)
def test_adjoint_matches_sparse_direct(n):
    y = base_state("saturated", n)
    y_d = 0.65 * trk.default_target(n)
    ref = spsolve(assembled(y), (y - y_d).ravel()).reshape(n, n)
    assert rel_diff(trk.solve_adjoint(y, y_d), ref) <= 1e-12


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("control", ("saturated", "manufactured", "random"))
def test_state_solve_matches_spsolve_newton(n, control):
    if control == "saturated":
        u = np.full((n, n), 8.0)
    elif control == "manufactured":
        ystar = trk.default_target(n)
        u = 2.0 * np.pi**2 * ystar + ystar**3
    else:
        u = np.random.default_rng(n).uniform(0.0, 8.0, (n, n))
    assert rel_diff(trk.solve_state(u), spsolve_newton(u)) <= 1e-12


@pytest.mark.parametrize("n", (16, 32, 64, 128))
def test_iteration_count_does_not_grow_with_the_mesh(n, monkeypatch):
    # the preconditioned spectrum lies in [1, 1 + max d / (2 pi^2)]
    monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d: 8)
    d = 3.0 * (0.65 * trk.default_target(n)) ** 2
    b = np.random.default_rng(n).standard_normal((n, n))
    x = trk._pcg_solve(d, b)
    assert np.linalg.norm(b - trk._spd_matvec(d, x)) <= 1e-13 * np.linalg.norm(b)



@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from((8, 16, 24)),
    seed=st.integers(0, 2**32 - 1),
    d_max=st.sampled_from((0.0, 1.0, 30.0, 1e3)),
    b_scale=st.floats(1e-8, 1e8),
    atol_rel=st.one_of(st.just(0.0), st.floats(1e-18, 1.0)),
)
def test_cg_stops_at_the_absolute_or_relative_target(n, seed, d_max, b_scale, atol_rel):
    """``_pcg_solve(d, b, atol)`` returns ``x`` whose true residual is at
    most ``max(atol, CG_RTOL * h |b|)`` in the discrete L2 norm ``h |.|``,
    plus a rounding allowance of ``1e-13 * h |b|`` for the drift of CG's
    recurrence residual from the true one (at most 6e-15 over 300 random
    draws with ``max d`` up to 1e4).  ``atol = 0`` is the solve to
    ``CG_RTOL`` alone, bitwise as the frozen copy gives it."""
    rng = np.random.default_rng(seed)
    h = 1.0 / (n + 1)
    d = rng.uniform(0.0, d_max, (n, n))
    b = b_scale * rng.standard_normal((n, n))
    bnorm = h * np.linalg.norm(b)
    atol = atol_rel * bnorm
    x = trk._pcg_solve(d, b, atol)
    residual = h * np.linalg.norm(b - trk._spd_matvec(d, x))
    assert residual <= max(atol, trk.CG_RTOL * bnorm) + 1e-13 * bnorm
    if atol == 0.0:
        assert x.tobytes() == reference.pcg_solve(d, b).tobytes()


def _solve_outcome(solve, d, b, atol=0.0):
    """The bytes ``solve`` returns, or the message of the
    ``LinearSolveFailure`` it raises."""
    try:
        return solve(d, b, atol).tobytes()
    except trk.LinearSolveFailure as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from((4, 8, 16, 24, 32)),
    seed=st.integers(0, 2**32 - 1),
    d_max=st.sampled_from((0.0, 1.0, 30.0, 1e3)),
    b_scale=st.floats(1e-8, 1e8),
    atol_rel=st.one_of(st.just(0.0), st.floats(1e-18, 1.0)),
)
def test_in_place_cg_equals_the_allocating_copy_bitwise(n, seed, d_max, b_scale, atol_rel):
    """The per-call workspace and in-place updates change no bit of the
    iterates: every solve equals the frozen allocating solver's."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, d_max, (n, n))
    b = b_scale * rng.standard_normal((n, n))
    atol = atol_rel * np.linalg.norm(b) / (n + 1)
    x = trk._pcg_solve(d, b, atol)
    assert x.tobytes() == reference.pcg_solve(d, b, atol).tobytes()


@pytest.mark.parametrize("cap", (1, 3))
def test_capped_cg_fails_as_the_allocating_copy_does(cap, monkeypatch):
    d = 3.0 * base_state("saturated", 16) ** 2
    b = np.random.default_rng(cap).standard_normal((16, 16))
    monkeypatch.setattr(trk, "_cg_iteration_cap", lambda d: cap)
    message = _solve_outcome(trk._pcg_solve, d, b)
    assert message.startswith(f"conjugate gradients reached its cap of {cap} iterations")
    assert message == _solve_outcome(reference.pcg_solve, d, b)


@pytest.mark.parametrize(
    "d_fill, b_scale, message",
    (
        (np.nan, 1.0, "operator diagonal is not finite"),
        (np.inf, 1.0, "operator diagonal is not finite"),
        (0.0, 1e300, "conjugate gradients produced a non-finite residual"),
    ),
)
def test_non_finite_cg_fails_as_the_allocating_copy_does(d_fill, b_scale, message):
    n = 8
    d = np.full((n, n), d_fill)
    b = b_scale * np.random.default_rng(n).standard_normal((n, n))
    with np.errstate(all="ignore"):
        outcomes = [_solve_outcome(solve, d, b) for solve in (trk._pcg_solve, reference.pcg_solve)]
    assert outcomes == [message, message]


@pytest.mark.parametrize("n", (8, 24))
def test_back_to_back_solves_return_fresh_arrays(n):
    """No buffer outlives a call: two solves at one n return arrays that
    share no memory with each other or with the inputs, and each equals
    a solve of its right-hand side alone."""
    d = 3.0 * base_state("target", n) ** 2
    rng = np.random.default_rng(n)
    b1, b2 = rng.standard_normal((2, n, n))
    x1 = trk._pcg_solve(d, b1)
    x2 = trk._pcg_solve(d, b2)
    zero = trk._pcg_solve(d, np.zeros((n, n)))
    arrays = (x1, x2, zero, d, b1, b2)
    for i, a in enumerate(arrays):
        for other in arrays[i + 1:]:
            assert not np.shares_memory(a, other)
    assert x1.tobytes() == trk._pcg_solve(d, b1).tobytes()
    assert x2.tobytes() == reference.pcg_solve(d, b2).tobytes()
    assert not zero.any()
