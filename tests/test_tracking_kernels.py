"""Differential tests of the tracking kernels against frozen copies of the
forms they replaced (``tests/_reference.py``), compared byte for byte, so
that the sign of a zero counts.

The stencil reads its five terms from one zero-padded buffer, and Newton
carries the state operator's value ``-lap(y) + y^3`` from one solve to the
next; both must give every bit the slice-update stencil and the Newton that
formed every residual afresh gave.  The sizes hold odd and even ``n``: at
odd ``n`` an (n, n) field's byte size is not a multiple of 64, so its flat
views sit differently against the BLAS kernels' vector width.
"""

import math

import numpy as np
import pytest

import _reference as reference
from growthlab import tracking as trk

SIZES = (4, 5, 8, 24, 25, 33)
# signed zeros, subnormals, ordinary and large magnitudes
SPECIAL = np.array([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-309, 2.2250738585072014e-308,
    1.0, -3.5, 1e-8, -1e8, 1e150, -1e150, 1e300, -1e300, 1.7976931348623157e308,
])


def special_field(n, seed, pool=SPECIAL):
    return np.random.default_rng([n, seed]).choice(pool, (n, n))


def stencils(x):
    # the largest values overflow, and their infinite terms may meet as nan
    with np.errstate(over="ignore", invalid="ignore"):
        return trk._neg_lap_stencil(x).tobytes(), reference.neg_lap_stencil(x).tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_stencil_equals_the_slice_update_copy_bitwise(n):
    rng = np.random.default_rng(n)
    fields = [np.zeros((n, n)), np.full((n, n), -0.0), np.full((n, n), 5e-324)]
    fields += [special_field(n, seed) for seed in range(8)]
    fields += [special_field(n, seed, np.array([0.0, -0.0])) for seed in range(4)]
    # magnitudes from 1e-8 to 1e8, both signs
    fields += [rng.choice((-1.0, 1.0), (n, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, n))]
    for x in fields:
        new, old = stencils(x)
        assert new == old
        # a column-major field, and a view of a larger one
        assert stencils(np.asfortranarray(x)) == (new, old)
        assert stencils(np.pad(x, 1)[1:-1, 1:-1]) == (new, old)


@pytest.mark.parametrize("n", SIZES)
def test_norm_equals_the_vdot_form_bitwise(n):
    # l2_norm sums by one ``ddot`` of the flat view; np.vdot, which it
    # replaced, reads the same row-major order, whatever the layout
    h = 1.0 / (n + 1)
    rng = np.random.default_rng(n)
    fields = [np.full((n, n), -0.0), special_field(n, 0, SPECIAL[:7])]
    fields += [rng.standard_normal((n, n)) * np.exp(rng.uniform(-30.0, 30.0, (n, n)))
               for _ in range(8)]
    for x in fields:
        for view in (x, np.asfortranarray(x), x.T, x[:, ::-1], np.pad(x, 1)[1:-1, 1:-1]):
            old = h * math.sqrt(float(np.vdot(view, view)))
            assert np.float64(trk.l2_norm(view)).tobytes() == np.float64(old).tobytes()


def newtons(u, y, give_up=None, cg_atol=0.0):
    """The outcome of the library's Newton and of the frozen copy from
    ``y``: each returned state's bytes, None, or the error's message and
    residual history, with the iterates each passed to ``give_up``.  The
    operator value the library returns with its state must be that state's."""
    outcomes = []
    for solve in (trk._newton_op, reference.newton):
        seen = []

        def recorded(y_k, rnorm):
            seen.append((y_k.tobytes(), rnorm))
            return give_up(y_k, rnorm)

        try:
            y_out = solve(u, y.copy(), None if give_up is None else recorded, cg_atol)
            if solve is trk._newton_op and y_out is not None:
                y_out, op = y_out
                assert op.tobytes() == (trk._neg_lap_stencil(y_out) + y_out**3).tobytes()
            outcome = None if y_out is None else y_out.tobytes()
        except trk.NewtonDivergence as exc:
            outcome = (str(exc), exc.residual_history)
        outcomes.append((outcome, seen))
    return outcomes


@pytest.mark.parametrize("n", SIZES)
def test_newton_equals_the_fresh_residual_copy_bitwise(n):
    rng = np.random.default_rng(n)
    target = 0.64 * trk.default_target(n)
    cases = [
        (np.full((n, n), 8.0), np.zeros((n, n))),  # from y = 0
        (np.full((n, n), 1e4), np.zeros((n, n))),  # halved steps
        (np.zeros((n, n)), np.full((n, n), -0.0)),  # solved at the start
        (special_field(n, 0, SPECIAL[:7]), np.zeros((n, n))),  # zeros and subnormals
        (rng.uniform(0.0, 8.0, (n, n)), target),  # a warm start
        (2.0 * np.pi**2 * target + target**3, special_field(n, 1, SPECIAL[:9])),
    ]
    for u, y in cases:
        new, old = newtons(u, y)
        assert new == old
        assert new[0] is not None
        # a trial's CG target, alone and with a rule that gives up once the
        # residual is below 1e-3
        new, old = newtons(u, y, cg_atol=1e-13)
        assert new == old
        new, old = newtons(u, y, lambda y_k, rnorm: rnorm < 1e-3, 1e-13)
        assert new == old


@pytest.mark.parametrize("n", (5, 24))
def test_newton_failures_equal_the_copy(n, monkeypatch):
    u = np.full((n, n), 50.0)
    # no iterate reaches 1e-300, so the step halving stalls
    monkeypatch.setattr(trk, "STATE_RESIDUAL_TOL", 1e-300)
    new, old = newtons(u, np.zeros((n, n)))
    assert new == old and new[0][0].startswith("residual stalled")
    monkeypatch.setattr(trk, "NEWTON_MAX_ITERS", 2)
    new, old = newtons(u, np.zeros((n, n)))
    assert new == old and new[0][0].startswith("no convergence after 2 iterations")


@pytest.mark.parametrize("n", SIZES)
def test_carried_operator_value_is_the_fresh_one(n):
    """The operator value Newton returns with its state is the value a fresh
    evaluation at that state gives, and a start's value handed in changes
    nothing."""
    u = np.random.default_rng(n).uniform(0.0, 8.0, (n, n))
    y0 = 0.64 * trk.default_target(n)
    y, op = trk._newton_op(u, y0)
    assert op.tobytes() == (reference.neg_lap_stencil(y) + y**3).tobytes()
    start = reference.neg_lap_stencil(y0) + y0**3
    y_given, op_given = trk._newton_op(u, y0, op=start)
    assert (y_given.tobytes(), op_given.tobytes()) == (y.tobytes(), op.tobytes())
    # a state that already solves the equation returns with the value handed in
    y_same, op_same = trk._newton_op(u, y, op=op)
    assert y_same is y and op_same is op
