import math

import numpy as np
import pytest

from nichewave import (
    Kernel,
    MonotonicityViolationError,
    SpectralEstimate,
    StepSizeError,
    build_grid,
    bump_growth,
    constant_growth,
    rescale_kernel,
)
from nichewave.evolution import evolve, long_time_verdict, stable_step
from nichewave.operators import build_operator
from nichewave.stationary import solve_stationary_ball
from oracles import reference_evolve


class TestEvolve:
    def test_stationary_state_stays_put(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        dt = stable_step(ball_op, float(np.max(sol.values)))
        trace, u = evolve(ball_op, sol.values, 20.0, stationary=sol.values)
        # steady offset is residual / linearization gap; dt-accumulation alone
        # would be 10 dt residual
        assert trace.dist_sup[-1] <= 10.0 * dt * sol.residual + 3.0 * sol.residual

    def test_uniform_growth_run_tends_to_the_ball_state(self, tent):
        # a constant logistic curve is a supersolution on a ball, whose
        # exterior only drains: the run stays below it up to the Euler error
        # 5 dt, rises monotonically, and settles on the ball's stationary state
        grid = build_grid(1, 4.0, 0.125)
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(1.5))
        sol = solve_stationary_ball(op, tol=1e-10)
        u0, c, dt = 0.1, 1.5, 0.01
        trace, u = evolve(op, np.full(grid.size, u0), 20.0, dt=dt, stationary=sol.values)
        logistic = c * u0 * np.exp(c * trace.times) / (c + u0 * (np.exp(c * trace.times) - 1.0))
        assert np.all(trace.sup_norm <= logistic + 5.0 * dt)
        assert trace.monotone_flag == "increasing"
        assert np.all(np.diff(trace.dist_sup) < 0.0)
        assert trace.dist_sup[-1] <= 1e-9

    def test_step_bound_rejected(self, ball_op):
        bound = stable_step(ball_op, 1.0)
        with pytest.raises(StepSizeError) as err:
            evolve(ball_op, np.ones(ball_op.size), 1.0, dt=2.0 * bound)
        assert err.value.bound == pytest.approx(bound)

    @pytest.mark.parametrize("horizon, stride", [
        (1.0, 0.0), (1.0, -1.0), (1.0, math.nan), (0.0, 1.0), (-5.0, 1.0), (math.nan, 1.0),
        (math.inf, 1.0),
    ])
    def test_horizon_and_stride_must_be_finite_and_positive(self, ball_op, horizon, stride):
        # a zero stride never advanced the next record time, so the loop never ended
        with pytest.raises(ValueError, match="must be finite and > 0"):
            evolve(ball_op, np.ones(ball_op.size), horizon, stride=stride)

    def test_invariant_region(self, ball_op, rng):
        u0 = rng.uniform(0.0, 3.0, size=ball_op.size)
        cap = max(np.max(u0), np.max(ball_op.growth.saturation(ball_op.points_arg)))
        trace, u = evolve(ball_op, u0, 30.0)
        assert np.all(u >= 0.0)
        assert np.max(u) <= cap + 1e-9
        assert np.all(trace.sup_norm <= cap + 1e-9)

    def test_comparison_principle_random_ordered_pairs(self, ball_op, rng):
        for _ in range(3):
            u0 = rng.uniform(0.0, 1.0, size=ball_op.size)
            v0 = u0 + rng.uniform(0.0, 1.0, size=ball_op.size)
            dt = stable_step(ball_op, float(np.max(v0)))
            _, uT = evolve(ball_op, u0, 5.0, dt=dt)
            _, vT = evolve(ball_op, v0, 5.0, dt=dt)
            assert np.all(uT <= vT + 1e-11)

    def test_squeeze_between_min_and_max_with_stationary(self, ball_op, rng):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        u0 = rng.uniform(0.0, 2.0, size=ball_op.size)
        dt = stable_step(ball_op, 2.0 + float(np.max(sol.values)))
        _, mid = evolve(ball_op, u0, 10.0, dt=dt)
        _, low = evolve(ball_op, np.minimum(sol.values, u0), 10.0, dt=dt)
        _, high = evolve(ball_op, np.maximum(sol.values, u0), 10.0, dt=dt)
        assert np.all(low <= mid + 1e-11)
        assert np.all(mid <= high + 1e-11)


def comparison_run(op, u0, kind, horizon=10.0):
    """Monotone flag of a run from u0, a checked sub- ("sub") or super-solution ("super")."""
    sign = 1.0 if kind == "sub" else -1.0
    if np.min(sign * op.rhs(u0)) < -1e-12 * (1.0 + op.rate):
        raise MonotonicityViolationError(f"u0 is not a {kind}-solution")
    return evolve(op, u0, horizon)[0].monotone_flag


def tent_bump_ball(dimension, epsilon, m, spacing, radius):
    grid = build_grid(dimension, radius, spacing)
    return build_operator(grid, rescale_kernel(Kernel("tent", dimension=dimension), epsilon, m),
                          bump_growth(2.0, 1.0, -1.0))


class TestFixedPointStop:
    @staticmethod
    def counted_evolve(op, monkeypatch, *args, **kwargs):
        calls = []
        rhs = op.rhs
        monkeypatch.setattr(op, "rhs", lambda u: calls.append(1) or rhs(u))
        return evolve(op, *args, **kwargs), len(calls)

    @staticmethod
    def assert_same_run(trace, u, reference):
        """Compare with reference_evolve's output; return its step count."""
        columns, flag, u_ref, n_steps = reference
        got = [trace.times, trace.sup_norm, trace.dist_sup, trace.dist_l1, trace.mass]
        for col, ref in zip(got, columns):
            assert np.array_equal(col, ref, equal_nan=True)
        assert trace.monotone_flag == flag
        assert np.array_equal(u, u_ref)
        return n_steps

    @pytest.fixture(scope="class")
    def settling(self):
        # the state settles bit for bit at step 257 of 600
        op = tent_bump_ball(1, 1.0, 0.0, 0.05, 6.0)
        return op, solve_stationary_ball(op, tol=1e-10)

    def test_settled_run_stops_stepping(self, settling, monkeypatch):
        op, sol = settling
        u0 = np.full(op.size, 0.01)
        reference = reference_evolve(op, u0, 100.0, stable_step(op, 0.01), stationary=sol.values)
        (trace, u), calls = self.counted_evolve(op, monkeypatch, u0, 100.0, stationary=sol.values)
        assert calls < self.assert_same_run(trace, u, reference)

    @pytest.mark.parametrize("kind, enforce", [("sub", "increasing"), ("super", "decreasing")])
    def test_settled_enforced_run(self, settling, monkeypatch, kind, enforce):
        op, sol = settling
        u0 = sol.sub if kind == "sub" else sol.super_
        reference = reference_evolve(op, u0, 100.0, stable_step(op, float(np.max(u0))), enforce=enforce)
        (trace, u), calls = self.counted_evolve(op, monkeypatch, u0, 100.0)
        assert calls < self.assert_same_run(trace, u, reference)
        assert trace.monotone_flag == enforce

    def test_unsettled_run_takes_every_step(self, monkeypatch):
        # m = 2, eps = 0.1: the state keeps changing in its last bits to T
        op = tent_bump_ball(1, 0.1, 2.0, 0.005, 4.0)
        u0 = np.full(op.size, 0.01)
        reference = reference_evolve(op, u0, 30.0, stable_step(op, 0.01))
        (trace, u), calls = self.counted_evolve(op, monkeypatch, u0, 30.0)
        assert calls == self.assert_same_run(trace, u, reference) == 3150

    @pytest.mark.parametrize("period", [2, 3])
    def test_cycling_run_stops_stepping(self, monkeypatch, period):
        # a stub rhs walks exact dyadic states: u0 -> s_0 -> ... -> s_{p-1} -> s_0
        op = tent_bump_ball(1, 1.0, 0.0, 0.25, 2.0)
        profile = np.round(np.linspace(16.0, 64.0, op.size)) / 64.0  # multiples of 2^-6
        u0 = np.full(op.size, 0.5)
        cycle = [profile * (k + 1) / 4.0 for k in range(period)]
        successor = {u0.tobytes(): cycle[0]}
        successor.update((s.tobytes(), cycle[(k + 1) % period]) for k, s in enumerate(cycle))
        dt = 2.0 ** math.floor(math.log2(stable_step(op, float(np.max(cycle[-1])))))
        monkeypatch.setattr(op, "rhs", lambda u: (successor[u.tobytes()] - u) / dt)
        stationary = np.full(op.size, 0.75)
        reference = reference_evolve(op, u0, 10.0, dt, stride=5 * dt, stationary=stationary)
        (trace, u), calls = self.counted_evolve(op, monkeypatch, u0, 10.0, dt=dt,
                                                stride=5 * dt, stationary=stationary)
        assert self.assert_same_run(trace, u, reference) > 10 * period
        assert calls == period + 1  # the step back to s_0 is the last one taken

    @pytest.mark.parametrize("radius", [3.0, 4.0])
    def test_evolve_2d_runs_match_the_full_loop(self, radius):
        # the evolve-2d balls; whether and where they settle depends on the
        # FFT's last bits, so only the output is compared
        op = tent_bump_ball(2, 2.0, 0.0, 0.1, radius)
        u0 = np.full(op.size, 0.01)
        stationary = solve_stationary_ball(op, tol=1e-10).values
        reference = reference_evolve(op, u0, 100.0, stable_step(op, 0.01), stationary=stationary)
        trace, u = evolve(op, u0, 100.0, stationary=stationary)
        self.assert_same_run(trace, u, reference)


@pytest.mark.parametrize("dimension, spacing", [(1, 0.05), (2, 0.2)])
def test_step_is_the_bound_of_the_proof(dimension, spacing, rng):
    # dPhi_i/du_i = 1 - dt (rate (1 - c_ii) - d_s f) >= 0 on [0, s_max]
    op = tent_bump_ball(dimension, 1.0, 0.0, spacing, 3.0)
    s_max = 2.5
    dt = stable_step(op, s_max)
    slopes = [op.reaction_slope(np.full(op.size, s)) for s in (0.0, s_max)]
    assert dt == pytest.approx(1.0 / (op.rate + max(np.max(np.abs(d)) for d in slopes)), rel=1e-15)
    c_ii = op.taps[(op.reach,) * dimension] * spacing**dimension
    for d_s_f in slopes:
        assert np.all(1.0 - dt * (op.rate * (1.0 - c_ii) - d_s_f) >= 0.0)

    u0 = rng.uniform(0.0, s_max - 1.0, size=op.size)
    v0 = u0 + rng.uniform(0.0, 1.0, size=op.size)
    _, uT = evolve(op, u0, 5.0, dt=dt)
    _, vT = evolve(op, v0, 5.0, dt=dt)
    assert np.all(uT <= vT + 1e-11)
    sol = solve_stationary_ball(op, tol=1e-10)
    assert comparison_run(op, sol.sub, "sub", horizon=5.0) == "increasing"
    assert comparison_run(op, sol.super_, "super", horizon=5.0) == "decreasing"


class TestComparisonMonotonicity:
    def test_subsolution_increases(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        assert comparison_run(ball_op, sol.sub, "sub", horizon=5.0) == "increasing"

    def test_supersolution_decreases(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        assert comparison_run(ball_op, sol.super_, "super", horizon=5.0) == "decreasing"

    def test_wrong_claim_rejected(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        with pytest.raises(MonotonicityViolationError):
            comparison_run(ball_op, sol.super_, "sub")


class TestLongTimeVerdict:
    def test_uniform_damping_extinction_with_envelope(self, tent):
        grid = build_grid(1, 4.0, 0.125)
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(-0.1))
        lam = SpectralEstimate(0.1, 0.1, 0.12, np.ones(grid.size), 0.0, 1,
                               met_tol=True, sup_a=float(np.max(op.a_values)),
                               eigenfunction_certified=True)
        u0 = np.full(grid.size, 0.8)
        dt = stable_step(op, 0.8)
        res = long_time_verdict(op, u0, 120.0, 1e-3, lam, dt=dt)
        assert res.verdict == "extinction"
        for t, s in zip(res.trace.times, res.trace.sup_norm):
            assert s <= 0.8 * np.exp(-0.1 * t) + 5.0 * dt

    def test_persistence_converged(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        x = np.abs(ball_op.grid.points[:, 0])
        u0 = 0.01 * (x < 1.0).astype(float)
        res = long_time_verdict(ball_op, u0, 200.0, 1e-3, sol.lambda_p_used,
                                stationary=sol.values)
        assert res.verdict == "persistence-converged"
        assert res.final_dist_sup <= 1e-3
        assert res.final_dist_l1 <= 1e-3

    def test_zero_data_is_extinction_under_a_negative_lambda(self, ball_op):
        lam = solve_stationary_ball(ball_op, tol=1e-10).lambda_p_used
        assert lam.sign == "negative"
        res = long_time_verdict(ball_op, np.zeros(ball_op.size), 5.0, 1e-3, lam)
        assert res.verdict == "extinction"
        assert res.final_sup == 0.0

    def test_small_run_under_a_negative_lambda_is_not_extinction(self, ball_op):
        # lambda_p < 0: every u0 that is not 0 persists, so a run still below
        # tol at the horizon has shown nothing, though its sup stays under tol
        lam = solve_stationary_ball(ball_op, tol=1e-10).lambda_p_used
        assert lam.sign == "negative"
        res = long_time_verdict(ball_op, np.full(ball_op.size, 1e-8), 5.0, 1e-3, lam)
        assert res.final_sup <= 1e-3
        assert res.verdict == "undecided"

    def test_straddling_bracket_is_undecided(self, ball_op):
        fake = SpectralEstimate(0.0, -1e-3, 1e-3, np.ones(ball_op.size), 0.0, 1,
                                met_tol=True, sup_a=float(np.max(ball_op.a_values)),
                                eigenfunction_certified=False)
        u0 = np.full(ball_op.size, 0.01)
        res = long_time_verdict(ball_op, u0, 5.0, 1e-3, fake)
        assert res.verdict == "undecided"
