import numpy as np
import pytest

from nichewave import (
    MonotonicityViolationError,
    SpectralEstimate,
    StepSizeError,
    build_grid,
    bump_growth,
    constant_growth,
    rescale_kernel,
)
from nichewave.evolution import (
    comparison_monotonicity_test,
    evolve,
    long_time_verdict,
    stable_step,
)
from nichewave.operators import build_operator
from nichewave.stationary import solve_stationary_ball


class TestEvolve:
    def test_stationary_state_stays_put(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        dt = stable_step(ball_op, float(np.max(sol.values)))
        trace, u = evolve(ball_op, sol.values, 20.0, stationary=sol.values)
        # steady offset is residual / linearization gap; dt-accumulation alone
        # would be 10 dt residual
        assert trace.dist_sup[-1] <= 10.0 * dt * sol.residual + 3.0 * sol.residual

    def test_uniform_logistic_closed_form(self, tent):
        grid = build_grid(1, 4.0, 0.125, "torus")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(1.0))
        u0, c, dt = 0.1, 1.0, 0.01
        trace, u = evolve(op, np.full(grid.size, u0), 10.0, dt=dt)
        for t, s in zip(trace.times, trace.sup_norm):
            exact = c * u0 * np.exp(c * t) / (c + u0 * (np.exp(c * t) - 1.0))
            assert abs(s - exact) <= 5.0 * dt

    def test_step_bound_rejected(self, ball_op):
        bound = stable_step(ball_op, 1.0)
        with pytest.raises(StepSizeError) as err:
            evolve(ball_op, np.ones(ball_op.size), 1.0, dt=2.0 * bound)
        assert err.value.bound == pytest.approx(bound)

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


class TestComparisonMonotonicity:
    def test_subsolution_increases(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        assert comparison_monotonicity_test(ball_op, sol.sub, "sub", horizon=5.0) == "increasing"

    def test_supersolution_decreases(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        assert comparison_monotonicity_test(ball_op, sol.super_, "super", horizon=5.0) == "decreasing"

    def test_wrong_claim_rejected(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        with pytest.raises(MonotonicityViolationError):
            comparison_monotonicity_test(ball_op, sol.super_, "sub")


class TestLongTimeVerdict:
    def test_uniform_damping_extinction_with_envelope(self, tent):
        grid = build_grid(1, 4.0, 0.125, "ball-truncated")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(-0.1))
        lam = SpectralEstimate(0.1, 0.1, 0.12, np.ones(grid.size), 0.0, 1,
                               met_tol=True)
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
        res = long_time_verdict(ball_op, u0, 200.0, 1e-3, sol.lambda_estimate,
                                stationary=sol.values)
        assert res.verdict == "persistence-converged"
        assert res.final_dist_sup <= 1e-3
        assert res.final_dist_l1 <= 1e-3

    def test_straddling_bracket_is_undecided(self, ball_op):
        fake = SpectralEstimate(0.0, -1e-3, 1e-3, np.ones(ball_op.size), 0.0, 1,
                                met_tol=True)
        u0 = np.full(ball_op.size, 0.01)
        res = long_time_verdict(ball_op, u0, 5.0, 1e-3, fake)
        assert res.verdict == "undecided"
