from dataclasses import replace

import numpy as np
import pytest

from nichewave import (
    GrowthProfile,
    Kernel,
    MonotonicityViolationError,
    build_grid,
    bump_growth,
    constant_growth,
    principal_eigenvalue,
    rescale_kernel,
)
from nichewave import operators, spectral, stationary
from nichewave.experiments import GridPolicy
from nichewave.operators import build_operator
from nichewave.stationary import (
    build_supersolution,
    decay_margin,
    solve_stationary_ball,
    solve_stationary_wholespace,
    verified_subsolution,
)
from oracles import verify_uniqueness


def damped_solve(op, u0, tol=1e-10, maxiter=400_000):
    """Independent damped iteration used as a multi-start oracle."""
    sat = op.growth.saturation(op.points_arg)
    s_max = max(float(np.max(u0)), float(np.max(sat)), 1.0)
    lf = op.growth.lipschitz_f(s_max, op.points_arg, op.a_values)
    tau = 0.9 / (op.rate + lf)
    u = u0.copy()
    for _ in range(maxiter):
        r = op.rhs(u)
        if np.max(np.abs(r)) <= tol:
            return u
        u = u + tau * r
    raise AssertionError("oracle iteration did not converge")


class TestSupersolution:
    def test_exponential_profile_verified(self, ball_op):
        sup = build_supersolution(ball_op, tol=1e-8)
        assert sup.kind == "exponential"
        # oracle: direct pointwise evaluation of the stationary operator
        resid = ball_op.rhs(sup.values)
        assert np.max(resid) <= 1e-8
        assert sup.margin == pytest.approx(np.max(resid), abs=1e-14)

    def test_constant_barrier_on_torus(self, tent):
        grid = build_grid(1, 4.0, 0.125, "torus")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(1.5))
        sup = build_supersolution(op)
        assert sup.kind == "constant"
        assert np.max(op.rhs(sup.values)) <= 1e-8

    def test_decay_margin_monotone_in_alpha(self, ball_op):
        nu = ball_op.growth.nu
        alphas = [0.1, 0.4, 0.8, 1.6]
        vals = [decay_margin(ball_op, a, nu) for a in alphas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert decay_margin(ball_op, 0.0, nu) == pytest.approx(-nu / 2, abs=1e-9)

    def test_doubling_nu_shrinks_admissible_alpha(self, ball_op):
        # h increasing in alpha means the admissible set {h < 0} is an interval
        # [0, alpha_max(nu)) and alpha_max grows with nu
        def alpha_max(nu):
            lo, hi = 0.0, 8.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if decay_margin(ball_op, mid, nu) < 0:
                    lo = mid
                else:
                    hi = mid
            return lo

        assert alpha_max(2.0) >= alpha_max(1.0)


class TestBallSolve:
    def test_certified_nonnegative_gives_zero(self, tent):
        grid = build_grid(1, 6.0, 0.1, "ball-truncated")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(-0.5))
        sol = solve_stationary_ball(op)
        assert sol.verdict == "extinct"
        assert np.all(sol.values == 0.0)
        assert sol.lambda_p_used.lower >= 0.0

    def test_solution_keeps_its_operator(self, ball_op, tent):
        assert solve_stationary_ball(ball_op, tol=1e-10).op is ball_op
        extinct = build_operator(build_grid(1, 2.0, 0.25, "ball-truncated"), tent, constant_growth(-0.5))
        assert solve_stationary_ball(extinct).op is extinct

    def test_torus_uniform_logistic(self, torus_op):
        sol = solve_stationary_ball(torus_op, tol=1e-10)
        assert sol.verdict == "persistent"
        assert np.max(np.abs(sol.values - 1.5)) <= 1e-8

    def test_residual_oracle(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        x = ball_op.grid.points[:, 0]
        a = ball_op.a_values
        # independent evaluation of rate (J*u - u) + u (a - u) via the dense path
        direct = ball_op.rate * (ball_op.stencil_product(sol.values) - sol.values) \
            + sol.values * (a - sol.values)
        assert np.max(np.abs(direct)) <= 1e-8

    def test_sandwich_and_barrier(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        assert np.all(sol.sub <= sol.values + 1e-12)
        assert np.all(sol.values <= sol.super_ + 1e-12)
        sup_s = np.max(ball_op.growth.saturation(ball_op.points_arg))
        assert np.max(sol.values) <= sup_s + 1e-8

    def test_pointwise_lower_bound(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        lower = np.maximum(ball_op.a_values - ball_op.rate, 0.0)
        assert np.min(sol.values - lower) >= -1e-8

    def test_subsolution_is_verified(self, ball_op):
        lam = principal_eigenvalue(ball_op, tol=1e-10)
        assert lam.met_tol
        sub = verified_subsolution(ball_op, lam)
        assert np.min(ball_op.rhs(sub)) >= -1e-9
        assert np.all(sub > 0)

    def test_residual_slack_at_zero_growth(self, tent):
        # max a = 0.0 exactly adds |max a| = 0 to the slack scale, as
        # max a -> 0 from below does: no jump at zero
        grid = build_grid(1, 2.0, 0.25, "ball-truncated")
        slacks = []
        for value in (0.0, -1e-300):
            op = build_operator(grid, tent, constant_growth(value))
            lam = principal_eigenvalue(op)
            assert lam.sup_a == value
            slacks.append(stationary._residual_slack(op, lam))
        assert slacks[0] == slacks[1] == stationary._SUB_SLACK * (1.0 + op.rate)


class TestWholeSpace:
    def test_monotone_in_R_and_converged(self, tent, bump):
        sol = solve_stationary_wholespace(tent, bump, [4, 6, 8, 10], 0.05, tol=1e-6)
        assert sol.verdict == "persistent"
        changes = [c for _, c in sol.R_history[1:]]
        assert changes[-1] <= 1e-6

    def test_oracle_single_large_ball(self, tent, bump):
        sol = solve_stationary_wholespace(tent, bump, [4, 6, 8], 0.1, tol=1e-8)
        grid16 = build_grid(1, 16.0, 0.1, "ball-truncated")
        op16 = build_operator(grid16, rescale_kernel(tent, 1.0, 0.0), bump)
        oracle = solve_stationary_ball(op16, tol=1e-10)
        i_small, i_big = sol.op.grid.common_with(grid16)
        assert np.max(np.abs(sol.values[i_small] - oracle.values[i_big])) <= 1e-5

    def test_keeps_the_last_ball_and_its_solution(self, tent, bump, monkeypatch):
        balls = []
        real = stationary.solve_stationary_ball

        def spy(op, **kwargs):
            balls.append(real(op, **kwargs))
            return balls[-1]

        monkeypatch.setattr(stationary, "solve_stationary_ball", spy)
        sol = solve_stationary_wholespace(tent, bump, [4, 6, 8], 0.1, tol=1e-30)
        assert [b.op.grid.radius for b in balls] == [4.0, 6.0, 8.0]
        last = balls[-1]
        assert sol.op is last.op
        assert all(getattr(sol, name) is getattr(last, name)
                   for name in ("values", "lambda_p_used", "sub", "super_"))
        assert (sol.verdict, sol.residual, sol.iterations, sol.gap) == (
            last.verdict, last.residual, last.iterations, last.gap)
        assert [R for R, _ in sol.R_history] == [4.0, 6.0, 8.0] and not sol.r_converged
        assert last.R_history == [] and last.r_converged is False

    def test_sandwiched_below_supersolution(self, tent, bump):
        sol = solve_stationary_wholespace(tent, bump, [4, 6, 8], 0.1)
        assert np.all(sol.values <= sol.super_ + 1e-10)

    def test_r_schedule_shortfall_is_recorded(self, tent, bump):
        short = solve_stationary_wholespace(tent, bump, [4, 6], 0.1, tol=1e-6)
        assert not short.r_converged
        assert short.R_history[-1][1] > 1e-6
        met = solve_stationary_wholespace(tent, bump, [4, 6, 8], 0.1, tol=1e-6)
        assert met.r_converged
        assert met.R_history[-1][1] <= 1e-6

    def test_balls_take_n_from_the_kernel(self):
        kernel = Kernel("tent", dimension=2)
        sol = solve_stationary_wholespace(kernel, bump_growth(2.0, 1.0, -1.0), [2.0, 2.4], 0.2,
                                          tol=1e-30)
        assert [R for R, _ in sol.R_history] == [2.0, 2.4]
        assert sol.op.grid.dimension == 2
        assert sol.values.size == sol.op.size == build_grid(2, 2.4, 0.2).size

    def test_nonpositive_growth_gives_zero(self, tent):
        growth = bump_growth(-0.2, 1.0, -1.0)  # a <= 0 everywhere
        sol = solve_stationary_wholespace(tent, growth, [4, 6], 0.1)
        assert sol.verdict == "extinct"
        assert sol.sup_norm == 0.0


class TestUniqueness:
    def test_identity_has_zero_defect(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        assert verify_uniqueness(ball_op, sol.values, sol.values) == (0.0, 0.0)

    def test_scaled_copy_has_positive_defect(self, ball_op):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        assert verify_uniqueness(ball_op, sol.values, 1.1 * sol.values)[0] > 0.0

    def test_multistart_agreement(self, ball_op, rng):
        sol = solve_stationary_ball(ball_op, tol=1e-10)
        sup_s = float(np.max(ball_op.growth.saturation(ball_op.points_arg)))
        solutions = [sol.values]
        for _ in range(4):
            u0 = rng.uniform(0.0, sup_s, size=ball_op.size)
            solutions.append(damped_solve(ball_op, u0, tol=1e-11))
        for i in range(len(solutions)):
            for j in range(i + 1, len(solutions)):
                assert np.max(np.abs(solutions[i] - solutions[j])) <= 1e-6


@pytest.fixture
def newton_runs(monkeypatch):
    """Record every iterate two_sided_newton evaluates, run by run."""
    runs = []
    real = stationary.two_sided_newton

    def spy(residual, solve, hi, lo, *args, **kwargs):
        seen = []

        def recorded(u):
            seen.append(u.copy())
            return residual(u)

        out = real(recorded, solve, hi, lo, *args, **kwargs)
        runs.append((seen, out))
        return out

    monkeypatch.setattr(stationary, "two_sided_newton", spy)
    return runs


def _newton_case(name):
    if name in ("narrow-ball", "wide-ball"):  # reach 20 and 50 around BANDED_MAX_REACH = 40
        h = 0.05 if name == "narrow-ball" else 1.0 / (operators.BANDED_MAX_REACH + 10)
        return build_operator(build_grid(1, 4.0, h, "ball-truncated"),
                              rescale_kernel(Kernel("tent"), 1.0, 0.0), bump_growth(2.0, 1.0, -1.0))
    if name.startswith("m2-eps"):
        sk = rescale_kernel(Kernel("tent"), float(name[6:]), 2.0, 1.0)
        return build_operator(GridPolicy(base_radius=4.0, base_spacing=0.05).grid_for(sk), sk,
                              bump_growth(2.0, 1.0, -1.0))
    if name == "2d-ball":
        return build_operator(build_grid(2, 3.0, 0.2, "ball-truncated"),
                              rescale_kernel(Kernel("tent", dimension=2), 1.0, 0.0),
                              bump_growth(2.0, 1.0, -1.0))
    return build_operator(build_grid(1, 4.0, 0.125, "torus"),
                          rescale_kernel(Kernel("tent"), 1.0, 0.0), constant_growth(1.5))


class TestTwoSidedNewton:
    @pytest.mark.parametrize("case", ["m2-eps0.4", "m2-eps0.1", "2d-ball", "torus-constant"])
    def test_enclosure_at_every_step(self, case, newton_runs):
        op = _newton_case(case)
        tol = 1e-10
        sol = solve_stationary_ball(op, tol=tol)
        assert sol.verdict == "persistent"
        (seen, (_, _, steps)), = newton_runs
        his, los = seen[0::2], seen[1::2]  # F is evaluated on hi, then lo
        assert len(his) == len(los) == steps + 1
        assert 0 < steps <= 15
        # independent residual: CSR path and the logistic law written out
        def F(u):
            return op.rate * (op.stencil_product(u) - u) + u * (op.a_values - u)

        slack = 1e-11 * (1.0 + op.rate + np.max(op.a_values))
        for k, (hi, lo) in enumerate(zip(his, los)):
            assert np.max(F(hi)) <= slack, f"step {k}: hi is not a super-solution"
            assert np.min(F(lo)) >= -slack, f"step {k}: lo is not a sub-solution"
            assert np.max(lo - hi) <= 1e-11, f"step {k}: iterates crossed"
        for k in range(1, len(his)):
            assert np.max(his[k] - his[k - 1]) <= 1e-11, f"step {k}: hi rose"
            assert np.min(los[k] - los[k - 1]) >= -1e-11, f"step {k}: lo fell"
        assert sol.gap == pytest.approx(float(np.max(np.abs(his[-1] - los[-1]))))
        assert sol.gap <= 10.0 * tol
        assert np.max(np.abs(sol.values - his[-1])) == 0.0
        oracle = damped_solve(op, sol.super_, tol=1e-10)
        assert np.max(np.abs(sol.values - oracle)) <= 1e-8
        if case == "torus-constant":
            assert np.max(np.abs(sol.values - 1.5)) <= 1e-12

    def test_non_concave_growth_is_refused(self):
        # f(s)/s = a - c (1 - e^{-4 s}) decreases, but f is convex for s > 1/2:
        # Newton from the barrier s = 2 overshoots below the root s = ln(16)/4
        a, c = 1.5, 1.6
        growth = GrowthProfile(
            "constant", params={"value": a},
            f_fn=lambda x, s: s * (a - c * (1.0 - np.exp(-4.0 * s))),
            dfds_fn=lambda x, s: a - c * (1.0 - np.exp(-4.0 * s)) - 4.0 * c * s * np.exp(-4.0 * s),
            saturation_fn=lambda x: np.full(np.shape(x), 2.0),
        )
        op = build_operator(build_grid(1, 4.0, 0.125, "torus"),
                            rescale_kernel(Kernel("tent"), 1.0, 0.0), growth)
        with pytest.raises(MonotonicityViolationError, match=r"step 1: F\(hi\) > 0 .*concave"):
            solve_stationary_ball(op, tol=1e-10)

    def test_straddling_bracket_sweeps_from_above_only(self, ball_op, newton_runs):
        lam = principal_eigenvalue(ball_op, tol=1e-10)
        assert lam.met_tol
        sol = solve_stationary_ball(ball_op, tol=1e-10, lam=replace(lam, upper=1e-3))
        assert sol.verdict == "indeterminate"
        assert np.all(sol.values == 0.0)
        (seen, (_, lo, steps)), = newton_runs
        assert lo is None and len(seen) == steps + 1
        assert np.max(np.abs(sol.attempted - seen[-1])) == 0.0
        assert all(np.all(b <= a + 1e-11) for a, b in zip(seen, seen[1:]))
        assert np.max(np.abs(ball_op.rhs(sol.attempted))) <= 1e-10


@pytest.fixture
def newton_args(monkeypatch):
    """Record the arguments of every two_sided_newton call."""
    calls = []
    real = stationary.two_sided_newton

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(stationary, "two_sided_newton", spy)
    return calls


@pytest.fixture
def linear_solvers(monkeypatch):
    """Name the Newton linear solve each ball solve builds, in call order."""
    built = []
    for name in ("banded_solver", "_cg_solver"):
        def spy(*args, _real=getattr(stationary, name), _name=name, **kwargs):
            built.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(stationary, name, spy)
    return built


def _cubic_growth():
    # f = s (1 - s)(2 - s) is not concave: at the barrier 1.8, f < 0 and d_s f = 0.92
    return GrowthProfile(
        "constant", params={"value": 2.0},
        f_fn=lambda x, s: s * (1.0 - s) * (2.0 - s),
        dfds_fn=lambda x, s: 3.0 * s * s - 6.0 * s + 2.0,
        saturation_fn=lambda x: np.full(np.shape(x), 1.8),
    )


class TestBandedNewton:
    @pytest.mark.parametrize("case", ["m2-eps0.4", "m2-eps0.1"])
    def test_matches_cg(self, case, newton_args, linear_solvers):
        op = _newton_case(case)
        sol = solve_stationary_ball(op, tol=1e-10)
        assert linear_solvers == ["banded_solver"]
        (args, kwargs), = newton_args
        residual, _, hi, lo, target, slack = args
        cg = stationary._cg_solver(op, atol=0.1 * min(target, slack))
        u, u_lo, steps = stationary.two_sided_newton(residual, cg, hi, lo, target, slack, **kwargs)
        assert sol.iterations == steps
        assert np.max(np.abs(sol.values - u)) <= 1e-10 * np.max(np.abs(u))
        assert sol.gap == pytest.approx(float(np.max(np.abs(u - u_lo))), abs=1e-12)

    def test_selection(self, linear_solvers):
        narrow, wide = _newton_case("narrow-ball"), _newton_case("wide-ball")
        assert narrow.reach < operators.BANDED_MAX_REACH < wide.reach
        for op in (narrow, wide, _newton_case("torus-constant"), _newton_case("2d-ball")):
            assert solve_stationary_ball(op, tol=1e-10).verdict == "persistent"
        assert linear_solvers == ["banded_solver", "_cg_solver", "_cg_solver", "_cg_solver"]

    @pytest.mark.parametrize("case", ["narrow-ball", "wide-ball", "torus-constant", "2d-ball"])
    def test_one_dispatch_rule(self, case, monkeypatch):
        # the eigen iteration and the Newton solve go banded on exactly the same operators
        picked = set()
        for module in (spectral, stationary):
            def spy(*args, _real=module.banded_solver, _name=module.__name__, **kwargs):
                picked.add(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "banded_solver", spy)
        op = _newton_case(case)
        lam = principal_eigenvalue(op, tol=1e-10)
        assert lam.met_tol
        assert solve_stationary_ball(op, tol=1e-10, lam=lam).verdict == "persistent"
        both = {"nichewave.spectral", "nichewave.stationary"}
        assert picked == (both if case == "narrow-ball" else set())
        assert (op.band_stencil() is not None) == (case == "narrow-ball")

    def test_nonpositive_diagonal_is_refused(self, tent, linear_solvers):
        # rate 0.25 < d_s f(1.8) = 0.92, so -J(hi) has a negative diagonal on the first step
        op = build_operator(build_grid(1, 4.0, 0.125, "ball-truncated"),
                            rescale_kernel(tent, 1.0, 0.0, 0.25), _cubic_growth())
        with pytest.raises(MonotonicityViolationError, match="nonpositive diagonal.*concave"):
            solve_stationary_ball(op, tol=1e-10)
        assert linear_solvers == ["banded_solver"]


class TestPCG:
    def test_matches_scipy_cg_bit_for_bit(self, newton_args):
        # every Newton system of a 2-D ball solve, against the scipy.sparse.linalg.cg
        # recurrences the in-repo PCG follows, with the same operator and Jacobi preconditioner
        from scipy.sparse.linalg import LinearOperator, cg

        op = _newton_case("2d-ball")
        assert op.band_stencil() is None
        solve_stationary_ball(op, tol=1e-10)
        (args, kwargs), = newton_args
        residual, solve, hi, lo, target, slack = args
        atol = 0.1 * min(target, slack)
        n = op.size
        c_diag = op.taps[op.reach, op.reach] * op.grid.spacing**2
        columns = []

        def checked(u, rhs):
            x = solve(u, rhs)
            slope = op.reaction_slope(u)
            minus_j = LinearOperator((n, n), dtype=float,
                                     matvec=lambda v: op.rate * (v - op.convolve(v)) - slope * v)
            jacobi = LinearOperator((n, n), dtype=float,
                                    matvec=lambda v: v / (op.rate * (1.0 - c_diag) - slope))
            for k, b in enumerate(rhs.T):
                ref, info = cg(minus_j, b, rtol=0.0, atol=atol, M=jacobi)
                assert info == 0
                assert np.array_equal(x[:, k], ref)
                columns.append(k)
            return x

        stationary.two_sided_newton(residual, checked, hi, lo, target, slack, **kwargs)
        assert len(columns) >= 6 and set(columns) == {0, 1}
