import dataclasses
import gc
import weakref

import numpy as np
import pytest

from nichewave import (
    ConfigError,
    DiscretizationInconsistencyError,
    GrowthProfile,
    IrreducibilityError,
    Kernel,
    build_grid,
    bump_growth,
    constant_growth,
    kernel_moment,
    lambda_p_extrapolate_R,
    principal_eigenvalue,
    rayleigh_lambda_v,
    rescale_kernel,
)
from nichewave import cli, spectral
from nichewave.experiments import local_kpp_solve_fd
from nichewave.operators import DiscreteOperator, build_operator
from nichewave.spectral import radius_walk
from nichewave.stationary import solve_stationary_wholespace
from oracles import dense_lambda_p_oracle, perron_window, scaling_invariance


def random_growth(rng, radius):
    radii = np.arange(0.0, radius + 1.0, 0.5)
    values = rng.uniform(-1.0, 2.0, size=radii.size)
    return GrowthProfile("tabulated", params={"r": radii.tolist(), "values": values.tolist()})


def start_vector(op, c, x, deflate=None):
    """Stands in for spectral._lobpcg: no step, so the start vector is kept."""
    return np.nan, x


class TestPrincipalEigenvalue:
    def test_torus_constant_is_exact(self, torus_op):
        est = principal_eigenvalue(torus_op, tol=1e-10)
        assert est.value == pytest.approx(-1.5, abs=1e-12)
        assert est.width <= 1e-10
        assert np.all(est.eigenvector > 0)

    def test_dense_oracle_small_random(self, tent, rng):
        for _ in range(5):
            grid = build_grid(1, 2.5, 0.5, "ball-truncated")
            growth = random_growth(rng, 2.5)
            op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), growth)
            est = principal_eigenvalue(op, tol=1e-10)
            assert est.met_tol
            oracle, gap = dense_lambda_p_oracle(op)
            assert est.value == pytest.approx(oracle, abs=1e-10)
            assert est.lower - 1e-13 <= oracle <= est.upper + 1e-13

    def test_perron_window(self, ball_op):
        est = principal_eigenvalue(ball_op, tol=1e-10)
        assert est.met_tol
        lo, hi = perron_window(ball_op)
        assert lo - 1e-12 <= est.value <= hi + 1e-12

    def test_residual_contract(self, ball_op):
        est = principal_eigenvalue(ball_op, tol=1e-10)
        assert est.met_tol
        assert est.residual <= 1e-8 * (1.0 + abs(est.value))

    def test_irreducible_check(self, tent):
        grid = build_grid(1, 4.0, 0.5, "ball-truncated")
        op = build_operator(grid, rescale_kernel(tent, 0.5, 0.0))  # support = h: taps vanish
        with pytest.raises(IrreducibilityError):
            principal_eigenvalue(op)

    def test_nonconvergence_carries_bracket(self, ball_op):
        # a missed tol is recorded on the estimate, which keeps its bracket
        est = principal_eigenvalue(ball_op, tol=1e-30, maxiter=3)
        assert not est.met_tol
        assert est.iterations == 3
        assert np.isfinite(est.lower) and np.isfinite(est.upper)

    def test_missed_tol_returns_valid_bracket(self, ball_op):
        for solve in (principal_eigenvalue, rayleigh_lambda_v):
            est = solve(ball_op, tol=1e-30, maxiter=3)
            assert not est.met_tol
            oracle, _ = dense_lambda_p_oracle(ball_op)
            assert est.lower <= oracle <= est.upper

    def test_eigenfunction_flag_reported(self, torus_op):
        est = principal_eigenvalue(torus_op, tol=1e-10)
        assert est.met_tol
        # lambda_p = -c < rate - sup a = 1 - c: strict inequality certified
        assert est.eigenfunction_certified is True

    def test_2d_large_grid_certifies_sign(self):
        # n = 11304: an FFT matvec cannot certify this grid, its bracket
        # stalls at width 2.8 with sign 'straddle'
        grid = build_grid(2, 6.0, 0.1, "ball-truncated")
        kernel = rescale_kernel(Kernel("tent", dimension=2), 0.5, 0.0)
        op = build_operator(grid, kernel, bump_growth(2.0, 1.0, -1.0))
        assert (grid.size, op.reach) == (11304, 5)
        est = principal_eigenvalue(op, tol=1e-10)
        assert est.width <= 1e-10
        assert est.sign == "negative"


class TestWarmStart:
    def test_unexpected_error_propagates(self, monkeypatch):
        # nothing between the off-band eigenvector solve and the caller swallows an error
        def broken(*args, **kwargs):
            raise ValueError("not a solver failure")

        monkeypatch.setattr(np.linalg, "eigh", broken)
        with pytest.raises(ValueError, match="not a solver failure"):
            principal_eigenvalue(ball_2d(), tol=1e-10)

    def test_certifies_without_lobpcg(self, tent, bump, monkeypatch):
        # the power steps alone reach the bracket from the start vector
        monkeypatch.setattr(spectral, "_lobpcg", start_vector)
        op = build_operator(build_grid(1, 3.0, 0.25, "ball-truncated"), rescale_kernel(tent, 1.0, 0.0), bump)
        est = principal_eigenvalue(op, tol=1e-10)
        oracle, _ = dense_lambda_p_oracle(op)
        assert est.lower - 1e-13 <= oracle <= est.upper + 1e-13
        assert est.width <= 1e-10
        assert est.iterations > 3  # power steps, not an eigenvector solve, did the work


    def test_certifies_without_lobpcg_on_torus(self, tent, bump, monkeypatch):
        # the torus has no band: power steps from the start vector reach the bracket
        monkeypatch.setattr(spectral, "_lobpcg", start_vector)
        op = build_operator(build_grid(1, 3.0, 0.25, "torus"), rescale_kernel(tent, 1.0, 0.0), bump)
        assert op.band_stencil() is None
        est = principal_eigenvalue(op, tol=1e-10)
        oracle, _ = dense_lambda_p_oracle(op)
        assert est.lower - 1e-13 <= oracle <= est.upper + 1e-13
        assert est.width <= 1e-10
        assert est.iterations > 3

    def test_exact_start_vector_skips_lobpcg(self, torus_op, tent, bump, monkeypatch):
        # constant growth on the torus: the ones vector is the eigenvector
        calls = []
        lobpcg = spectral._lobpcg

        def spy(*args, **kwargs):
            calls.append(1)
            return lobpcg(*args, **kwargs)

        monkeypatch.setattr(spectral, "_lobpcg", spy)
        est = principal_eigenvalue(torus_op, tol=1e-10)
        assert (est.lower, est.upper, est.iterations, calls) == (-1.5, -1.5, 1, [])
        op = build_operator(build_grid(1, 4.0, 0.125, "torus"), rescale_kernel(tent, 1.0, 0.0), bump)
        assert principal_eigenvalue(op, tol=1e-10).met_tol
        assert calls == [1]

    def test_step_cap_keeps_the_last_vector(self, monkeypatch):
        # two LOBPCG steps leave a vector far from converged; the power steps
        # start from it and the bracket still holds the eigenvalue
        op = ball_2d()
        oracle, _ = dense_lambda_p_oracle(op)
        c = spectral._shift_constant(op)

        def capped(steps):
            monkeypatch.setattr(spectral, "LOBPCG_MAX_STEPS", steps)
            theta, x = spectral._lobpcg(op, c, np.ones(op.size))
            return np.linalg.norm(op.apply(x) + c * x - theta * x), x

        residuals = [capped(steps)[0] for steps in (0, 1, 2)]
        assert residuals[0] > residuals[1] > residuals[2] > 1e-6
        x = capped(2)[1]
        kept = np.abs(x) / np.max(np.abs(x))
        products = []
        stencil_product = DiscreteOperator.stencil_product

        def spy(self, u, shift=None):
            products.append(u.copy())
            return stencil_product(self, u, shift)

        monkeypatch.setattr(DiscreteOperator, "stencil_product", spy)
        for maxiter in (1, spectral.DEFAULT_MAXITER):
            products.clear()
            est = principal_eigenvalue(op, tol=1e-10, maxiter=maxiter)
            assert np.array_equal(products[0], kept)
            assert est.lower - 1e-13 <= oracle <= est.upper + 1e-13
        assert est.met_tol and est.iterations > 3

    @pytest.mark.parametrize("bad", [0.0, np.nan, -1.0])
    @pytest.mark.parametrize("solve", [principal_eigenvalue, rayleigh_lambda_v])
    def test_start_must_be_finite_and_positive(self, solve, bad, ball_op, monkeypatch):
        def product(*args, **kwargs):
            raise AssertionError("a product ran")

        monkeypatch.setattr(DiscreteOperator, "stencil_product", product)
        monkeypatch.setattr(DiscreteOperator, "apply", product)
        start = np.ones(ball_op.size)
        start[7] = bad
        with pytest.raises(ValueError, match="finite and > 0"):
            solve(ball_op, tol=1e-10, start=start)

    @pytest.mark.parametrize("path", ["noda-1d", "lobpcg-2d"])
    def test_lambda_v_from_lambda_p_holds_the_oracle(self, path):
        op = small_1d() if path == "noda-1d" else ball_2d()
        est_p = principal_eigenvalue(op, tol=1e-10)
        est_v = rayleigh_lambda_v(op, tol=1e-10, start=est_p.eigenvector)
        oracle, _ = dense_lambda_p_oracle(op)
        assert est_v.met_tol
        assert est_v.lower - 1e-13 <= oracle <= est_v.upper + 1e-13
        assert est_v.iterations <= est_p.iterations


# the spectrum-1d-steep bench config and the bracket the seed certified at tol 1e-7
STEEP_SEED_BRACKET = (-1.711749820961586, -1.711749721820297)


@pytest.fixture(scope="module")
def steep_op():
    op = build_operator(build_grid(1, 4.0, 0.0025, "ball-truncated"),
                        rescale_kernel(Kernel("tent"), 0.05, 2.0, 1.0), bump_growth(2.0, 1.0, -1.0))
    assert (op.size, op.reach) == (3200, 20)
    return op


def small_1d():
    """A small 1-D ball of narrow reach: its eigenvector comes from Noda steps."""
    return build_operator(build_grid(1, 3.0, 0.1, "ball-truncated"),
                          rescale_kernel(Kernel("tent"), 1.0, 0.0), bump_growth(2.0, 1.0, -1.0))


def ball_2d():
    """A 2-D ball: no band, so its eigenvector comes from LOBPCG."""
    return build_operator(build_grid(2, 2.0, 0.25, "ball-truncated"),
                          rescale_kernel(Kernel("tent", dimension=2), 1.0, 0.0),
                          bump_growth(2.0, 1.0, -1.0))


class TestNodaSteps:
    """Eigenvectors of 1-D balls of narrow reach come from banded Noda steps."""

    def test_steep_tail_meets_tight_tol(self, steep_op):
        lo, hi = STEEP_SEED_BRACKET
        for solve in (principal_eigenvalue, rayleigh_lambda_v):
            est = solve(steep_op, tol=1e-10)
            assert est.width <= 1e-10 and est.met_tol
            assert est.lower <= hi and lo <= est.upper
            assert not spectral.degenerate_top(steep_op, est)

    def test_unreachable_tol_fails_fast(self, steep_op):
        est = principal_eigenvalue(steep_op, tol=1e-30)
        assert not est.met_tol
        lower, upper = est.lower, est.upper
        lo, hi = STEEP_SEED_BRACKET
        assert lower <= upper <= lower + 1e-10
        assert lower <= hi and lo <= upper
        assert est.iterations <= 20

    def test_near_degenerate_niches(self, tent):
        # two niches at |x| = 6: the top gap is at rounding level, and the upper
        # side stalls for steps while the shift still falls
        growth = GrowthProfile("tabulated", params={
            "r": list(range(9)), "values": [-1, -1, -1, -1, -1, -1, 2, -1, -1]})
        op = build_operator(build_grid(1, 8.0, 0.05, "ball-truncated"),
                            rescale_kernel(tent, 0.5, 0.0), growth)
        oracle, gap = dense_lambda_p_oracle(op)
        assert gap < 1e-14
        for solve in (principal_eigenvalue, rayleigh_lambda_v):
            est = solve(op, tol=1e-10)
            assert est.width <= 1e-10
            assert est.lower - 1e-13 <= oracle <= est.upper + 1e-13

    def test_lobpcg_only_off_the_band(self, ball_op, monkeypatch):
        # the LOBPCG eigenvector solve runs off the band only
        def never(*args, **kwargs):
            raise AssertionError("LOBPCG called")

        monkeypatch.setattr(spectral, "_lobpcg", never)
        assert ball_op.band_stencil() is not None
        assert principal_eigenvalue(ball_op, tol=1e-10).width <= 1e-10
        with pytest.raises(AssertionError, match="LOBPCG called"):
            principal_eigenvalue(ball_2d(), tol=1e-10)

    def test_one_stencil_product_per_iteration_off_the_band(self, monkeypatch):
        # the FFT product decides whether the start vector is kept; only the
        # kept phi, here LOBPCG's, goes through the stencil product
        calls = []
        product = DiscreteOperator.stencil_product

        def spy(self, u, shift=None):
            calls.append(u.copy())
            return product(self, u, shift)

        monkeypatch.setattr(DiscreteOperator, "stencil_product", spy)
        est = principal_eigenvalue(ball_2d(), tol=1e-10)
        assert est.met_tol
        assert len(calls) == est.iterations
        assert not np.all(calls[0] == 1.0)  # the discarded ones vector never got one


def niches_op(values):
    """1-D tent ball, eps = 0.5 and h = 0.01 (q = 50, off the band), with
    tabulated a(|x|) at |x| = 0, 1, ..., 8."""
    growth = GrowthProfile("tabulated", params={"r": list(range(9)), "values": values})
    return build_operator(build_grid(1, 8.0, 0.01, "ball-truncated"),
                          rescale_kernel(Kernel("tent"), 0.5, 0.0), growth)


TWO_NICHES = [-1, -1, -1, -1, -1, -1, 2, -1, -1]  # at |x| = 6: a double top eigenvalue
ONE_NICHE = [2, -1, -1, -1, -1, -1, -1, -1, -1]


class TestDegenerateGap:
    """The gap below the top eigenvalue is read off the band, for a missed tol only."""

    @pytest.mark.parametrize("values, degenerate", [(TWO_NICHES, True), (ONE_NICHE, False)],
                             ids=["two-niches", "one-niche"])
    def test_flag_follows_the_gap(self, values, degenerate):
        op = niches_op(values)
        assert op.band_stencil() is None
        _, gap = dense_lambda_p_oracle(op)
        assert (gap < spectral.DEGENERACY_GAP) == degenerate
        for solve in (principal_eigenvalue, rayleigh_lambda_v):
            est = solve(op, tol=1e-30)
            assert not est.met_tol
            assert spectral.degenerate_top(op, est) is degenerate

    def test_only_a_miss_reads_the_gap(self, monkeypatch):
        # no eigen-solve reads the gap, not even on a miss; the CLI check reads
        # it, by one deflated LOBPCG run, only for an estimate that missed tol
        calls = []
        lobpcg = spectral._lobpcg

        def spy(*args, deflate=None):
            calls.append(deflate is not None)
            return lobpcg(*args, deflate=deflate)

        monkeypatch.setattr(spectral, "_lobpcg", spy)
        op = niches_op(TWO_NICHES)
        met, missed = (principal_eigenvalue(op, tol=tol) for tol in (1e-10, 1e-30))
        assert met.met_tol and not missed.met_tol
        assert calls == [False, False]
        assert cli._certified(op, met, 1e-10) is met
        assert calls == [False, False]
        assert cli._certified(op, missed, 1e-30) is missed
        assert calls == [False, False, True]


class TestLobpcgVector:
    @pytest.mark.parametrize("dimension,topology", [
        (1, "ball-truncated"), (1, "torus"), (2, "ball-truncated"), (2, "torus"),
    ])
    def test_smallest_grids(self, bump, dimension, topology):
        # h < R and an integer 2R/h: 3 cells per axis is the least build_grid accepts
        grid = build_grid(dimension, 1.5, 1.0, topology)
        assert grid.size == 3**dimension
        op = build_operator(grid, rescale_kernel(Kernel("tent", dimension=dimension), 2.0, 0.0), bump)
        oracle, _ = dense_lambda_p_oracle(op)
        for est in (principal_eigenvalue(op, tol=1e-10), rayleigh_lambda_v(op, tol=1e-10)):
            assert est.lower - 1e-13 <= oracle <= est.upper + 1e-13
            assert est.width <= 1e-10
        with pytest.raises(ConfigError):
            build_grid(dimension, 1.0, 1.0, topology)

    def test_2d_tent_ball_matches_oracle(self, bump):
        grid = build_grid(2, 2.0, 0.125, "ball-truncated")
        assert 300 <= grid.size <= 1000
        op = build_operator(grid, rescale_kernel(Kernel("tent", dimension=2), 0.5, 0.0), bump)
        est = principal_eigenvalue(op, tol=1e-10)
        oracle, _ = dense_lambda_p_oracle(op)
        assert est.lower - 1e-13 <= oracle <= est.upper + 1e-13
        assert est.width <= 1e-10
        assert est.iterations <= 3  # the LOBPCG vector needs no power steps

    @pytest.mark.parametrize("dimension,topology,radius,spacing", [
        (1, "torus", 3.0, 0.25), (2, "ball-truncated", 3.0, 0.25), (1, "ball-truncated", 8.0, 0.02),
    ], ids=["torus", "2d-ball", "1d-ball-q50"])
    def test_unreachable_tol_stops_at_the_floor(self, dimension, topology, radius, spacing):
        # a CSR step that moves neither side of the bracket ends the loop; a
        # 60-step stall counter ran 76-103 products on these before it gave up.
        # No width meets a negative tol: on the torus the floor is an exact 0.
        op = build_operator(build_grid(dimension, radius, spacing, topology),
                            rescale_kernel(Kernel("tent", dimension=dimension), 1.0, 0.0),
                            bump_growth(2.0, 1.0, -1.0))
        assert op.band_stencil() is None
        oracle, _ = dense_lambda_p_oracle(op)
        for solve in (principal_eigenvalue, rayleigh_lambda_v):
            est = solve(op, tol=-1.0)
            assert not est.met_tol
            assert est.iterations < 60
            assert est.width <= 1e-14
            assert est.lower - 1e-13 <= oracle <= est.upper + 1e-13

    def test_reruns_are_bit_identical(self, ball_op):
        for solve in (principal_eigenvalue, rayleigh_lambda_v):
            first, second = solve(ball_op, tol=1e-10), solve(ball_op, tol=1e-10)
            assert first.met_tol
            assert (first.lower, first.upper) == (second.lower, second.upper)
            assert np.array_equal(first.eigenvector, second.eigenvector)


class TestLambdaV:
    def test_equals_lambda_p(self, ball_op):
        p = principal_eigenvalue(ball_op, tol=1e-10)
        v = rayleigh_lambda_v(ball_op, tol=1e-10)
        assert p.met_tol and v.met_tol
        assert abs(p.value - v.value) <= 1e-8

    def test_zero_growth_torus(self, tent):
        grid = build_grid(1, 4.0, 0.125, "torus")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(0.0))
        v = rayleigh_lambda_v(op, tol=1e-10)
        assert v.met_tol
        assert v.value == pytest.approx(0.0, abs=1e-10)
        phi = v.eigenvector
        assert np.max(phi) - np.min(phi) < 1e-6  # minimizer is the constant

    def test_dense_oracle(self, tent, rng):
        grid = build_grid(1, 3.0, 0.5, "ball-truncated")
        growth = random_growth(rng, 3.0)
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), growth)
        v = rayleigh_lambda_v(op, tol=1e-10)
        assert v.met_tol
        oracle, _ = dense_lambda_p_oracle(op)
        assert v.value == pytest.approx(oracle, abs=1e-9)


class TestExtrapolation:
    def test_monotone_nonincreasing(self, tent, bump):
        res = lambda_p_extrapolate_R(tent, bump, [4, 6, 8, 10], 0.1, tol=1e-12)
        vals = res.values
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10

    def test_constant_once_domain_covers_support(self, tent, bump):
        # compact kernel + compact positive core: sequence freezes once R is big
        res = lambda_p_extrapolate_R(tent, bump, [6, 8, 10], 0.1, tol=1e-15)
        big = lambda_p_extrapolate_R(tent, bump, [20], 0.1, tol=1e-15)
        assert res.values[-1] == pytest.approx(big.values[-1], abs=1e-6)

    def test_uncertainty_counts_both_widths(self, tent, bump):
        loose = lambda_p_extrapolate_R(tent, bump, [6, 8], 0.1, tol=1e-8)
        first, second = loose.estimates
        assert loose.converged and first.value >= second.value
        assert loose.uncertainty == abs(first.value - second.value) + first.width + second.width
        assert loose.uncertainty <= 1e-8
        # tol above the decrease but below the decrease plus the widths
        tight = lambda_p_extrapolate_R(tent, bump, [6, 8], 0.1, tol=0.5 * loose.uncertainty)
        assert first.value - second.value <= tight.uncertainty * 0.5
        assert not tight.converged
        assert tight.uncertainty == loose.uncertainty

    def test_lipschitz_in_a(self, tent, bump, rng):
        grid = build_grid(1, 6.0, 0.1, "ball-truncated")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), bump)
        base = principal_eigenvalue(op, tol=1e-11)
        assert base.met_tol
        for _ in range(10):
            delta = rng.uniform(-0.3, 0.3)
            op2 = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), bump,
                                 a_values=op.a_values + delta)
            est2 = principal_eigenvalue(op2, tol=1e-11)
            assert est2.met_tol
            assert abs(est2.value - base.value) <= abs(delta) + 1e-9

    def test_order_reversal(self, tent, bump, rng):
        grid = build_grid(1, 6.0, 0.1, "ball-truncated")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), bump)
        base = principal_eigenvalue(op, tol=1e-11)
        assert base.met_tol
        lift = rng.uniform(0.0, 0.5, size=grid.size)
        op2 = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), bump,
                             a_values=op.a_values + lift)
        est2 = principal_eigenvalue(op2, tol=1e-11)
        assert est2.met_tol
        assert est2.value <= base.value + 1e-9


# Both consumers of radius_walk, run to the end of the schedule.
WALK_CONSUMERS = {
    "extrapolate": lambda k, g, radii: lambda_p_extrapolate_R(k, g, radii, 0.1, tol=-1.0),
    "wholespace": lambda k, g, radii: solve_stationary_wholespace(k, g, radii, 0.1, tol=-1.0),
}


class TestRadiusWalk:
    def test_yields_nested_balls_with_their_lambda(self, tent, bump):
        steps = [(R, op.grid.radius, op.grid.size, lam.value)
                 for R, op, lam in radius_walk(tent, bump, [6, 4], 0.1)]
        assert [s[:3] for s in steps] == [(4.0, 4.0, 80), (6.0, 6.0, 120)]
        assert steps[1][3] <= steps[0][3] + 1e-10

    @pytest.mark.parametrize("consumer", sorted(WALK_CONSUMERS))
    def test_rising_lambda_raises(self, consumer, tent, bump, monkeypatch):
        real = spectral.principal_eigenvalue
        calls = []

        def rising(op, **kwargs):
            est = real(op, **kwargs)
            calls.append(op.grid.radius)
            shift = float(len(calls))
            return dataclasses.replace(est, value=est.value + shift, lower=est.lower + shift,
                                       upper=est.upper + shift)

        monkeypatch.setattr(spectral, "principal_eigenvalue", rising)
        with pytest.raises(DiscretizationInconsistencyError, match="increased"):
            WALK_CONSUMERS[consumer](tent, bump, [4, 6, 8])
        assert calls == [4.0, 6.0]

    @pytest.mark.parametrize("consumer", sorted(WALK_CONSUMERS))
    @pytest.mark.parametrize("radii, message", [([4.05], "multiple of h"), ([], "empty")])
    def test_bad_schedule_is_a_config_error(self, consumer, radii, message, tent, bump):
        with pytest.raises(ConfigError, match=message):
            WALK_CONSUMERS[consumer](tent, bump, radii)

    @pytest.mark.parametrize("consumer", sorted(WALK_CONSUMERS))
    def test_earlier_operators_are_freed(self, consumer, tent, bump, monkeypatch):
        """Only one ball's operator (and its CSR matrix) is alive at a time.

        Reference counting alone must free it, so the collector stays off.
        """
        real = spectral.principal_eigenvalue
        seen = []
        alive_at_call = []

        def spy(op, **kwargs):
            alive_at_call.append(sum(ref() is not None for ref in seen))
            seen.append(weakref.ref(op))
            return real(op, **kwargs)

        monkeypatch.setattr(spectral, "principal_eigenvalue", spy)
        gc.disable()
        try:
            WALK_CONSUMERS[consumer](tent, bump, [4, 6, 8])
        finally:
            gc.enable()
        assert alive_at_call == [0, 0, 0]


class TestWarmWalk:
    """Each ball after the first starts from the previous ball's eigenvector."""

    @staticmethod
    def _record_starts(monkeypatch):
        real = spectral.principal_eigenvalue
        starts = []

        def spy(op, **kwargs):
            starts.append(kwargs.get("start"))
            return real(op, **kwargs)

        monkeypatch.setattr(spectral, "principal_eigenvalue", spy)
        return starts

    @pytest.mark.parametrize("dimension, radii, h", [(1, [2, 3, 4], 0.1), (2, [1.5, 2.0], 0.25)],
                             ids=["noda-1d", "lobpcg-2d"])
    def test_every_bracket_holds_the_oracle(self, dimension, radii, h, bump, monkeypatch):
        starts = self._record_starts(monkeypatch)
        kernel = rescale_kernel(Kernel("tent", dimension=dimension), 1.0, 0.0)
        for R, op, lam in radius_walk(kernel, bump, radii, h):
            oracle, _ = dense_lambda_p_oracle(op)
            assert lam.met_tol
            assert lam.lower - 1e-13 <= oracle <= lam.upper + 1e-13
        assert starts[0] is None and all(s is not None for s in starts[1:])
        assert len(starts) == len(radii)

    def test_known_ball_seeds_the_next(self, tent, bump, monkeypatch):
        op4 = build_operator(build_grid(1, 4.0, 0.1, "ball-truncated"), tent, bump)
        lam4 = principal_eigenvalue(op4)
        starts = self._record_starts(monkeypatch)
        steps = list(radius_walk(tent, bump, [4, 6], 0.1, known=(4.0, op4, lam4)))
        assert steps[0][2] is lam4 and len(starts) == 1
        grid6 = steps[1][1].grid
        idx_new, idx_old = grid6.common_with(op4.grid)
        assert np.array_equal(starts[0][idx_new], lam4.eigenvector[idx_old])
        outside = np.setdiff1d(np.arange(grid6.size), idx_new)
        assert outside.size and np.all(starts[0][outside] == np.min(lam4.eigenvector))

    def test_a_dropped_op_is_freed_before_the_next_ball_is_built(self, tent, bump, monkeypatch):
        # the walk keeps the last grid and eigenvector, never the op; reference
        # counting alone must free it, so the collector stays off
        build = spectral.build_operator
        refs, alive_at_build = [], []

        def spy(*args, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in refs))
            return build(*args, **kwargs)

        monkeypatch.setattr(spectral, "build_operator", spy)
        gc.disable()
        try:
            for R, op, lam in radius_walk(tent, bump, [4, 6, 8], 0.1):
                refs.append(weakref.ref(op))
                del op
        finally:
            gc.enable()
        assert alive_at_build == [0, 0, 0]
        assert all(ref() is None for ref in refs)


class TestScalingInvariance:
    @pytest.mark.parametrize("eps", [1.0, 2.0, 0.5])
    def test_mapped_grid_exactness(self, tent, bump, eps):
        difference, combined_width = scaling_invariance(tent, bump, eps, 6.0, 0.05)
        assert abs(difference) <= max(1e-6, combined_width)

    def test_the_kernel_scale_is_ignored(self, tent, bump):
        # both sides are J at rate 1: a kernel that carries another scale
        # gives the same comparison, to the bit
        base = scaling_invariance(tent, bump, 2.0, 6.0, 0.05)
        scaled = scaling_invariance(rescale_kernel(tent, 0.5, 2.0, 3.0), bump, 2.0, 6.0, 0.05)
        assert scaled == base


def fd_lambda1(growth, sigma, radius, spacing):
    return local_kpp_solve_fd(growth, sigma, radius, spacing).lambda1


class TestLocalFD:
    def test_closed_form_constant(self):
        sigma, R, c = 1.0 / 12.0, 2.0, 1.0
        est = fd_lambda1(constant_growth(c), sigma, R, 0.005)
        exact = sigma * (np.pi / (2 * R)) ** 2 - c
        assert est.value == pytest.approx(exact, abs=5e-6)

    def test_second_order_convergence(self):
        sigma, R, c = 0.25, 2.0, 0.5
        exact = sigma * (np.pi / (2 * R)) ** 2 - c
        errs = [abs(fd_lambda1(constant_growth(c), sigma, R, h).value - exact)
                for h in (0.08, 0.04, 0.02)]
        assert errs[1] <= 0.30 * errs[0]
        assert errs[2] <= 0.30 * errs[1]

    @pytest.mark.parametrize("h", [0.08, 0.04, 0.02, 0.01, 0.005])
    def test_bracket_contains_the_discrete_eigenvalue(self, h):
        # -sigma Delta_h on the 2R/h - 1 interior nodes, Dirichlet: 4 sigma/h^2 sin^2(pi h / 4R)
        sigma, R, c = 1.0 / 12.0, 2.0, 1.0
        est = fd_lambda1(constant_growth(c), sigma, R, h)
        exact = 4.0 * sigma / h**2 * np.sin(np.pi * h / (4.0 * R)) ** 2 - c
        assert est.met_tol
        assert est.lower <= exact <= est.upper

    def test_tent_diffusion_coefficient(self, tent):
        assert kernel_moment(tent, 2.0) / 2.0 == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_ground_state_positive(self, bump):
        est = fd_lambda1(bump, 1.0 / 12.0, 4.0, 0.01)
        assert np.all(est.eigenvector > -1e-12)
        assert est.lower <= est.value <= est.upper
