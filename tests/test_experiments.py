from dataclasses import replace

import numpy as np
import pytest

from nichewave import (
    GrowthProfile,
    Kernel,
    KernelHypothesisError,
    build_grid,
    bump_growth,
    constant_growth,
    principal_eigenvalue,
    rescale_kernel,
)
from nichewave import experiments
from nichewave.experiments import (
    GridPolicy,
    apriori_estimate_audit,
    asymptotic_limit_check,
    build_invasion_matrix,
    energy_slope_audit,
    epsilon_sweep,
    fat_tail_verdict,
    find_eps_star,
    local_kpp_solve_fd,
)
from nichewave.errors import ConfigError, MonotonicityViolationError, UnderResolvedKernelError
from nichewave.kernels import kernel_moment
from nichewave.operators import build_operator
from nichewave.stationary import solve_stationary_ball
from oracles import dense_lambda_p_oracle

POLICY = GridPolicy(base_radius=4.0, base_spacing=0.05)


class TestSweep:
    def test_large_eps_m1_errors_decrease(self, tent, bump):
        res = epsilon_sweep(rescale_kernel(tent, 1.0, 1.0), bump, [4, 8], POLICY, direction="large",
                            solver_tol=1e-9, spectral_tol=1e-9)
        assert len(res.entries) == 2
        e4, e8 = res.entries
        assert e8.errors["u_l2_err_a+"] < e4.errors["u_l2_err_a+"]
        assert e8.errors["lam_err_-sup_a"] < e4.errors["lam_err_-sup_a"]
        ok, violations, straddles = res.coherence(1e-9)
        assert ok and straddles == 0

    def test_m0_targets_use_the_rate(self, tent, bump):
        # for m = 0 the rate alpha0 stays as eps grows: u -> (a - alpha0)+, lambda_p -> alpha0 - sup a
        policy = GridPolicy(base_radius=4.0, base_spacing=0.1)
        entry, = epsilon_sweep(rescale_kernel(tent, 1.0, 0.0, 1.5), bump, [8], policy,
                               direction="large").entries
        a = bump.a(policy.grid_for(rescale_kernel(tent, 8.0, 0.0)).points[:, 0])
        assert entry.errors["lam_err_1.5-sup_a"] == abs(entry.lam.value - (1.5 - a.max()))
        assert entry.target_name == "u_sup_err_(a-1.5)+"

    def test_m2_small_eps_names_no_target(self, tent, bump):
        # the m = 2 small-eps limit is the local pair (lambda_1, v) of
        # sigma Lap + f, not a+: the sweep names no target, and
        # asymptotic_limit_check meets each entry with the FD pair
        entry, = epsilon_sweep(rescale_kernel(tent, 1.0, 2.0), bump, [0.4], POLICY,
                               direction="small", solver_tol=1e-8, spectral_tol=1e-9).entries
        assert (entry.errors, entry.target_name) == ({}, "")
        assert np.isnan(entry.target_error)

    @pytest.mark.parametrize("policy", [GridPolicy(base_radius=2.5, base_spacing=0.2)],
                             ids=["policy"])
    def test_grids_take_n_from_the_kernel(self, bump, policy):
        # a 2-D kernel with a growth profile of |x| solves on 2-D grids
        kernel = rescale_kernel(Kernel("tent", dimension=2), 1.0, 0.0)
        entry, = epsilon_sweep(kernel, bump, [1.0], policy).entries
        grid = build_grid(2, 3.6, 0.2)
        assert entry.solve.values.size == entry.lam.eigenvector.size == grid.size

    def test_under_resolved_entries_skipped(self, tent, bump):
        coarse = GridPolicy(base_radius=4.5, base_spacing=0.75)
        res = epsilon_sweep(rescale_kernel(tent, 1.0, 0.0), bump, [0.25, 4.0], coarse)
        assert 0.25 in res.skipped
        assert [e.eps for e in res.entries] == [4.0]


class TestEpsStar:
    def test_infinite_when_growth_exceeds_one(self, tent, bump):
        res = find_eps_star(rescale_kernel(tent, 1.0, 0.0), bump, 0.5, 64.0, POLICY)
        assert res.kind == "infinite"

    def test_finite_threshold_against_dense_scan(self, tent):
        growth = bump_growth(0.8, 1.0, -1.0)
        policy = GridPolicy(base_radius=4.0, base_spacing=0.1)
        res = find_eps_star(rescale_kernel(tent, 1.0, 0.0), growth, 4.0, 10.0, policy, tol=1e-2)
        assert res.kind == "finite"
        # dense scan oracle at the same discretization
        def lam(eps):
            sk = rescale_kernel(tent, eps, 0.0, 1.0)
            grid = policy.grid_for(sk)
            op = build_operator(grid, sk, growth)
            return principal_eigenvalue(op, tol=1e-10).value

        eps_scan = np.linspace(6.0, 6.8, 81)  # 1e-2 resolution around the root
        signs = np.array([lam(e) < 0 for e in eps_scan])
        flips = np.nonzero(signs[:-1] & ~signs[1:])[0]
        assert flips.size == 1
        lo, hi = eps_scan[flips[0]], eps_scan[flips[0] + 1]
        assert lo - 1e-2 <= res.value <= hi + 1e-2

    @staticmethod
    def _straddling_run(tent, monkeypatch, eps_straddle):
        """find_eps_star on [4, 10] (eps* about 6.4) with lambda_p straddling
        zero at every tol at eps_straddle; returns the result and those tols."""
        real = experiments.principal_eigenvalue
        tols, vectors = [], []

        def straddle(op, tol, start=None):
            est = real(op, tol=tol, start=start)
            if op.kernel.epsilon == eps_straddle:
                # a sharper retry starts from the straddling estimate's eigenvector
                assert start is (vectors[-1] if tols else None)
                tols.append(tol)
                vectors.append(est.eigenvector)
                est = replace(est, lower=-1e-3, upper=1e-3, value=-1e-4)
            return est

        monkeypatch.setattr(experiments, "principal_eigenvalue", straddle)
        policy = GridPolicy(base_radius=4.0, base_spacing=0.1)
        res = find_eps_star(rescale_kernel(tent, 1.0, 0.0), bump_growth(0.8, 1.0, -1.0), 4.0, 10.0,
                            policy, tol=1e-2)
        return res, tols

    def test_straddling_midpoint_keeps_the_certified_bracket(self, tent, monkeypatch):
        # the first midpoint, eps = 7, straddles at every tol: the bisection stops there
        res, tols = self._straddling_run(tent, monkeypatch, 7.0)
        assert tols == [1e-10, 1e-12, 1e-13]
        assert (res.kind, res.bracket, res.value, res.unresolved) == ("finite", (4.0, 10.0), 7.0, [7.0])
        assert [eps for eps, _ in res.history] == [4.0, 10.0, 7.0]
        assert res.history[0][1].sign == "negative" and res.history[1][1].sign == "nonnegative"

    def test_straddling_hi_is_no_certified_end(self, tent, monkeypatch):
        # hi = 10 straddles at every tol: no bracket rests on it, and no bisection runs
        res, tols = self._straddling_run(tent, monkeypatch, 10.0)
        assert tols == [1e-10, 1e-12, 1e-13]
        assert (res.kind, res.bracket, res.value, res.unresolved) == ("no-sign-change", None, None,
                                                                      [10.0])
        assert [eps for eps, _ in res.history] == [4.0, 10.0]
        assert res.note == "no certified sign at eps=10.0: lambda_p sign straddle"

    def test_straddling_lo_is_listed_unresolved(self, tent, monkeypatch):
        res, tols = self._straddling_run(tent, monkeypatch, 4.0)  # lo straddles at every tol
        assert tols == [1e-10, 1e-12, 1e-13]
        assert (res.kind, res.bracket, res.unresolved) == ("no-sign-change", None, [4.0])
        assert res.note == "no persistence at eps=4.0: lambda_p sign straddle"

    def test_thin_spike_warning(self, tent):
        growth = GrowthProfile("tabulated", params={
            "r": [0.0, 0.02, 1.0, 2.0], "values": [1.5, -0.5, -0.8, -1.0]})
        with pytest.warns(UserWarning, match="spike"):
            find_eps_star(rescale_kernel(tent, 1.0, 0.0), growth, 0.5, 2.0, POLICY)


def _record_ops(monkeypatch, name):
    """The operators passed to experiments.<name>, one per call."""
    ops, real = [], getattr(experiments, name)

    def spy(op, **kwargs):
        ops.append(op)
        return real(op, **kwargs)

    monkeypatch.setattr(experiments, name, spy)
    return ops


class TestLocalKPP:
    def test_zero_when_lambda1_nonnegative(self):
        growth = bump_growth(0.1, 1.0, -1.0)  # lambda_1 ~ +0.19
        res = local_kpp_solve_fd(growth, 1.0 / 12.0, 4.0, 0.02)
        assert res.lambda1.value > 0
        assert np.all(res.values == 0.0)

    def test_constant_growth_barrier(self):
        growth = constant_growth(1.0)
        res = local_kpp_solve_fd(growth, 1.0 / 12.0, 2.0, 0.01, tol=1e-8)
        assert res.lambda1.value < 0
        assert 0.0 < np.max(res.values) < 1.0  # strictly below the barrier c

    def test_residual_oracle(self, bump):
        res = local_kpp_solve_fd(bump, 1.0 / 12.0, 4.0, 0.01, tol=1e-8)
        sigma, h = 1.0 / 12.0, 0.01
        v = res.values
        lap = np.zeros_like(v)
        lap[1:-1] = v[2:] - 2 * v[1:-1] + v[:-2]
        lap[0] = v[1] - 2 * v[0]
        lap[-1] = v[-2] - 2 * v[-1]
        fresh = sigma * lap / h**2 + v * (bump.a(res.nodes) - v)
        assert np.max(np.abs(fresh)) <= 1e-8


    def test_newton_matches_damped_oracle(self, bump):
        sigma, h = 1.0 / 12.0, 0.02
        res = local_kpp_solve_fd(bump, sigma, 4.0, h, tol=1e-10)
        assert 0 < res.iterations <= 15
        assert res.residual <= 1e-10

        # independent oracle: explicit damped iteration down from the barrier 2
        a = bump.a(res.nodes)
        tau = 0.9 / (2.0 * sigma / h**2 + 5.0)  # |d_s f| = |a - 2s| <= 5 on [0, 2]
        v = np.full_like(res.nodes, 2.0)
        for _ in range(200_000):
            lap = -2.0 * v
            lap[:-1] += v[1:]
            lap[1:] += v[:-1]
            r = sigma * lap / h**2 + v * (a - v)
            if np.max(np.abs(r)) <= 1e-11:
                break
            v = v + tau * r
        else:
            raise AssertionError("damped FD oracle did not converge")
        assert np.max(np.abs(res.values - v)) <= 1e-9

    def test_values_are_the_ball_solve_on_the_range_h_operator(self, tent, bump, monkeypatch):
        # the FD grid of acceptance test 07: sigma = m_2(tent) / 2, R = 4, h = 0.01
        sigma, radius, h = kernel_moment(tent, 2.0) / 2.0, 4.0, 0.01
        calls = _record_ops(monkeypatch, "solve_stationary_ball")
        res = local_kpp_solve_fd(bump, sigma, radius, h, tol=1e-8)
        (op,) = calls
        assert op.reach == 1 and op.rate == 2.0 * sigma / h**2
        assert np.array_equal(res.nodes, op.grid.points[:, 0])
        sol = solve_stationary_ball(op, tol=1e-8, lam=principal_eigenvalue(op))
        assert res.iterations == sol.iterations
        assert np.array_equal(res.values, sol.values)

    def test_operator_is_the_dirichlet_laplacian(self, bump, monkeypatch):
        sigma, radius, h = 1.0 / 12.0, 2.0, 0.05
        calls = _record_ops(monkeypatch, "principal_eigenvalue")
        res = local_kpp_solve_fd(bump, sigma, radius, h)
        (op,) = calls
        assert np.allclose(res.nodes, -radius + h * np.arange(1, round(2 * radius / h)),
                           rtol=0.0, atol=1e-12)
        u = np.random.default_rng(3).uniform(-1.0, 1.0, op.size)
        padded = np.concatenate(([0.0], u, [0.0]))  # Dirichlet ends
        lap = sigma * (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / h**2
        for product in (op.stencil_product(u) - u, op.convolve(u) - u):
            assert np.max(np.abs(op.rate * product - lap)) <= 1e-12 * op.rate

    def test_nonpositive_diagonal_is_refused(self):
        # f = s (1 - s)(2 - s) rises through f(1.8) < 0 with slope 0.92 > 2 sigma / h^2
        growth = GrowthProfile(
            "constant", params={"value": 2.0},
            f_fn=lambda x, s: s * (1.0 - s) * (2.0 - s),
            dfds_fn=lambda x, s: 3.0 * s * s - 6.0 * s + 2.0,
            saturation_fn=lambda x: np.full(np.shape(x), 1.8),
        )
        with pytest.raises(MonotonicityViolationError, match="nonpositive diagonal.*concave"):
            local_kpp_solve_fd(growth, 1.0 / 12.0, 4.0, 0.5)


class TestLimitCheck:
    def test_m2_small_eps_tracks_local_problem(self, tent, bump):
        chk = asymptotic_limit_check(tent, bump, 2.0, "small", [0.4, 0.2, 0.1], POLICY,
                                     solver_tol=1e-8, spectral_tol=1e-9)
        assert chk.lambda_monotone and chk.u_monotone
        assert chk.lambda_target_name == "lam_err_lambda1_fd"

    def test_m2_small_eps_needs_a_1d_niche(self):
        # the local reference is a 1-D FD solve; a niche in the 2-D kernel's
        # space has none to compare with, whatever the growth profile
        for growth in (bump_growth(2.0, 1.0, -1.0), constant_growth(-0.1)):
            with pytest.raises(ConfigError, match="1-D local reference only, not 2-D"):
                asymptotic_limit_check(Kernel("tent", dimension=2), growth, 2.0, "small",
                                       [0.8, 0.4], GridPolicy(base_radius=2.5, base_spacing=0.2))

    def test_m2_fd_errors_are_read_on_each_entry_grid(self, tent, bump):
        # the test_07 grid policy: the errors against the FD pair equal those
        # recomputed from chk.fd and the grid each entry was solved on
        chk = asymptotic_limit_check(tent, bump, 2.0, "small", [0.4, 0.2, 0.1], POLICY,
                                     solver_tol=1e-8, spectral_tol=1e-9)
        assert chk.u_target_name == "u_l2core_err_v_fd"
        core_r = bump.core_radius + 1.0
        lam_oracle, u_oracle = [], []
        for e in chk.sweep.entries:
            grid = e.solve.op.grid
            assert grid.size == POLICY.grid_for(rescale_kernel(tent, e.eps, 2.0)).size
            x = grid.points[:, 0]
            core = np.abs(x) <= core_r
            v = np.interp(x, chk.fd.nodes, chk.fd.values)
            lam_oracle.append(abs(e.lam.value - chk.fd.lambda1.value))
            u_oracle.append(float(np.sqrt(np.sum(grid.weights[core] * (e.solve.values[core] - v[core]) ** 2))))
        assert chk.lambda_errors == lam_oracle
        assert chk.u_errors == u_oracle

    def test_m0_large_eps(self, tent, bump):
        policy = GridPolicy(base_radius=4.0, base_spacing=0.1)
        chk = asymptotic_limit_check(tent, bump, 0.0, "large", [8, 16, 32], policy,
                                     solver_tol=1e-9, spectral_tol=1e-9)
        assert chk.lambda_monotone
        assert chk.lambda_target_name == "lam_err_1-sup_a"
        assert chk.u_target_name == "u_sup_err_(a-1)+"
        assert chk.u_errors == [e.errors["u_sup_err_(a-1)+"] for e in chk.sweep.entries]
        # Lemma 6.2 / remark envelope at the largest range factor
        final_sup_err = chk.sweep.entries[-1].errors["u_sup_err_(a-1)+"]
        assert final_sup_err <= 1.0 / 32.0**0.25 + 1e-6


    def test_m0_small_eps_targets_a_plus(self, tent, bump):
        # for m = 0 the rate stays alpha0 as eps -> 0, yet J_eps * u - u -> 0,
        # so u -> a+; (a - alpha0)+ is the large-eps limit only
        chk = asymptotic_limit_check(tent, bump, 0.0, "small", [0.8, 0.4, 0.2, 0.1], POLICY)
        assert (chk.lambda_target_name, chk.u_target_name) == ("lam_err_-sup_a", "u_sup_err_a+")
        assert chk.lambda_monotone and chk.u_monotone
        assert chk.u_errors == pytest.approx([0.326, 0.222, 0.150, 0.096], abs=1e-3)

    def test_every_eps_skipped_leaves_no_target(self, tent, bump):
        policy = GridPolicy(base_radius=4.0, base_spacing=0.1, max_cells_per_axis=10)
        chk = asymptotic_limit_check(tent, bump, 1.0, "large", [4, 8], policy)
        assert chk.epsilons == [] and chk.lambda_errors == [] and chk.u_errors == []
        assert (chk.lambda_target_name, chk.u_target_name) == ("", "")
        assert len(chk.notes) == 2


class TestAudit:
    def test_items_pass_on_converged_solve(self, ball_op):
        from nichewave.stationary import solve_stationary_ball

        sol = solve_stationary_ball(ball_op, tol=1e-10)
        audit = apriori_estimate_audit(ball_op, sol.values, sol.lambda_p_used)
        assert audit.all_passed, [(i.name, i.detail) for i in audit.items if not i.passed]

    def test_energy_slope_near_m(self, tent, bump):
        fit = energy_slope_audit(rescale_kernel(tent, 1.0, 1.0), bump, [1, 2, 4, 8], POLICY,
                                 solver_tol=1e-9)
        assert abs(fit.slope - 1.0) <= 0.2
        assert all(a.all_passed for a in fit.audits)

    def test_audits_the_operator_each_entry_solved_on(self, tent, bump, monkeypatch):
        ops = []
        real = experiments.build_operator

        def spy(*args, **kwargs):
            ops.append(real(*args, **kwargs))
            return ops[-1]

        monkeypatch.setattr(experiments, "build_operator", spy)
        audited, audit = [], experiments.apriori_estimate_audit
        monkeypatch.setattr(experiments, "apriori_estimate_audit",
                            lambda op, *args: audited.append(op) or audit(op, *args))
        fit = energy_slope_audit(rescale_kernel(tent, 1.0, 1.0), bump, [4, 2],
                                 GridPolicy(base_radius=4.0, base_spacing=0.1), solver_tol=1e-9)
        assert [a.eps for a in fit.audits] == [2.0, 4.0]
        # one operator per eps, built by the sweep and audited as it is
        assert len(ops) == len(audited) == 2 and all(a is b for a, b in zip(audited, ops))

    @pytest.mark.parametrize("spectral_tol, met", [(1e-30, False), (None, True)])
    def test_records_lambda_met_tol(self, tent, bump, spectral_tol, met):
        tol = {} if spectral_tol is None else {"spectral_tol": spectral_tol}
        fit = energy_slope_audit(rescale_kernel(tent, 1.0, 1.0), bump, [2, 4],
                                 GridPolicy(base_radius=4.0, base_spacing=0.1), solver_tol=1e-9, **tol)
        assert fit.lambda_met_tol is met


class TestInvasion:
    def test_resident_is_neutral_against_itself(self, tent, bump):
        (entry,), = build_invasion_matrix(rescale_kernel(tent, 1.0, 1.0), bump, [1.0], [1.0], POLICY,
                                          solver_tol=1e-10).entries
        assert abs(entry.lam.value) <= entry.lam.width + 1e-6

    def test_large_range_mutant_invades(self, tent, bump):
        (entry,), = build_invasion_matrix(rescale_kernel(tent, 1.0, 1.0), bump, [2.0], [16.0], POLICY,
                                          solver_tol=1e-9).entries
        assert entry.verdict == "invades"
        assert entry.lam.upper < 0

    def test_common_grid(self, tent):
        grid = POLICY.grid_for(replace(tent, epsilon=0.5), replace(tent, epsilon=2.0))
        assert (grid.radius, grid.spacing) == (6.0, 0.025)
        # infinite support: the base radius, as GridPolicy.radius_for gives it
        fat = Kernel("algebraic-tail", params={"power": 5.0})
        assert POLICY.grid_for(replace(fat, epsilon=0.5), replace(fat, epsilon=2.0)).radius == 4.0

    def test_matrix_refuses_an_unresolved_resident(self, bump):
        # cutoff 0.06 < 2 h = 0.1 at eps1 = 1: the resident kernel is not resolved
        kernel = rescale_kernel(Kernel("truncated-gaussian", params={"sigma": 0.03, "cutoff": 0.06}),
                                1.0, 1.0)
        policy = GridPolicy(base_radius=3.0, base_spacing=0.05)
        with pytest.raises(UnderResolvedKernelError, match="eps=1.0: kernel support 0.06"):
            build_invasion_matrix(kernel, bump, [1.0], [2.0], policy)

    def test_matrix_refuses_an_unresolved_mutant_before_any_solve(self, bump, monkeypatch):
        # the resident (eps 2, support 0.12) is resolved; the mutant (eps 1,
        # support 0.06 < 2 h = 0.1) is not, and the row is refused before its resident solve
        kernel = rescale_kernel(Kernel("truncated-gaussian", params={"sigma": 0.03, "cutoff": 0.06}),
                                1.0, 1.0)
        policy = GridPolicy(base_radius=3.0, base_spacing=0.05)

        def no_solve(*args, **kwargs):
            raise AssertionError("a ball solve ran before the row's grid was refused")

        monkeypatch.setattr(experiments, "solve_stationary_ball", no_solve)
        with pytest.raises(UnderResolvedKernelError, match="eps=1.0: kernel support 0.06"):
            build_invasion_matrix(kernel, bump, [2.0], [1.0], policy)

    def test_matrix_against_dense_oracle(self, tent):
        growth = bump_growth(1.5, 1.0, -1.0)
        policy = GridPolicy(base_radius=3.0, base_spacing=0.25)
        mat = build_invasion_matrix(rescale_kernel(tent, 1.0, 1.0), growth, [1.0, 2.0], [1.0, 2.0],
                                    policy, solver_tol=1e-10)
        from nichewave.stationary import solve_stationary_ball

        for i, e1 in enumerate(mat.eps_residents):
            grid = build_grid(1, 3.0 + 2.0, 0.25, "ball-truncated")
            res_op = build_operator(grid, rescale_kernel(tent, e1, 1.0), growth)
            res = solve_stationary_ball(res_op, tol=1e-10)
            for j, e2 in enumerate(mat.eps_mutants):
                mut_op = build_operator(grid, rescale_kernel(tent, e2, 1.0), growth=None,
                                        a_values=grid.sample(growth.a) - res.values)
                oracle, _ = dense_lambda_p_oracle(mut_op)
                got = mat.entries[i][j].lam
                assert got.value == pytest.approx(oracle, abs=1e-8)


class TestFatTail:
    def test_persistence_with_positive_core(self):
        kernel = Kernel("algebraic-tail", params={"power": 5.0})
        res = fat_tail_verdict(rescale_kernel(kernel, 1.0, 0.0), bump_growth(1.0, 1.0, -1.0), [4, 8], 0.05)
        assert res.verdict == "persistence"
        assert min(e.upper for e in res.estimates) + res.bracket_inflation < 0

    def test_extinction_with_uniformly_negative_growth(self):
        kernel = Kernel("algebraic-tail", params={"power": 5.0})
        res = fat_tail_verdict(rescale_kernel(kernel, 1.0, 0.0), constant_growth(-0.1), [4, 8], 0.05)
        assert res.verdict == "extinction"

    def test_indeterminate_band_is_surfaced(self):
        kernel = Kernel("algebraic-tail", params={"power": 5.0})
        res = fat_tail_verdict(rescale_kernel(kernel, 1.0, 0.0), bump_growth(0.2, 4.0, -1.0), [4, 8], 0.05)
        assert res.verdict == "indeterminate"

    def test_h5_violation_rejected(self):
        kernel = Kernel("algebraic-tail", params={"power": 2.5})
        with pytest.raises(KernelHypothesisError):
            fat_tail_verdict(rescale_kernel(kernel, 1.0, 0.0), constant_growth(-0.1), [4], 0.1)

    def test_compact_kernel_rejected(self, tent):
        with pytest.raises(ConfigError):
            fat_tail_verdict(rescale_kernel(tent, 1.0, 0.0), constant_growth(-0.1), [4], 0.1)
