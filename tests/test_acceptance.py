"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Everything is desk scale (1-D, grids <= 4096 points).
"""

import time

import numpy as np
import pytest

from nichewave import (
    GrowthProfile,
    Kernel,
    build_grid,
    bump_growth,
    constant_growth,
    principal_eigenvalue,
    rayleigh_lambda_v,
    rescale_kernel,
)
from nichewave.evolution import evolve, long_time_verdict, stable_step
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
from nichewave.operators import build_operator
from nichewave.stationary import solve_stationary_ball
from oracles import dense_lambda_p_oracle, perron_window, verify_uniqueness

TENT = Kernel("tent")
BUMP = bump_growth(2.0, 1.0, -1.0)
SEED = 734


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


def random_instance(rng):
    R = float(rng.integers(4, 11))
    eps = float(rng.uniform(0.5, 4.0))
    m = float(rng.choice([0.0, 1.0, 2.0]))
    radii = np.arange(0.0, R + 1.0, 0.5)
    values = rng.uniform(-1.0, 2.0, size=radii.size)
    growth = GrowthProfile("tabulated", params={"r": radii.tolist(), "values": values.tolist()})
    grid = build_grid(1, R, 0.1, "ball-truncated")
    op = build_operator(grid, rescale_kernel(TENT, eps, m, 1.0), growth)
    return op, R, eps, m, growth


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(SEED)
    return [random_instance(rng) for _ in range(20)]


def test_01_spectral_equivalence(corpus):
    worst_eq = 0.0
    contained = True
    met_tol = True
    for op, *_ in corpus:
        est_p = principal_eigenvalue(op, tol=1e-10)
        est_v = rayleigh_lambda_v(op, tol=1e-10)
        oracle, gap = dense_lambda_p_oracle(op)
        worst_eq = max(worst_eq, abs(est_p.value - est_v.value))
        contained &= est_p.lower - 1e-13 <= oracle <= est_p.upper + 1e-13
        contained &= est_v.lower - 1e-13 <= oracle <= est_v.upper + 1e-13
        met_tol &= est_p.met_tol and est_v.met_tol
    report(1, "lambda_p = lambda_p' = lambda_v", worst_eq <= 1e-8 and contained and met_tol,
           f"max |lambda_p - lambda_v| = {worst_eq:.2e}, oracle in both brackets: {contained}, "
           f"both brackets within tol: {met_tol}")


def test_02_bounds_and_monotonicity(corpus):
    # inequalities are asserted up to the certified bracket widths: perturbed
    # instances may be near-degenerate, where the bracket floor is wider
    rng = np.random.default_rng(SEED + 1)
    violations = []
    perturbations = 0
    widest = 0.0
    for idx, (op, R, eps, m, growth) in enumerate(corpus):
        est = principal_eigenvalue(op, tol=1e-10)
        widest = max(widest, est.width)
        # (iv) certified window
        lo, hi = perron_window(op)
        if not (lo - 1e-12 <= est.value <= hi + 1e-12):
            violations.append((idx, "window"))
        # (i) domain monotonicity on the nested larger ball
        grid_big = build_grid(1, R + 2.0, 0.1, "ball-truncated")
        op_big = build_operator(grid_big, op.kernel, growth)
        est_big = principal_eigenvalue(op_big, tol=1e-10)
        if est_big.value > est.value + est.width + est_big.width + 1e-12:
            violations.append((idx, "domain-monotonicity"))
        # (ii) order reversal: raising a never raises lambda_p
        lift = rng.uniform(0.0, 0.4, size=op.size)
        op_up = build_operator(op.grid, op.kernel, growth, a_values=op.a_values + lift)
        est_up = principal_eigenvalue(op_up, tol=1e-10)
        widest = max(widest, est_up.width)
        if est_up.value > est.value + est.width + est_up.width + 1e-12:
            violations.append((idx, "order-reversal"))
        # (iii) Lipschitz in a: |delta lambda| <= ||delta a||_inf
        n_pert = 3 if idx < 10 else 2
        for _ in range(n_pert):
            delta = rng.uniform(-0.5, 0.5, size=op.size)
            op_d = build_operator(op.grid, op.kernel, growth, a_values=op.a_values + delta)
            est_d = principal_eigenvalue(op_d, tol=1e-10)
            widest = max(widest, est_d.width)
            perturbations += 1
            if abs(est_d.value - est.value) > np.max(np.abs(delta)) + est.width + est_d.width + 1e-9:
                violations.append((idx, "lipschitz"))
    report(2, "Prop 2.2(i)-(iv)", not violations and perturbations >= 50,
           f"{perturbations} perturbations, violations: {violations}, widest bracket {widest:.1e}")


def test_03_torus_exactness():
    c = 1.5
    grid = build_grid(1, 4.0, 0.125, "torus")
    op = build_operator(grid, rescale_kernel(TENT, 1.0, 0.0), constant_growth(c))
    est = principal_eigenvalue(op, tol=1e-12)
    lam_ok = est.met_tol and abs(est.value + c) <= 1e-10

    u0, dt = 0.1, 0.01
    trace, _ = evolve(op, np.full(grid.size, u0), 10.0, dt=dt)
    worst = 0.0
    for t, s in zip(trace.times, trace.sup_norm):
        exact = c * u0 * np.exp(c * t) / (c + u0 * (np.exp(c * t) - 1.0))
        worst = max(worst, abs(s - exact))
    report(3, "torus exactness", lam_ok and worst <= 5.0 * dt,
           f"|lambda_p + c| = {abs(est.value + c):.2e}, logistic error = {worst:.2e} <= {5 * dt}")


def test_04_persistence_dichotomy():
    policy = GridPolicy(base_radius=4.0, base_spacing=0.1)
    solver_tol = 1e-9
    configs = [(a0, eps) for a0 in (0.3, 0.5, 0.8, 1.2, 2.0) for eps in (1.0, 4.0, 16.0, 32.0)]
    straddles = 0
    misclassified = []
    seen_persist = seen_extinct = 0
    for a0, eps in configs:
        growth = bump_growth(a0, 1.0, -1.0)
        sk = rescale_kernel(TENT, eps, 0.0, 1.0)
        grid = policy.grid_for(sk)
        op = build_operator(grid, sk, growth)
        lam = principal_eigenvalue(op, tol=1e-10)
        sol = solve_stationary_ball(op, tol=solver_tol, lam=lam)
        if lam.sign == "straddle":
            straddles += 1
            continue
        nontrivial = float(np.max(sol.values)) > 10.0 * solver_tol
        if (lam.sign == "negative") != nontrivial:
            misclassified.append((a0, eps))
        seen_persist += int(nontrivial)
        seen_extinct += int(not nontrivial)
    ok = not misclassified and straddles <= 2 and seen_persist > 0 and seen_extinct > 0
    report(4, "persistence dichotomy", ok,
           f"{seen_persist} persistent / {seen_extinct} extinct / {straddles} straddling; "
           f"misclassified: {misclassified}")


@pytest.fixture(scope="module")
def persistence_solves():
    out = []
    for a0 in (1.5, 2.0, 2.5):
        growth = bump_growth(a0, 1.0, -1.0)
        grid = build_grid(1, 8.0, 0.05, "ball-truncated")
        op = build_operator(grid, rescale_kernel(TENT, 1.0, 0.0), growth)
        sol = solve_stationary_ball(op, tol=1e-10)
        out.append((op, sol))
    return out


def test_05_long_time_behaviour(persistence_solves):
    tol = 1e-3
    failures = []
    for op, sol in persistence_solves:
        x = np.abs(op.grid.points[:, 0])
        small = 0.01 * (x <= op.growth.core_radius).astype(float)
        large = np.full(op.size, 1.2 * float(np.max(sol.super_)))
        for name, u0 in (("small", small), ("large", large)):
            v = long_time_verdict(op, u0, 200.0, tol, sol.lambda_p_used,
                                  stationary=sol.values)
            if v.verdict != "persistence-converged" or v.final_dist_sup > tol:
                failures.append((op.growth.params["a0"], name, v.verdict, v.final_dist_sup))
            if name == "small" and v.final_dist_l1 > tol:
                failures.append((op.growth.params["a0"], "small-l1", v.final_dist_l1))

    extinction_cases = [
        (bump_growth(0.5, 1.0, -1.0), 32.0),
        (bump_growth(0.7, 1.0, -1.0), 32.0),
        (constant_growth(-0.1), 1.0),
    ]
    policy = GridPolicy(base_radius=4.0, base_spacing=0.1)
    for growth, eps in extinction_cases:
        sk = rescale_kernel(TENT, eps, 0.0, 1.0)
        grid = policy.grid_for(sk)
        op = build_operator(grid, sk, growth)
        lam = principal_eigenvalue(op, tol=1e-10)
        if lam.sign != "nonnegative":
            failures.append(("extinction-cert", growth.family, lam.sign))
            continue
        u0 = np.full(grid.size, 0.5)
        v = long_time_verdict(op, u0, 200.0, tol, lam)
        if v.verdict != "extinction" or v.final_sup > tol:
            failures.append(("extinction", growth.family, v.verdict, v.final_sup))
    report(5, "long-time behaviour", not failures, f"failures: {failures}")


def test_06_uniqueness(persistence_solves):
    rng = np.random.default_rng(SEED + 2)
    worst_pair = 0.0
    worst_defect = 0.0
    for op, sol in persistence_solves:
        sup_s = float(np.max(op.growth.saturation(op.points_arg)))
        lf = op.growth.lipschitz_f(max(sup_s, 1.0), op.points_arg, op.a_values)
        tau = 0.9 / (op.rate + lf)
        sols = [sol.values]
        for _ in range(4):
            u = rng.uniform(0.0, sup_s, size=op.size)
            for _ in range(300_000):
                r = op.rhs(u)
                if np.max(np.abs(r)) <= 1e-11:
                    break
                u = u + tau * r
            sols.append(u)
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                worst_pair = max(worst_pair, float(np.max(np.abs(sols[i] - sols[j]))))
                defect, _ = verify_uniqueness(op, sols[i], sols[j])
                scale = float(np.sum(op.grid.weights * sols[i] * sols[j]))
                worst_defect = max(worst_defect, abs(defect) / max(scale, 1e-30))
    ok = worst_pair <= 1e-6 and worst_defect <= 1e-6
    report(6, "uniqueness (multi-start + energy identity)", ok,
           f"max pairwise sup diff = {worst_pair:.2e}, max relative defect = {worst_defect:.2e}")


def test_07_m2_local_limit():
    policy = GridPolicy(base_radius=4.0, base_spacing=0.05)
    chk = asymptotic_limit_check(TENT, BUMP, 2.0, "small", [0.4, 0.2, 0.1, 0.05], policy,
                                 solver_tol=1e-8, spectral_tol=1e-9)
    lam1 = chk.fd.lambda1.value
    lam_strict = all(b < a for a, b in zip(chk.lambda_errors, chk.lambda_errors[1:]))
    u_strict = all(b < a for a, b in zip(chk.u_errors, chk.u_errors[1:]))
    final_ok = chk.lambda_errors[-1] <= 0.05 * abs(lam1)

    # scaled-down growth: lambda_1 > 0 means no positive solution for small eps
    growth_neg = bump_growth(0.15, 1.0, -1.0)
    fd_neg = local_kpp_solve_fd(growth_neg, 1.0 / 12.0, 4.0, 0.01)
    neg_ok = fd_neg.lambda1.value > 0
    for eps in (0.1, 0.05):
        sk = rescale_kernel(TENT, eps, 2.0, 1.0)
        grid = policy.grid_for(sk)
        op = build_operator(grid, sk, growth_neg)
        lam = principal_eigenvalue(op, tol=1e-9)
        sol = solve_stationary_ball(op, tol=1e-9, lam=lam)
        neg_ok &= lam.lower >= 0.0 and float(np.max(sol.values)) == 0.0
    ok = lam_strict and u_strict and final_ok and neg_ok
    report(7, "m=2 local limit", ok,
           f"lambda errs {['%.2e' % e for e in chk.lambda_errors]} (final <= {0.05 * abs(lam1):.2e}), "
           f"u errs {['%.2e' % e for e in chk.u_errors]}, lambda_1>0 case certified: {neg_ok}")


def test_08_m0_limits():
    policy = GridPolicy(base_radius=4.0, base_spacing=0.1)
    chk = asymptotic_limit_check(TENT, BUMP, 0.0, "large", [8, 16, 32], policy,
                                 solver_tol=1e-9, spectral_tol=1e-10)
    lam_ok = all(b < a for a, b in zip(chk.lambda_errors, chk.lambda_errors[1:]))
    envelope = 1.0 / 32.0**0.25 + 1e-6
    sup_err = chk.sweep.entries[-1].errors["u_sup_err_(a-1)+"]
    env_ok = sup_err <= envelope

    growth = bump_growth(0.8, 1.0, -1.0)
    star = find_eps_star(rescale_kernel(TENT, 1.0, 0.0), growth, 4.0, 10.0, policy, tol=1e-2)
    star_ok = star.kind == "finite"
    scan_ok = False
    if star_ok:
        from nichewave.spectral import principal_eigenvalue as pe

        def lam_at(eps):
            sk = rescale_kernel(TENT, eps, 0.0, 1.0)
            grid = policy.grid_for(sk)
            return pe(build_operator(grid, sk, growth), tol=1e-10).value

        scan = np.linspace(4.0, 10.0, 200)
        signs = np.array([lam_at(e) < 0 for e in scan])
        flips = np.nonzero(signs[:-1] != signs[1:])[0]
        if flips.size == 1:
            lo, hi = scan[flips[0]], scan[flips[0] + 1]
            scan_ok = lo - 1e-2 <= star.value <= hi + 1e-2
    ok = lam_ok and env_ok and star_ok and scan_ok
    report(8, "m=0 limits and eps*", ok,
           f"lambda errs {['%.2e' % e for e in chk.lambda_errors]}, sup err {sup_err:.3f} <= {envelope:.3f}, "
           f"eps* = {star.value if star.value else star.kind} (scan agrees: {scan_ok})")


def test_09_intermediate_m_limits():
    policy = GridPolicy(base_radius=4.0, base_spacing=0.05)
    large = asymptotic_limit_check(TENT, BUMP, 1.0, "large", [4, 8, 16], policy,
                                   solver_tol=1e-9, spectral_tol=1e-10)
    l2_errs = [e.errors["u_l2_err_a+"] for e in large.sweep.entries]
    l2_ok = all(b < a for a, b in zip(l2_errs, l2_errs[1:]))
    lam_large_ok = all(b < a for a, b in zip(large.lambda_errors, large.lambda_errors[1:]))

    small = asymptotic_limit_check(TENT, BUMP, 1.0, "small", [0.4, 0.2, 0.1], policy,
                                   solver_tol=1e-9, spectral_tol=1e-9)
    lam_small_ok = all(b < a for a, b in zip(small.lambda_errors, small.lambda_errors[1:]))
    ok = l2_ok and lam_large_ok and lam_small_ok
    report(9, "0<m<2 limits", ok,
           f"L2 errs {['%.3f' % e for e in l2_errs]}, lambda errs large "
           f"{['%.3f' % e for e in large.lambda_errors]} / small {['%.3f' % e for e in small.lambda_errors]}")


def test_10_apriori_audit():
    # the eps^m energy bound is sharp in different niche geometries per m;
    # each cost exponent gets the profile where the scaling is exercised
    cases = {
        0.5: (bump_growth(2.0, 8.0, -1.0), GridPolicy(base_radius=4.0, base_spacing=0.05)),
        1.0: (BUMP, GridPolicy(base_radius=4.0, base_spacing=0.05)),
        1.5: (GrowthProfile("plateau", params={"a0": 2.0, "r0": 6.0, "width": 1.0, "a_min": -1.0}),
              GridPolicy(base_radius=11.0, base_spacing=0.1)),
    }
    slope_fail = []
    item_fail = []
    for m, (growth, policy) in cases.items():
        fit = energy_slope_audit(rescale_kernel(TENT, 1.0, m), growth, [1, 2, 4, 8], policy,
                                 solver_tol=1e-9)
        if abs(fit.slope - m) > 0.2:
            slope_fail.append((m, fit.slope))
        for audit in fit.audits:
            for item in audit.items:
                if item.name in ("i_l2_bound", "iii_sup_lower", "iv_pointwise_lower") and not item.passed:
                    item_fail.append((m, audit.eps, item.name))
    ok = not slope_fail and not item_fail
    report(10, "a-priori estimates audit", ok,
           f"slopes ok (failures: {slope_fail}), item failures: {item_fail}")


def test_11_ess_neutrality_and_invasion():
    policy = GridPolicy(base_radius=4.0, base_spacing=0.05)
    diag_fail = []
    for eps in (1.0, 2.0):
        (entry,), = build_invasion_matrix(rescale_kernel(TENT, 1.0, 1.0), BUMP, [eps], [eps], policy,
                                          solver_tol=1e-10).entries
        if abs(entry.lam.value) > entry.lam.width + 1e-6:
            diag_fail.append((eps, entry.lam.value))
    invade_fail = []
    for eps1 in (2.0, 4.0):
        (entry,), = build_invasion_matrix(rescale_kernel(TENT, 1.0, 1.0), BUMP, [eps1], [8.0 * eps1],
                                          policy, solver_tol=1e-9).entries
        if entry.lam.upper >= 0.0:
            invade_fail.append((eps1, entry.lam.upper))
    ok = not diag_fail and not invade_fail
    report(11, "ESS neutrality and invasion", ok,
           f"diagonal failures: {diag_fail}, invasion failures: {invade_fail}")


def test_12_fat_tail_criteria():
    kernel = rescale_kernel(Kernel("algebraic-tail", params={"power": 5.0}), 1.0, 0.0)
    persist = fat_tail_verdict(kernel, bump_growth(1.0, 1.0, -1.0), [4, 8], 0.05)
    extinct = fat_tail_verdict(kernel, constant_growth(-0.1), [4, 8], 0.05)
    indet = fat_tail_verdict(kernel, bump_growth(0.2, 4.0, -1.0), [4, 8], 0.05)
    ok = (persist.verdict == "persistence" and extinct.verdict == "extinction"
          and indet.verdict == "indeterminate")
    report(12, "fat-tail criteria", ok,
           f"verdicts: {persist.verdict} / {extinct.verdict} / {indet.verdict}")


def test_13_engineering():
    rng = np.random.default_rng(SEED + 3)
    rel_ok = True
    timings = {}
    for n in (64, 256, 1024):
        grid = build_grid(1, 4.0, 8.0 / n, "torus")
        op = build_operator(grid, rescale_kernel(TENT, 1.0, 0.0), constant_growth(0.0))
        op.stencil_product(np.ones(n))  # warm the stencil-walk cache
        op.convolve(np.ones(n))  # warm the FFT cache
        vectors = rng.random((100, n))
        for u in vectors:
            direct = op.stencil_product(u)
            fast = op.convolve(u)
            rel = np.max(np.abs(direct - fast)) / max(np.max(np.abs(direct)), 1e-300)
            rel_ok &= rel <= 1e-10
        t0 = time.perf_counter()
        for u in vectors:
            op.stencil_product(u)
        t_direct = time.perf_counter() - t0
        t0 = time.perf_counter()
        for u in vectors:
            op.convolve(u)
        t_fast = time.perf_counter() - t0
        timings[n] = (t_direct, t_fast)
    faster = timings[1024][1] < timings[1024][0]

    # byte-identical reruns through the CLI with a fixed seed
    import tempfile
    from pathlib import Path

    from nichewave.cli import main as cli_main

    with tempfile.TemporaryDirectory() as td:
        cfg = Path(td) / "c.ini"
        cfg.write_text(f"""
[run]
seed = 7
label = rerun
output_dir = {td}/out

[kernel]
family = tent
m = 1

[growth]
family = bump
params = a0=2, b=1, a_min=-1

[grid]
R = 4
h = 0.1

[sweep]
epsilons = 2 4
solver_tol = 1e-9
spectral_tol = 1e-9
""")
        assert cli_main(["sweep", str(cfg)]) == 0
        first = (Path(td) / "out" / "sweep-rerun.csv").read_bytes()
        assert cli_main(["sweep", str(cfg)]) == 0
        second = (Path(td) / "out" / "sweep-rerun.csv").read_bytes()
    identical = first == second
    ok = rel_ok and faster and identical
    report(13, "engineering (FFT path, determinism)", ok,
           f"rel agreement <= 1e-10: {rel_ok}; 1024 direct {timings[1024][0]:.3f}s vs "
           f"fast {timings[1024][1]:.3f}s; byte-identical rerun: {identical}")
