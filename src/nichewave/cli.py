"""Config-driven command surface producing machine-readable artifacts.

    nichewave <command> <config.ini>

Commands: validate, spectrum, stationary, evolve, sweep, eps-star, ess,
fat-tail, audit. Every command takes one Kernel, family, epsilon, m and
alpha0, from [kernel], so all of them solve with the same kernel and rate;
sweep, eps-star, ess and audit replace only epsilon, and eps-star needs
m = 0. Every command takes its grid, the ball |x| <= R, from [grid] R and
h (see config). validate checks the hypotheses on J itself, that Kernel at
epsilon = 1. The commands that walk an eps schedule solve one eps after
another in one thread; [run] workers accepts only 1.
spectrum starts lambda_v from lambda_p's eigenvector, and each R row from
the last ball's.
Artifacts are CSV/JSON named <command>-<label>.* in the configured output
directory. Exit codes: 0 success, 1 an errors.ConfigError (the input is at
fault: a config value, kernel, growth or time step the model refuses) or a
kernel that fails validate, 2 numerical failure (partial artifacts
retained). A lambda bracket wider than its tol is recorded as met_tol /
lambda_met_tol = false (true only when every bracket the command
certified met its tol); only spectrum exits 2 on it, for its main ball,
unless the top eigenvalue is degenerate (a gap below
spectral.DEGENERACY_GAP, which spectral.degenerate_top reads off the band,
and only on such a miss).

Outputs carry no timestamps and floats are serialized with repr, so reruns
with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import errors
from .config import ExperimentConfig, load_config
from .evolution import long_time_verdict
from .experiments import (
    GridPolicy,
    build_invasion_matrix,
    energy_slope_audit,
    epsilon_sweep,
    fat_tail_verdict,
    find_eps_star,
)
from .grids import build_grid
from .kernels import validate_kernel
from .operators import build_operator
from .spectral import degenerate_top, lambda_p_extrapolate_R, principal_eigenvalue, rayleigh_lambda_v
from .stationary import solve_stationary_wholespace

def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return repr(float(x))  # numpy scalars repr as "np.float64(...)"
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> None:
    payload = {"schema": 1, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n")


def _policy(cfg: ExperimentConfig) -> GridPolicy:
    """The eps-to-grid policy of the sweeping commands: [grid] R and h."""
    g = cfg["grid"]
    return GridPolicy(base_radius=g["r"], base_spacing=g["h"], max_cells_per_axis=g["max_cells"])


def _est_row(est, method, R, eps, m) -> list:
    return [method, R, eps, m, est.value, est.lower, est.upper, est.residual, est.iterations]


def _initial_data(u0: tuple, grid, stationary_values):
    """[evolve] u0, (kind, amplitude, radius) as load_config parsed it, on the grid."""
    kind, amp, radius = u0
    if kind == "stationary":
        if stationary_values is None:
            raise errors.ConfigError("u0 = stationary needs a solvable stationary state")
        return stationary_values.copy()
    x = grid.norms()
    if kind == "constant":
        return np.full(grid.size, amp)
    if kind == "bump":
        return amp * np.exp(-x * x)
    return amp * (x <= radius).astype(float)


# --- commands ---------------------------------------------------------------


def cmd_validate(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    kernel = cfg.scaled_kernel()  # [kernel] epsilon, m and alpha0 in range, as every solving command needs
    report = validate_kernel(replace(kernel, epsilon=1.0))  # J itself
    write_json(outdir / f"validate-{label}.json", {
        "family": kernel.family,
        "h1_nonnegative": report.h1_nonnegative,
        "h1_symmetric": report.h1_symmetric,
        "h1_unit_mass": report.h1_unit_mass,
        "h2_center_positive": report.h2_center_positive,
        "h5_finite_moment": report.h5_finite_moment,
        "compact_support": report.compact_support,
        "mass": report.mass,
        "h5_moment": report.h5_moment,
        "messages": report.messages,
    })
    if not report.all_passed:
        print(f"validate: FAIL ({'; '.join(report.messages)})")
        return 1
    print("validate: all hypotheses pass")
    return 0


def _certified(op, est, tol: float):
    """est, or NonConvergenceError if its bracket missed tol and the top
    eigenvalue of op is not degenerate, which would excuse the miss."""
    if not (est.met_tol or degenerate_top(op, est)):
        raise errors.NonConvergenceError(
            f"bracket width {est.width:.3e} > tol {tol:.3e} after {est.iterations} iterations")
    return est


def cmd_spectrum(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    kernel = cfg.scaled_kernel()
    growth = cfg.growth()
    g = cfg["grid"]
    sp = cfg["spectral"]
    grid = build_grid(kernel.dimension, g["r"], g["h"], g["max_cells"])
    op = build_operator(grid, kernel, growth)
    est_p = _certified(op, principal_eigenvalue(op, tol=sp["tol"], maxiter=sp["maxiter"]), sp["tol"])
    est_v = _certified(op, rayleigh_lambda_v(op, tol=sp["tol"], maxiter=sp["maxiter"],
                                             start=est_p.eigenvector), sp["tol"])
    rows = [
        _est_row(est_p, "perron-cw", g["r"], kernel.epsilon, kernel.m),
        _est_row(est_v, "rayleigh", g["r"], kernel.epsilon, kernel.m),
    ]
    extra = {}
    met_tol = est_p.met_tol and est_v.met_tol
    if sp["r_schedule"]:
        # the walk solves with the same tol and maxiter, so op is the walk's
        # ball at [grid] R and its estimate is reused
        res = lambda_p_extrapolate_R(kernel, growth, sp["r_schedule"], g["h"],
                                     spectral_tol=sp["tol"], maxiter=sp["maxiter"],
                                     max_cells_per_axis=g["max_cells"], known=(g["r"], op, est_p))
        rows += [_est_row(e, "perron-cw", R, kernel.epsilon, kernel.m)
                 for R, e in zip(res.radii, res.estimates)]
        extra = {"extrapolated": res.final_value, "uncertainty": res.uncertainty,
                 "converged": res.converged}
        met_tol = met_tol and all(e.met_tol for e in res.estimates)
    write_csv(outdir / f"spectrum-{label}.csv",
              ["method", "R", "eps", "m", "value", "lower", "upper", "residual", "iterations"],
              rows)
    write_json(outdir / f"spectrum-{label}.json", {
        "value": est_p.value, "lower": est_p.lower, "upper": est_p.upper,
        "lambda_v": est_v.value, "equality_gap": abs(est_p.value - est_v.value),
        "eigenfunction_certified": est_p.eigenfunction_certified,
        "sign": est_p.sign, "met_tol": met_tol, **extra,
    })
    print(f"spectrum: lambda_p = {est_p.value:.12g} [{est_p.lower:.12g}, {est_p.upper:.12g}] ({est_p.sign})")
    return 0


def _solve_stationary(cfg: ExperimentConfig):
    st = cfg["stationary"]
    g = cfg["grid"]
    return solve_stationary_wholespace(
        cfg.scaled_kernel(),
        cfg.growth(),
        st["r_schedule"],
        g["h"],
        tol=st["tol"],
        solver_tol=st["solver_tol"],
        spectral_tol=st["spectral_tol"],
        max_cells_per_axis=g["max_cells"],
    )


def _r_schedule_record(sol) -> dict:
    """Whether the R loop met its tolerance, and the last change it saw."""
    change = sol.R_history[-1][1]
    return {"r_converged": sol.r_converged,
            "r_change_final": change if math.isfinite(change) else None}


def cmd_stationary(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    sol = _solve_stationary(cfg)
    grid = sol.op.grid
    a_vals = sol.op.a_values
    zero = np.zeros(grid.size)
    sub = sol.sub if sol.sub is not None else zero
    sup = sol.super_ if sol.super_ is not None else zero
    header = ["x", "y"][:grid.dimension] + ["u", "sub", "super", "a"]
    rows = [[*grid.points[i], sol.values[i], sub[i], sup[i], a_vals[i]] for i in range(grid.size)]
    write_csv(outdir / f"stationary-{label}.csv", header, rows)
    write_json(outdir / f"stationary-{label}.json", {
        "verdict": sol.verdict,
        "residual": sol.residual,
        "lambda_lower": sol.lambda_p_used.lower,
        "lambda_upper": sol.lambda_p_used.upper,
        "sup_norm": sol.sup_norm,
        "R_history": [[R, c if math.isfinite(c) else None] for R, c in sol.R_history],
        "lambda_met_tol": sol.lambda_p_used.met_tol,
        **_r_schedule_record(sol),
    })
    print(f"stationary: {sol.verdict}, sup = {sol.sup_norm:.6g}, residual = {sol.residual:.3g}")
    return 0


def cmd_evolve(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    ev = cfg["evolve"]
    sol = _solve_stationary(cfg)
    stationary_ref = sol.values if sol.verdict == "persistent" else None
    u0 = _initial_data(ev["u0"], sol.op.grid, stationary_ref)
    verdict = long_time_verdict(sol.op, u0, ev["t"], ev["tol"], sol.lambda_p_used,
                                stationary=stationary_ref, dt=ev["dt"], stride=ev["stride"])
    tr = verdict.trace
    rows = [[tr.times[i], tr.sup_norm[i], tr.dist_sup[i], tr.dist_l1[i], tr.mass[i]]
            for i in range(len(tr.times))]
    write_csv(outdir / f"evolve-{label}.csv",
              ["t", "sup_norm", "dist_sup", "dist_l1", "mass"], rows)
    write_json(outdir / f"evolve-{label}.json", {
        "verdict": verdict.verdict,
        "final_sup": verdict.final_sup,
        "final_dist_sup": verdict.final_dist_sup,
        "final_dist_l1": verdict.final_dist_l1,
        "monotone_flag": tr.monotone_flag,
        "lambda_sign": sol.lambda_p_used.sign,
        "lambda_met_tol": sol.lambda_p_used.met_tol,
        **_r_schedule_record(sol),
    })
    print(f"evolve: {verdict.verdict}, final sup = {verdict.final_sup:.6g}")
    return 0


def cmd_sweep(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    sw = cfg["sweep"]
    result = epsilon_sweep(cfg.scaled_kernel(), cfg.growth(), sw["epsilons"],
                           _policy(cfg), direction=sw["direction"], solver_tol=sw["solver_tol"],
                           spectral_tol=sw["spectral_tol"])
    rows = [[result.m, e.eps, e.lam.lower, e.lam.upper, e.u_sup, e.u_l2, e.u_l1,
             e.target_error, e.target_name] for e in result.entries]
    write_csv(outdir / f"sweep-{label}.csv",
              ["m", "eps", "lambda_lo", "lambda_hi", "u_sup", "u_l2", "u_l1",
               "err_target", "target_name"], rows)
    coherent, violations, straddles = result.coherence(sw["solver_tol"])
    write_json(outdir / f"sweep-{label}.json", {
        "m": result.m,
        "epsilons": result.epsilons,
        "skipped": {str(k): v for k, v in result.skipped.items()},
        "coherent": coherent,
        "violations": violations,
        "straddles": straddles,
        "errors": [e.errors for e in result.entries],
        "lambda_met_tol": all(e.lam.met_tol for e in result.entries),
    })
    print(f"sweep: {len(result.entries)} entries, {len(result.skipped)} skipped, coherent = {coherent}")
    return 0


def cmd_eps_star(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    es = cfg["eps_star"]
    result = find_eps_star(cfg.scaled_kernel(), cfg.growth(), es["lo"], es["hi"],
                           _policy(cfg), tol=es["tol"])
    rows = [[eps, est.lower, est.upper] for eps, est in result.history]
    write_csv(outdir / f"eps-star-{label}.csv", ["eps", "lambda_lo", "lambda_hi"], rows)
    write_json(outdir / f"eps-star-{label}.json", {
        "kind": result.kind,
        "value": result.value,
        "bracket": list(result.bracket) if result.bracket else None,
        "unresolved": result.unresolved,
        "note": result.note,
        "lambda_met_tol": all(est.met_tol for _, est in result.history),
    })
    shown = f"{result.value:.6g}" if result.value is not None else result.kind
    print(f"eps-star: {result.kind} ({shown})")
    return 0


def cmd_ess(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    es = cfg["ess"]
    kernel = cfg.scaled_kernel()
    matrix = build_invasion_matrix(kernel, cfg.growth(), es["eps_residents"], es["eps_mutants"],
                                   _policy(cfg))
    rows = []
    for row in matrix.entries:
        for e in row:
            rows.append([e.eps1, e.eps2, e.lam.lower, e.lam.upper, e.verdict])
    write_csv(outdir / f"ess-{label}.csv",
              ["eps1", "eps2", "lambda_lo", "lambda_hi", "verdict"], rows)
    diag = matrix.diagonal()
    write_json(outdir / f"ess-{label}.json", {
        "m": kernel.m,
        "eps_residents": matrix.eps_residents,
        "eps_mutants": matrix.eps_mutants,
        "diagonal_abs_lambda": [abs(d.lam.value) for d in diag],
        "diagonal_widths": [d.lam.width for d in diag],
        "verdicts": [[e.verdict for e in row] for row in matrix.entries],
        "lambda_met_tol": all(e.lam.met_tol for row in matrix.entries for e in row),
    })
    print(f"ess: {len(rows)} entries")
    return 0


def cmd_fat_tail(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    ft, g = cfg["fat_tail"], cfg["grid"]
    result = fat_tail_verdict(cfg.scaled_kernel(), cfg.growth(), ft["r_schedule"], g["h"],
                              tail_target=ft["tail_target"],
                              spectral_tol=ft["spectral_tol"],
                              max_cells_per_axis=g["max_cells"])
    rows = [[R, e.lower, e.upper] for R, e in zip(result.radii, result.estimates)]
    write_csv(outdir / f"fat-tail-{label}.csv", ["R", "lambda_lo", "lambda_hi"], rows)
    write_json(outdir / f"fat-tail-{label}.json", {
        "verdict": result.verdict,
        "evidence": result.evidence,
        "tail_mass": result.tail_mass,
        "bracket_inflation": result.bracket_inflation,
        "lambda_met_tol": all(e.met_tol for e in result.estimates),
    })
    print(f"fat-tail: {result.verdict} ({result.evidence})")
    return 0


def cmd_audit(cfg: ExperimentConfig, outdir: Path, label: str) -> int:
    au = cfg["audit"]
    fit = energy_slope_audit(cfg.scaled_kernel(), cfg.growth(), au["epsilons"],
                             _policy(cfg), solver_tol=au["solver_tol"])
    rows = []
    for audit in fit.audits:
        for item in audit.items:
            rows.append([audit.eps, item.name, int(item.passed), item.margin])
    write_csv(outdir / f"audit-{label}.csv", ["eps", "item", "passed", "margin"], rows)
    write_json(outdir / f"audit-{label}.json", {
        "m": fit.m,
        "epsilons": fit.epsilons,
        "energies": fit.energies,
        "slope": fit.slope,
        "all_passed": all(a.all_passed for a in fit.audits),
        "lambda_met_tol": fit.lambda_met_tol,
    })
    print(f"audit: slope = {fit.slope:.4g} (m = {fit.m}), all passed = {all(a.all_passed for a in fit.audits)}")
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "stationary": cmd_stationary,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
    "eps-star": cmd_eps_star,
    "ess": cmd_ess,
    "fat-tail": cmd_fat_tail,
    "audit": cmd_audit,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nichewave", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("config", help="path to the INI experiment config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        outdir = Path(cfg["run"]["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        label = cfg["run"]["label"]
        return COMMANDS[args.command](cfg, outdir, label)
    except errors.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except errors.NichewaveError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
