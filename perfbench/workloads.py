"""The three benchmark workloads: their inputs, one call each, and the output checks.

Every workload uses the tent kernel and the bump growth a0=2, b=1, a_min=-1,
and is deterministic: the --seed only enters the config's [run] seed, which
no command draws from, so every seed measures the same numerical work.

Every solver knob is written out, even where it equals today's default, so
that a later change of a default cannot change what is measured.

The CLI stationary/evolve config keeps epsilon != 1 and sets no
[spectral] R_schedule. The CLI solves the stationary problem with the
rate-1 base kernel whenever epsilon == 1, ignoring alpha0, and the spectrum
R extrapolation always uses the base kernel (ROADMAP item 5). Keeping clear
of both paths means the later fix of that mismatch does not change the
measured work.

This module imports only the standard library at top level, so run.py can
read the workload names without loading numpy.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

_GROWTH = """
[growth]
family = bump
params = a0=2, b=1, a_min=-1
"""

# Certified eigenvalue only: lambda_p and lambda_v of one 1-D ball at the
# tightest tolerance the seed meets (1e-8 raises with width 1.48e-8).
SPECTRUM_INI = """
[kernel]
family = tent
dimension = 1
epsilon = 0.05
m = 2
alpha0 = 1

[grid]
R = 4
h = 0.0025
topology = ball-truncated
max_cells = 8192

[spectral]
tol = 1e-7
maxiter = 600
""" + _GROWTH

# 2-D stationary R loop (R = 3, 4) and a monotone Euler run on the final ball.
EVOLVE_INI = """
[kernel]
family = tent
dimension = 2
epsilon = 2
m = 0
alpha0 = 1

[grid]
h = 0.1
topology = ball-truncated
max_cells = 8192

[stationary]
R_schedule = 3 4
tol = 1e-6
solver_tol = 1e-10
spectral_tol = 1e-10

[evolve]
T = 100
dt = auto
stride = 1
u0 = constant:0.01
tol = 1e-3
""" + _GROWTH

# The paper's m = 2 local-diffusion limit with test_07's grid and
# tolerances, without eps = 0.05 (whose bracket misses 1e-9 at the seed).
LIMIT_EPSILONS = (0.4, 0.2, 0.1)
LIMIT_SOLVER_TOL = 1e-8
LIMIT_SPECTRAL_TOL = 1e-9

# lambda_p brackets recorded at the seed commit; two valid certificates of
# the same eigenvalue must overlap.
SEED_SPECTRUM_BRACKET = (-1.711749820961586, -1.711749721820297)
SEED_LIMIT_BRACKETS = {
    0.4: (-1.7157038973889893, -1.7157038967352776),
    0.2: (-1.7126857935099196, -1.712685792524283),
    0.1: (-1.7119367464335653, -1.711936745440184),
}
SEED_EVOLVE_BRACKET = (-1.1928077489192876, -1.1928077489192646)
SEED_EVOLVE_FINAL_SUP = 1.493348573409053


ARTIFACTS = "artifacts"  # subdirectory of a call's work directory


def _ini(body: str, seed: int, outdir: Path, label: str) -> str:
    return f"[run]\nseed = {seed % 2**32}\nlabel = {label}\noutput_dir = {outdir}\nworkers = 1\n" + body


def _overlaps(lower: float, upper: float, ref: tuple[float, float]) -> bool:
    return lower <= ref[1] and upper >= ref[0]


class _CliWorkload:
    command = ""
    ini = ""

    def __init__(self, name: str):
        self.name = name

    def prepare(self, seed: int, workdir: Path):
        from nichewave.config import load_config

        path = workdir / "config.ini"
        path.write_text(_ini(self.ini, seed, workdir / ARTIFACTS, self.name))
        cfg = load_config(str(path))
        k = cfg["kernel"]
        if (k["epsilon"] == 1.0 and k["alpha0"] != 1.0) or cfg["spectral"]["r_schedule"]:
            raise ValueError(f"{self.name}: config runs into the CLI rate mismatch")
        self.cfg = cfg
        return [self.command, str(path)]

    def run(self, argv):
        from nichewave import cli

        return cli.main(argv)


class SpectrumSteep(_CliWorkload):
    command = "spectrum"
    ini = SPECTRUM_INI

    def check(self, code, artifacts: Path):
        problems: list[str] = []
        if code != 0:
            return [f"cli exit code {code}"], []
        tol = self.cfg["spectral"]["tol"]
        payload = json.loads((artifacts / f"spectrum-{self.name}.json").read_text())
        with open(artifacts / f"spectrum-{self.name}.csv", newline="") as fh:
            rows = {row["method"]: row for row in csv.DictReader(fh)}
        lam_v = (float(rows["rayleigh"]["lower"]), float(rows["rayleigh"]["upper"]))
        if not _overlaps(payload["lower"], payload["upper"], SEED_SPECTRUM_BRACKET):
            problems.append("lambda_p bracket misses the seed bracket")
        # lambda_p = lambda_v on this operator (Berestycki, Coville & Vo)
        if not _overlaps(*lam_v, SEED_SPECTRUM_BRACKET):
            problems.append("lambda_v bracket misses the seed lambda_p bracket")
        if payload["sign"] != "negative":
            problems.append(f"sign {payload['sign']!r} != 'negative'")
        certs = [("lambda_p.width", payload["upper"] - payload["lower"], tol),
                 ("lambda_v.width", lam_v[1] - lam_v[0], tol)]
        return problems, certs


class Evolve2D(_CliWorkload):
    command = "evolve"
    ini = EVOLVE_INI

    def run(self, argv):
        """cli.main, keeping the StationarySolution the command solves.

        The evolve artifacts carry neither the lambda_p bracket nor the R
        change, so the one top-level stationary call is observed here.
        """
        from nichewave import cli

        solve = cli.solve_stationary_wholespace
        kept = []

        def keep(*args, **kwargs):
            kept.append(solve(*args, **kwargs))
            return kept[-1]

        cli.solve_stationary_wholespace = keep
        try:
            code = cli.main(argv)
        finally:
            cli.solve_stationary_wholespace = solve
        self.stationary = kept[-1] if kept else None
        return code

    def check(self, code, artifacts: Path):
        if code != 0:
            return [f"cli exit code {code}"], []
        st = self.cfg["stationary"]
        sol = self.stationary
        payload = json.loads((artifacts / f"evolve-{self.name}.json").read_text())
        lam = sol.lambda_p_used
        problems = []
        if not _overlaps(lam.lower, lam.upper, SEED_EVOLVE_BRACKET):
            problems.append("lambda_p bracket misses the seed bracket")
        if (sol.verdict, payload["verdict"], payload["lambda_sign"]) != (
                "persistent", "persistence-converged", "negative"):
            problems.append(f"verdicts {sol.verdict!r}/{payload['verdict']!r}/"
                            f"{payload['lambda_sign']!r} differ from the seed")
        # the same slack the R loop allows between nested ball solutions
        if abs(payload["final_sup"] - SEED_EVOLVE_FINAL_SUP) > 100.0 * st["solver_tol"]:
            problems.append(f"final_sup {payload['final_sup']!r} != seed {SEED_EVOLVE_FINAL_SUP!r}")
        changes = [c for _, c in sol.R_history if math.isfinite(c)]
        certs = [("lambda_p.width", lam.width, st["spectral_tol"]),
                 ("r_change_final", changes[-1] if changes else math.inf, st["tol"])]
        return problems, certs


class LimitM2:
    """experiments.asymptotic_limit_check, the only caller of local_kpp_solve_fd."""

    def __init__(self, name: str):
        self.name = name

    def prepare(self, seed: int, workdir: Path):
        from nichewave import Kernel, bump_growth
        from nichewave.experiments import GridPolicy

        return (Kernel("tent"), bump_growth(2.0, 1.0, -1.0),
                GridPolicy(base_radius=4.0, base_spacing=0.05))

    def run(self, inputs):
        from nichewave.experiments import asymptotic_limit_check

        kernel, growth, policy = inputs
        return asymptotic_limit_check(kernel, growth, 2.0, "small", list(LIMIT_EPSILONS), policy,
                                      solver_tol=LIMIT_SOLVER_TOL,
                                      spectral_tol=LIMIT_SPECTRAL_TOL)

    def check(self, chk, artifacts: Path):
        entries = chk.sweep.entries
        # the library call writes no files; this artifact stands in for them
        (artifacts / f"{self.name}.json").write_text(json.dumps({
            "epsilons": chk.epsilons,
            "brackets": [[e.lam.lower, e.lam.upper] for e in entries],
            "verdicts": [e.solve.verdict for e in entries],
            "lambda_errors": chk.lambda_errors,
            "u_errors": chk.u_errors,
            "fd_lambda1": chk.fd.lambda1.value,
        }, indent=2) + "\n")
        problems = []
        if [float(e.eps) for e in entries] != list(SEED_LIMIT_BRACKETS):
            problems.append(f"solved epsilons {chk.epsilons} != {list(SEED_LIMIT_BRACKETS)}")
        for e in entries:
            ref = SEED_LIMIT_BRACKETS.get(float(e.eps))
            if ref is not None and not _overlaps(e.lam.lower, e.lam.upper, ref):
                problems.append(f"eps={e.eps}: lambda_p bracket misses the seed bracket")
            if e.solve.verdict != "persistent":
                problems.append(f"eps={e.eps}: verdict {e.solve.verdict!r} != 'persistent'")
        for label, errs in (("lambda", chk.lambda_errors), ("u", chk.u_errors)):
            if len(errs) != len(LIMIT_EPSILONS) or not all(b < a for a, b in zip(errs, errs[1:])):
                problems.append(f"{label} errors do not strictly decrease: {errs}")
        certs = [(f"lambda_p.width@eps={e.eps}", e.lam.width, LIMIT_SPECTRAL_TOL)
                 for e in entries]
        return problems, certs


WORKLOADS = {
    "spectrum-1d-steep": SpectrumSteep,
    "limit-m2-1d": LimitM2,
    "evolve-2d": Evolve2D,
}
