"""Stationary states of rate (J_eps * u - u) + f(x, u) = 0 by monotone iteration.

The scheme is ball exhaustion. On each ball the problem is solved by
two-sided monotone Newton, squeezed between a verified discrete
sub-solution theta * phi_p and a verified discrete super-solution
(exponential-tail profile matched to the hostile exterior, its decay
exponent chosen from the operator's own taps, or a constant barrier);
every iterate stays a verified sub- or super-solution, so the
final pair encloses the solution. Each Newton step solves with -J(hi)
exactly by banded LU on 1-D balls of narrow reach
(``operators.banded_solver``, shared with the lambda_p eigen steps), and by
an in-repo Jacobi-preconditioned CG on the FFT convolution on 2-D balls and
wide reach; no solve loads ``scipy.sparse``. The local
FD reference of the m = 2 limit is a ball solve too, on the nonlocal
operator at range h (``experiments.local_kpp_solve_fd``). The balls come from
``spectral.radius_walk``, which also certifies lambda_p on each one and
checks its domain monotonicity; the walk stops once the solution stops
changing. Every verdict is tied to a certified lambda_p bracket; brackets
that straddle zero refuse a verdict. A ball solve and a whole-space solve
return the same ``StationarySolution``: the state, the certified lambda_p
that decides it and the operator it was solved on; the whole-space one adds
its R history. Uniqueness rests on the Newton pair agreeing (``gap``); the
energy-identity defect of two states is a test oracle, not part of a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConfigError,
    MonotonicityViolationError,
    NonConvergenceError,
    SupersolutionConstructionError,
    UniquenessViolationError,
)
from .grids import DEFAULT_MAX_CELLS_PER_AXIS
from .operators import DiscreteOperator, banded_solver
from .spectral import SpectralEstimate, principal_eigenvalue, radius_walk

_SUB_SLACK = 1e-11
_MAX_BACKTRACKS = 60   # halvings of a super-solution exponent or sub-solution amplitude


@dataclass
class Supersolution:
    values: np.ndarray
    kind: str            # "exponential" or "constant"
    margin: float        # max of the stationary residual on the grid (<= tol)


def decay_margin(op: DiscreteOperator, alpha: float, nu: float) -> float:
    """h(alpha) = rate (sum_k h^N tap_k e^{alpha |z_k|} - 1) - nu/2 over the
    operator's taps at offsets z_k.

    Since e^{-alpha |x - z|} <= e^{alpha |z|} e^{-alpha |x|} on the grid,
    the discrete exterior inequality of C e^{-alpha |x|} needs h(alpha) < 0.
    Increasing in alpha, h(0) = -nu/2.
    """
    h, N = op.grid.spacing, op.grid.dimension
    offsets = np.arange(-op.reach, op.reach + 1) * h
    dist = np.sqrt(sum(g * g for g in np.meshgrid(*[offsets] * N, indexing="ij")))
    return op.rate * (float(np.sum(op.taps * np.exp(alpha * dist))) * h**N - 1.0) - 0.5 * nu


def build_supersolution(op: DiscreteOperator, tol: float = 1e-8) -> Supersolution:
    """Uniform discrete super-solution: 2M on the core, C e^{-alpha|x|} outside.

    alpha starts at 1 and is halved until ``decay_margin`` of the operator's
    taps is negative, then halved further until the whole profile passes the
    discrete check.

    Falls back to a constant barrier for non-hostile growth or for kernels
    without compact support. The returned profile satisfies
    rate (J_eps * ubar - ubar) + f(x, ubar) <= tol at every grid point.
    """
    growth = op.growth
    if growth is None:
        raise ConfigError("super-solution construction needs a growth profile")
    pts = op.points_arg
    sat = np.asarray(growth.saturation(pts), dtype=float)
    sup_s = float(np.max(sat))

    if not growth.hostile or not op.kernel.compactly_supported or sup_s <= 0.0:
        level = sup_s if sup_s > 0 else 1.0
        values = np.full(op.size, level)
        margin = float(np.max(op.rhs(values)))
        if margin > tol:
            raise SupersolutionConstructionError(
                f"constant barrier {level} fails by {margin:.3e}"
            )
        return Supersolution(values=values, kind="constant", margin=margin)

    nu = growth.nu
    r0 = growth.halfnu_radius
    norms = op.grid.norms()
    core = norms <= 2.0 * r0
    m_core = float(np.max(sat[core])) if np.any(core) else sup_s
    if m_core <= 0:
        # niche is entirely hostile: any positive constant is a barrier
        values = np.ones(op.size)
        margin = float(np.max(op.rhs(values)))
        if margin > tol:
            raise SupersolutionConstructionError("unit barrier fails on hostile profile")
        return Supersolution(values=values, kind="constant", margin=margin)

    alpha = 1.0
    for _ in range(_MAX_BACKTRACKS):
        if decay_margin(op, alpha, nu) < 0:
            break
        alpha *= 0.5
    else:
        raise SupersolutionConstructionError("no decay exponent with h(alpha) < 0")

    for _ in range(_MAX_BACKTRACKS):
        plateau = 2.0 * m_core
        amplitude = plateau * math.exp(2.0 * alpha * r0)
        values = np.minimum(amplitude * np.exp(-alpha * norms), plateau)
        margin = float(np.max(op.rhs(values)))
        if margin <= tol:
            return Supersolution(values=values, kind="exponential", margin=margin)
        alpha *= 0.5
        if alpha < 1e-12:
            break
    raise SupersolutionConstructionError(
        f"discrete super-solution check failed down to alpha={alpha:.3e} (margin {margin:.3e})"
    )


def _residual_slack(op: DiscreteOperator, lam: SpectralEstimate) -> float:
    """Roundoff allowance on the sign of the stationary residual."""
    return _SUB_SLACK * (1.0 + op.rate + abs(lam.sup_a))


def verified_subsolution(op: DiscreteOperator, lam: SpectralEstimate,
                         ceiling: np.ndarray | None = None) -> np.ndarray:
    """theta * phi_p with theta = -lambda_p/2, halved until the discrete
    sub-solution inequality op.rhs >= -slack holds pointwise and theta phi_p
    stays below the ceiling.

    The one sub-solution of every stationary solve: nonlocal balls and the
    local FD reference (the nonlocal operator at range h) alike.
    """
    if lam.value >= 0:
        raise ConfigError("sub-solution needs a negative lambda_p")
    theta = -lam.value / 2.0
    slack = _residual_slack(op, lam)
    for _ in range(_MAX_BACKTRACKS):
        sub = theta * lam.eigenvector
        if np.all(op.rhs(sub) >= -slack) and (ceiling is None or np.all(sub <= ceiling + 1e-15)):
            return sub
        theta *= 0.5
    raise NonConvergenceError("no admissible sub-solution amplitude found")


# Quadratic convergence takes about 10 steps; next to a degenerate root
# (lambda_p near 0) Newton only halves the error, about 40 steps to 1e-12.
_NEWTON_STEP_CAP = 60


def two_sided_newton(residual, solve, hi, lo, target: float, slack: float, value_slack: float):
    """Monotone Newton enclosure lo <= u* <= hi of the zero of a concave cooperative F.

    hi starts at a super-solution (F(hi) <= 0), lo at a sub-solution below
    it. Each step solves -J(hi) D = [F(hi), F(lo)] by solve(hi, R): a Newton
    step from above and a chord step from below with the same Jacobian
    (Ortega & Rheinboldt, section 13.3). For concave F with -J(hi) a
    nonsingular M-matrix, hi falls and stays a super-solution, lo rises and
    stays a sub-solution, and lo <= hi. Every step checks these five
    inequalities (residuals to ``slack``, values to ``value_slack``) and
    raises MonotonicityViolationError on a failure, such as an f that is
    not concave in s. lo = None sweeps from above only.

    Returns (hi, lo, steps) once max |F| <= target on both sides. residual
    is called once per iterate, hi before lo.
    """
    u = np.column_stack([hi] if lo is None else [hi, lo])
    r = np.column_stack([residual(x) for x in u.T])
    prev = u
    for steps in range(_NEWTON_STEP_CAP + 1):
        _check_enclosure(steps, u, r, prev, slack, value_slack)
        res = float(np.max(np.abs(r)))
        if not math.isfinite(res):
            raise NonConvergenceError(f"Newton iteration produced non-finite values at step {steps}")
        if res <= target:
            return u[:, 0], None if lo is None else u[:, 1], steps
        prev, u = u, u + solve(u[:, 0], r)
        r = np.column_stack([residual(x) for x in u.T])
    raise NonConvergenceError(f"Newton iteration stalled at residual {res:.3e} > {target:.3e} "
                              f"after {steps} steps")


def _check_enclosure(step, u, r, prev, slack, value_slack) -> None:
    checks = [("F(hi) > 0", r[:, 0], slack),
              ("super-solution iterate rose", u[:, 0] - prev[:, 0], value_slack)]
    if u.shape[1] == 2:
        checks += [("F(lo) < 0", -r[:, 1], slack),
                   ("sub-solution iterate fell", prev[:, 1] - u[:, 1], value_slack),
                   ("iterates crossed", u[:, 1] - u[:, 0], value_slack)]
    for what, excess, allowed in checks:
        if np.max(excess) > allowed:
            raise MonotonicityViolationError(
                f"Newton step {step}: {what} by {np.max(excess):.3e} (slack {allowed:.1e}); "
                "is f concave in s?"
            )


def _pcg(matvec, b, diag, atol: float):
    """x with ||b - M x||_2 < atol, M = ``matvec`` SPD, by CG from x = 0 with
    the Jacobi preconditioner diag(M) = ``diag``, in at most 10 n steps. The
    recurrences are those of ``scipy.sparse.linalg.cg``, bit for bit."""
    x = np.zeros_like(b)
    r = b.copy()
    for step in range(10 * b.size):
        if np.linalg.norm(r) < atol:
            return x
        z = r / diag
        rho = np.dot(r, z)
        p = z if step == 0 else p * (rho / rho_prev) + z
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise NonConvergenceError(f"CG on the Newton system did not reach {atol:.1e}")


def _cg_solver(op: DiscreteOperator, atol: float):
    """solve(u, R) = -J(u)^{-1} R by ``_pcg`` on the matrix-free SPD operator
    rate (I - C) - diag(d_s f(x, u)), with the FFT ``convolve``.

    Used where the banded LU does not apply or does not pay: 2-D balls and
    1-D balls whose reach exceeds BANDED_MAX_REACH.
    """
    c_diag = op.taps[(op.reach,) * op.grid.dimension] * op.grid.spacing**op.grid.dimension

    def solve(u, rhs):
        slope = op.reaction_slope(u)
        diag = op.rate * (1.0 - c_diag) - slope
        if np.min(diag) <= 0.0:
            raise MonotonicityViolationError(
                "-J(hi) has a nonpositive diagonal, so it is not positive definite; is f concave in s?")
        return np.column_stack([_pcg(lambda v: op.rate * (v - op.convolve(v)) - slope * v,
                                     b, diag, atol) for b in rhs.T])

    return solve


@dataclass
class StationarySolution:
    op: DiscreteOperator               # the operator solved on (the last ball of a walk)
    values: np.ndarray
    verdict: str                       # "persistent" | "extinct" | "indeterminate"
    lambda_p_used: SpectralEstimate
    residual: float
    sub: np.ndarray | None = None
    super_: np.ndarray | None = None
    iterations: int = 0
    gap: float = 0.0                   # enclosure width max |hi - lo| of the Newton pair
    attempted: np.ndarray | None = None  # terminal iterate when indeterminate
    R_history: list[tuple[float, float]] = field(default_factory=list)
    r_converged: bool = False          # last change along the R schedule <= tol

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def solve_stationary_ball(
    op: DiscreteOperator,
    tol: float = 1e-10,
    lam: SpectralEstimate | None = None,
    lower_start: np.ndarray | None = None,
) -> StationarySolution:
    """Unique nonnegative equilibrium on one ball, or certified zero.

    Two-sided monotone Newton (``two_sided_newton``) runs from a verified
    sub-solution upward and from the super-solution downward; the two
    iterates must meet (uniqueness built in) and their gap encloses the
    solution. The residual target is scaled by min(1, |lambda_p|) so the two
    limits land within 10 tol of each other even near the persistence
    threshold.
    """
    if lam is None:
        lam = principal_eigenvalue(op)
    zero = np.zeros(op.size)
    if lam.lower >= 0.0:
        return StationarySolution(op=op, values=zero, verdict="extinct", lambda_p_used=lam,
                                  residual=0.0)

    super_ = build_supersolution(op, tol=max(tol, 1e-8))
    residual_target = max(tol * min(1.0, abs(lam.value)), 1e-14 * (1.0 + op.rate))
    slack = max(_residual_slack(op, lam), super_.margin)

    def newton(lo, target):
        stencil = op.band_stencil()
        if stencil is not None:
            solve = banded_solver(stencil, op.reaction_slope, op.size)
        else:
            solve = _cg_solver(op, atol=0.1 * min(target, slack))
        return two_sided_newton(op.rhs, solve, super_.values, lo, target, slack,
                                value_slack=slack / min(1.0, abs(lam.value)))

    if lam.upper >= 0.0:
        # bracket straddles zero: no verdict; report the attempted iterate
        attempted, _, steps = newton(None, max(residual_target, 1e-12))
        return StationarySolution(op=op, values=zero, verdict="indeterminate", lambda_p_used=lam,
                                  residual=float(np.max(np.abs(op.rhs(attempted)))),
                                  super_=super_.values, iterations=steps, attempted=attempted)

    sub = verified_subsolution(op, lam, ceiling=super_.values)
    start_low = sub
    if lower_start is not None:
        cand = np.maximum(sub, np.minimum(lower_start, super_.values))
        if np.all(op.rhs(cand) >= -_SUB_SLACK * (1.0 + op.rate)):
            start_low = cand
    u, u_lo, steps = newton(start_low, residual_target)
    gap = float(np.max(np.abs(u - u_lo)))
    if gap > 10.0 * tol:
        raise UniquenessViolationError(
            f"monotone limits disagree by {gap:.3e} (> {10 * tol:.1e})"
        )
    return StationarySolution(op=op, values=u, verdict="persistent", lambda_p_used=lam,
                              residual=float(np.max(np.abs(op.rhs(u)))), sub=sub,
                              super_=super_.values, iterations=steps, gap=gap)


def solve_stationary_wholespace(
    kernel,
    growth,
    radii,
    spacing: float,
    tol: float = 1e-8,
    solver_tol: float = 1e-10,
    spectral_tol: float = 1e-10,
    max_cells_per_axis: int = DEFAULT_MAX_CELLS_PER_AXIS,
) -> StationarySolution:
    """Whole-space equilibrium as the monotone limit of ball solutions.

    Walks the balls of ``spectral.radius_walk`` (radii multiples of h,
    lambda_p certified and non-increasing in R) and solves each one, started
    from the previous ball's solution carried onto it (``Grid.carry``, 0 off
    the previous ball). Asserts u_{R_k} <= u_{R_{k+1}} and stops once the
    sup-norm change drops below tol, both measured against that carried
    vector. The result is the largest ball's solution, with the R history
    added: its verdict comes from that ball's certified bracket, and it
    keeps that ball's operator.
    """
    last_R = max(map(float, radii), default=None)
    prev_grid = prev_vals = None
    history: list[tuple[float, float]] = []
    for R, op, lam in radius_walk(kernel, growth, radii, spacing, spectral_tol,
                                  max_cells_per_axis):
        carried = None if prev_vals is None else op.grid.carry(prev_grid, prev_vals, 0.0)
        sol = solve_stationary_ball(op, tol=solver_tol, lam=lam, lower_start=carried)
        change = math.inf
        if carried is not None:
            diff = sol.values - carried
            slack = 100.0 * solver_tol + 1e-12
            if np.min(diff) < -slack:
                raise MonotonicityViolationError(
                    f"ball solutions not increasing in R: min increment {np.min(diff):.3e}"
                )
            change = float(np.max(np.abs(diff)))
        history.append((R, change))
        if (change <= tol and sol.verdict != "indeterminate") or R == last_R:
            break
        prev_grid, prev_vals = op.grid, sol.values
        # free the ball's operator and its cached plans before the walk certifies the next ball
        del op, sol

    if sol.verdict == "persistent" and sol.super_ is not None:
        if np.any(sol.values > sol.super_ + 100.0 * solver_tol):
            raise MonotonicityViolationError("solution escaped its super-solution")
    return replace(sol, R_history=history, r_converged=history[-1][1] <= tol)


__all__ = [
    "Supersolution",
    "StationarySolution",
    "build_supersolution",
    "verified_subsolution",
    "two_sided_newton",
    "decay_margin",
    "solve_stationary_ball",
    "solve_stationary_wholespace",
]
