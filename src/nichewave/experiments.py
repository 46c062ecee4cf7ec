"""Quantitative programs: budget sweeps, thresholds, limits, audits, invasion.

Every program takes one Kernel, which carries the pair (J_eps, rate
alpha0/eps^m) of the paper's fixed dispersal budget, and gets its kernel at
each range factor by dataclasses.replace(kernel, epsilon=eps): m and alpha0
never change along a schedule, and no program re-derives the rate.

Grid coupling follows the sweep design: for small range factors the spacing
shrinks with eps (h = h0 min(1, eps)) so the rescaled kernel stays resolved;
for large range factors the ball grows with the kernel reach so whole-space
behaviour is not clipped. GridPolicy couples eps to h and R only, every
grid lives in the kernel's dimension N, and every caller passes its policy.
``GridPolicy.grid_for`` alone sizes a grid and refuses an unresolved
kernel, for one eps or for an ESS row. A sweep entry keeps its
``StationarySolution``, and so the operator it was solved on: the audit and
the m = 2 limit check read each entry's grid and operator there, and build
none a second time. Every "limit" claim is a monotone-decrease-of-error
statement over a finite schedule, never absolute closeness at one eps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, KernelHypothesisError, ResourceLimitError, UnderResolvedKernelError
from .grids import DEFAULT_MAX_CELLS_PER_AXIS, Grid, build_grid, snap_radius
from .growth import GrowthProfile
from .kernels import Kernel, kernel_moment, rescale_kernel, validate_kernel
from .operators import build_operator
from .spectral import SpectralEstimate, principal_eigenvalue
from .stationary import StationarySolution, solve_stationary_ball


MIN_TAPS = 2  # a kernel must reach this many cells of its grid
RADIUS_PAD = 1.0  # kernel reaches a policy ball extends beyond base_radius


@dataclass(frozen=True)
class GridPolicy:
    """Couples the range factor eps to a concrete discretization: spacing
    base_spacing min(1, eps), radius base_radius plus RADIUS_PAD kernel
    reaches. The CLI builds its one policy from [grid] R and h."""

    base_radius: float
    base_spacing: float
    max_cells_per_axis: int = DEFAULT_MAX_CELLS_PER_AXIS

    def spacing_for(self, eps: float) -> float:
        return self.base_spacing * min(1.0, eps)

    def radius_for(self, kernel: Kernel) -> float:
        """base_radius padded by the kernel's reach, if its support is compact."""
        reach = kernel.support_radius if kernel.compactly_supported else 0.0
        return self.base_radius + RADIUS_PAD * reach

    def grid_for(self, *kernels: Kernel) -> Grid:
        """One ball for every kernel given (one eps, or an ESS row): the
        spacing_for the smallest eps and the widest radius_for. The
        narrowest kernel must reach MIN_TAPS cells of it."""
        h = self.spacing_for(min(k.epsilon for k in kernels))
        narrowest = min(kernels, key=lambda k: k.support_radius)
        if narrowest.support_radius < MIN_TAPS * h:
            raise UnderResolvedKernelError(
                f"eps={narrowest.epsilon}: kernel support {narrowest.support_radius:.4g} "
                f"< {MIN_TAPS} h = {MIN_TAPS * h:.4g}"
            )
        R = snap_radius(max(self.radius_for(k) for k in kernels), h)
        return build_grid(kernels[0].dimension, R, h, "ball-truncated", self.max_cells_per_axis)


# ---------------------------------------------------------------------------
# epsilon sweeps


@dataclass
class SweepEntry:
    eps: float
    lam: SpectralEstimate
    solve: StationarySolution          # keeps the operator it was solved on
    u_sup: float
    u_l2: float
    u_l1: float
    errors: dict = field(default_factory=dict)   # named distances to limit targets
    target_name: str = ""
    target_error: float = math.nan


@dataclass
class SweepResult:
    m: float
    entries: list[SweepEntry]
    skipped: dict = field(default_factory=dict)  # eps -> reason

    @property
    def epsilons(self) -> list[float]:
        return [e.eps for e in self.entries]

    def coherence(self, solver_tol: float):
        """Certified-sign dichotomy bookkeeping: (consistent, violations, straddles)."""
        violations = []
        straddles = 0
        for e in self.entries:
            if e.lam.sign == "straddle":
                straddles += 1
                continue
            nontrivial = e.u_sup > 10.0 * solver_tol
            if (e.lam.sign == "negative") != nontrivial:
                violations.append(e.eps)
        return (not violations, violations, straddles)


def _sweep_targets(m: float, rate: float, direction: str | None):
    """The eps-limit a sweep is measured against, as (lambda name, u name,
    shift): lambda_p -> shift - sup a and u -> (a - shift)+. Only m = 0
    toward large eps keeps the rate alpha0 (shift = rate); every other limit
    has shift 0. The m = 2 small-eps limit is the local pair (lambda_1, v)
    of sigma Lap + f, which ``asymptotic_limit_check`` solves by FD, so the
    sweep names no target there: None."""
    if direction == "small" and m == 2.0:
        return None
    if direction == "large" and m == 0.0:
        return f"{rate:g}-sup_a", f"(a-{rate:g})+", rate
    return "-sup_a", "a+", 0.0


def _sweep_one(kernel, growth, eps, policy, direction, solver_tol, spectral_tol):
    m = kernel.m
    scaled = replace(kernel, epsilon=eps)
    grid = policy.grid_for(scaled)
    op = build_operator(grid, scaled, growth)
    lam = principal_eigenvalue(op, tol=spectral_tol)
    solve = solve_stationary_ball(op, tol=solver_tol, lam=lam)
    u, w, a = solve.values, grid.weights, op.a_values
    entry = SweepEntry(eps=eps, lam=lam, solve=solve, u_sup=float(np.max(u)),
                       u_l2=float(np.sqrt(np.sum(w * u * u))), u_l1=float(np.sum(w * u)))
    targets = _sweep_targets(m, op.rate, direction)
    if targets is None:
        return entry
    lam_name, u_name, shift = targets
    target_u = np.maximum(a - shift, 0.0)
    entry.errors = {
        f"u_sup_err_{u_name}": float(np.max(np.abs(u - target_u))),
        f"u_l2_err_{u_name}": float(np.sqrt(np.sum(w * (u - target_u) ** 2))),
        f"lam_err_{lam_name}": abs(lam.value - (shift - float(np.max(a)))),
    }
    entry.target_name = f"u_sup_err_{u_name}" if m == 0.0 else f"u_l2_err_{u_name}"
    entry.target_error = entry.errors[entry.target_name]
    return entry


def epsilon_sweep(
    kernel: Kernel,
    growth: GrowthProfile,
    epsilons,
    policy: GridPolicy,
    direction: str | None = None,
    solver_tol: float = 1e-10,
    spectral_tol: float = 1e-10,
) -> SweepResult:
    """Solve the budget problem at each eps of the schedule, in order, at the
    kernel's m and alpha0; entries whose kernel is unresolvable on the policy
    grid, or whose grid exceeds its cell limit, are skipped with a reason."""
    result = SweepResult(m=kernel.m, entries=[])
    for eps in (float(e) for e in epsilons):
        try:
            result.entries.append(_sweep_one(kernel, growth, eps, policy, direction, solver_tol,
                                             spectral_tol))
        except (UnderResolvedKernelError, ResourceLimitError) as exc:
            result.skipped[eps] = str(exc)
    return result


# ---------------------------------------------------------------------------
# critical range factor (m = 0)


@dataclass
class EpsStarResult:
    kind: str                      # "finite" | "infinite" | "no-sign-change"
    value: float | None
    bracket: tuple[float, float] | None
    history: list[tuple[float, SpectralEstimate]] = field(default_factory=list)
    unresolved: list[float] = field(default_factory=list)
    note: str = ""


def find_eps_star(
    kernel: Kernel,
    growth: GrowthProfile,
    lo: float,
    hi: float,
    policy: GridPolicy,
    tol: float = 1e-2,
) -> EpsStarResult:
    """Critical range factor for m = 0 by bisection on the certified sign.

    The rate alpha0 is the same at every eps. If (a - rate)+ is not
    identically zero on the grid, persistence holds for every eps and the
    threshold is infinite. Both ends and every move of one rest on a
    certified sign: an lo or hi still straddling after two sharper retries
    is "no-sign-change", and such a midpoint stops the bisection at the last
    certified [a, b]; each such eps goes into ``unresolved``. A retry starts
    from the straddling estimate's eigenvector.
    """
    if kernel.m != 0.0:
        raise ConfigError(f"eps* is defined for m = 0, not m = {kernel.m:g}")
    rate = kernel.rate
    probe = build_grid(kernel.dimension, snap_radius(policy.base_radius, policy.base_spacing),
                       policy.base_spacing, "ball-truncated", policy.max_cells_per_axis)
    a_probe = probe.sample(growth.a)
    if float(np.max(a_probe - rate)) > 0.0:
        return EpsStarResult(kind="infinite", value=None, bracket=None,
                             note=f"(a-{rate:g})+ not identically zero: persistence for all eps")
    if growth.sup_a > rate:
        warnings.warn(
            f"analytic sup a exceeds the rate {rate:g} but the grid misses the spike; "
            "eps* finiteness pre-check may be unreliable", stacklevel=2,
        )

    history: list[tuple[float, SpectralEstimate]] = []
    unresolved: list[float] = []

    def lam_at(eps: float) -> SpectralEstimate:
        scaled = replace(kernel, epsilon=eps)
        grid = policy.grid_for(scaled)
        op = build_operator(grid, scaled, growth)
        est = principal_eigenvalue(op, tol=1e-10)
        if est.sign == "straddle":
            for sharper in (1e-12, 1e-13):
                est = principal_eigenvalue(op, tol=sharper, start=est.eigenvector)
                if est.sign != "straddle":
                    break
            else:
                unresolved.append(eps)
        history.append((eps, est))
        return est

    est_lo = lam_at(lo)
    est_hi = lam_at(hi)
    if est_lo.sign != "negative":
        return EpsStarResult(kind="no-sign-change", value=None, bracket=None, history=history,
                             unresolved=unresolved,
                             note=f"no persistence at eps={lo}: lambda_p sign {est_lo.sign}")
    if est_hi.sign != "nonnegative":  # b must be a certified end, as a is
        note = (f"persistence persists to eps={hi}" if est_hi.sign == "negative"
                else f"no certified sign at eps={hi}: lambda_p sign {est_hi.sign}")
        return EpsStarResult(kind="no-sign-change", value=None, bracket=None, history=history,
                             unresolved=unresolved, note=note)
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        sign = lam_at(mid).sign
        if sign == "straddle":
            break
        if sign == "negative":
            a = mid
        else:
            b = mid
    return EpsStarResult(kind="finite", value=0.5 * (a + b), bracket=(a, b),
                         history=history, unresolved=unresolved)


# ---------------------------------------------------------------------------
# local FD reference problem (m = 2 limit)


@dataclass
class LocalKPPResult:
    nodes: np.ndarray
    values: np.ndarray
    lambda1: SpectralEstimate
    residual: float
    iterations: int


def local_kpp_solve_fd(
    growth: GrowthProfile,
    sigma: float,
    radius: float,
    spacing: float,
    tol: float = 1e-10,
) -> LocalKPPResult:
    """sigma v'' + f(x, v) = 0 on (-R, R), Dirichlet, by central differences;
    zero unless the certified bracket on lambda_1 is negative.

    The FD Laplacian is the nonlocal operator at range h. With C the
    nearest-neighbour jump kernel (1/2 at +-h) and rate = 2 sigma / h^2, the
    paper's m = 2 scaling at eps = h,

        sigma Delta_h u = (2 sigma / h^2) (u_{i-1}/2 + u_{i+1}/2 - u_i) = rate (C u - u),

    and the hostile exterior of the grid of cell centres -R + h .. R - h is
    the Dirichlet boundary. So lambda_1 is ``principal_eigenvalue`` of that
    operator (a certified Collatz-Wielandt bracket) and v is
    ``solve_stationary_ball`` on it, both on the banded q = 1 path.
    """
    if sigma <= 0:
        raise ConfigError("diffusion coefficient must be positive")
    jump = Kernel("tabulated", params={"r": [0.0, 1.0], "values": [0.0, 1.0]})
    grid = build_grid(1, radius - spacing / 2.0, spacing)
    op = build_operator(grid, rescale_kernel(jump, spacing, 2.0, 2.0 * sigma), growth)
    lam1 = principal_eigenvalue(op)
    solve = solve_stationary_ball(op, tol=tol, lam=lam1)
    return LocalKPPResult(nodes=grid.points[:, 0], values=solve.values, lambda1=lam1,
                          residual=solve.residual, iterations=solve.iterations)


# ---------------------------------------------------------------------------
# asymptotic limit verification


@dataclass
class LimitCheck:
    m: float
    epsilons: list[float]           # ordered toward the limit
    lambda_errors: list[float]
    u_errors: list[float]
    lambda_monotone: bool
    u_monotone: bool
    lambda_target_name: str
    u_target_name: str
    sweep: SweepResult
    fd: LocalKPPResult | None = None
    notes: list[str] = field(default_factory=list)


FD_SPACING = 0.01  # spacing of the local FD reference of the m = 2 limit


def _tail_monotone(errors: list[float]) -> bool:
    tail = errors[-3:]
    return all(b < a for a, b in zip(tail, tail[1:]))


def asymptotic_limit_check(
    kernel: Kernel,
    growth: GrowthProfile,
    m: float,
    direction: str,
    epsilons,
    policy: GridPolicy,
    solver_tol: float = 1e-10,
    spectral_tol: float = 1e-10,
) -> LimitCheck:
    """Tabulate distances to the theoretical limit along an eps schedule.

    ``kernel`` gives J and alpha0: its epsilon and m are replaced, and the
    sweep runs on J_eps at cost exponent m and the kernel's alpha0, one eps
    after another. m is a parameter, not read from the kernel, because
    ``perfbench/workloads.py`` passes it positionally.

    direction "large": targets a+ ((a-alpha0)+ for m=0) and the large-eps
    spectral limits; "small": -sup a and a+ for m < 2, the local-Laplacian pair
    (lambda_1, v) of sigma Lap, sigma = alpha0 D_2(J)/(2N), for m = 2. That
    pair comes from ``local_kpp_solve_fd``, the same certified eigen-solve
    and ball solve on the nonlocal operator at range FD_SPACING. After the
    sweep, each entry's lambda_p is compared with lambda_1, and its u with v
    interpolated onto the entry's grid (``solve.op.grid``), in L2 on the core
    |x| <= core_radius + 1 of a hostile growth (half the policy radius
    otherwise). It is 1-D, so m = 2 toward small eps needs a 1-D kernel and
    raises ConfigError otherwise. A non-monotone
    decrease over the last three errors is reported as a finding with
    grid-refinement advice, not raised.
    """
    if direction not in ("small", "large"):
        raise ConfigError("direction must be 'small' or 'large'")
    if direction == "small" and m == 2.0 and kernel.dimension != 1:
        raise ConfigError(f"the m = 2 small-eps limit has a 1-D local reference only, "
                          f"not {kernel.dimension}-D")
    template = rescale_kernel(kernel, 1.0, m, kernel.alpha0)  # the sweep replaces epsilon
    order = sorted(float(e) for e in epsilons)
    order = order[::-1] if direction == "small" else order

    fd = None
    if direction == "small" and m == 2.0:
        sigma = kernel.alpha0 * kernel_moment(template, 2.0) / (2.0 * kernel.dimension)
        R_fd = snap_radius(policy.base_radius, FD_SPACING)
        fd = local_kpp_solve_fd(growth, sigma, R_fd, FD_SPACING, tol=solver_tol)

    sweep = epsilon_sweep(template, growth, order, policy, direction, solver_tol, spectral_tol)
    notes = [f"eps={e}: skipped ({r})" for e, r in sweep.skipped.items()]

    entries = sweep.entries
    if fd is None:
        lam_key = "lam_err_" + _sweep_targets(m, template.rate, direction)[0]
        u_key = entries[-1].target_name if entries else ""
        lam_errors = [e.errors[lam_key] for e in entries]
        u_errors = [e.target_error for e in entries]
    else:  # the FD pair is no sweep target: each entry meets it here, on its own grid
        core_r = growth.core_radius + 1.0 if growth.hostile else policy.base_radius / 2.0
        lam_key, u_key, u_errors = "lam_err_lambda1_fd", "u_l2core_err_v_fd", []
        lam_errors = [abs(e.lam.value - fd.lambda1.value) for e in entries]
        for e in entries:
            grid, u = e.solve.op.grid, e.solve.values
            x = grid.points[:, 0]
            core = np.abs(x) <= core_r
            v_fd = np.interp(x, fd.nodes, fd.values)
            u_errors.append(float(np.sqrt(np.sum(grid.weights[core] * (u[core] - v_fd[core]) ** 2))))

    lam_mono = _tail_monotone(lam_errors)
    u_mono = _tail_monotone(u_errors)
    if not lam_mono or not u_mono:
        notes.append("non-monotone error decrease: refine base_spacing or widen base_radius")
    return LimitCheck(
        m=m,
        epsilons=sweep.epsilons,
        lambda_errors=lam_errors,
        u_errors=u_errors,
        lambda_monotone=lam_mono,
        u_monotone=u_mono,
        lambda_target_name=lam_key if entries else "",
        u_target_name=u_key if entries else "",
        sweep=sweep,
        fd=fd,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# a-priori estimate audit


@dataclass
class AuditItem:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class AuditResult:
    eps: float
    m: float
    items: list[AuditItem]
    energy: float

    @property
    def all_passed(self) -> bool:
        return all(i.passed for i in self.items)


_AUDIT_SLACK = 1e-8  # allowance on each a-priori inequality


def apriori_estimate_audit(op, u: np.ndarray, lam: SpectralEstimate) -> AuditResult:
    """Check the stationary a-priori estimates on one converged solve, each to _AUDIT_SLACK."""
    w = op.grid.weights
    a = op.a_values
    eps = op.kernel.epsilon
    m = op.kernel.m
    M = float(np.max(np.abs(a)))
    int_aplus = float(np.sum(w * np.maximum(a, 0.0)))
    c1 = M * int_aplus

    l2 = float(np.sqrt(np.sum(w * u * u)))
    bound1 = math.sqrt(c1)
    items = [AuditItem("i_l2_bound", l2 <= bound1 + _AUDIT_SLACK, bound1 - l2,
                       f"||u||_2 = {l2:.6g} vs sqrt(M int a+) = {bound1:.6g}")]

    energy = op.energy(u)
    c2 = 4.0 * c1 * M
    bound2 = c2 * eps**m
    items.append(AuditItem("ii_energy_bound", energy <= bound2 + _AUDIT_SLACK, bound2 - energy,
                           f"E = {energy:.6g} vs C2 eps^m = {bound2:.6g}"))

    supp = a > 0.0
    sup_u_core = float(np.max(u[supp])) if np.any(supp) else 0.0
    floor = -lam.upper / 2.0
    items.append(AuditItem("iii_sup_lower", sup_u_core >= floor - _AUDIT_SLACK, sup_u_core - floor,
                           f"sup_supp(a+) u = {sup_u_core:.6g} vs -lambda_p/2 = {floor:.6g}"))

    lower = np.maximum(a - op.rate, 0.0)
    worst = float(np.min(u - lower))
    items.append(AuditItem("iv_pointwise_lower", worst >= -_AUDIT_SLACK, worst,
                           f"min(u - (a - rate)+) = {worst:.3g}"))
    return AuditResult(eps=eps, m=m, items=items, energy=energy)


@dataclass
class EnergySlopeFit:
    m: float
    epsilons: list[float]
    energies: list[float]
    slope: float
    audits: list[AuditResult]
    lambda_met_tol: bool              # every sweep entry's lambda_p bracket met its tol


def energy_slope_audit(
    kernel: Kernel,
    growth: GrowthProfile,
    epsilons,
    policy: GridPolicy,
    solver_tol: float,
    spectral_tol: float = 1e-10,
) -> EnergySlopeFit:
    """Audit every entry of a sweep over the sorted eps schedule, on the
    operator each entry was solved on, and fit log E vs log eps (slope ~ m)."""
    sweep = epsilon_sweep(kernel, growth, sorted(epsilons), policy,
                          solver_tol=solver_tol, spectral_tol=spectral_tol)
    audits = []
    eps_list, energies = [], []
    for entry in sweep.entries:
        audit = apriori_estimate_audit(entry.solve.op, entry.solve.values, entry.lam)
        audits.append(audit)
        if entry.solve.verdict == "persistent":
            eps_list.append(entry.eps)
            energies.append(audit.energy)
    slope = math.nan
    if len(energies) >= 2 and all(e > 0 for e in energies):
        slope = float(np.polyfit(np.log(eps_list), np.log(energies), 1)[0])
    return EnergySlopeFit(m=kernel.m, epsilons=eps_list, energies=energies, slope=slope, audits=audits,
                          lambda_met_tol=all(e.lam.met_tol for e in sweep.entries))


# ---------------------------------------------------------------------------
# invasion fitness (ESS program)


@dataclass
class InvasionEntry:
    eps1: float
    eps2: float
    lam: SpectralEstimate
    verdict: str        # "invades" | "resists" | "neutral"


@dataclass
class InvasionMatrix:
    eps_residents: list[float]
    eps_mutants: list[float]
    entries: list[list[InvasionEntry]]

    def diagonal(self) -> list[InvasionEntry]:
        out = []
        for i, e1 in enumerate(self.eps_residents):
            for j, e2 in enumerate(self.eps_mutants):
                if e1 == e2:
                    out.append(self.entries[i][j])
        return out


def build_invasion_matrix(
    kernel: Kernel,
    growth: GrowthProfile,
    eps_residents,
    eps_mutants,
    policy: GridPolicy,
    solver_tol: float = 1e-10,
) -> InvasionMatrix:
    """Certified lambda_p(M_{eps2,m} + a - u*_{eps1}) for every resident eps1
    and mutant eps2; a negative certified sign means the mutant invades. A
    row is one ``policy.grid_for(resident, *mutants)``, which refuses an
    unresolved row before any solve, one ball solve of u*_{eps1} on it, and
    one eigen-solve per mutant."""
    eps_residents = [float(e) for e in eps_residents]
    eps_mutants = [float(e) for e in eps_mutants]
    entries = []
    for e1 in eps_residents:
        resident = replace(kernel, epsilon=e1)
        mutants = [replace(kernel, epsilon=e2) for e2 in eps_mutants]
        res_op = build_operator(policy.grid_for(resident, *mutants), resident, growth)
        u_star = solve_stationary_ball(res_op, tol=solver_tol).values
        a_eff = res_op.a_values - u_star
        row = []
        for e2, mutant in zip(eps_mutants, mutants):
            lam = principal_eigenvalue(build_operator(res_op.grid, mutant, growth=None,
                                                      a_values=a_eff))
            verdict = "invades" if lam.upper < 0 else "resists" if lam.lower > 0 else "neutral"
            row.append(InvasionEntry(eps1=e1, eps2=e2, lam=lam, verdict=verdict))
        entries.append(row)
    return InvasionMatrix(eps_residents=eps_residents, eps_mutants=eps_mutants, entries=entries)


# ---------------------------------------------------------------------------
# fat-tailed kernels


@dataclass
class FatTailResult:
    verdict: str                    # "persistence" | "extinction" | "indeterminate"
    estimates: list[SpectralEstimate]
    radii: list[float]
    tail_mass: float
    bracket_inflation: float
    evidence: str


def fat_tail_verdict(
    kernel: Kernel,
    growth: GrowthProfile,
    radii,
    spacing: float,
    tail_target: float = 1e-10,
    spectral_tol: float = 1e-10,
    max_cells_per_axis: int = DEFAULT_MAX_CELLS_PER_AXIS,
) -> FatTailResult:
    """Persistence/extinction for non-compact kernels under H5.

    Criterion gap is surfaced, never bridged: persistence requires the
    tail-inflated upper bound of lim_R lambda_p(L_R + a) to be negative;
    extinction requires the whole-space lower bound -sup a to be positive.
    The inflation is 2 rate tail_mass, the largest closed-form continuum mass
    beyond the taps' reach (``Kernel.mass_beyond``) over the radii.
    """
    report = validate_kernel(replace(kernel, epsilon=1.0))
    if not (report.h1 and report.h2_center_positive and report.h5_finite_moment):
        raise KernelHypothesisError(f"kernel fails hypotheses: {report.messages}")
    if kernel.compactly_supported:
        raise ConfigError("fat-tail verdict is for non-compactly supported kernels")

    window = _tail_window(kernel, tail_target)
    estimates = []
    used = []
    tail_mass = 0.0
    # not spectral.radius_walk: the reach is capped at n - 1 cells and the taps
    # renormalized, so each R has its own kernel and lambda_p may rise with R
    for R in sorted(float(r) for r in radii):
        grid = build_grid(kernel.dimension, snap_radius(R, spacing), spacing,
                          "ball-truncated", max_cells_per_axis)
        op = build_operator(grid, kernel, growth, tap_window=window)
        est = principal_eigenvalue(op, tol=spectral_tol)
        tail_mass = max(tail_mass, kernel.mass_beyond(op.reach * op.grid.spacing))
        estimates.append(est)
        used.append(grid.radius)
    inflation = 2.0 * kernel.rate * tail_mass

    if estimates and min(e.upper for e in estimates) + inflation < 0.0:
        verdict = "persistence"
        evidence = "lim_R lambda_p(L_R + a) upper bound (tail-inflated) < 0"
    elif growth.sup_a < 0.0:
        verdict = "extinction"
        evidence = f"lambda_p(M + a) >= -sup a = {-growth.sup_a:.6g} > 0"
    else:
        verdict = "indeterminate"
        evidence = "neither criterion certified: gap between (i) and (ii) surfaced"
    return FatTailResult(verdict=verdict, estimates=estimates, radii=used, tail_mass=tail_mass,
                         bracket_inflation=inflation, evidence=evidence)


def _tail_window(kernel: Kernel, tail_target: float) -> float:
    w = max(kernel.support_radius, 1.0) if math.isfinite(kernel.support_radius) else 1.0
    while kernel.mass_beyond(w) > tail_target and w < 1e9:
        w *= 2.0
    return w
