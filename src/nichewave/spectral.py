"""Generalized principal eigenvalue machinery with certified brackets.

lambda_p of the discrete operator A = rate (C - I) + diag(a) is minus the
largest eigenvalue of A. A Perron shift c = 1 + max|a| + rate makes
B = A + cI entrywise nonnegative with positive diagonal, so for any
strictly positive vector phi the Collatz-Wielandt quotients bracket the
Perron root:

    min_i (B phi)_i / phi_i  <=  rho(B)  <=  max_i (B phi)_i / phi_i.

The sup/inf test-function definitions of lambda_p and lambda_p' are
realized on the grid by exactly these two quotients; their collapse to a
requested width is the bracket certificate.

The quotients come only from the stencil product B phi
(``DiscreteOperator.stencil_product``), a sum of nonnegative taps times
shifted copies of phi that keeps per-entry relative accuracy on steep
eigenvector tails; no matrix is assembled, and phi never enters a bound.
On 1-D balls of narrow reach phi comes from Noda steps
phi <- (sigma I - B)^{-1} phi, sigma the upper quotient, by one banded
M-matrix solve (Noda, Numer. Math. 17, 1971): six steps reach 1e-12 where
power steps stall near 1e-8. Elsewhere it comes from a single-vector
LOBPCG on the FFT operator (absolute error ~1e-16 ||u||), which keeps three
vectors and no basis, and power steps phi <- B phi by the stencil product
polish its tail. The FFT product also decides whether the start vector is
kept without LOBPCG; only the kept phi goes through the stencil product.
No solve here loads ``scipy.sparse``. The bounds need only phi > 0, so a
solve may start from an eigenvector certified on a neighbouring operator.

Every estimate carries the narrowest bracket certified and met_tol (width
<= tol). A miss is recorded, never raised; a caller that needs the width
checks met_tol, and may ask ``degenerate_top`` whether a (nearly) double
top eigenvalue excuses it: off the band it reads the gap below the top
eigenvalue of B by LOBPCG deflated against phi, so only a miss that a
caller would refuse pays for it. ``_certified_iteration`` builds every
SpectralEstimate, so this is the one eigen-solver: the local FD reference
lambda_1 of the m = 2 limit is lambda_p of the nonlocal operator at range h
(``experiments.local_kpp_solve_fd``), bracketed the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DiscretizationInconsistencyError, IrreducibilityError
from .grids import DEFAULT_MAX_CELLS_PER_AXIS, build_grid
from .operators import banded_solver, build_operator

DEGENERACY_GAP = 1e-12
_POSITIVE_FLOOR = 1e-280


@dataclass
class SpectralEstimate:
    value: float
    lower: float
    upper: float
    eigenvector: np.ndarray
    residual: float
    iterations: int
    met_tol: bool                     # width <= the requested tol
    sup_a: float                      # max of a(x) on the grid
    eigenfunction_certified: bool     # upper < rate - sup_a

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def sign(self) -> str:
        """Certified sign of lambda_p: 'negative', 'nonnegative', 'straddle'."""
        if self.upper < 0.0:
            return "negative"
        if self.lower >= 0.0:
            return "nonnegative"
        return "straddle"


def _check_irreducible(op) -> None:
    center = (op.reach,) * op.grid.dimension
    off = op.taps.copy()
    off[center] = 0.0
    if not np.any(off > 0):
        raise IrreducibilityError("kernel support below grid spacing: operator is diagonal")


def _shift_constant(op) -> float:
    return 1.0 + float(np.max(np.abs(op.a_values))) + op.rate


def _certified_iteration(op, tol, maxiter, estimator, start):
    """Shared certification engine; returns a SpectralEstimate.

    phi comes from Noda steps where ``op.band_stencil()`` applies, and
    otherwise from LOBPCG and power steps phi <- B phi. Off the band the
    start vector is kept, without LOBPCG, when the quotients of its FFT
    product B phi already lie within tol. Every bracket
    comes from the stencil product B phi, B = A + cI, which adds the
    summands of a CSR row of B in its order; it runs once per iteration.
    estimator 'cw' brackets by the two Collatz-Wielandt quotients (lambda_p
    contract); 'rayleigh' uses the weighted Rayleigh quotient as the upper
    (variational) side of the lambda_v contract. It stops at width <= tol,
    after maxiter products, or when a step moves neither side of the bracket
    (the floating floor), and returns its best bracket. A start entry that
    is not finite and > 0 would send inf or nan into the quotients: ValueError.
    """
    if not np.all(np.isfinite(start) & (start > 0.0)):
        raise ValueError("the start vector must be finite and > 0 at every grid point")
    _check_irreducible(op)
    c = _shift_constant(op)

    phi = start / np.max(start)
    stencil = op.band_stencil()
    if stencil is None:
        # the start vector's width by the FFT product; one that meets tol is
        # kept as it is (the flat eigenvector of constant growth on the torus)
        q = _fft_product(op, c, phi) / phi
        if float(np.max(q)) - float(np.min(q)) > tol:
            phi = np.maximum(np.abs(_lobpcg(op, c, phi)[1]), _POSITIVE_FLOOR)
            phi = phi / np.max(phi)
    else:
        # sigma I - B = rate (I - C) - diag(a + c - sigma)
        noda = banded_solver(stencil, lambda sigma: op.a_values + c - sigma, op.size)
    bphi = op.stencil_product(phi, shift=c)

    best = (-math.inf, math.inf)
    iterations = 0
    while True:
        iterations += 1
        q = bphi / phi
        cw_lo, cw_hi = float(np.min(q)), float(np.max(q))
        lower = c - cw_hi
        upper = c - cw_lo
        if estimator == "rayleigh":
            rq_a = float(phi @ (bphi - c * phi)) / float(phi @ phi)
            upper = min(upper, -rq_a)
        prev = best
        best = (max(best[0], lower), min(best[1], upper))
        # a step that moves neither side has reached the floating floor:
        # Collatz-Wielandt bounds never worsen under a power step of B >= 0
        if best[1] - best[0] <= tol or best == prev or iterations >= maxiter:
            break
        if stencil is None:
            nxt = np.maximum(bphi, _POSITIVE_FLOOR)
        else:
            try:
                nxt = noda(cw_hi, phi)
            except np.linalg.LinAlgError:  # exactly singular: sigma hit rho(B)
                break
            if not np.all(np.isfinite(nxt) & (nxt > 0.0)):
                break
        phi = nxt / np.max(nxt)
        bphi = op.stencil_product(phi, shift=c)

    a_phi = bphi - c * phi  # every exit leaves phi as the last product saw it
    rq_a = float(phi @ (op.grid.weights * a_phi)) / float(phi @ (op.grid.weights * phi))
    value = float(np.clip(-rq_a, best[0], best[1]))
    residual = float(np.max(np.abs(a_phi + value * phi)))
    sup_a = float(np.max(op.a_values))
    return SpectralEstimate(
        value=value,
        lower=best[0],
        upper=best[1],
        eigenvector=phi,
        residual=residual,
        iterations=iterations,
        met_tol=best[1] - best[0] <= tol,
        sup_a=sup_a,
        eigenfunction_certified=bool(best[1] < op.rate - sup_a),
    )


def degenerate_top(op, est: SpectralEstimate) -> bool:
    """Whether a (nearly) double top eigenvalue of B = A + cI, a gap theta1 -
    theta2 below DEGENERACY_GAP, excuses est's missed tol; never on the band.
    theta1 is the weighted Rayleigh quotient of est's phi, theta2 the top
    eigenvalue orthogonal to phi by LOBPCG deflated against phi; phi times a
    ramp reaches the odd partner of an even phi, as two mirrored niches have.
    """
    if op.band_stencil() is not None:
        return False
    c = _shift_constant(op)
    phi, w = est.eigenvector, op.grid.weights
    a_phi = op.stencil_product(phi, shift=c) - c * phi
    rq_a = float(phi @ (w * a_phi)) / float(phi @ (w * phi))
    theta2 = _lobpcg(op, c, phi * np.arange(op.size), deflate=phi / np.linalg.norm(phi))[0]
    return c + rq_a - theta2 < DEGENERACY_GAP


def _fft_product(op, c, v):
    """B v = (A + cI) v, A = ``op.apply``, by the FFT convolution; absolute
    error ~1e-16 ||v||."""
    return op.apply(v) + c * v


# steps of the off-band eigenvector solve; the bracket judges its last iterate
LOBPCG_MAX_STEPS = 1000


def _orthogonalize(v, bv, basis):
    """v less its parts along the unit vectors b of ``basis`` (pairs b, B b),
    taken off twice; bv = B v, when given, loses the same multiples of B b."""
    for _ in range(2):
        for b, bb in basis:
            k = float(b @ v)
            v, bv = v - k * b, None if bv is None else bv - k * bb
    return v, bv


def _lobpcg(op, c, x, deflate=None):
    """Top eigenpair (theta, x) of B = A + cI, ||x||_2 = 1, by single-vector
    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) on the FFT product.

    A step takes one product B w, w the residual B x - theta x made
    orthogonal to x (and to the unit vector ``deflate``, whose eigenpair is
    then skipped), and a Rayleigh-Ritz step on x, w and the last direction
    p; p is dropped when projecting it off x and w cancels it. It stops at
    ||B x - theta x||_2 <= 1e-15 theta or after LOBPCG_MAX_STEPS. n-vectors
    meet only dot products and axpys, so no BLAS call threads.
    """
    fixed = [] if deflate is None else [(deflate, None)]
    x = _orthogonalize(x, None, fixed)[0]
    x = x / np.linalg.norm(x)
    bx = _fft_product(op, c, x)
    theta, p = float(x @ bx), None
    for _ in range(LOBPCG_MAX_STEPS):
        w = _orthogonalize(bx - theta * x, None, [(x, bx)] + fixed)[0]
        norm = np.linalg.norm(w)
        if norm <= 1e-15 * theta:
            break
        w = w / norm
        basis = [(x, bx), (w, _fft_product(op, c, w))]
        if p is not None:
            v, bv = _orthogonalize(*p, basis)
            norm = np.linalg.norm(v)
            if norm >= 1e-8 * np.linalg.norm(p[0]):
                basis.append((v / norm, bv / norm))
        gram = np.array([[float(u @ bu) for _, bu in basis] for u, _ in basis])
        y = np.linalg.eigh(0.5 * (gram + gram.T))[1][:, -1]
        p = (sum(k * u for k, (u, _) in zip(y[1:], basis[1:])),
             sum(k * bu for k, (_, bu) in zip(y[1:], basis[1:])))
        x, bx = y[0] * x + p[0], y[0] * bx + p[1]
        scale = 1.0 / np.linalg.norm(x)
        x, bx = scale * x, scale * bx
        theta = float(x @ bx)
    return theta, x


# step budget of every eigen-solve that does not name one
DEFAULT_MAXITER = 600


def principal_eigenvalue(op, tol: float = 1e-10, maxiter: int = DEFAULT_MAXITER,
                         start=None) -> SpectralEstimate:
    """lambda_p(L_R + a) with a certified Collatz-Wielandt bracket.

    The bracket is valid whether or not it reached tol; met_tol says which.
    ``start`` (> 0; default the ones vector) moves no bound, only the steps.
    """
    return _certified_iteration(op, tol, maxiter, "cw", np.ones(op.size) if start is None else start)


def rayleigh_lambda_v(op, tol: float, maxiter: int = DEFAULT_MAXITER,
                      start=None) -> SpectralEstimate:
    """lambda_v by Rayleigh-quotient minimization on the symmetric operator.

    Shares the shifted iteration but certifies the upper side variationally;
    equality with lambda_p on the discrete operator is a theorem, asserted
    in tests, never assumed here: the bracket holds from any ``start`` > 0,
    lambda_p's eigenvector included; the default is independent of lambda_p's.
    """
    if start is None:
        start = np.ones(op.size)
        start[:: max(op.size // 7, 1)] += 0.5  # break symmetry differently from lambda_p
    return _certified_iteration(op, tol, maxiter, "rayleigh", start)


def radius_walk(kernel, growth, radii, spacing: float, spectral_tol: float = 1e-10,
                max_cells_per_axis: int = DEFAULT_MAX_CELLS_PER_AXIS, known=None,
                maxiter: int = DEFAULT_MAXITER):
    """Yield (R, op, lambda_p) ball by ball along an increasing R schedule.

    The balls live in the kernel's dimension, and each lambda_p is
    principal_eigenvalue(op, tol=spectral_tol, maxiter=maxiter). The
    schedule must be non-empty and every radius a multiple of h
    (ConfigError otherwise), so the ball lattices nest exactly. On nested
    balls lambda_p(L_R + a) is non-increasing in R (domain monotonicity); a
    rise beyond the two bracket widths raises
    DiscretizationInconsistencyError. This is the only such check.
    Consumers stop the walk by break. Each ball after the first starts its
    eigen-solve from the previous ball's eigenvector carried onto it
    (``Grid.carry``), its new points filled with that vector's minimum. The
    walk keeps only that grid and vector, never an op, so an op the consumer
    drops before it asks for the next ball is freed before the next one is
    built: op caches its stencil walk, FFT plan and kernel mass. A ball the
    caller already certified the same way, ``known`` = (R, op, lambda_p),
    is yielded at R without a second solve, and its eigenvector seeds the next.
    """
    radii = sorted(float(R) for R in radii)
    if not radii:
        raise ConfigError("the R schedule is empty")
    for R in radii:
        if abs(R / spacing - round(R / spacing)) > 1e-9:
            raise ConfigError(f"schedule radius {R} is not a multiple of h={spacing}")
    prev_R = prev = prev_grid = None
    for R in radii:
        if known is not None and R == known[0]:
            _, op, lam = known
        else:
            grid = build_grid(kernel.dimension, R, spacing, "ball-truncated", max_cells_per_axis)
            start = None
            if prev is not None:
                start = grid.carry(prev_grid, prev.eigenvector, np.min(prev.eigenvector))
            op = build_operator(grid, kernel, growth)
            lam = principal_eigenvalue(op, tol=spectral_tol, maxiter=maxiter, start=start)
        if prev is not None and lam.value > prev.value + prev.width + lam.width + 1e-13:
            raise DiscretizationInconsistencyError(
                f"lambda_p increased from {prev.value} (R={prev_R}) to {lam.value} (R={R})"
            )
        yield R, op, lam
        prev_R, prev, prev_grid = R, lam, op.grid
        del op


@dataclass
class ExtrapolationResult:
    radii: list[float]
    estimates: list[SpectralEstimate]
    final_value: float
    uncertainty: float
    converged: bool

    @property
    def values(self) -> list[float]:
        return [e.value for e in self.estimates]


def lambda_p_extrapolate_R(
    kernel,
    growth,
    radii,
    spacing: float,
    tol: float = 1e-8,
    spectral_tol: float = 1e-10,
    max_cells_per_axis: int = DEFAULT_MAX_CELLS_PER_AXIS,
    known=None,
    maxiter: int = DEFAULT_MAXITER,
) -> ExtrapolationResult:
    """Whole-space lambda_p read as the limit of lambda_p(L_R + a) on radius_walk.

    The uncertainty of a step is |decrease| plus both bracket widths, inf
    after one ball. The walk stops at the first step whose uncertainty is at
    most tol and whose rise of lambda_p, if any, is at most the two bracket
    widths (converged): the brackets then still overlap, the rise
    radius_walk allows. ``known`` and maxiter are passed to radius_walk.
    """
    estimates = []
    used = []
    converged = False
    uncertainty = math.inf
    for R, op, est in radius_walk(kernel, growth, radii, spacing, spectral_tol,
                                  max_cells_per_axis, known, maxiter):
        del op  # only lambda_p is kept; free the operator before the next ball
        estimates.append(est)
        used.append(R)
        if len(estimates) >= 2:
            prev = estimates[-2]
            decrease = prev.value - est.value
            uncertainty = abs(decrease) + prev.width + est.width
            if -decrease <= prev.width + est.width and uncertainty <= tol:
                converged = True
                break
    return ExtrapolationResult(
        radii=used,
        estimates=estimates,
        final_value=estimates[-1].value,
        uncertainty=uncertainty,
        converged=converged,
    )
