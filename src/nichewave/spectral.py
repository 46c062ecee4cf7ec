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
power steps stall near 1e-8. Elsewhere it comes from ARPACK (Lehoucq,
Sorensen & Yang, ARPACK Users' Guide, 1998) on the FFT operator (absolute
error ~1e-16 ||u||), and power steps phi <- B phi by the stencil product
polish its tail. The FFT product also decides whether the start vector is
kept without ARPACK; only the kept phi goes through the stencil product.
ARPACK is the one use of ``scipy.sparse`` here, imported on its first
call, so a banded 1-D solve never loads it.

Every estimate carries the narrowest bracket certified and met_tol (width
<= tol). A miss is recorded, never raised; a caller that needs the width
checks met_tol. ``_certified_iteration`` builds every SpectralEstimate, so
this is the one eigen-solver: the local FD reference lambda_1 of the m = 2
limit is lambda_p of the nonlocal operator at range h
(``experiments.local_kpp_solve_fd``), bracketed the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DiscretizationInconsistencyError, IrreducibilityError
from .grids import build_grid
from .kernels import rescale_kernel
from .operators import banded_solver, build_operator, weighted_symmetrize

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
    degenerate: bool = False

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
    otherwise from ARPACK and power steps phi <- B phi. Off the band the
    start vector is kept, without ARPACK, when the quotients of its FFT
    product B phi already lie within tol or when ARPACK fails. Every bracket
    comes from the stencil product B phi, B = A + cI, which adds the
    summands of a CSR row of B in its order; it runs once per iteration.
    estimator 'cw' brackets by the two Collatz-Wielandt quotients (lambda_p
    contract); 'rayleigh' uses the weighted Rayleigh quotient as the upper
    (variational) side of the lambda_v contract. It stops at width <= tol,
    after maxiter products, or when a step moves neither side of the bracket
    (the floating floor), and returns its best bracket.
    """
    _check_irreducible(op)
    c = _shift_constant(op)

    phi = start / np.max(start)
    stencil = op.band_stencil()
    degenerate = False
    if stencil is None:
        # the start vector's width by the FFT product; one that meets tol is
        # kept, since ARPACK is not bit-reproducible on an exact one (the flat
        # eigenvector of constant growth on the torus)
        q = _fft_product(op, c, phi) / phi
        if float(np.max(q)) - float(np.min(q)) > tol:
            vec, degenerate = _arpack_vector(op, c, phi)
            if vec is not None:
                phi = np.maximum(vec, _POSITIVE_FLOOR)
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
        met_tol=bool(best[1] - best[0] <= tol),
        sup_a=sup_a,
        eigenfunction_certified=bool(best[1] < op.rate - sup_a),
        degenerate=degenerate,
    )


def _fft_product(op, c, v):
    """B v = (A + cI) v, A = ``op.apply``, by the FFT convolution; absolute
    error ~1e-16 ||v||."""
    return op.apply(v) + c * v


def _arpack_vector(op, c, phi):
    """Perron vector of B = A + cI by ARPACK on the FFT matvec; flags tiny gaps.

    v0 = phi keeps reruns bit-identical. build_grid gives n >= 3, so k = 2 < n.
    """
    import scipy.sparse.linalg

    bop = scipy.sparse.linalg.LinearOperator(
        (op.size, op.size), matvec=lambda v: _fft_product(op, c, v), dtype=float
    )
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(bop, k=2, which="LA", v0=phi, tol=1e-12, maxiter=5000)
    except (scipy.sparse.linalg.ArpackError, np.linalg.LinAlgError):  # incl. ArpackNoConvergence
        return None, False
    order = np.argsort(vals)
    gap = float(vals[order[-1]] - vals[order[-2]])
    return np.abs(vecs[:, order[-1]]), bool(gap < DEGENERACY_GAP)


# step budget of every eigen-solve that does not name one
DEFAULT_MAXITER = 600


def principal_eigenvalue(op, tol: float = 1e-10, maxiter: int = DEFAULT_MAXITER) -> SpectralEstimate:
    """lambda_p(L_R + a) with a certified Collatz-Wielandt bracket.

    The bracket is valid whether or not it reached tol; met_tol says which.
    """
    return _certified_iteration(op, tol, maxiter, "cw", np.ones(op.size))


def rayleigh_lambda_v(op, tol: float = 1e-10, maxiter: int = DEFAULT_MAXITER) -> SpectralEstimate:
    """lambda_v by Rayleigh-quotient minimization on the symmetric operator.

    Shares the shifted iteration but certifies the upper side variationally;
    equality with lambda_p on the discrete operator is a theorem, asserted
    in tests, never assumed here.
    """
    start = np.ones(op.size)
    start[:: max(op.size // 7, 1)] += 0.5  # break symmetry differently from lambda_p
    return _certified_iteration(op, tol, maxiter, "rayleigh", start)


def dense_lambda_p_oracle(op) -> tuple[float, float]:
    """(-max eigenvalue, top spectral gap) from a dense symmetric solve."""
    S = weighted_symmetrize(op.matrix().toarray(), op.grid.weights)
    vals = np.linalg.eigvalsh(S)
    gap = float(vals[-1] - vals[-2]) if vals.size > 1 else math.inf
    return -float(vals[-1]), gap


def radius_walk(kernel, growth, radii, spacing: float, spectral_tol: float = 1e-10,
                max_cells_per_axis: int = 8192, known=None, maxiter: int = DEFAULT_MAXITER):
    """Yield (R, op, lambda_p) ball by ball along an increasing R schedule.

    The balls live in the kernel's dimension, and each lambda_p is
    principal_eigenvalue(op, tol=spectral_tol, maxiter=maxiter). The
    schedule must be non-empty and every radius a multiple of h
    (ConfigError otherwise), so the ball lattices nest exactly. On nested
    balls lambda_p(L_R + a) is non-increasing in R (domain monotonicity); a
    rise beyond the two bracket widths raises
    DiscretizationInconsistencyError. This is the only such check.
    Consumers stop the walk by break. A consumer should drop op before it
    asks for the next ball: op caches its stencil walk, FFT plan and kernel
    mass, which would otherwise stay alive while the next ball is certified.
    ``known`` = (R, op, lambda_p) is a ball the caller already built and
    certified the same way; the walk yields it at R instead of solving it again.
    """
    radii = sorted(float(R) for R in radii)
    if not radii:
        raise ConfigError("the R schedule is empty")
    for R in radii:
        if abs(R / spacing - round(R / spacing)) > 1e-9:
            raise ConfigError(f"schedule radius {R} is not a multiple of h={spacing}")
    prev_R = prev = None
    for R in radii:
        if known is not None and R == known[0]:
            _, op, lam = known
        else:
            op = build_operator(build_grid(kernel.dimension, R, spacing, "ball-truncated",
                                           max_cells_per_axis), kernel, growth)
            lam = principal_eigenvalue(op, tol=spectral_tol, maxiter=maxiter)
        if prev is not None and lam.value > prev.value + prev.width + lam.width + 1e-13:
            raise DiscretizationInconsistencyError(
                f"lambda_p increased from {prev.value} (R={prev_R}) to {lam.value} (R={R})"
            )
        yield R, op, lam
        prev_R, prev = R, lam


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
    max_cells_per_axis: int = 8192,
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


@dataclass
class ScalingCheck:
    """lambda_p(M_eps + a_eps) - lambda_p(M + a), and the sum of the two
    bracket widths it should lie within."""

    difference: float
    combined_width: float


def scaling_invariance_check(
    kernel,
    growth,
    epsilon: float,
    radius: float,
    spacing: float,
) -> ScalingCheck:
    """Compare lambda_p(M + a) with lambda_p(M_eps + a_eps), a_eps(x) = a(x/eps).

    Both sides are J at rate 1, whatever scale ``kernel`` carries. The scaled
    side is discretized on the mapped grid (radius eps R, spacing eps h),
    which is the exact discrete change of variables.
    """
    grid1 = build_grid(kernel.dimension, radius, spacing, "ball-truncated")
    op1 = build_operator(grid1, rescale_kernel(kernel, 1.0, 0.0, 1.0), growth)
    est1 = principal_eigenvalue(op1)

    grid2 = build_grid(kernel.dimension, epsilon * radius, epsilon * spacing, "ball-truncated")
    scaled = rescale_kernel(kernel, epsilon, 0.0, 1.0)  # rate stays 1
    a_scaled = grid2.sample(lambda x: growth.a(x / epsilon))
    op2 = build_operator(grid2, scaled, growth=None, a_values=a_scaled)
    est2 = principal_eigenvalue(op2)
    return ScalingCheck(difference=est2.value - est1.value, combined_width=est1.width + est2.width)
