"""Reference checks of the discrete problem that the tests compare the package against."""

import math

import numpy as np

from nichewave import build_grid, build_operator, principal_eigenvalue, rescale_kernel

_RATIO_FLOOR = 1e-300  # verify_uniqueness skips entries at or below it


def weighted_symmetrize(A: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """W^{1/2} A W^{-1/2}; symmetric for even kernels."""
    s = np.sqrt(weights)
    return (A * s[:, None]) / s[None, :]


def dense_lambda_p_oracle(op) -> tuple[float, float]:
    """(-max eigenvalue, top spectral gap) from a dense symmetric solve."""
    S = weighted_symmetrize(op.matrix().toarray(), op.grid.weights)
    vals = np.linalg.eigvalsh(S)
    gap = float(vals[-1] - vals[-2]) if vals.size > 1 else math.inf
    return -float(vals[-1]), gap


def perron_window(op) -> tuple[float, float]:
    """Certified enclosure of lambda_p of the assembled operator.

    Gershgorin row sums give lambda_max <= max(a - rate (1 - k)); the
    coordinate Rayleigh quotient gives lambda_max >= max(a) - rate.
    """
    k = op.kernel_mass()
    lo = -float(np.max(op.a_values - op.rate * (1.0 - k)))
    hi = op.rate - float(np.max(op.a_values))
    return lo, hi


def verify_uniqueness(op, u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Energy-identity defect D = sum w v u [f(x,u)/u - f(x,v)/v], and max |u - v|.

    D vanishes when u = v and is strictly positive for v >= u, v != u by
    strict decrease of f(x,s)/s; entries at or below _RATIO_FLOOR are
    skipped to avoid 0/0.
    """
    mask = (u > _RATIO_FLOOR) & (v > _RATIO_FLOOR)
    fu = op.reaction(u)[mask] / u[mask]
    fv = op.reaction(v)[mask] / v[mask]
    defect = float(np.sum(op.grid.weights[mask] * v[mask] * u[mask] * (fu - fv)))
    return defect, float(np.max(np.abs(u - v)))


def scaling_invariance(kernel, growth, epsilon, radius, spacing) -> tuple[float, float]:
    """lambda_p(M_eps + a_eps) - lambda_p(M + a), a_eps(x) = a(x/eps), and the
    sum of the two bracket widths it should lie within.

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
    return est2.value - est1.value, est1.width + est2.width
