"""Discrete nonlocal dispersal operators rate * (J_eps * u - u) + a(x) u.

Every operator carries a(x) = d_s f(x, 0) as the array ``a_values`` on its
grid; pure dispersal is the case a = 0, not a separate form. Grid points
live on an integer lattice, kernel taps are sampled at integer offsets and
renormalized to exact unit discrete mass, and both application paths
evaluate the identical sum

    out_i = sum_j w_j J_eps(x_i - x_j) u_j

restricted to the ball (hostile exterior: this *is* the truncated operator)
or wrapped around the torus (validation device).

The stencil path (``stencil_product``) adds one shifted copy of u per
nonzero tap, scaled by that tap, in lexicographic offset order; no matrix
is stored, so memory is O(n + (2q+1)^N). Its summands are nonnegative taps
times the input, which lets Collatz-Wielandt quotients keep per-entry
relative accuracy on steep eigenvector tails, so every certified bracket
uses it. The other path (``convolve``) is one circular FFT convolution,
by numpy's pocketfft, on a box of L cells per axis: L = n on the torus, and
on the ball the smallest 5-smooth length (2^a 3^b 5^c) >= n + q, where
every wrapped tap lands off the grid. It has absolute error
~1e-16 ||u||, is faster at large reach, and serves the rhs, time stepping,
the Newton CG solves and the ARPACK eigenvector. The assembled CSR forms
(``conv_matrix``, ``matrix``) add the same summands in the same order; they
are oracles for tests and the dense eigenvalue check, not part of any
solve. This module imports ``scipy.sparse`` only inside them: the test
oracles and the off-band solves (ARPACK, CG) are all that load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgbsv

from .errors import ConfigError, MonotonicityViolationError, UnderResolvedKernelError
from .grids import Grid
from .growth import GrowthProfile
from .kernels import Kernel


# Widest 1-D kernel reach q on which the M-matrix solves (Newton steps and
# Noda eigen steps) use the banded LU instead of CG or ARPACK. Both cost O(n)
# per step at fixed q, so q alone decides. Set by the Newton crossover,
# measured on 2 cores (OpenBLAS, 2 threads), whole solve_stationary_ball,
# median of 9, banded vs CG in ms, tent kernel, bump growth, R = 4 + eps,
# h = eps / q:
#                   q = 20      30         40         50
#   m=2 eps=0.4      4 vs 23   10 vs 26   17 vs 27   27 vs 32
#   m=2 eps=0.1     13 vs 111  28 vs 140  58 vs 146  70 vs 173
#   m=0 eps=0.2     14 vs 30   24 vs 30   34 vs 33   52 vs 42
# CG needs fewer matvecs at low rate, so q = 40 is where the worst case ties.
# At q = 40 the Noda eigen steps beat ARPACK + CSR steps in all three rows
# (lambda_p at tol 1e-10: 14 vs 32, 44 vs 212, 20 vs 30 ms).
BANDED_MAX_REACH = 40


def banded_solver(stencil: np.ndarray, slope, n: int):
    """solve(u, R) = A(u)^{-1} R with A(u) = T - diag(slope(u)), by banded LU.

    T is the n x n Toeplitz band of the constant (2q+1)-tap ``stencil``, cut
    off at both ends of the line (a Dirichlet or hostile exterior). Each call
    writes the band with the diagonal stencil[q] - slope(u) and solves it by
    LAPACK gtsv for q = 1 (through ``scipy.linalg.solve_banded``) and gbsv
    otherwise. gbsv factors in place in one Fortran-ordered (3q+1) x n array
    held by the solver: q rows of LU fill above the band, zeroed and refilled
    on every call. A nonpositive diagonal means A(u) is not an M-matrix and
    raises MonotonicityViolationError; a non-finite band or right-hand side
    raises ValueError. Partial-pivoted LU makes no per-entry accuracy claim
    on the result: callers check its sign where they need one, and every
    certified bound is computed from the stencil product.
    """
    q = (len(stencil) - 1) // 2
    fill = q if q > 1 else 0
    band = np.empty((fill + 2 * q + 1, n), order="F")

    def solve(u, rhs):
        diag = stencil[q] - slope(u)
        if np.min(diag) <= 0.0:
            raise MonotonicityViolationError(
                "-J(hi) has a nonpositive diagonal, so it is not an M-matrix; is f concave in s?")
        if not (np.all(np.isfinite(stencil)) and np.all(np.isfinite(diag))
                and np.all(np.isfinite(rhs))):
            raise ValueError("banded solve: the band or right-hand side is not finite")
        band[:fill] = 0.0
        band[fill:] = stencil[::-1, None]
        band[fill + q] = diag
        if q == 1:
            return solve_banded((1, 1), band, rhs, check_finite=False)
        _, _, x, info = dgbsv(q, q, band, rhs, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gbsv")
        return x

    return solve


def fast_length(target: int) -> int:
    """Smallest 2^a 3^b 5^c >= target, a length pocketfft transforms fast."""
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            length = odd
            while length < target:
                length *= 2
            best = min(best, length)
            odd *= 3
        odd5 *= 5
    return best


def sample_taps(kernel: Kernel, grid: Grid, window_radius: float | None = None):
    """Sample J_eps at integer grid offsets and renormalize.

    Returns (taps, tail_mass, reach) where taps has shape (2q+1,)*N with the
    zero offset at the center, tail_mass is the continuum mass of a
    non-compact kernel left outside the sampled window (0 for a compact
    kernel: only the fat-tail verdict reads it, and it refuses those), and
    reach = q (offsets per side).
    """
    h = grid.spacing
    support = kernel.support_radius
    if support < h:
        raise UnderResolvedKernelError(
            f"kernel support {support} is finer than grid spacing {h}"
        )
    max_reach = grid.cells_per_axis - 1  # farthest representable offset
    if math.isfinite(support):
        q = min(int(math.floor(support / h + 1e-12)), max_reach) if grid.topology == "ball-truncated" else int(math.floor(support / h + 1e-12))
    else:
        if grid.topology == "torus":
            raise UnderResolvedKernelError("infinite-support kernels are not supported on the torus")
        q = max_reach
        if window_radius is not None:
            q = min(q, int(math.floor(window_radius / h + 1e-12)))
    q = max(q, 1)

    offsets = np.arange(-q, q + 1) * h
    if grid.dimension == 1:
        raw = kernel.profile(np.abs(offsets))
    else:
        gx, gy = np.meshgrid(offsets, offsets, indexing="ij")
        raw = kernel.profile(np.sqrt(gx * gx + gy * gy))
    total = raw.sum() * h**grid.dimension
    if total <= 0:
        raise UnderResolvedKernelError("kernel vanishes on every sampled offset")
    taps = raw / total
    tail_mass = 0.0 if math.isfinite(support) else kernel.mass_beyond(q * h)
    return taps, float(tail_mass), q


@dataclass
class DiscreteOperator:
    """Matrix-free representation of rate*(J_eps * . - I) + a.

    ``a_values`` is a(x) on the grid, the operator's only carrier of it;
    ``growth`` is needed only for the nonlinear reaction f(x, u).
    """

    grid: Grid
    kernel: Kernel
    growth: Optional[GrowthProfile]
    a_values: np.ndarray
    taps: np.ndarray
    tail_mass: float
    reach: int
    _stencil_plan: Optional[tuple] = field(default=None, repr=False)
    _fft_plan: Optional[tuple] = field(default=None, repr=False)
    _kmass: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def rate(self) -> float:
        return self.kernel.rate

    @property
    def size(self) -> int:
        return self.grid.size

    @property
    def points_arg(self):
        pts = self.grid.points
        return pts[:, 0] if self.grid.dimension == 1 else pts

    # --- convolution paths --------------------------------------------------

    def convolve(self, u: np.ndarray) -> np.ndarray:
        """(J_eps * u) restricted to the grid by FFT; exterior contributes zero.

        Scatters u into a zeroed box of L cells per axis, convolves circularly
        with the taps folded onto that box by numpy's real FFT, and gathers
        the grid points back. On the torus L = n, so the wrap is the periodic
        sum. On the ball L = fast_length(n + q), the smallest 5-smooth length
        >= n + q: a tap that wraps lands at a box index >= n, off the grid, so
        the circular sum equals the truncated one. The same sum term by term
        is ``stencil_product(u)``. Flat index and tap spectrum are cached on
        first use; the box is allocated per call, so threads may share one
        operator.
        """
        if u.shape != (self.size,):
            raise ValueError(f"expected grid function of length {self.size}")
        if self._fft_plan is None:
            n = self.grid.cells_per_axis
            length = n if self.grid.topology == "torus" else fast_length(n + self.reach)
            shape = (length,) * self.grid.dimension
            flat = np.ravel_multi_index(tuple(self.grid.box_index.T), shape)
            self._fft_plan = (shape, flat, np.fft.rfftn(self._wrapped_taps(length)))
        shape, flat, spectrum = self._fft_plan
        box = np.zeros(shape)
        box.reshape(-1)[flat] = u
        axes = tuple(range(len(shape)))
        out = np.fft.irfftn(np.fft.rfftn(box) * spectrum, shape, axes).reshape(-1)[flat]
        out *= self.grid.spacing**self.grid.dimension
        return out

    def _wrapped_taps(self, length: Optional[int] = None) -> np.ndarray:
        """Taps folded onto a periodic box of ``length`` cells per axis (default n).

        kper[d mod length] sums every tap at offset d; offsets that wrap onto
        the same cell (2q+1 > length) are summed in ascending offset order.
        """
        length = self.grid.cells_per_axis if length is None else length
        wrap = np.arange(-self.reach, self.reach + 1) % length
        kper = np.zeros((length,) * self.grid.dimension)
        np.add.at(kper, np.ix_(*[wrap] * self.grid.dimension), self.taps)
        return kper

    # --- stencil sum and its assembled forms ------------------------------------

    def _stencil(self) -> tuple:
        """(deltas, values, centre, base, box_size, pad, clips), cached on first use.

        The nonzero taps, and always the centre tap, in lexicographic offset
        order: their flat offsets ``deltas`` in a box zero-padded by ``pad``
        cells per side, their matrix entries h^N * tap, and the index of the
        centre among them. ``base`` is each grid point's flat index in that
        box, rising with the point index. On the torus the wrapped taps are
        laid out over the signed offsets -(n-1)..n-1 per axis, so wrapping
        becomes the same walk with pad n - 1. ``clips`` holds per tap the
        range [start, stop) of output cells, counted from the first grid
        point, that the tap can reach from inside the unpadded box [0, n)^N,
        and the flat box index its source slice starts at; every other output
        cell would read padding. O(n + (2q+1)^N) memory.
        """
        if self._stencil_plan is None:
            grid, N = self.grid, self.grid.dimension
            n = grid.cells_per_axis
            if grid.topology == "torus":
                pad = n - 1
                signed = np.arange(-pad, pad + 1) % n
                taps = self._wrapped_taps()[np.ix_(*[signed] * N)]
            else:
                pad, taps = self.reach, self.taps
            keep = taps != 0.0
            keep[(pad,) * N] = True
            offsets = np.argwhere(keep) - pad
            side = n + 2 * pad
            strides = side ** np.arange(N - 1, -1, -1)
            centre = int(np.flatnonzero(~offsets.any(axis=1))[0])
            base = (grid.box_index + pad) @ strides
            deltas = offsets @ strides
            lo, span = base[0], base[-1] + 1 - base[0]
            starts = np.maximum((np.maximum(-offsets, 0) + pad) @ strides - lo, 0)
            stops = np.minimum((np.minimum(n - 1 - offsets, n - 1) + pad) @ strides - lo + 1, span)
            stops = np.maximum(stops, starts)
            clips = list(zip(starts.tolist(), stops.tolist(), (lo + deltas + starts).tolist()))
            self._stencil_plan = (deltas, taps[keep] * grid.spacing**N, centre, base, side**N,
                                  pad, clips)
        return self._stencil_plan

    def stencil_product(self, u: np.ndarray, shift: Optional[float] = None) -> np.ndarray:
        """C u, or (A + shift I) u = (rate (C - I) + diag(a) + shift I) u when shift is set.

        u is scattered into a fresh zero-padded box (threads may share one
        operator). Then, tap by tap in lexicographic offset order, the output
        adds coefficient * (u shifted by the tap's offset): h^N tap for C,
        rate (h^N tap) off the centre for A, and at the centre
        rate (h^N tap - 1) + a + shift times u. These are the summands of a
        CSR row of ``matrix(shift)`` in its column order, so the result is
        bit-identical to that product. The shifted copies are contiguous
        slices of the flat box, each clipped to the output cells its offset
        can reach from the grid's box: a skipped cell would only add zero
        padding, and a sum that starts at +0.0 is unchanged by adding a zero.
        Cells off the grid inside a slice are computed and dropped.
        """
        _, values, centre, base, box_size, _, clips = self._stencil()
        box = np.zeros(box_size)
        box[base] = u
        if shift is None:
            coeffs, diag = values, values[centre]
        else:
            coeffs = self.rate * values
            diag = self.rate * (values[centre] - 1.0) + self.a_values + shift
        rows = base - base[0]
        out = np.zeros(base[-1] + 1 - base[0])
        for k, (start, stop, src) in enumerate(clips):
            if k == centre:
                out[rows] += diag * u
            else:
                out[start:stop] += coeffs[k] * box[src:src + stop - start]
        return out[rows]

    def conv_matrix(self):
        """CSR matrix C with C[i,j] = h^N J_eps(x_i - x_j) (torus: wrapped).

        Assembled on every call from the stencil walk, O(n (2q+1)^N) memory;
        a test oracle, not used by any solve. The diagonal is always stored
        and column indices rise along each row.
        """
        import scipy.sparse

        deltas, values, _, base, _, pad, _ = self._stencil()
        cols = self.grid.box_lookup(pad=pad).ravel()[base[:, None] + deltas[None, :]]
        on_grid = cols >= 0
        indptr = np.concatenate(([0], np.cumsum(on_grid.sum(axis=1))))
        index_dtype = np.int32 if indptr[-1] < 2**31 else np.int64
        return scipy.sparse.csr_array(
            (np.broadcast_to(values, cols.shape)[on_grid], cols[on_grid].astype(index_dtype),
             indptr.astype(index_dtype)),
            shape=(self.size, self.size),
        )

    def matrix(self, shift: float = 0.0):
        """Assembled CSR A = rate (C - I) + diag(a) + shift I; a test oracle."""
        import scipy.sparse

        C = self.conv_matrix()
        diag = self.rate * (C.diagonal() - 1.0) + self.a_values
        A = scipy.sparse.csr_array((self.rate * C.data, C.indices, C.indptr), shape=C.shape)
        A.setdiag(diag + shift)
        return A

    def band_stencil(self) -> Optional[np.ndarray]:
        """Row stencil of rate (I - C) on a 1-D ball of reach <= BANDED_MAX_REACH,
        else None: the one rule for where the M-matrix solves go banded."""
        if self.grid.dimension != 1 or self.grid.topology != "ball-truncated" \
                or self.reach > BANDED_MAX_REACH:
            return None
        stencil = -self.rate * self.grid.spacing * self.taps
        stencil[self.reach] += self.rate
        return stencil

    # --- operator application ---------------------------------------------------

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u = rate (J_eps * u - u) + a(x) u by the FFT convolution: the
        operator ``matrix()`` assembles, with a = 0 for pure dispersal."""
        return self.rate * (self.convolve(u) - u) + self.a_values * u

    def reaction(self, u: np.ndarray) -> np.ndarray:
        return self.growth.f(self.points_arg, u, self.a_values)

    def reaction_slope(self, u: np.ndarray) -> np.ndarray:
        """d_s f(x, u), the diagonal of the stationary Jacobian's growth part."""
        return self.growth.dfds(self.points_arg, u, self.a_values)

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """Full stationary residual rate (J_eps * u - u) + f(x, u)."""
        return self.rate * (self.convolve(u) - u) + self.reaction(u)

    # --- certified ingredients ---------------------------------------------------

    def kernel_mass(self) -> np.ndarray:
        """k(x_i) = sum_j w_j J_eps(x_i - x_j) <= 1 (deficit near the boundary)."""
        if self._kmass is None:
            self._kmass = self.convolve(np.ones(self.size))
        return self._kmass

    def perron_window(self) -> tuple[float, float]:
        """Certified enclosure of lambda_p of the assembled operator.

        Gershgorin row sums give lambda_max <= max(a - rate (1 - k)); the
        coordinate Rayleigh quotient gives lambda_max >= max(a) - rate.
        """
        k = self.kernel_mass()
        lo = -float(np.max(self.a_values - self.rate * (1.0 - k)))
        hi = self.rate - float(np.max(self.a_values))
        return lo, hi

    def energy(self, u: np.ndarray) -> float:
        """(1/2) sum_ij w_i w_j J_eps(x_i - x_j) (u_i - u_j)^2."""
        k = self.kernel_mass()
        conv = self.convolve(u)
        w = self.grid.weights
        return float(np.sum(w * u * u * k) - np.sum(w * u * conv))


def build_operator(
    grid: Grid,
    kernel: Kernel,
    growth: GrowthProfile | None = None,
    a_values: np.ndarray | None = None,
    tap_window: float | None = None,
) -> DiscreteOperator:
    """Assemble the discrete operator of J_eps at the kernel's own rate
    alpha0/eps^m (a kernel at its default scale is J at rate 1). The grid
    must live in the kernel's dimension N (ConfigError otherwise).

    a(x) is stored as an array: the caller's ``a_values``, else ``growth.a``
    sampled on the grid, else zeros (pure dispersal). ``growth`` is needed
    only by ``reaction`` and ``reaction_slope``."""
    if grid.dimension != kernel.dimension:
        raise ConfigError(f"a {kernel.dimension}-D kernel on a {grid.dimension}-D grid")
    taps, tail_mass, reach = sample_taps(kernel, grid, window_radius=tap_window)
    if a_values is None:
        a_values = np.zeros(grid.size) if growth is None else grid.sample(growth.a)
    return DiscreteOperator(
        grid=grid,
        kernel=kernel,
        growth=growth,
        a_values=np.asarray(a_values, dtype=float),
        taps=taps,
        tail_mass=tail_mass,
        reach=reach,
    )


def weighted_symmetrize(A: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """W^{1/2} A W^{-1/2}; symmetric for even kernels."""
    s = np.sqrt(weights)
    return (A * s[:, None]) / s[None, :]
