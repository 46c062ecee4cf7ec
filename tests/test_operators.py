import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbsv

from nichewave import (
    ConfigError,
    Kernel,
    MonotonicityViolationError,
    UnderResolvedKernelError,
    build_grid,
    bump_growth,
    constant_growth,
    rescale_kernel,
)
from nichewave import operators
from nichewave.operators import (
    DiscreteOperator,
    banded_solver,
    build_operator,
    fast_length,
    sample_taps,
)
from nichewave.spectral import _shift_constant, principal_eigenvalue, rayleigh_lambda_v
from oracles import weighted_symmetrize


class TestConvolution:
    def test_constant_exact_on_torus(self, torus_op):
        ones = np.ones(torus_op.size)
        for out in (torus_op.stencil_product(ones), torus_op.convolve(ones)):
            assert np.max(np.abs(out - 1.0)) < 1e-14

    def test_even_input_even_output(self, ball_op):
        x = ball_op.grid.points[:, 0]
        u = np.exp(-(x**2)) * (1 + x**2)
        out = ball_op.convolve(u)
        assert np.allclose(out, out[::-1], atol=1e-13)

    @pytest.mark.parametrize("topology", ["ball-truncated", "torus"])
    def test_direct_is_oracle_for_fast(self, tent, topology, rng):
        grid = build_grid(1, 4.0, 0.125, topology)
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(0.0))
        for _ in range(5):
            u = rng.random(grid.size)
            direct = op.stencil_product(u)
            fast = op.convolve(u)
            assert np.max(np.abs(direct - fast)) <= 1e-10 * max(1.0, np.max(np.abs(direct)))

    def test_2d_direct_vs_fast(self, tent, rng):
        k2 = Kernel("tent", dimension=2)
        grid = build_grid(2, 2.0, 0.25, "ball-truncated")
        op = build_operator(grid, rescale_kernel(k2, 1.0, 0.0))
        u = rng.random(grid.size)
        assert np.allclose(op.stencil_product(u), op.convolve(u), atol=1e-12)

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_grid_must_match_the_kernel_dimension(self, dimension):
        grid = build_grid(3 - dimension, 2.0, 0.25, "ball-truncated")
        kernel = Kernel("tent", dimension=dimension)
        for k in (kernel, rescale_kernel(kernel, 1.0, 0.0)):
            with pytest.raises(ConfigError, match=f"{dimension}-D kernel on a {3 - dimension}-D grid"):
                build_operator(grid, k, bump_growth(2.0, 1.0, -1.0))

    def test_under_resolved_kernel_rejected(self, tent):
        grid = build_grid(1, 4.0, 0.125, "ball-truncated")
        with pytest.raises(UnderResolvedKernelError):
            sample_taps(rescale_kernel(tent, 0.05, 0.0), grid)

    def test_compact_kernel_has_no_tail_mass(self, tent, monkeypatch):
        # support 1 is not a multiple of h = 0.3: the taps stop at 0.9, and no
        # quadrature runs; nor does it on a non-compact kernel, whose tail mass
        # only the fat-tail verdict computes
        def no_quad(*args, **kwargs):
            raise AssertionError("quad called")

        monkeypatch.setattr(scipy.integrate, "quad", no_quad)
        grid = build_grid(1, 3.0, 0.3, "ball-truncated")
        _, reach = sample_taps(rescale_kernel(tent, 1.0, 0.0), grid)
        assert reach == 3
        _, reach = sample_taps(Kernel("exponential-tail", params={"beta": 1.0}), grid)
        assert reach == grid.cells_per_axis - 1

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_convolution_order_preserving(self, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(1, 3.0, 0.125, "ball-truncated")
        op = build_operator(grid, rescale_kernel(Kernel("tent"), 1.0, 0.0))
        u = rng.random(grid.size)
        v = u + rng.random(grid.size)
        assert np.all(op.convolve(v) - op.convolve(u) >= -1e-14)


class TestApply:
    def test_constant_in_kernel_of_torus_operator(self, torus_op):
        dispersal = build_operator(torus_op.grid, torus_op.kernel)
        u = np.full(dispersal.size, 3.7)
        out = dispersal.apply(u)
        assert np.max(np.abs(out)) < 1e-12

    def test_boundary_mass_deficit(self, ball_op):
        dispersal = build_operator(ball_op.grid, ball_op.kernel)
        ones = np.ones(dispersal.size)
        out = dispersal.apply(ones)
        assert np.all(out <= 1e-14)
        assert out[0] < -1e-3 and out[-1] < -1e-3  # strict deficit near the edge

    def test_growthless_ball_is_pure_dispersal(self, tent, rng):
        # a = 0 is an operator like any other: zeros in a_values, and a
        # certified lambda_p with sup_a = 0
        op = build_operator(build_grid(1, 4.0, 0.125, "ball-truncated"),
                            rescale_kernel(tent, 1.0, 0.0, 2.0))
        u = rng.random(op.size)
        assert np.array_equal(op.a_values, np.zeros(op.size))
        assert np.array_equal(op.apply(u), op.rate * (op.convolve(u) - u))
        est = principal_eigenvalue(op)
        assert est.sup_a == 0.0
        assert isinstance(est.eigenfunction_certified, bool)

    def test_matrix_is_oracle_for_matrix_free(self, tent):
        growth = bump_growth(1.0, 1.0, -1.0)
        grid = build_grid(1, 4.0, 0.125, "ball-truncated")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), growth)
        u = (np.abs(grid.points[:, 0]) < 1.0).astype(float)
        assert np.allclose(op.matrix() @ u, op.apply(u), atol=1e-12)

    def test_mass_deficit_sign_everywhere(self, ball_op):
        assert np.all(ball_op.kernel_mass() <= 1.0 + 1e-12)


class TestAssembly:
    def test_torus_row_sums_vanish_without_growth(self, tent):
        grid = build_grid(1, 1.5, 0.5, "torus")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), constant_growth(0.0))
        A = op.matrix()
        assert np.allclose(A.sum(axis=1), 0.0, atol=1e-14)

    def test_weighted_symmetrization(self, ball_op):
        A = ball_op.matrix().toarray()
        S = weighted_symmetrize(A, ball_op.grid.weights)
        assert np.max(np.abs(S - S.T)) < 1e-12

    def test_offdiagonal_nonnegative(self, ball_op):
        A = ball_op.matrix().toarray()
        np.fill_diagonal(A, 0.0)
        assert np.all(A >= 0.0)

    def test_kernel_part_weighted_symmetry(self, ball_op):
        C = ball_op.conv_matrix().toarray()
        w = ball_op.grid.weights
        assert np.max(np.abs(C / w[None, :] - (C / w[None, :]).T)) < 1e-12

    def test_permutation_invariant_spectrum(self, tent, rng):
        growth = bump_growth(1.5, 1.0, -0.5)
        grid = build_grid(1, 3.0, 0.25, "ball-truncated")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0), growth)
        A = op.matrix().toarray()
        perm = rng.permutation(grid.size)
        Ap = A[np.ix_(perm, perm)]
        assert np.allclose(np.linalg.eigvalsh(A), np.linalg.eigvalsh(Ap), atol=1e-10)


def _dense_reference(op):
    """C[i, j] straight from op.taps; wrapped offsets are summed in ascending order."""
    grid, q, N = op.grid, op.reach, op.grid.dimension
    where = {tuple(ix): j for j, ix in enumerate(grid.box_index)}
    C = np.zeros((grid.size, grid.size))
    for i, ix in enumerate(grid.box_index):
        for d in itertools.product(range(-q, q + 1), repeat=N):
            target = np.add(ix, d)
            if grid.topology == "torus":
                target = target % grid.cells_per_axis
            j = where.get(tuple(target))
            if j is not None:
                C[i, j] += op.taps[tuple(np.add(d, q))]
    return C * grid.spacing**N


# (dimension, R, h, topology, eps); the last two cases have 2q+1 > cells per axis
ASSEMBLY_CASES = [
    (1, 2.0, 0.125, "ball-truncated", 0.6),
    (2, 1.5, 0.25, "ball-truncated", 0.8),
    (1, 2.0, 0.125, "torus", 0.6),
    (2, 1.5, 0.25, "torus", 0.6),
    (1, 0.5, 0.125, "torus", 1.0),
    (2, 1.0, 0.25, "torus", 1.0),
]


def _assembly_op(dimension, radius, spacing, topology, eps):
    grid = build_grid(dimension, radius, spacing, topology)
    kernel = rescale_kernel(Kernel("tent", dimension=dimension), eps, 0.0)
    return build_operator(grid, kernel, bump_growth(1.5, 1.0, -0.5))


class TestSparseAssembly:
    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_conv_matrix_equals_dense_reference(self, case):
        op = _assembly_op(*case)
        C = op.conv_matrix()
        assert C.has_sorted_indices
        assert np.max(np.abs(C.toarray() - _dense_reference(op))) == 0.0

    @pytest.mark.parametrize("case", ASSEMBLY_CASES)
    def test_matrix_equals_dense_formula(self, case):
        op = _assembly_op(*case)
        C = _dense_reference(op)
        shift = 2.5
        dense = op.rate * (C - np.eye(op.size))
        dense[np.diag_indices(op.size)] += op.a_values
        dense[np.diag_indices(op.size)] += shift
        assert np.max(np.abs(op.matrix(shift=shift).toarray() - dense)) == 0.0

    @pytest.mark.parametrize("case", [c for c in ASSEMBLY_CASES if c[3] == "ball-truncated"])
    def test_nnz_is_in_ball_stencil_count(self, case):
        op = _assembly_op(*case)
        q, N = op.reach, op.grid.dimension
        stencil = [d for d in itertools.product(range(-q, q + 1), repeat=N)
                   if op.taps[tuple(np.add(d, q))] != 0.0 or not any(d)]
        on_grid = {tuple(ix) for ix in op.grid.box_index}
        expected = sum(tuple(np.add(ix, d)) in on_grid
                       for ix in op.grid.box_index for d in stencil)
        assert op.conv_matrix().nnz == expected
        assert op.matrix().nnz == expected


# (dimension, R, h, topology, kernel family)
CIRCULAR_CASES = [
    # torus with 2q+1 > cells per axis: taps wrap onto the same cell
    (1, 0.5, 0.125, "torus", "tent"),
    (2, 1.0, 0.25, "torus", "tent"),
    # infinite support caps the reach at n-1 = 7, so L = n + q = 15 exactly
    (1, 1.0, 0.125, "ball-truncated", "algebraic-tail"),
    (2, 1.0, 0.25, "ball-truncated", "algebraic-tail"),
    # three cells per axis
    (1, 0.75, 0.5, "ball-truncated", "tent"),
    (2, 0.75, 0.5, "ball-truncated", "tent"),
    (1, 0.75, 0.5, "torus", "tent"),
    (2, 0.75, 0.5, "torus", "tent"),
]


def _circular_op(dimension, radius, spacing, topology, family):
    grid = build_grid(dimension, radius, spacing, topology)
    params = {"power": 4.0} if family == "algebraic-tail" else {}
    kernel = rescale_kernel(Kernel(family, dimension=dimension, params=params), 1.0, 0.0)
    return build_operator(grid, kernel)


class TestCircularFFT:
    @pytest.mark.parametrize("case", CIRCULAR_CASES)
    def test_fft_matches_csr(self, case, rng):
        op = _circular_op(*case)
        for _ in range(3):
            u = rng.random(op.size)
            direct = op.conv_matrix() @ u
            assert np.max(np.abs(op.convolve(u) - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_box_length_is_scipys_fast_real_length(self):
        lengths = [fast_length(t) for t in range(1, 5001)]
        assert lengths == [scipy.fft.next_fast_len(t, real=True) for t in range(1, 5001)]

    @pytest.mark.parametrize("case", CIRCULAR_CASES[2:4])
    def test_capped_reach_spans_the_box(self, case):
        op = _circular_op(*case)
        assert op.reach == op.grid.cells_per_axis - 1

    def test_threads_share_one_operator(self, rng):
        # a fresh operator, so the cached transform is also built under contention;
        # a work box shared between calls makes this fail
        op = _circular_op(2, 4.0, 0.05, "ball-truncated", "tent")
        inputs = [rng.random(op.size) for _ in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(op.convolve, inputs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for u, out in zip(inputs, threaded):
            assert np.array_equal(out, op.convolve(u))


class TestIdentities:
    def test_symmetrization_identity_torus(self, tent, rng):
        # sum_x sum_z rho(z) [u(x+z) - u(x)] phi(x)
        #   = 1/2 sum_x sum_z rho(z) u(x) [phi(x+z) - 2 phi(x) + phi(x-z)]
        grid = build_grid(1, 4.0, 0.125, "torus")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0))
        u = rng.random(grid.size)
        phi = rng.random(grid.size)
        q = op.reach
        lhs = rhs = 0.0
        for d in range(-q, q + 1):
            rho = op.taps[d + q]
            lhs += rho * np.sum((np.roll(u, -d) - u) * phi)
            rhs += 0.5 * rho * np.sum(u * (np.roll(phi, -d) - 2 * phi + np.roll(phi, d)))
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))

    def test_energy_matches_double_sum(self, tent, rng):
        grid = build_grid(1, 2.0, 0.25, "ball-truncated")
        op = build_operator(grid, rescale_kernel(tent, 1.0, 0.0))
        u = rng.random(grid.size)
        w = grid.weights
        C = op.conv_matrix().toarray() / w[None, :]  # raw kernel values J(x_i - x_j)
        diff = u[:, None] - u[None, :]
        brute = 0.5 * np.sum(w[:, None] * w[None, :] * C * diff**2)
        assert op.energy(u) == pytest.approx(brute, rel=1e-12)


def _steep_ball_op():
    """1-D m = 2, eps = 0.05, h = 0.0025 ball: rate 400, reach 20."""
    grid = build_grid(1, 4.0, 0.0025, "ball-truncated")
    return build_operator(grid, rescale_kernel(Kernel("tent"), 0.05, 2.0), bump_growth(2.0, 1.0, -1.0))


STENCIL_OPS = ([(_assembly_op, case) for case in ASSEMBLY_CASES]
               + [(_circular_op, case) for case in CIRCULAR_CASES]
               + [(_steep_ball_op, ())])


class TestStencilProduct:
    @pytest.mark.parametrize("make, case", STENCIL_OPS,
                             ids=[str(case) if case else "steep-ball" for _, case in STENCIL_OPS])
    def test_bit_identical_to_assembled(self, make, case, rng):
        op = make(*case)
        c = _shift_constant(op)
        for _ in range(3):
            phi = rng.random(op.size) + 1e-3
            assert np.array_equal(op.stencil_product(phi, shift=c), op.matrix(shift=c) @ phi)
            assert np.array_equal(op.stencil_product(phi), op.conv_matrix() @ phi)

    @pytest.mark.parametrize("make", [
        _steep_ball_op,  # Noda steps on the band
        lambda: _assembly_op(2, 3.0, 0.25, "ball-truncated", 0.8),  # LOBPCG and power steps
        lambda: _assembly_op(1, 4.0, 0.125, "torus", 1.0),
    ], ids=["banded-1d-ball", "lobpcg-2d-ball", "torus"])
    def test_no_assembly_on_the_certified_path(self, make, monkeypatch):
        op = make()

        def assembled(*args, **kwargs):
            raise AssertionError("a certified eigenvalue assembled a matrix")

        monkeypatch.setattr(DiscreteOperator, "matrix", assembled)
        monkeypatch.setattr(DiscreteOperator, "conv_matrix", assembled)
        for certify in (principal_eigenvalue, rayleigh_lambda_v):
            est = certify(op, tol=1e-8)
            assert est.met_tol and est.lower <= est.value <= est.upper

    def test_threads_share_one_operator(self, rng):
        # a fresh operator, so the cached walk is also built under contention
        op = _circular_op(2, 2.0, 0.1, "ball-truncated", "tent")
        inputs = [rng.random(op.size) for _ in range(32)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda u: op.stencil_product(u, shift=1.0), inputs,
                                         timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for u, out in zip(inputs, threaded):
            assert np.array_equal(out, op.stencil_product(u, shift=1.0))

    def test_certified_eigenvalue_memory_is_linear(self):
        # assembling the CSR matrix of this ball (n = 2828, 41 x 41 taps) peaks near 90 MB
        grid = build_grid(2, 3.0, 0.1, "ball-truncated")
        op = build_operator(grid, rescale_kernel(Kernel("tent", dimension=2), 2.0, 0.0),
                            bump_growth(2.0, 1.0, -1.0))
        tracemalloc.start()
        try:
            est = principal_eigenvalue(op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.met_tol
        assert peak < 16e6


class TestBandedSolver:
    @staticmethod
    def _stencil(q, rng):
        stencil = -rng.random(2 * q + 1)
        stencil[q] = 2.0 * q + 1.0
        return stencil

    @staticmethod
    def _scipy_solve(stencil, u, rhs):
        """The band solve as scipy's LAPACK gbsv runs it, on a fresh band."""
        q, n = (len(stencil) - 1) // 2, len(u)
        band = np.zeros((3 * q + 1, n), order="F")
        band[q:] = stencil[::-1, None]
        band[2 * q] = stencil[q] - u
        _, _, x, info = dgbsv(q, q, band, rhs)
        assert info == 0
        return x

    @pytest.mark.parametrize("q", [1, 2, 20])
    def test_matches_solve_banded_on_every_call(self, q, rng):
        # the solver refills its one LAPACK array, which gbsv overwrites, on each call;
        # the reference is scipy's gbsv at every q, the routine solve_banded runs for q >= 2
        n = 200
        stencil = self._stencil(q, rng)
        solve = banded_solver(stencil, lambda u: u, n)
        for _ in range(3):
            u, rhs = rng.random(n), rng.random(n)
            assert np.array_equal(solve(u, rhs), self._scipy_solve(stencil, u, rhs))

    @pytest.mark.parametrize("columns", [None, 2], ids=["vector", "two-columns"])
    @pytest.mark.parametrize("q", [1, 5, 20])
    def test_bit_identical_to_scipy(self, q, columns, rng):
        # numpy's OpenBLAS (or the scipy fallback) runs the same LAPACK routine
        n = 300
        stencil = self._stencil(q, rng)
        solve = banded_solver(stencil, lambda u: u, n)
        for _ in range(2):
            u = rng.random(n)
            rhs = rng.standard_normal(n if columns is None else (n, columns))
            x = solve(u, rhs)
            assert x.shape == rhs.shape
            assert np.array_equal(x, self._scipy_solve(stencil, u, rhs))

    @pytest.mark.parametrize("stencil", [[-1.0, 1.0, -1.0], [-1.0, -1.0, 2.0, -1.0, -1.0]],
                             ids=["q1", "q2"])
    def test_singular_band_raises(self, stencil):
        # rows summing to zero: a positive diagonal, but exactly singular
        stencil = np.array(stencil)
        n = len(stencil) // 2 + 1
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            banded_solver(stencil, lambda u: u, n)(np.zeros(n), np.ones(n))

    def test_scipy_fallback_gives_the_same_solves(self, monkeypatch, rng):
        # a numpy without its own OpenBLAS (MKL, Accelerate) loads scipy's LAPACK instead
        n = 120
        u = rng.random(n)
        problems = [(self._stencil(1, rng), rng.standard_normal((n, 2))),
                    (self._stencil(4, rng), rng.standard_normal(n))]
        native = [banded_solver(stencil, lambda v: v, n)(u, rhs) for stencil, rhs in problems]
        monkeypatch.setattr(operators, "_GBSV", operators._scipy_gbsv)
        for (stencil, rhs), x in zip(problems, native):
            assert np.array_equal(banded_solver(stencil, lambda v: v, n)(u, rhs), x)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            banded_solver(np.array([-1.0, 1.0, -1.0]), lambda v: v, 2)(np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("q", [1, 3])
    def test_rejects_what_is_not_an_m_matrix_or_not_finite(self, q):
        stencil = np.full(2 * q + 1, -0.1)
        stencil[q] = 1.0
        solve = banded_solver(stencil, lambda u: u, 10)
        with pytest.raises(MonotonicityViolationError):
            solve(np.full(10, 2.0), np.ones(10))
        for u, rhs in [(np.full(10, np.nan), np.ones(10)), (np.zeros(10), np.full(10, np.inf))]:
            with pytest.raises(ValueError, match="not finite"):
                solve(u, rhs)
        with pytest.raises(ValueError):  # a right-hand side of the wrong length never reaches LAPACK
            solve(np.zeros(10), np.ones(9))
