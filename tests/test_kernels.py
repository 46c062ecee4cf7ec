import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nichewave import (
    InfiniteMomentError,
    InvalidKernelError,
    Kernel,
    kernel_moment,
    rescale_kernel,
    validate_kernel,
)


class TestValidation:
    def test_tent_passes_all(self):
        rep = validate_kernel(Kernel("tent"))
        assert rep.h1 and rep.h2_center_positive and rep.h5_finite_moment
        assert rep.compact_support
        assert abs(rep.mass - 1.0) < 1e-10

    def test_tabulated_zero_center_fails_h2(self):
        k = Kernel("tabulated", params={"r": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]})
        rep = validate_kernel(k)
        assert not rep.h2_center_positive
        assert any("H2" in m for m in rep.messages)

    def test_algebraic_tail_h5(self):
        # (1+|z|)^-(N+4) in 1-D: H5 moment is 2 * c * B(3,2) = 1/3 exactly
        k = Kernel("algebraic-tail", params={"power": 5.0})
        rep = validate_kernel(k)
        assert rep.h5_finite_moment and not rep.compact_support
        assert rep.h5_moment == pytest.approx(1.0 / 3.0, rel=1e-8)

    def test_h5_fails_for_slow_decay(self):
        # power = 2.5 integrates but the (N+1)-th moment diverges
        k = Kernel("algebraic-tail", params={"power": 2.5})
        rep = validate_kernel(k)
        assert not rep.h5_finite_moment

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(InvalidKernelError):
            Kernel("tabulated", params={"r": [0.0, 1.0], "values": [1.0, float("nan")]})

    def test_every_closed_form_family_valid(self):
        kernels = [
            Kernel("tent"),
            Kernel("truncated-quadratic"),
            Kernel("truncated-gaussian", params={"sigma": 0.4, "cutoff": 1.0}),
            Kernel("exponential-tail", params={"beta": 3.0}),
            Kernel("algebraic-tail", params={"power": 6.0}),
            Kernel("tent", dimension=2),
            Kernel("truncated-quadratic", dimension=2),
        ]
        for k in kernels:
            rep = validate_kernel(k)
            assert rep.all_passed, (k.family, k.dimension, rep.messages)


class TestMoments:
    def test_tent_second_moment(self):
        assert kernel_moment(Kernel("tent"), 2.0) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_unit_mass_is_zeroth_moment(self):
        for fam, params in [("tent", {}), ("exponential-tail", {"beta": 2.0})]:
            assert kernel_moment(Kernel(fam, params=params), 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_truncated_quadratic_second_moment(self):
        assert kernel_moment(Kernel("truncated-quadratic"), 2.0) == pytest.approx(0.2, abs=1e-12)

    def test_divergent_moment_raises(self):
        k = Kernel("algebraic-tail", params={"power": 5.0})
        with pytest.raises(InfiniteMomentError):
            kernel_moment(k, 4.0)  # needs power > 4 + 1


def budget_defect(kernel: Kernel) -> float:
    """|rate * D_m(J_eps) - alpha0 * D_m(J)|; zero in exact arithmetic."""
    unit = replace(kernel, epsilon=1.0)
    return abs(kernel.rate * kernel_moment(kernel, kernel.m) - kernel.alpha0 * kernel_moment(unit, kernel.m))


class TestRescaling:
    def test_rate_and_support(self, tent):
        sk = rescale_kernel(tent, 2.0, 2.0, 1.0)
        assert sk.rate == pytest.approx(0.25)
        assert sk.support_radius == pytest.approx(2.0)

    def test_identity_scale(self, tent):
        sk = rescale_kernel(tent, 1.0, 1.0, 1.0)
        z = np.linspace(-1, 1, 41)
        assert np.allclose(sk.profile(abs(z)), tent.profile(abs(z)))
        assert sk.rate == 1.0

    def test_rescaled_moment_by_quadrature(self, tent):
        sk = rescale_kernel(tent, 0.5, 1.0, 1.0)
        assert kernel_moment(sk, 2.0) == pytest.approx(1.0 / 24.0, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        eps=st.floats(0.1, 8.0),
        m=st.floats(0.0, 2.0),
        p=st.sampled_from([0.0, 1.0, 2.0]),
    )
    def test_scaling_identities(self, eps, m, p):
        base = Kernel("tent")
        sk = rescale_kernel(base, eps, m, 1.0)
        # mass preserved
        assert kernel_moment(sk, 0.0) == pytest.approx(1.0, abs=1e-10)
        # moment change of variables
        assert kernel_moment(sk, p) == pytest.approx(eps**p * kernel_moment(base, p), rel=1e-8)
        # budget identity: rate * D_m(J_eps) = alpha0 * D_m(J), eps-free
        assert budget_defect(sk) <= 1e-8 * max(1.0, kernel_moment(base, m))

    def test_preconditions(self, tent):
        with pytest.raises(ValueError):
            rescale_kernel(tent, -1.0, 0.0)
        with pytest.raises(ValueError):
            rescale_kernel(tent, 1.0, 3.0)
        # the family and table checks come before the scale checks
        with pytest.raises(ValueError, match="unknown kernel family"):
            Kernel("nope", epsilon=-1.0)
        with pytest.raises(InvalidKernelError):
            Kernel("tabulated", params={"r": [0.0, 1.0], "values": [1.0, math.nan]}, alpha0=-1.0)

    def test_rescaling_sets_the_scale(self, tent):
        # the defaults are J at rate 1, and a second rescale replaces the first
        assert (tent.epsilon, tent.m, tent.alpha0, tent.rate) == (1.0, 0.0, 1.0, 1.0)
        twice = rescale_kernel(rescale_kernel(tent, 0.5, 1.0, 3.0), 2.0, 2.0)
        assert twice == Kernel("tent", epsilon=2.0, m=2.0) == rescale_kernel(tent, 2.0, 2.0)
        assert twice.mass_beyond(1.0) == tent.mass_beyond(0.5)


TABLE = {"r": [0.0, 0.5, 1.25, 2.0], "values": [1.0, 0.7, 0.2, 0.05]}
OMEGA = {1: 2.0, 2: 2.0 * math.pi}


def quad_radial(profile, edges, s, lower=0.0):
    """Oracle: integral of profile(r) r^s over lower <= r <= edges[-1], piece by
    piece; a piece from 0 carries r^s as quad's algebraic weight."""
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        a = max(a, lower)
        if b <= a:
            continue
        if a == 0.0:
            val, _ = quad(profile, a, b, weight="alg", wvar=(s, 0.0), epsabs=0.0, epsrel=2e-14)
        else:
            val, _ = quad(lambda r: profile(r) * r**s, a, b, epsabs=0.0, epsrel=2e-14)
        total += val
    return total


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("family,params", [("tent", {}), ("truncated-quadratic", {}),
                                           ("tabulated", TABLE)])
class TestExactMoments:
    """Closed-form moments of the piecewise-polynomial families against quad."""

    def test_moments_match_quadrature(self, family, params, dimension):
        k = Kernel(family, dimension=dimension, params=params)
        edges = params.get("r", [0.0, 1.0])
        for p in (0.0, 0.5, 1.5, 2.0, dimension + 1.0):
            oracle = OMEGA[dimension] * quad_radial(k.profile, edges, p + dimension - 1)
            assert kernel_moment(k, p) == pytest.approx(oracle, rel=1e-13, abs=0.0), p

    def test_scaled_moment_and_budget(self, family, params, dimension):
        base = Kernel(family, dimension=dimension, params=params)
        sk = rescale_kernel(base, 0.3, 0.5, 2.0)
        edges = [0.3 * r for r in params.get("r", [0.0, 1.0])]
        for p in (0.5, 2.0):
            oracle = OMEGA[dimension] * quad_radial(sk.profile, edges, p + dimension - 1)
            assert kernel_moment(sk, p) == pytest.approx(oracle, rel=1e-13, abs=0.0), p
        assert budget_defect(sk) <= 1e-13 * sk.alpha0 * kernel_moment(base, 0.5)

    def test_mass_beyond_inside_support(self, family, params, dimension):
        k = Kernel(family, dimension=dimension, params=params)
        edges = params.get("r", [0.0, 1.0])
        for radius in (0.3, 0.8):
            oracle = OMEGA[dimension] * quad_radial(k.profile, edges, dimension - 1, lower=radius)
            assert k.mass_beyond(radius) == pytest.approx(oracle, rel=1e-13, abs=0.0), radius
        assert k.mass_beyond(k.support_radius) == 0.0
