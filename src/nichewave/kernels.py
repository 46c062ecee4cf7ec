"""Dispersal kernels, hypothesis validation, and budget rescaling.

A kernel J is a radially symmetric probability density on R^N. The
dispersal-budget rescaling replaces J by the pair (J_eps, rate) with
J_eps(z) = eps^{-N} J(z/eps) and rate = alpha0/eps^m, which keeps the
budget integral rate * D_m(J_eps) independent of eps. One ``Kernel``
carries the whole pair: its family and params define J, and its epsilon,
m and alpha0 (default 1, 0, 1: J itself at rate 1) set the scale. Every
value it reports, profile, support, tail mass and moments, is J_eps's.

Radial integrals (moments, tail mass) are exact for the piecewise-polynomial
families, tent, truncated-quadratic and tabulated: on each piece the profile
is a polynomial in r, and every term c r^(k+s) integrates in closed form for
any real s >= 0. Only truncated-gaussian, exponential-tail and algebraic-tail
use adaptive quadrature, and ``scipy.integrate`` is imported inside those
branches, so a run on a compact polynomial kernel never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfiniteMomentError, InvalidKernelError

FAMILIES = (
    "tent",
    "truncated-quadratic",
    "truncated-gaussian",
    "exponential-tail",
    "algebraic-tail",
    "tabulated",
)

# surface measure of the unit sphere: 2 points for N=1, circle for N=2
_SPHERE_MEASURE = {1: 2.0, 2: 2.0 * math.pi}


def _sphere_measure(dimension: int) -> float:
    try:
        return _SPHERE_MEASURE[dimension]
    except KeyError:
        raise ValueError(f"dimension must be 1 or 2, got {dimension}")


@dataclass(frozen=True)
class Kernel:
    """Radially symmetric dispersal kernel J_eps from a closed-form family J,
    at the budget rate alpha0/eps^m.

    ``params`` are family specific:

    - tent, truncated-quadratic: none
    - truncated-gaussian: sigma (width), cutoff (support radius)
    - exponential-tail: beta (decay rate)
    - algebraic-tail: power (decay exponent p in (1+|z|)^-p, p > N)
    - tabulated: r (radii from 0, increasing), values (profile samples)
    """

    family: str
    dimension: int = 1
    params: dict = field(default_factory=dict)
    epsilon: float = 1.0
    m: float = 0.0
    alpha0: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        _sphere_measure(self.dimension)
        if self.family == "algebraic-tail":
            p = float(self.params.get("power", 0.0))
            if p <= self.dimension:
                raise InvalidKernelError(
                    f"algebraic-tail power={p} not integrable in dimension {self.dimension}"
                )
        if self.family == "tabulated":
            r = np.asarray(self.params["r"], dtype=float)
            v = np.asarray(self.params["values"], dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r[0] != 0.0 or np.any(np.diff(r) <= 0):
                raise InvalidKernelError("tabulated kernel needs increasing radii starting at 0")
            if not np.all(np.isfinite(v)):
                raise InvalidKernelError("tabulated kernel has non-finite samples")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 <= self.m <= 2.0:
            raise ValueError("cost exponent m must lie in [0, 2]")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")

    @property
    def rate(self) -> float:
        return self.alpha0 / self.epsilon**self.m

    @property
    def support_radius(self) -> float:
        return self.epsilon * self._unit_support_radius

    @property
    def _unit_support_radius(self) -> float:
        """Support radius of J itself (eps = 1)."""
        if self.family in ("tent", "truncated-quadratic"):
            return 1.0
        if self.family == "truncated-gaussian":
            return float(self.params.get("cutoff", 1.0))
        if self.family == "tabulated":
            return float(np.asarray(self.params["r"], dtype=float)[-1])
        return math.inf

    @property
    def compactly_supported(self) -> bool:
        return math.isfinite(self.support_radius)

    @property
    def _normalization(self) -> float:
        N = self.dimension
        if self.family == "tent":
            return 1.0 if N == 1 else 3.0 / math.pi
        if self.family == "truncated-quadratic":
            return 0.75 if N == 1 else 2.0 / math.pi
        if self.family == "truncated-gaussian":
            sig = float(self.params.get("sigma", 0.5))
            rc = float(self.params.get("cutoff", 1.0))
            if N == 1:
                mass = sig * math.sqrt(2.0 * math.pi) * math.erf(rc / (sig * math.sqrt(2.0)))
            else:
                mass = 2.0 * math.pi * sig * sig * (1.0 - math.exp(-rc * rc / (2.0 * sig * sig)))
            return 1.0 / mass
        if self.family == "exponential-tail":
            beta = float(self.params.get("beta", 1.0))
            return beta / 2.0 if N == 1 else beta * beta / (2.0 * math.pi)
        if self.family == "algebraic-tail":
            p = float(self.params.get("power"))
            if N == 1:
                return (p - 1.0) / 2.0
            return (p - 1.0) * (p - 2.0) / (2.0 * math.pi)
        return 1.0  # tabulated: samples taken as given

    def profile(self, r):
        """J_eps at radius r (vectorized)."""
        r = np.asarray(r, dtype=float)
        return self._unit_profile(r / self.epsilon) / self.epsilon**self.dimension

    def _unit_profile(self, r):
        """J itself (eps = 1) at radius r."""
        c = self._normalization
        if self.family == "tent":
            out = c * np.maximum(0.0, 1.0 - r)
        elif self.family == "truncated-quadratic":
            out = c * np.maximum(0.0, 1.0 - r * r)
        elif self.family == "truncated-gaussian":
            sig = float(self.params.get("sigma", 0.5))
            rc = float(self.params.get("cutoff", 1.0))
            out = np.where(r <= rc, c * np.exp(-(r * r) / (2.0 * sig * sig)), 0.0)
        elif self.family == "exponential-tail":
            beta = float(self.params.get("beta", 1.0))
            out = c * np.exp(-beta * r)
        elif self.family == "algebraic-tail":
            p = float(self.params.get("power"))
            out = c * (1.0 + r) ** (-p)
        else:  # tabulated, linear interpolation, zero beyond the table
            rt = np.asarray(self.params["r"], dtype=float)
            vt = np.asarray(self.params["values"], dtype=float)
            out = np.interp(r, rt, vt, right=0.0)
        return out

    def _pieces(self):
        """(edges, coef) with J(r) = sum_k coef[i, k] r^k on [edges[i], edges[i+1]]
        and J = 0 past edges[-1]; None for a family that is not piecewise polynomial."""
        c = self._normalization
        if self.family == "tent":
            return np.array([0.0, 1.0]), c * np.array([[1.0, -1.0]])
        if self.family == "truncated-quadratic":
            return np.array([0.0, 1.0]), c * np.array([[1.0, 0.0, -1.0]])
        if self.family == "tabulated":
            r = np.asarray(self.params["r"], dtype=float)
            v = np.asarray(self.params["values"], dtype=float)
            slope = np.diff(v) / np.diff(r)
            return r, np.column_stack([v[:-1] - slope * r[:-1], slope])
        return None

    def moment_converges(self, p: float) -> bool:
        if self.compactly_supported or self.family == "exponential-tail":
            return True
        if self.family == "algebraic-tail":
            return float(self.params["power"]) > p + self.dimension
        return True

    def mass_beyond(self, radius: float) -> float:
        """Continuum mass of J_eps outside the ball of given radius, which is J's
        mass outside radius/eps: exact for the piecewise-polynomial families,
        by quadrature for the others."""
        radius = radius / self.epsilon
        upper = self._unit_support_radius
        if radius >= upper:
            return 0.0
        omega = _sphere_measure(self.dimension)
        N = self.dimension
        pieces = self._pieces()
        if pieces is not None:
            return omega * _radial_integral(pieces, N - 1, lower=radius)
        from scipy.integrate import quad

        val, _ = quad(lambda r: self._unit_profile(r) * r ** (N - 1), radius, upper, limit=200)
        return omega * val


def rescale_kernel(kernel: Kernel, epsilon: float, m: float, alpha0: float = 1.0) -> Kernel:
    """J at range factor epsilon and rate alpha0/epsilon^m under the dispersal
    budget with cost |z|^m. It sets the kernel's scale, replacing the one it
    had: scales do not compose."""
    return replace(kernel, epsilon=float(epsilon), m=float(m), alpha0=float(alpha0))


def _radial_integral(pieces, s: float, lower: float = 0.0) -> float:
    """Exact integral of J(r) r^s over r >= lower for J given by ``pieces``, s >= 0.

    Each term c r^(k+s) of a piece [a, b] (clipped to r >= lower) contributes
    c (b^(k+s+1) - a^(k+s+1)) / (k+s+1).
    """
    edges, coef = pieces
    a = np.maximum(edges[:-1], lower)[:, None]
    b = np.maximum(edges[1:], lower)[:, None]
    power = s + 1.0 + np.arange(coef.shape[1])
    return float(np.sum(coef * (b**power - a**power) / power))


def kernel_moment(kernel: Kernel, p: float, tol: float = 1e-9) -> float:
    """D_p(J_eps) = integral of J_eps(z)|z|^p over R^N = eps^p D_p(J), with
    D_p(J) = omega_N int_0^S J(r) r^(p+N-1) dr.

    |z| is the Euclidean norm and p any real >= 0. Exact for tent,
    truncated-quadratic and tabulated kernels (closed form per polynomial
    piece, ``tol`` unused). Truncated-gaussian, exponential-tail and
    algebraic-tail use adaptive quadrature, which must report an error below
    max(tol, tol |D_p(J)|) or InfiniteMomentError is raised. Raises
    InfiniteMomentError when the tail decay (known per family) cannot pay
    for |z|^p.
    """
    if p < 0:
        raise ValueError("moment order must be nonnegative")
    if not kernel.moment_converges(p):
        raise InfiniteMomentError(f"moment p={p} diverges for this kernel")
    N = kernel.dimension
    omega = _sphere_measure(N)
    pieces = kernel._pieces()
    if pieces is not None:
        return kernel.epsilon**p * (omega * _radial_integral(pieces, p + N - 1))
    from scipy.integrate import quad

    val, err = quad(
        lambda r: kernel._unit_profile(r) * r ** (p + N - 1),
        0.0,
        kernel._unit_support_radius,
        limit=400,
        epsabs=min(0.01 * tol, 1.49e-8),
        epsrel=1e-11,
    )
    val *= omega
    err *= omega
    if not math.isfinite(val) or err > max(tol, tol * abs(val)):
        raise InfiniteMomentError(f"moment quadrature failed: value={val}, err={err}")
    return kernel.epsilon**p * val


@dataclass
class ValidationReport:
    """Per-hypothesis verdicts for a kernel."""

    h1_nonnegative: bool
    h1_symmetric: bool
    h1_unit_mass: bool
    h2_center_positive: bool
    h5_finite_moment: bool
    compact_support: bool
    mass: float
    h5_moment: float | None
    messages: list[str]

    @property
    def h1(self) -> bool:
        return self.h1_nonnegative and self.h1_symmetric and self.h1_unit_mass

    @property
    def all_passed(self) -> bool:
        return self.h1 and self.h2_center_positive and self.h5_finite_moment


_VALIDATION_TOL = 1e-8  # slack on J >= 0 and on |mass - 1|, and the mass quadrature's tol


def validate_kernel(kernel: Kernel) -> ValidationReport:
    """Check hypotheses H1 (nonnegative, unit mass), H2 (J(0)>0) and H5
    (finite (N+1)-th absolute moment) on J_eps at the kernel's scale, to
    _VALIDATION_TOL (the H5 moment quadrature to 1e-7). H1's symmetry
    J(z) = J(-z) is reported true without a probe: a kernel is its radial
    profile at |z|, so it is even by construction."""
    messages = []
    N = kernel.dimension
    vals = kernel.profile(_probe_radii(kernel))
    if not np.all(np.isfinite(vals)):
        raise InvalidKernelError("kernel has non-finite values on its support")

    nonneg = bool(np.all(vals >= -_VALIDATION_TOL))
    if not nonneg:
        messages.append("H1: negative kernel values found")

    try:
        mass = kernel_moment(kernel, 0.0, tol=_VALIDATION_TOL)
    except InfiniteMomentError:
        mass = math.inf
    unit_mass = bool(abs(mass - 1.0) <= _VALIDATION_TOL)
    if not unit_mass:
        messages.append(f"H1: mass {mass} != 1")

    center = float(kernel.profile(0.0))
    h2 = center > 0.0
    if not h2:
        messages.append("H2: J(0) <= 0")

    h5_moment = None
    if kernel.moment_converges(N + 1):
        try:
            h5_moment = kernel_moment(kernel, N + 1, tol=1e-7)
            h5 = math.isfinite(h5_moment)
        except InfiniteMomentError:
            h5 = False
    else:
        h5 = False
    if not h5:
        messages.append("H5: (N+1)-th absolute moment diverges")

    return ValidationReport(
        h1_nonnegative=nonneg,
        h1_symmetric=True,  # J is radial by construction
        h1_unit_mass=unit_mass,
        h2_center_positive=h2,
        h5_finite_moment=h5,
        compact_support=kernel.compactly_supported,
        mass=float(mass),
        h5_moment=h5_moment,
        messages=messages,
    )


def _probe_radii(kernel) -> np.ndarray:
    if kernel.compactly_supported:
        return np.linspace(0.0, kernel.support_radius, 513)
    # unbounded support: probe out to where the profile is negligible
    r = 1.0
    while kernel.profile(r) > 1e-14 and r < 1e6:
        r *= 2.0
    return np.linspace(0.0, r, 513)
