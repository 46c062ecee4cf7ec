"""Dispersal kernels, hypothesis validation, and budget rescaling.

A kernel J is a radially symmetric probability density on R^N. The
dispersal-budget rescaling replaces J by the pair (J_eps, rate) with
J_eps(z) = eps^{-N} J(z/eps) and rate = alpha0/eps^m, which keeps the
budget integral rate * D_m(J_eps) independent of eps. One ``Kernel``
carries the whole pair: its family and params define J, and its epsilon,
m and alpha0 (default 1, 0, 1: J itself at rate 1) set the scale. Every
value it reports, profile, support, tail mass and moments, is J_eps's.

Radial integrals (moments, tail mass) are closed forms for every family, one
per family in ``Kernel._unit_radial_integral``: on each piece of tent,
truncated-quadratic and tabulated the profile is a polynomial in r, and every
term c r^(k+s) integrates exactly for any real s >= 0; truncated-gaussian is
an incomplete gamma function, exponential-tail a gamma function and
algebraic-tail a beta function (DLMF 8.2.1, 5.2.1, 5.12.3), with elementary
tails beyond a radius. No numerical integrator runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfiniteMomentError, InvalidKernelError

# family -> its parameters, every one required (r, values: a radial table)
FAMILY_PARAMS = {"tent": (), "truncated-quadratic": (), "truncated-gaussian": ("sigma", "cutoff"),
                 "exponential-tail": ("beta",), "algebraic-tail": ("power",),
                 "tabulated": ("r", "values")}
# the parameters that are widths, rates or powers, so must be > 0
POSITIVE_PARAMS = ("sigma", "cutoff", "beta", "power")


def resolve_params(what: str, family: str, params: dict, names, positive, error) -> dict:
    """``params`` with exactly ``names``, numbers as floats and the radial
    table r, values as tuples of floats, and each of its names in
    ``positive`` > 0; else ``error``, naming ``what``, with the unknown and
    missing names or the values it could not take."""
    if set(params) != set(names):
        unknown = sorted(set(params) - set(names))
        raise error(f"{what} family {family!r} takes params {list(names)}: unknown {unknown}, "
                    f"missing {[n for n in names if n not in params]}")
    try:
        out = {n: tuple(np.array(params[n], dtype=float, ndmin=1).tolist())
               if n in ("r", "values") else float(params[n]) for n in names}
    except (TypeError, ValueError) as exc:
        raise error(f"{what} family {family!r} params {params}: {exc}") from exc
    r = out.get("r", (0.0,))
    if not (np.all(np.isfinite(np.hstack([0.0, *out.values()]))) and r[:1] == (0.0,)
            and np.all(np.diff(r) > 0) and len(r) == len(out.get("values", r))):
        raise error(f"{what} family {family!r} params {params}: need finite numbers, and radii r "
                    "strictly increasing from 0 with one value each")
    nonpositive = [f"{n} = {out[n]!r}" for n in names if n in positive and not out[n] > 0.0]
    if nonpositive:
        raise error(f"{what} family {family!r} needs {', '.join(nonpositive)} > 0")
    return out


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

    ``params`` holds exactly the family's names in FAMILY_PARAMS, every one
    required: truncated-gaussian's sigma (width) and cutoff (support radius),
    exponential-tail's beta (decay rate), algebraic-tail's power (p in
    (1+|z|)^-p, p > N), tabulated's r (radii from 0, increasing) and values
    (profile samples). sigma, cutoff, beta and power must be > 0. They are
    stored as floats and tuples of floats.
    """

    family: str
    dimension: int = 1
    params: dict = field(default_factory=dict)
    epsilon: float = 1.0
    m: float = 0.0
    alpha0: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown kernel family {self.family!r}")
        _sphere_measure(self.dimension)
        object.__setattr__(self, "params", resolve_params(
            "kernel", self.family, self.params, FAMILY_PARAMS[self.family], POSITIVE_PARAMS,
            InvalidKernelError))
        if self.family == "algebraic-tail" and self.params["power"] <= self.dimension:
            raise InvalidKernelError(f"algebraic-tail power={self.params['power']} "
                                     f"not integrable in dimension {self.dimension}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 <= self.m <= 2.0:
            raise ValueError("cost exponent m must lie in [0, 2]")
        if not 0.0 < self.alpha0 < math.inf:
            raise ValueError("alpha0 must be positive and finite")

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
            return self.params["cutoff"]
        if self.family == "tabulated":
            return self.params["r"][-1]
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
            sig, rc = self.params["sigma"], self.params["cutoff"]
            if N == 1:
                mass = sig * math.sqrt(2.0 * math.pi) * math.erf(rc / (sig * math.sqrt(2.0)))
            else:
                mass = 2.0 * math.pi * sig * sig * (1.0 - math.exp(-rc * rc / (2.0 * sig * sig)))
            return 1.0 / mass
        if self.family == "exponential-tail":
            beta = self.params["beta"]
            return beta / 2.0 if N == 1 else beta * beta / (2.0 * math.pi)
        if self.family == "algebraic-tail":
            p = self.params["power"]
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
            sig, rc = self.params["sigma"], self.params["cutoff"]
            out = np.where(r <= rc, c * np.exp(-(r * r) / (2.0 * sig * sig)), 0.0)
        elif self.family == "exponential-tail":
            out = c * np.exp(-self.params["beta"] * r)
        elif self.family == "algebraic-tail":
            out = c * (1.0 + r) ** (-self.params["power"])
        else:  # tabulated, linear interpolation, zero beyond the table
            out = np.interp(r, self.params["r"], self.params["values"], right=0.0)
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
            r, v = np.array(self.params["r"]), np.array(self.params["values"])
            slope = np.diff(v) / np.diff(r)
            return r, np.column_stack([v[:-1] - slope * r[:-1], slope])
        return None

    def moment_converges(self, p: float) -> bool:
        if self.family == "algebraic-tail":
            return self.params["power"] > p + self.dimension
        return True

    def mass_beyond(self, radius: float) -> float:
        """Continuum mass of J_eps outside the ball of given radius, which is J's
        mass outside radius/eps, in closed form."""
        radius = radius / self.epsilon
        if radius >= self._unit_support_radius:
            return 0.0
        return _sphere_measure(self.dimension) * self._unit_radial_integral(self.dimension - 1, radius)

    def _unit_radial_integral(self, s: float, lower: float = 0.0) -> float:
        """Exact integral of J(r) r^s over r >= lower for J itself (eps = 1), s >= 0,
        lower below the support radius. Beyond a lower > 0, the unbounded
        families take s = 0 or 1 only: the tail mass in N = 1, 2."""
        pieces = self._pieces()
        if pieces is not None:
            return _radial_integral(pieces, s, lower)
        c, a = self._normalization, s + 1.0
        if self.family == "truncated-gaussian":  # r^2 = width t turns it into gamma(a/2, t)
            width, half = 2.0 * self.params["sigma"] ** 2, a / 2.0
            cut = _lower_gamma(half, self.params["cutoff"] ** 2 / width)
            return c * width**half / 2.0 * (cut - _lower_gamma(half, lower * lower / width))
        if lower == 0.0:
            if self.family == "exponential-tail":
                return c * math.gamma(a) / self.params["beta"] ** a
            P = self.params["power"]  # algebraic-tail: B(s+1, P-s-1) by DLMF 5.12.3
            return c * math.exp(math.lgamma(a) + math.lgamma(P - a) - math.lgamma(P))
        if s not in (0, 1):
            raise ValueError(f"no closed form for the {self.family} tail with r^{s}")
        if self.family == "exponential-tail":
            beta = self.params["beta"]
            return c * (1.0 + s * beta * lower) * math.exp(-beta * lower) / beta ** a
        P, t = self.params["power"], 1.0 + lower  # r^s = (t - 1)^s
        tail = t ** (1.0 - P) / (P - 1.0)
        return c * (t ** (2.0 - P) / (P - 2.0) - tail if s == 1 else tail)


def rescale_kernel(kernel: Kernel, epsilon: float, m: float, alpha0: float = 1.0) -> Kernel:
    """J at range factor epsilon and rate alpha0/epsilon^m under the dispersal
    budget with cost |z|^m. It sets the kernel's scale, replacing the one it
    had: scales do not compose."""
    return replace(kernel, epsilon=float(epsilon), m=float(m), alpha0=float(alpha0))


def _radial_integral(pieces, s: float, lower: float) -> float:
    """Exact integral of J(r) r^s over r >= lower for J given by ``pieces``, s >= 0.

    Each term c r^(k+s) of a piece [a, b] (clipped to r >= lower) contributes
    c (b^(k+s+1) - a^(k+s+1)) / (k+s+1).
    """
    edges, coef = pieces
    a = np.maximum(edges[:-1], lower)[:, None]
    b = np.maximum(edges[1:], lower)[:, None]
    power = s + 1.0 + np.arange(coef.shape[1])
    return float(np.sum(coef * (b**power - a**power) / power))


def kernel_moment(kernel: Kernel, p: float) -> float:
    """D_p(J_eps) = integral of J_eps(z)|z|^p over R^N = eps^p D_p(J), with
    D_p(J) = omega_N int_0^S J(r) r^(p+N-1) dr in closed form for every family.

    |z| is the Euclidean norm and p any real >= 0. Raises InfiniteMomentError
    when the tail decay (known per family) cannot pay for |z|^p.
    """
    if p < 0:
        raise ValueError("moment order must be nonnegative")
    if not kernel.moment_converges(p):
        raise InfiniteMomentError(f"moment p={p} diverges for this kernel")
    N = kernel.dimension
    return kernel.epsilon**p * (_sphere_measure(N) * kernel._unit_radial_integral(p + N - 1))


def _lower_gamma(a: float, x: float) -> float:
    """gamma(a, x) = int_0^x t^(a-1) e^-t dt for a > 0, x >= 0: the power series
    (DLMF 8.7.1) below x = a + 1, else Gamma(a) less Legendre's continued
    fraction for Gamma(a, x) (DLMF 8.9.2), evaluated by Lentz's method."""
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        return x**a * math.exp(-x) * total
    b = x + 1.0 - a
    c, d, h = math.inf, 1.0 / b, 1.0 / b
    for k in range(1, 1000):
        an = -k * (k - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= c * d
        if abs(c * d - 1.0) < 3e-16:
            break
    return math.gamma(a) - math.exp(a * math.log(x) - x) * h


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


_VALIDATION_TOL = 1e-8  # slack on J >= 0 and on |mass - 1|


def validate_kernel(kernel: Kernel) -> ValidationReport:
    """Check hypotheses H1 (nonnegative, unit mass), H2 (J(0)>0) and H5
    (finite (N+1)-th absolute moment) on J_eps at the kernel's scale, to
    _VALIDATION_TOL, from closed-form moments. H1's symmetry
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

    mass = kernel_moment(kernel, 0.0)
    unit_mass = bool(abs(mass - 1.0) <= _VALIDATION_TOL)
    if not unit_mass:
        messages.append(f"H1: mass {mass} != 1")

    center = float(kernel.profile(0.0))
    h2 = center > 0.0
    if not h2:
        messages.append("H2: J(0) <= 0")

    h5_moment = kernel_moment(kernel, N + 1) if kernel.moment_converges(N + 1) else None
    h5 = h5_moment is not None and math.isfinite(h5_moment)
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
