"""Heterogeneous KPP growth profiles a(x) = d_s f(x, 0) with hostile exterior.

The default reaction is logistic, f(x, s) = s (a(x) - s), whose saturation
is S(x) = a^+(x). A general KPP triple (f, a, S) can be supplied instead.
A profile depends on |x| only; the space dimension N belongs to the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .kernels import resolve_params

FAMILY_PARAMS = {"bump": ("a0", "b", "a_min"), "plateau": ("a0", "r0", "width", "a_min"),
                 "constant": ("value",), "tabulated": ("r", "values")}
# the bump's curvature and the plateau's ramp width divide in a(r) and its level sets
POSITIVE_PARAMS = ("b", "width")


@dataclass(frozen=True)
class GrowthProfile:
    """a(|x|) of a family; ``params`` holds exactly the family's names in
    FAMILY_PARAMS, every one required. Bump and plateau need a_min < 0, and
    the bump's b and the plateau's width must be > 0."""

    family: str
    params: dict = field(default_factory=dict)
    # general KPP triple; None selects the logistic defaults built on a()
    f_fn: Callable | None = None
    dfds_fn: Callable | None = None
    saturation_fn: Callable | None = None

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ConfigError(f"unknown growth family {self.family!r}")
        object.__setattr__(self, "params", resolve_params(
            "growth", self.family, self.params, FAMILY_PARAMS[self.family], POSITIVE_PARAMS,
            ConfigError))
        if "a_min" in self.params and self.params["a_min"] >= 0:
            raise ConfigError(f"{self.family} growth needs a_min < 0 (hostile exterior)")

    # --- linearized growth rate ------------------------------------------

    def a_of_r(self, r):
        r = np.asarray(r, dtype=float)
        p = self.params
        if self.family == "bump":
            return np.maximum(p["a0"] - p["b"] * r * r, p["a_min"])
        if self.family == "plateau":
            a0, r0, w, a_min = p["a0"], p["r0"], p["width"], p["a_min"]
            ramp = a0 - (a0 - a_min) * (r - r0) / w
            return np.where(r <= r0, a0, np.where(r >= r0 + w, a_min, ramp))
        if self.family == "constant":
            return np.full_like(r, p["value"])
        return np.interp(r, p["r"], p["values"])

    def a(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim <= 1:
            r = np.abs(x)
        else:
            r = np.sqrt(np.sum(x * x, axis=-1))
        return self.a_of_r(r)

    # --- reaction ----------------------------------------------------------

    def f(self, x, s, a_values):
        """f(x, s) at the points x; the logistic default s (a - s) reads a(x)
        from ``a_values``, the operator's a(x) at those points."""
        if self.f_fn is not None:
            return self.f_fn(x, s)
        return s * (a_values - s)

    def dfds(self, x, s, a_values):
        """d_s f(x, s) at the points x; the logistic default a - 2 s reads
        a(x) from ``a_values``, the operator's a(x) at those points."""
        if self.dfds_fn is not None:
            return self.dfds_fn(x, s)
        return a_values - 2.0 * np.asarray(s, dtype=float)

    def saturation(self, x):
        """S(x) with f(x, S(x)) <= 0; logistic default a^+(x)."""
        if self.saturation_fn is not None:
            return self.saturation_fn(x)
        return np.maximum(self.a(x), 0.0)

    def lipschitz_f(self, s_max: float, points, a_values: np.ndarray) -> float:
        """sup |d_s f| over the grid and s in [0, s_max].

        Exact for the logistic default. A general KPP triple is sampled at
        s = 0, s_max / 2 and s_max, which is exact when f is concave in s:
        d_s f is then nonincreasing, so |d_s f| peaks at s = 0 or s = s_max.
        The stationary Newton solves assume the same concavity.
        """
        if self.dfds_fn is None:
            # logistic: |a - 2s| is maximal at an endpoint in s
            return float(max(np.max(np.abs(a_values)), np.max(np.abs(a_values - 2.0 * s_max))))
        samples = [np.max(np.abs(self.dfds_fn(points, s))) for s in (0.0, 0.5 * s_max, s_max)]
        return float(max(samples))

    # --- hostile-exterior geometry ------------------------------------------

    @property
    def sup_a(self) -> float:
        p = self.params
        if self.family in ("bump", "plateau"):
            return p["a0"]
        if self.family == "constant":
            return p["value"]
        return max(p["values"])

    @property
    def tail_value(self) -> float:
        """a(x) for |x| beyond the profile's core."""
        p = self.params
        if self.family in ("bump", "plateau"):
            return p["a_min"]
        if self.family == "constant":
            return p["value"]
        return p["values"][-1]

    @property
    def hostile(self) -> bool:
        return self.tail_value < 0

    @property
    def nu(self) -> float | None:
        """a(x) <= -nu outside ``core_radius``; None without hostile exterior."""
        return -self.tail_value if self.hostile else None

    def radius_where_a_below(self, level: float) -> float:
        """Smallest r with a(x) <= level for all |x| >= r (level > tail value)."""
        if not self.hostile or level < self.tail_value:
            raise ConfigError("growth profile has no hostile exterior at this level")
        p = self.params
        if self.family in ("bump", "plateau") and p["a0"] <= level:
            return 0.0
        if self.family == "bump":
            return math.sqrt((p["a0"] - level) / p["b"])
        if self.family == "plateau":
            return p["r0"] + p["width"] * (p["a0"] - level) / (p["a0"] - p["a_min"])
        if self.family == "constant":
            return 0.0
        above = np.nonzero(np.array(p["values"]) > level)[0]
        return p["r"][above[-1] + 1] if above.size else 0.0

    @property
    def core_radius(self) -> float:
        return self.radius_where_a_below(self.tail_value)

    @property
    def halfnu_radius(self) -> float:
        """R0 with a(x) <= -nu/2 for |x| >= R0 (super-solution construction)."""
        return self.radius_where_a_below(-0.5 * self.nu)


def bump_growth(a0: float, b: float, a_min: float) -> GrowthProfile:
    return GrowthProfile("bump", params={"a0": a0, "b": b, "a_min": a_min})


def constant_growth(value: float) -> GrowthProfile:
    return GrowthProfile("constant", params={"value": value})
