"""INI experiment configs: one table of keys and defaults, unknown keys rejected.

Sections and keys (all optional unless a command needs them):

    [run]       seed (int, accepted but unused: no computation draws
                random numbers), label (str), output_dir (str),
                workers (int, 1 only: every schedule runs in order)
    [kernel]    family, dimension, epsilon, m, alpha0, params
    [grid]      R, h, topology, max_cells
    [growth]    family, params
    [spectral]  tol, maxiter, R_schedule
    [stationary] R_schedule, tol, solver_tol, spectral_tol
    [evolve]    T, dt, stride, u0, tol
    [sweep]     epsilons, direction, solver_tol, spectral_tol
    [eps_star]  lo, hi, tol
    [ess]       eps_residents, eps_mutants
    [fat_tail]  R_schedule, tail_target, spectral_tol
    [audit]     epsilons, solver_tol

[kernel] and [growth] params hold exactly their family's names in
FAMILY_PARAMS (kernels, growth), every one required, and those in
POSITIVE_PARAMS are > 0; the Kernel checks epsilon, m and alpha0. One rule
covers every other number: it is finite and > 0, each number of a list is,
and a list is non-empty. Its two exceptions: [run] seed is any integer, and
an empty [spectral] R_schedule means no R rows. Besides the rule, [run]
workers is 1, [sweep] direction is small or large, and [eps_star] lo < hi.
[evolve] dt is auto or a number; u0 is constant, bump, indicator or
stationary[:amplitude[:radius]], amplitude finite and >= 0 (default 0.01),
radius finite and > 0 (default 1).

[kernel] dimension is the one N: it goes to the Kernel, and every grid
takes N from the kernel, so no other key or section sets it.

[grid] is the one grid, as [kernel] is the one kernel: spectrum solves on
R and h (and topology, its alone), every R_schedule walks at h, and the
commands that sweep epsilon solve on R plus one kernel reach at spacing
h min(1, epsilon); max_cells bounds every grid.

Every command takes one Kernel from [kernel] (ExperimentConfig.scaled_kernel):
the family, epsilon, the cost exponent m and alpha0, so all of them solve
with the same pair (J_eps, rate alpha0/eps^m); the commands that
sweep epsilon (sweep, eps-star, ess, audit) replace only epsilon.

Each key's type is that of its DEFAULTS value: float, int, str, a list of
floats (space-separated), or ``params``: comma-separated name=value
entries, where a value may be a space-separated list of numbers
(tabulated tables). Example:

    [kernel]
    family = algebraic-tail
    params = power=5

A config asking for more than one worker is rejected rather than run in
order silently. No environment variable overrides a config value.
"""

from __future__ import annotations

import configparser
import copy
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .grids import DEFAULT_MAX_CELLS_PER_AXIS
from .growth import GrowthProfile
from .kernels import Kernel

DEFAULTS = {
    "run": {"seed": 0, "label": "run", "output_dir": "out", "workers": 1},
    "kernel": {"family": "tent", "dimension": 1, "epsilon": 1.0, "m": 0.0,
               "alpha0": 1.0, "params": {}},
    "grid": {"r": 6.0, "h": 0.05, "topology": "ball-truncated", "max_cells": DEFAULT_MAX_CELLS_PER_AXIS},
    "growth": {"family": "bump", "params": {"a0": 2.0, "b": 1.0, "a_min": -1.0}},
    "spectral": {"tol": 1e-10, "maxiter": 600, "r_schedule": []},
    "stationary": {"r_schedule": [4.0, 6.0, 8.0, 10.0], "tol": 1e-6,
                   "solver_tol": 1e-10, "spectral_tol": 1e-10},
    "evolve": {"t": 200.0, "dt": "auto", "stride": 1.0, "u0": "constant:0.01", "tol": 1e-3},
    "sweep": {"epsilons": [4.0, 8.0, 16.0], "direction": "large",
              "solver_tol": 1e-10, "spectral_tol": 1e-10},
    "eps_star": {"lo": 0.5, "hi": 64.0, "tol": 1e-2},
    "ess": {"eps_residents": [0.5, 1.0], "eps_mutants": [0.5, 1.0, 4.0]},
    "fat_tail": {"r_schedule": [4.0, 8.0, 12.0], "tail_target": 1e-10, "spectral_tol": 1e-10},
    "audit": {"epsilons": [1.0, 2.0, 4.0, 8.0], "solver_tol": 1e-10},
}


def _parse_params(raw: str) -> dict:
    out: dict = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"bad params entry {part!r}: expected name=value")
        name, value = part.split("=", 1)
        tokens = value.split()  # the family's resolver converts a single token
        out[name.strip()] = [float(t) for t in tokens] if len(tokens) > 1 else value.strip()
    return out


def _convert(section: str, key: str, raw: str):
    default = DEFAULTS[section][key]
    try:
        if isinstance(default, list):
            return [float(t) for t in raw.split()]
        if isinstance(default, dict):
            return _parse_params(raw)
        if isinstance(default, str):
            return raw.strip()
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc


def _check_ranges(sections: dict) -> None:
    """The range rule of the module docstring, over every key of DEFAULTS
    outside [kernel] and [growth] but its two exceptions, named below."""
    for section, keys in DEFAULTS.items():
        for key in keys:
            value, where = sections[section][key], (section, key)
            if (section in ("kernel", "growth") or where == ("run", "seed")
                    or not isinstance(value, (int, float, list))):
                continue  # any seed (perfbench writes one); a string, params or dt = auto
            bad = [v for v in (value if isinstance(value, list) else [value]) if not 0.0 < v < math.inf]
            empty = value == [] and where != ("spectral", "r_schedule")  # empty: no R rows
            if bad or empty:
                name = f"[{section}] " + "_".join(p.upper() if p in ("r", "t") else p
                                                  for p in key.split("_"))  # T, R_schedule
                raise ConfigError(f"{name} is empty: nothing to solve for" if empty
                                  else f"{name} = {bad[0]!r} is not a finite number > 0")


def _evolve_number(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[evolve] {key}: cannot parse {raw!r} ({exc})") from exc


def _parse_evolve(ev: dict) -> None:
    """Check [evolve] in place: dt becomes None (auto) or a number, u0 the
    tuple (kind, amplitude, radius)."""
    ev["dt"] = None if ev["dt"] == "auto" else _evolve_number("dt", ev["dt"])
    kind, _, rest = ev["u0"].partition(":")
    args = [_evolve_number("u0", t) for t in rest.split(":")] if rest else []
    amp = args[0] if args else 0.01
    radius = args[1] if len(args) > 1 else 1.0
    if kind not in ("constant", "bump", "indicator", "stationary"):
        raise ConfigError(f"[evolve] u0: unknown initial-data spec {ev['u0']!r}")
    if not 0.0 <= amp < math.inf:
        raise ConfigError(f"[evolve] u0: amplitude {amp!r} is not a nonnegative number")
    if not 0.0 < radius < math.inf:
        raise ConfigError(f"[evolve] u0: radius {radius!r} is not a finite number > 0")
    ev["u0"] = (kind, amp, radius)


@dataclass
class ExperimentConfig:
    sections: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    def scaled_kernel(self) -> Kernel:
        """The one kernel, J_eps at rate alpha0/eps^m, every command solves with."""
        k = self.sections["kernel"]
        try:
            return Kernel(k["family"], dimension=k["dimension"], params=dict(k["params"]),
                          epsilon=k["epsilon"], m=k["m"], alpha0=k["alpha0"])
        except ValueError as exc:  # unknown family or dimension; epsilon, m or alpha0 out of range
            raise ConfigError(f"[kernel] {exc}") from exc

    def growth(self) -> GrowthProfile:
        g = self.sections["growth"]
        return GrowthProfile(g["family"], params=dict(g["params"]))


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI experiment config over DEFAULTS; unknown sections and keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:  # a duplicate key, a line outside any section
        raise ConfigError(f"{path}: {exc}") from exc
    sections = copy.deepcopy(DEFAULTS)
    for section in parser.sections():
        name = section.lower()
        if name not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in DEFAULTS[name]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            sections[name][key] = _convert(name, key, raw)
    _parse_evolve(sections["evolve"])
    _check_ranges(sections)
    workers = sections["run"]["workers"]
    if workers != 1:
        raise ConfigError(f"[run] workers = {workers}: schedules run in order, "
                          "so only workers = 1 is accepted")
    if sections["sweep"]["direction"] not in ("small", "large"):
        raise ConfigError(f"[sweep] direction = {sections['sweep']['direction']!r}: "
                          "expected small or large")
    lo, hi = sections["eps_star"]["lo"], sections["eps_star"]["hi"]
    if not lo < hi:
        raise ConfigError(f"[eps_star] lo = {lo!r} is not below hi = {hi!r}")
    return ExperimentConfig(sections=sections)
