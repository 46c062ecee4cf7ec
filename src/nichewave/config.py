"""INI experiment configs: documented key-value schema, unknown keys rejected.

Sections and keys (all optional unless a command needs them):

    [run]       seed (int, accepted but unused: no computation draws
                random numbers), label (str), output_dir (str), workers (int)
    [kernel]    family, dimension, epsilon, m, alpha0, params
    [grid]      R, h, topology, max_cells
    [growth]    family, params, radial_nonincreasing
    [spectral]  tol, maxiter, R_schedule
    [stationary] R_schedule, tol, solver_tol, spectral_tol
    [evolve]    T, dt, stride, u0, tol
    [sweep]     m, epsilons, direction, base_R, base_h, radius_pad,
                solver_tol, spectral_tol
    [eps_star]  lo, hi, tol, base_R, base_h
    [ess]       m, eps_residents, eps_mutants, base_R, base_h
    [fat_tail]  R_schedule, h, tail_target, spectral_tol
    [audit]     m, epsilons, base_R, base_h, solver_tol

``params`` values are comma-separated name=value entries; a value may be a
space-separated list of numbers (tabulated tables). Example:

    [kernel]
    family = algebraic-tail
    params = power=5

The env var NICHEWAVE_WORKERS overrides [run] workers.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .growth import GROWTH_FAMILIES, GrowthProfile
from .kernels import FAMILIES, Kernel, ScaledKernel, rescale_kernel

_F = "float"
_I = "int"
_S = "str"
_B = "bool"
_FLIST = "floats"
_PARAMS = "params"

SCHEMA: dict[str, dict[str, str]] = {
    "run": {"seed": _I, "label": _S, "output_dir": _S, "workers": _I},
    "kernel": {
        "family": _S, "dimension": _I, "epsilon": _F, "m": _F, "alpha0": _F,
        "params": _PARAMS,
    },
    "grid": {"r": _F, "h": _F, "topology": _S, "max_cells": _I},
    "growth": {"family": _S, "params": _PARAMS, "radial_nonincreasing": _B},
    "spectral": {"tol": _F, "maxiter": _I, "r_schedule": _FLIST},
    "stationary": {"r_schedule": _FLIST, "tol": _F, "solver_tol": _F, "spectral_tol": _F},
    "evolve": {"t": _F, "dt": _S, "stride": _F, "u0": _S, "tol": _F},
    "sweep": {
        "m": _F, "epsilons": _FLIST, "direction": _S, "base_r": _F, "base_h": _F,
        "radius_pad": _F, "solver_tol": _F, "spectral_tol": _F,
    },
    "eps_star": {"lo": _F, "hi": _F, "tol": _F, "base_r": _F, "base_h": _F},
    "ess": {"m": _F, "eps_residents": _FLIST, "eps_mutants": _FLIST, "base_r": _F, "base_h": _F},
    "fat_tail": {"r_schedule": _FLIST, "h": _F, "tail_target": _F, "spectral_tol": _F},
    "audit": {"m": _F, "epsilons": _FLIST, "base_r": _F, "base_h": _F, "solver_tol": _F},
}

DEFAULTS = {
    "run": {"seed": 0, "label": "run", "output_dir": "out", "workers": 1},
    "kernel": {"family": "tent", "dimension": 1, "epsilon": 1.0, "m": 0.0,
               "alpha0": 1.0, "params": {}},
    "grid": {"r": 6.0, "h": 0.05, "topology": "ball-truncated", "max_cells": 8192},
    "growth": {"family": "bump", "params": {"a0": 2.0, "b": 1.0, "a_min": -1.0},
               "radial_nonincreasing": False},
    "spectral": {"tol": 1e-10, "maxiter": 600, "r_schedule": []},
    "stationary": {"r_schedule": [4.0, 6.0, 8.0, 10.0], "tol": 1e-6,
                   "solver_tol": 1e-10, "spectral_tol": 1e-10},
    "evolve": {"t": 200.0, "dt": "auto", "stride": 1.0, "u0": "constant:0.01", "tol": 1e-3},
    "sweep": {"m": 1.0, "epsilons": [4.0, 8.0, 16.0], "direction": "large",
              "base_r": 4.0, "base_h": 0.05, "radius_pad": 1.0,
              "solver_tol": 1e-10, "spectral_tol": 1e-10},
    "eps_star": {"lo": 0.5, "hi": 64.0, "tol": 1e-2, "base_r": 4.0, "base_h": 0.1},
    "ess": {"m": 1.0, "eps_residents": [0.5, 1.0], "eps_mutants": [0.5, 1.0, 4.0],
            "base_r": 4.0, "base_h": 0.05},
    "fat_tail": {"r_schedule": [4.0, 8.0, 12.0], "h": 0.05, "tail_target": 1e-10,
                 "spectral_tol": 1e-10},
    "audit": {"m": 1.0, "epsilons": [1.0, 2.0, 4.0, 8.0], "base_r": 4.0,
              "base_h": 0.05, "solver_tol": 1e-10},
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
        tokens = value.split()
        if len(tokens) > 1:
            out[name.strip()] = [float(t) for t in tokens]
        else:
            try:
                out[name.strip()] = float(value)
            except ValueError:
                out[name.strip()] = value.strip()
    return out


def _convert(section: str, key: str, raw: str):
    kind = SCHEMA[section][key]
    try:
        if kind == _F:
            return float(raw)
        if kind == _I:
            return int(raw)
        if kind == _B:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        if kind == _FLIST:
            return [float(t) for t in raw.split()]
        if kind == _PARAMS:
            return _parse_params(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc


@dataclass
class ExperimentConfig:
    sections: dict = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    @property
    def workers(self) -> int:
        env = os.environ.get("NICHEWAVE_WORKERS")
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise ConfigError(f"NICHEWAVE_WORKERS={env!r} is not an integer")
        return max(1, self.sections["run"]["workers"])

    def kernel(self) -> Kernel:
        k = self.sections["kernel"]
        if k["family"] not in FAMILIES:
            raise ConfigError(f"[kernel] family: unknown family {k['family']!r}")
        params = dict(k["params"])
        return Kernel(k["family"], dimension=k["dimension"], params=params)

    def scaled_kernel(self) -> ScaledKernel:
        k = self.sections["kernel"]
        return rescale_kernel(self.kernel(), k["epsilon"], k["m"], k["alpha0"])

    def growth(self) -> GrowthProfile:
        g = self.sections["growth"]
        if g["family"] not in GROWTH_FAMILIES:
            raise ConfigError(f"[growth] family: unknown family {g['family']!r}")
        return GrowthProfile(g["family"], dimension=self.sections["kernel"]["dimension"],
                             params=dict(g["params"]))


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an INI experiment config against the schema."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    sections = {name: dict(vals) for name, vals in DEFAULTS.items()}
    sections = {name: {k: (dict(v) if isinstance(v, dict) else (list(v) if isinstance(v, list) else v))
                       for k, v in vals.items()} for name, vals in sections.items()}
    for section in parser.sections():
        name = section.lower()
        if name not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            sections[name][key] = _convert(name, key, raw)
    return ExperimentConfig(sections=sections)
