"""Explicit time integration of du/dt = rate (J_eps * u - u) + f(x, u).

Explicit Euler under dt <= 1 / (rate + L_f) makes the one-step map
order-preserving and positivity-preserving on the invariant region, which
is exactly what the comparison-based long-time claims need discretely.
Accuracy order is deliberately traded for provable monotone structure; every
run records its direction in time in ``monotone_flag`` (step slack _STEP_SLACK).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, StepSizeError
from .operators import DiscreteOperator
from .spectral import SpectralEstimate

_STEP_SLACK = 1e-12
# Longest period of a repeating Euler orbit that evolve recognises. The orbits
# measured on 1-D and 2-D tent/bump balls ended in periods 1, 2 and 4.
_ORBIT_WINDOW = 8


@dataclass
class EvolutionTrace:
    times: np.ndarray
    sup_norm: np.ndarray
    dist_sup: np.ndarray       # nan entries when no reference state given
    dist_l1: np.ndarray
    mass: np.ndarray
    monotone_flag: str         # "increasing" | "decreasing" | "neither"


def stable_step(op: DiscreteOperator, u0_sup: float) -> float:
    """Largest dt with a monotone, positivity-preserving Euler step.

    The step is Phi(u) = u + dt (rate (C u - u) + f(x, u)), C the kernel
    matrix (c_ij >= 0). Off the diagonal dPhi_i/du_j = dt rate c_ij >= 0; on
    it dPhi_i/du_i = 1 - dt rate (1 - c_ii) + dt d_s f(x_i, u_i)
    >= 1 - dt (rate + L_f), with L_f = sup |d_s f| over [0, s_max] and
    s_max = max(sup u0, sup S). So dt = 1 / (rate + L_f) keeps Phi
    order-preserving on [0, s_max]; Phi(0) = 0 then keeps u >= 0, and the
    constant s_max stays a super-solution, so the region is invariant
    (the M-matrix argument of Berman & Plemmons, Nonnegative Matrices in the
    Mathematical Sciences, 1994, ch. 6).
    """
    sat = np.asarray(op.growth.saturation(op.points_arg), dtype=float)
    s_max = max(float(u0_sup), float(np.max(sat)))
    lf = op.growth.lipschitz_f(s_max, op.points_arg, op.a_values)
    return 1.0 / (op.rate + lf)


def evolve(
    op: DiscreteOperator,
    u0: np.ndarray,
    horizon: float,
    dt: float | None = None,
    stride: float = 1.0,
    stationary: np.ndarray | None = None,
) -> tuple[EvolutionTrace, np.ndarray]:
    """Integrate to the horizon, recording monitors every ``stride`` time units.

    In exact arithmetic the monotone orbit converges; in floating point it
    may end in a fixed point or a short cycle. Once a step computes, bit for
    bit, one of the last _ORBIT_WINDOW (8) states, the orbit repeats with
    that period p <= 8, and op.rhs is not called again: each later state is
    one of those p states, whose monitors are computed once. The trace, the
    monotone flag and the final state are those of the full loop, since the
    steps of one period were all taken and checked.
    """
    u = np.asarray(u0, dtype=float).copy()
    if np.any(u < 0):
        raise ValueError("initial data must be nonnegative")
    if not (0.0 < horizon < math.inf and 0.0 < stride < math.inf):
        raise ValueError(f"horizon {horizon} and stride {stride} must be finite and > 0")
    bound = stable_step(op, float(np.max(u)))
    if dt is None:
        dt = bound
    elif dt > bound * (1.0 + 1e-12):
        raise StepSizeError(f"dt={dt} exceeds the monotone-stability bound {bound}", bound=bound)

    n_steps = int(math.ceil(horizon / dt - 1e-12))
    w = op.grid.weights
    inc_ok = True
    dec_ok = True

    def monitors(v):
        return (float(np.max(np.abs(v))),
                float(np.max(np.abs(v - stationary))) if stationary is not None else math.nan,
                float(np.sum(w * np.abs(v - stationary))) if stationary is not None else math.nan,
                float(np.sum(w * v)))

    times = [0.0]
    rows = [monitors(u)]
    recent = deque([(float(np.sum(u)), u)], maxlen=_ORBIT_WINDOW)  # (sum, state)
    orbit, orbit_rows, phase = None, None, 0  # once a state repeats: one period

    next_record = stride
    for step in range(1, n_steps + 1):
        t = step * dt
        if orbit is None:
            u_new = u + dt * op.rhs(u)
            change = u_new - u
            drop, rise = float(np.min(change)), float(np.max(change))
            inc_ok = inc_ok and drop >= -_STEP_SLACK
            dec_ok = dec_ok and rise <= _STEP_SLACK
            u = u_new
            total = float(np.sum(u))
            start = next((k for k, (s, v) in enumerate(recent)
                          if s == total and np.array_equal(v, u)), None)
            if start is None:
                recent.append((total, u))
            else:
                orbit = [v for _, v in recent][start:]
                orbit_rows = [monitors(v) for v in orbit]
        else:
            phase = (phase + 1) % len(orbit)
            u = orbit[phase]
        if t + 1e-12 >= next_record or step == n_steps:
            row = orbit_rows[phase] if orbit is not None else monitors(u)
            if not math.isfinite(row[0]):
                raise NumericalFailureError(f"non-finite state at t={t:.4f}")
            times.append(t)
            rows.append(row)
            while next_record <= t + 1e-12:
                next_record += stride

    # constant in time counts as both directions and is reported, weakly, increasing
    flag = "increasing" if inc_ok else "decreasing" if dec_ok else "neither"
    sups, dsup, dl1, mass = zip(*rows)
    trace = EvolutionTrace(
        times=np.asarray(times),
        sup_norm=np.asarray(sups),
        dist_sup=np.asarray(dsup),
        dist_l1=np.asarray(dl1),
        mass=np.asarray(mass),
        monotone_flag=flag,
    )
    return trace, u


@dataclass
class LongTimeVerdict:
    verdict: str               # "extinction" | "persistence-converged" | "undecided"
    trace: EvolutionTrace
    final_sup: float
    final_dist_sup: float
    final_dist_l1: float


def long_time_verdict(
    op: DiscreteOperator,
    u0: np.ndarray,
    horizon: float,
    tol: float,
    lam: SpectralEstimate,
    stationary: np.ndarray | None = None,
    dt: float | None = None,
    stride: float = 1.0,
) -> LongTimeVerdict:
    """Classify the long-time behaviour against the certified lambda_p sign.

    A bracket straddling zero is reported undecided regardless of the
    integration evidence (never assert the dichotomy without a certificate).
    "extinction" needs a run that decayed below tol and either a certified
    lambda_p >= 0 or u0 = 0: with lambda_p < 0 every u0 that is not 0
    persists, so a decayed run there is undecided (too short a horizon).
    "persistence-converged" needs lambda_p < 0 and a run within tol of
    ``stationary``.
    """
    trace, _ = evolve(op, u0, horizon, dt=dt, stride=stride, stationary=stationary)
    final_sup = float(trace.sup_norm[-1])
    final_dsup = float(trace.dist_sup[-1])
    final_dl1 = float(trace.dist_l1[-1])

    tail = trace.sup_norm[-min(10, len(trace.sup_norm)):]
    decayed = final_sup <= tol and bool(np.all(np.diff(tail) <= tol))
    if lam.sign == "straddle":
        verdict = "undecided"
    elif lam.sign == "nonnegative" or not np.any(u0):
        verdict = "extinction" if decayed else "undecided"
    elif stationary is not None and final_dsup <= tol and final_dl1 <= tol:
        verdict = "persistence-converged"
    else:
        verdict = "undecided"
    return LongTimeVerdict(
        verdict=verdict,
        trace=trace,
        final_sup=final_sup,
        final_dist_sup=final_dsup,
        final_dist_l1=final_dl1,
    )
