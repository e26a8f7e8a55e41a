"""Interaction-contrast analysis of composed response times.

Two latent process durations, selectively influenced by two binary inputs
and combined by one of three composition rules (serial sum, parallel-OR
minimum, parallel-AND maximum), leave a signature in the interaction
contrast of the observable completion-time cdfs

    c(t) = F11(t) + F22(t) - F12(t) - F21(t).

Under the prolongation constraints (raising a level never shortens the
corresponding duration, for every latent value) the contrast conditioned on
a latent value is a step function whose sign pattern depends only on the
arrangement of the four durations; mixing over the latent source preserves:

* min:  c(t) <= 0 everywhere;
* max:  c(t) >= 0 everywhere;
* plus: the running integral of c is >= 0 with total integral 0.

These are necessary conditions, so classification returns the *set* of
composition rules a profile is consistent with, never a unique architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import UsageError
from .model import Design, LatentModel
from .tolerances import CDF_TOL, EPS_TEST

RULES = ("plus", "min", "max")
PARALLEL_OR = "parallel-OR"
PARALLEL_AND = "parallel-AND"
SERIAL = "serial"


@dataclass(frozen=True)
class RtSystem:
    """Completion-time cdfs on a shared grid for the four treatments (i,j).

    Keys are (1, 1), (1, 2), (2, 1), (2, 2); each cdf gives
    Pr(T_ij <= t) at every grid point.
    """

    grid: np.ndarray
    cdfs: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size < 2:
            raise UsageError("grid must be a 1-D array with at least two points")
        if not np.isfinite(grid).all():
            raise UsageError(f"grid has non-finite point {grid[~np.isfinite(grid)][0]}")
        if not np.all(np.diff(grid) > 0):
            raise UsageError("grid must be strictly increasing")
        cdfs = {}
        expected = {(1, 1), (1, 2), (2, 1), (2, 2)}
        if set(self.cdfs) != expected:
            raise UsageError(f"cdfs must cover exactly the treatments {sorted(expected)}")
        for key, values in self.cdfs.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != grid.shape:
                raise UsageError(f"cdf {key}: length {arr.size} != grid length {grid.size}")
            if not np.isfinite(arr).all():
                raise UsageError(f"cdf {key}: non-finite value {arr[~np.isfinite(arr)][0]}")
            if np.any(arr < -CDF_TOL) or np.any(arr > 1 + CDF_TOL):
                raise UsageError(f"cdf {key}: values outside [0, 1]")
            if np.any(np.diff(arr) < -CDF_TOL):
                raise UsageError(f"cdf {key}: not nondecreasing")
            cdfs[key] = arr
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cdfs", cdfs)

    def covers_support(self, eps: float = EPS_TEST) -> bool:
        """True when every cdf has reached 1 by the last grid point."""
        return all(arr[-1] >= 1.0 - eps for arr in self.cdfs.values())


@dataclass(frozen=True)
class ContrastProfile:
    """c(t) on the grid plus its running trapezoidal integral."""

    grid: np.ndarray
    c: np.ndarray
    cumulative: np.ndarray

    @property
    def total(self) -> float:
        return float(self.cumulative[-1])


def interaction_contrast(rt: RtSystem) -> ContrastProfile:
    """Pointwise contrast and its running integral from the first grid point."""
    c = rt.cdfs[(1, 1)] + rt.cdfs[(2, 2)] - rt.cdfs[(1, 2)] - rt.cdfs[(2, 1)]
    segments = 0.5 * (c[1:] + c[:-1]) * np.diff(rt.grid)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])
    return ContrastProfile(rt.grid, c, cumulative)


def classify_architecture(rt: RtSystem, eps_test: float = EPS_TEST) -> set[str]:
    """Composition rules whose necessary sign conditions the profile meets.

    The serial total-integral condition is only enforced when the grid
    covers every jump (all cdfs have reached 1); on a truncated grid the
    total is indeterminate and does not count against the serial label.
    """
    profile = interaction_contrast(rt)
    labels: set[str] = set()
    if profile.c.max() <= eps_test:
        labels.add(PARALLEL_OR)
    if profile.c.min() >= -eps_test:
        labels.add(PARALLEL_AND)
    serial_ok = profile.cumulative.min() >= -eps_test
    if serial_ok and rt.covers_support(eps_test):
        serial_ok = abs(profile.total) <= eps_test
    if serial_ok:
        labels.add(SERIAL)
    return labels


def _completion_times(design: Design, model: LatentModel, rule: str) -> tuple:
    """Completion times t[i, j, latent position] of treatment (i + 1, j + 1)
    composed from validated durations g[k, level position, latent position],
    and the latent masses in the same order."""
    if rule not in RULES:
        raise UsageError(f"rule must be one of {RULES}, got {rule!r}")
    if design.n != 2:
        raise UsageError("response-time composition needs exactly two outputs")
    for spec in design.inputs:
        if len(spec.levels) != 2:
            raise UsageError(f"input {spec.name!r} must have exactly two levels")
    if not design.is_fully_crossed():
        raise UsageError("all four level combinations must be allowable treatments")
    latents = model.latent_values()
    g = np.empty((2, 2, len(latents)))
    for k in (0, 1):
        out = design.outputs[k]
        if not out.has_numeric:
            raise UsageError(f"output {out.name!r} needs numeric payload durations")
        for li, level in enumerate(design.inputs[k].levels):
            for ri, r in enumerate(latents):
                duration = out.numeric_value(model.respond(k, level, r))
                if duration < 0:
                    raise UsageError(
                        f"negative duration {duration} for output {out.name!r} "
                        f"at latent value {r!r}"
                    )
                g[k, li, ri] = duration
    shortened = np.argwhere(g[:, 0] > g[:, 1])
    if shortened.size:
        k, ri = shortened[0]
        raise UsageError(
            f"prolongation constraint violated at latent value {latents[ri]!r}: "
            f"output {design.outputs[k].name!r} has duration "
            f"{float(g[k, 0, ri])} at the low level but {float(g[k, 1, ri])} at the high"
        )
    comp = {"plus": np.add, "min": np.minimum, "max": np.maximum}[rule]
    # output 2 first, so on a tie (0.0 and -0.0) np.minimum/maximum keep output 1's
    times = comp(g[1][None, :, :], g[0][:, None, :])
    return times, [mass for _, mass in model.latent.items()]


def compose_rt(design: Design, model: LatentModel, rule: str, grid: np.ndarray) -> RtSystem:
    """Exact completion-time cdfs for a latent model under a composition rule.

    Conditioned on a latent value the durations are deterministic, so each
    treatment cdf is a mixture of unit steps at comp(g1_i(r), g2_j(r)),
    weighted by the latent pmf.
    """
    times, masses = _completion_times(design, model, rule)
    grid = np.asarray(grid, dtype=np.float64)
    points = grid.ravel()  # a grid of another shape is left for RtSystem to reject
    cdfs = np.zeros((2, 2, points.size))
    for ri, mass in enumerate(masses):
        cdfs += mass * (points >= times[:, :, ri, None])
    cdfs = np.clip(cdfs, 0.0, 1.0).reshape((2, 2) + grid.shape)
    return RtSystem(grid, {(i + 1, j + 1): cdfs[i, j] for i in (0, 1) for j in (0, 1)})


def bracketing_grid(points, pad: float = 1.0) -> np.ndarray:
    """Grid that covers the given jump points and brackets each one.

    Places one float-ulp helper point immediately before every jump, so that
    trapezoidal integration of a step function on this grid is exact up to
    ulp-sized slivers.  The grid starts at min(0, first jump - pad) and ends
    pad beyond the last jump.
    """
    pts = np.asarray(sorted({float(p) for p in points}), dtype=np.float64)
    if pts.size == 0:
        raise UsageError("need at least one jump point")
    lo = min(0.0, pts[0] - pad)
    return np.unique(
        np.concatenate([[lo], np.nextafter(pts, -np.inf), pts, [pts[-1] + pad]])
    )


def jump_points(design: Design, model: LatentModel, rule: str) -> np.ndarray:
    """Sorted distinct completion times across all treatments and latent values."""
    return np.unique(_completion_times(design, model, rule)[0])
