"""Correlation-based necessary test on 2x2 crossed sub-designs.

For two input-output pairs with levels {i, i'} and {j, j'} whose four
combinations are all allowable, let rho_xy be the Pearson correlation of the
two outputs at treatment (x, y).  Selective influences require

    |rho_11 rho_12 - rho_21 rho_22|
        <= sqrt(1 - rho_11^2) sqrt(1 - rho_12^2)
         + sqrt(1 - rho_21^2) sqrt(1 - rho_22^2),

equivalently: the four correlations can be realized as cosines of angles
among four points on a unit sphere (documentation only; no geometry is
computed).  Both orientations of each input pair are checked, since the
inequality is necessary under either labeling.  Correlations change under
nonlinear payload transforms, so this test gains power when expanded over a
transform battery.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InapplicableError
from .model import DESIGN_CACHE_SIZE, Level, System, TreatmentIndex
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport
from .tolerances import EPS_COSPHERICAL, VAR_RTOL


def _correlations(pmf2: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation at every treatment of a (treatments, values,
    values) 2-marginal under payloads x and y, central moments in two passes
    (E[X^2] - E[X]^2 cancels on nearly degenerate marginals): (rho, defined),
    rho 0 where a marginal's variance is zero by the ``VAR_RTOL`` rule."""
    support = pmf2 != 0.0
    ex = (pmf2 * x[:, None]).sum(axis=(1, 2))
    ey = (pmf2 * y[None, :]).sum(axis=(1, 2))
    dx = x[None, :, None] - ex[:, None, None]
    dy = y[None, None, :] - ey[:, None, None]
    var_x = (dx * dx * pmf2).sum(axis=(1, 2))
    var_y = (dy * dy * pmf2).sum(axis=(1, 2))
    cov = (dx * dy * pmf2).sum(axis=(1, 2))
    spread_x = np.where(support, np.abs(dx), 0.0).max(axis=(1, 2), initial=0.0)
    spread_y = np.where(support, np.abs(dy), 0.0).max(axis=(1, 2), initial=0.0)
    defined = (var_x > (VAR_RTOL * np.maximum(spread_x, 1.0)) ** 2) & (
        var_y > (VAR_RTOL * np.maximum(spread_y, 1.0)) ** 2
    )
    rho = np.divide(cov, np.sqrt(var_x * var_y), out=np.zeros_like(cov), where=defined)
    return np.clip(rho, -1.0, 1.0), defined


@dataclass(frozen=True)
class CosphericityResult:
    """One sub-design's verdict: the four correlations and both test sides.

    ``subdesign`` is (k, k', i, i', j, j'): input indices and the two levels
    used from each.  ``boundary`` flags a pass decided within eps_test of
    equality (the inequality's tolerance is a convention, not a derivation).
    """

    subdesign: tuple[int, int, Level, Level, Level, Level]
    rho: tuple[float, float, float, float]
    lhs: float
    rhs: float
    passed: bool
    boundary: bool

    def to_json(self) -> dict:
        return {
            "subdesign": list(self.subdesign),
            "rho": list(self.rho),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _crossed_subdesigns(index: TreatmentIndex) -> tuple:
    """(subdesigns, rows, cells): every (k, k', i, i', j, j') whose four cells
    ij, ij', i'j, i'j' are allowable, in test order; by output pair
    (min(k, k'), max(k, k')), the rows of its sub-designs; and per sub-design
    the positions of the first treatments of its four cells."""
    inputs = index.inputs
    subdesigns, rows, cells = [], {}, []
    for k, k_prime in itertools.permutations(range(len(inputs)), 2):
        for i, i_prime in itertools.combinations(inputs[k].levels, 2):
            for j, j_prime in itertools.combinations(inputs[k_prime].levels, 2):
                found = [
                    index.realizers((k, a), (k_prime, b))
                    for a, b in itertools.product((i, i_prime), (j, j_prime))
                ]
                if all(found):
                    pair = (min(k, k_prime), max(k, k_prime))
                    rows.setdefault(pair, []).append(len(subdesigns))
                    subdesigns.append((k, k_prime, i, i_prime, j, j_prime))
                    cells.append([f[0] for f in found])
    cells = np.array(cells, dtype=np.intp).reshape(-1, 4)
    rows = {pair: np.array(r, dtype=np.intp) for pair, r in rows.items()}
    for table in (cells, *rows.values()):
        table.setflags(write=False)
    return tuple(subdesigns), rows, cells


def run_cosphericity(
    system: System, eps_test: float = EPS_COSPHERICAL
) -> list[CosphericityResult]:
    """Evaluate the correlation inequality on every eligible sub-design.

    Sub-designs with a zero-variance marginal are skipped (the inequality is
    vacuous without a defined correlation).  Raises InapplicableError when no
    eligible sub-design exists at all.  Correlations come once per (output
    pair, treatment) from ``system.pair_marginals``; the inequality is then
    checked on all sub-designs at once.
    """
    design = system.design
    subdesigns, rows_by_pair, cells = _crossed_subdesigns(design.index)
    if not subdesigns:
        raise InapplicableError(
            "no pair of inputs forms a completely crossed 2x2 sub-design"
        )
    outputs = design.outputs
    rho = np.zeros((len(subdesigns), 4))
    defined = np.zeros((len(subdesigns), 4), dtype=bool)
    for (k, k_prime), rows in rows_by_pair.items():
        if not (outputs[k].has_numeric and outputs[k_prime].has_numeric):
            continue
        r, ok = _correlations(
            system.pair_marginals[(k, k_prime)],
            np.array(outputs[k].numeric),
            np.array(outputs[k_prime].numeric),
        )
        rho[rows] = r[cells[rows]]
        defined[rows] = ok[cells[rows]]
    r11, r12, r21, r22 = rho.T
    lhs = np.abs(r11 * r12 - r21 * r22)
    rhs = np.sqrt(np.maximum(0.0, 1 - r11**2)) * np.sqrt(
        np.maximum(0.0, 1 - r12**2)
    ) + np.sqrt(np.maximum(0.0, 1 - r21**2)) * np.sqrt(np.maximum(0.0, 1 - r22**2))
    passed = lhs <= rhs + eps_test
    boundary = np.abs(lhs - rhs) <= eps_test
    return [
        CosphericityResult(subdesigns[s], tuple(rho[s].tolist()), float(lhs[s]),
                           float(rhs[s]), bool(passed[s]), bool(boundary[s]))
        for s in np.flatnonzero(defined.all(axis=1)).tolist()
    ]


def cosphericity_report(system: System, eps_test: float = EPS_COSPHERICAL) -> TestReport:
    """Overall verdict: ruled out as soon as any sub-design fails."""
    name = "cosphericity"
    try:
        results = run_cosphericity(system, eps_test)
    except InapplicableError as exc:
        return TestReport(name, INAPPLICABLE, str(exc))
    if not results:
        return TestReport(
            name, INAPPLICABLE, "no sub-design with numeric payloads and nonzero variance"
        )
    failing = [r for r in results if not r.passed]
    if failing:
        worst = max(failing, key=lambda r: r.lhs - r.rhs)
        return TestReport(
            name,
            RULED_OUT,
            f"{worst.lhs:.4f} > {worst.rhs:.4f} on sub-design {worst.subdesign}",
            witness=worst,
            details={"results": results},
        )
    flagged = sum(r.boundary for r in results)
    summary = f"all {len(results)} sub-designs pass"
    if flagged:
        summary += f" ({flagged} within tolerance of the bound)"
    return TestReport(name, CONSISTENT, summary, details={"results": results})
