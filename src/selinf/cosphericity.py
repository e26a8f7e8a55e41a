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

import itertools
import math
from dataclasses import dataclass

from .errors import InapplicableError, UsageError
from .model import JointPmf, Level, System, marginalize, treatment_index
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport

EPS_TEST = 1e-6
_VAR_RTOL = 1e-9  # variances below (rtol * spread)^2 count as zero


def correlation(pmf: JointPmf, numeric_x, numeric_y) -> float:
    """Pearson correlation of a bivariate pmf under given value payloads.

    ``numeric_x``/``numeric_y`` map value labels to reals.  Raises
    InapplicableError when either marginal has (numerically) zero variance.
    Central moments are accumulated in two passes: the naive E[X^2] - E[X]^2
    form cancels catastrophically for nearly degenerate marginals.
    """
    if pmf.arity != 2:
        raise UsageError(f"correlation needs a bivariate pmf, got arity {pmf.arity}")
    points = [(numeric_x(a), numeric_y(b), mass) for (a, b), mass in pmf.items()]
    ex = sum(x * m for x, _, m in points)
    ey = sum(y * m for _, y, m in points)
    var_x = var_y = cov = 0.0
    spread_x = spread_y = 0.0
    for x, y, m in points:
        dx, dy = x - ex, y - ey
        var_x += dx * dx * m
        var_y += dy * dy * m
        cov += dx * dy * m
        spread_x = max(spread_x, abs(dx))
        spread_y = max(spread_y, abs(dy))
    if var_x <= (_VAR_RTOL * max(spread_x, 1.0)) ** 2 or var_y <= (
        _VAR_RTOL * max(spread_y, 1.0)
    ) ** 2:
        raise InapplicableError("correlation undefined: zero-variance marginal")
    rho = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, rho))


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


def _crossed_subdesigns(system: System):
    """Yield (k, k', i, i', j, j') with the first treatments of cells ij, ij', i'j, i'j'."""
    design = system.design
    index = treatment_index(design)
    for k, k_prime in itertools.permutations(range(design.n), 2):
        for i, i_prime in itertools.combinations(design.inputs[k].levels, 2):
            for j, j_prime in itertools.combinations(design.inputs[k_prime].levels, 2):
                found = [
                    index.realizers((k, a), (k_prime, b))
                    for a, b in itertools.product((i, i_prime), (j, j_prime))
                ]
                if all(found):
                    yield (k, k_prime, i, i_prime, j, j_prime), [f[0] for f in found]


def run_cosphericity(
    system: System, eps_test: float = EPS_TEST
) -> list[CosphericityResult]:
    """Evaluate the correlation inequality on every eligible sub-design.

    Sub-designs with a zero-variance marginal are skipped (the inequality is
    vacuous without a defined correlation).  Raises InapplicableError when no
    eligible sub-design exists at all.
    """
    design = system.design
    results: list[CosphericityResult] = []
    found_any = False
    for (k, k_prime, i, i_prime, j, j_prime), cells in _crossed_subdesigns(system):
        found_any = True
        out_k, out_kp = design.outputs[k], design.outputs[k_prime]
        if not (out_k.has_numeric and out_kp.has_numeric):
            continue
        coding = (out_k.numeric_value, out_kp.numeric_value)
        try:
            r11, r12, r21, r22 = [
                correlation(marginalize(system.pmf(t), (k, k_prime)), *coding)
                for t in cells
            ]
        except InapplicableError:
            continue
        lhs = abs(r11 * r12 - r21 * r22)
        rhs = math.sqrt(max(0.0, 1 - r11**2)) * math.sqrt(
            max(0.0, 1 - r12**2)
        ) + math.sqrt(max(0.0, 1 - r21**2)) * math.sqrt(max(0.0, 1 - r22**2))
        results.append(
            CosphericityResult(
                (k, k_prime, i, i_prime, j, j_prime),
                (r11, r12, r21, r22),
                lhs,
                rhs,
                lhs <= rhs + eps_test,
                abs(lhs - rhs) <= eps_test,
            )
        )
    if not found_any:
        raise InapplicableError(
            "no pair of inputs forms a completely crossed 2x2 sub-design"
        )
    return results


def cosphericity_report(system: System, eps_test: float = EPS_TEST) -> TestReport:
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
