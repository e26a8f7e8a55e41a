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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InapplicableError
from .model import DESIGN_CACHE_SIZE, Design, Level, System, TreatmentIndex, pair_layout
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport
from .tolerances import EPS_COSPHERICAL, VAR_RTOL


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
    """(subdesigns, pairs, cells): every (k, k', i, i', j, j'), levels by
    position, whose cells ij, ij', i'j, i'j' are allowable, in test order;
    per sub-design the index of its output pair (min(k, k'), max(k, k')) in
    ``pair_layout``, and the positions of its four cells' first treatments."""
    counts = index.counts
    order = {pair: p for p, pair in enumerate(itertools.combinations(range(len(counts)), 2))}
    subdesigns, pairs, cells = [], [], []
    for k, k_prime in itertools.permutations(range(len(counts)), 2):
        for i, i_prime in itertools.combinations(range(counts[k]), 2):
            for j, j_prime in itertools.combinations(range(counts[k_prime]), 2):
                found = [
                    index.realizers((k, a), (k_prime, b))
                    for a, b in itertools.product((i, i_prime), (j, j_prime))
                ]
                if all(found):
                    pairs.append(order[min(k, k_prime), max(k, k_prime)])
                    subdesigns.append((k, k_prime, i, i_prime, j, j_prime))
                    cells.append([f[0] for f in found])
    pairs, cells = np.array(pairs, dtype=np.intp), np.array(cells, dtype=np.intp).reshape(-1, 4)
    for table in (pairs, cells):
        table.setflags(write=False)
    return tuple(subdesigns), pairs, cells


def _pearson(system: System) -> tuple[np.ndarray, np.ndarray]:
    """(rho, defined), each (treatments, pairs of ``pair_layout``): the
    Pearson correlation of every output pair at every treatment, central
    moments in two passes (E[X^2] - E[X]^2 cancels on nearly degenerate
    marginals); 0 where a marginal's variance is zero by the ``VAR_RTOL``
    rule, or a payload is absent (NaN, so nothing is defined)."""
    table, layout = system.pair_table, pair_layout(system.array.shape[1:])
    xy = layout.payloads(system.design.outputs)[:, None]
    d = xy - np.take(layout.sums(table * xy), layout.pair, axis=-1)  # X and Y less their means
    var_x, var_y, cov = moments = layout.sums(np.concatenate((d * d, d[:1] * d[1:])) * table)
    spread = layout.sums(np.where(table != 0.0, np.abs(d), 0.0), np.maximum)
    defined = (moments[:2] > (VAR_RTOL * np.maximum(spread, 1.0)) ** 2).all(axis=0)
    rho = np.divide(cov, np.sqrt(var_x * var_y), out=np.zeros_like(cov), where=defined)
    return np.clip(rho, -1.0, 1.0), defined


def _evaluate(system: System) -> tuple:
    """(kept, rho, lhs, rhs): the indices of the sub-designs whose four
    correlations are all defined, in test order, their correlations and both
    sides of the inequality, all at once; InapplicableError if none is crossed."""
    subdesigns, pairs, cells = _crossed_subdesigns(system.design.index)
    if not subdesigns:
        raise InapplicableError("no pair of inputs forms a completely crossed 2x2 sub-design")
    if sum(out.has_numeric for out in system.design.outputs) < 2:  # no pair has a correlation
        return np.zeros(0, dtype=np.intp), np.zeros((0, 4)), np.zeros(0), np.zeros(0)
    rho, defined = (a[cells, pairs[:, None]] for a in _pearson(system))
    keep = defined.all(axis=1)
    rho = rho[keep]
    r11, r12, r21, r22 = rho.T
    lhs = np.abs(r11 * r12 - r21 * r22)
    s11, s12, s21, s22 = np.sqrt(np.maximum(0.0, 1 - rho**2)).T
    rhs = s11 * s12 + s21 * s22
    return np.flatnonzero(keep), rho, lhs, rhs


class _Results(Sequence):
    """``run_cosphericity``'s list over ``_evaluate``'s arrays, read-only: its
    length, the sub-designs checked, needs no build; the first read of an
    element builds the list once, sub-designs in ``design``'s labels."""

    def __init__(self, design: Design, arrays: tuple, eps_test: float):
        self.design, self.arrays, self.eps_test = design, arrays, eps_test

    def __len__(self) -> int:
        return len(self.arrays[0])

    @functools.cached_property
    def _list(self) -> list[CosphericityResult]:
        kept, rho, lhs, rhs = self.arrays
        subdesigns = _crossed_subdesigns(self.design.index)[0]
        levels = [spec.levels for spec in self.design.inputs]
        kept = [
            (k, kp, levels[k][i], levels[k][ip], levels[kp][j], levels[kp][jp])
            for k, kp, i, ip, j, jp in (subdesigns[s] for s in kept.tolist())
        ]
        passed, boundary = lhs <= rhs + self.eps_test, np.abs(lhs - rhs) <= self.eps_test
        return list(map(CosphericityResult, kept, map(tuple, rho.tolist()), lhs.tolist(),
                        rhs.tolist(), passed.tolist(), boundary.tolist()))

    def __getitem__(self, i):
        return self._list[i]

    def __eq__(self, other) -> bool:
        return self._list == other

    def __repr__(self) -> str:
        return repr(self._list)


def run_cosphericity(
    system: System, eps_test: float = EPS_COSPHERICAL
) -> list[CosphericityResult]:
    """Evaluate the correlation inequality on every eligible sub-design.

    Sub-designs with a zero-variance marginal are skipped (the inequality is
    vacuous without a defined correlation).  Raises InapplicableError when no
    eligible sub-design exists at all.  Correlations come for every output
    pair and treatment at once from ``system.pair_table``; the inequality is
    then checked on all sub-designs at once, and read off with one ``tolist``.
    """
    return _Results(system.design, _evaluate(system), eps_test)._list


def cosphericity_report(system: System, eps_test: float = EPS_COSPHERICAL) -> TestReport:
    """Overall verdict: ruled out as soon as any sub-design fails.  Each 2x2
    cell is read off its first realizing treatment in declared order, so
    without marginal selectivity the verdict can depend on that order.
    Decided on arrays: the only result built is the witness, the first
    failing sub-design with the largest lhs - rhs.  ``details["results"]`` equals
    ``run_cosphericity``'s list, read-only; its length is free, and its
    results are built when first read."""
    name = "cosphericity"
    try:
        results = _Results(system.design, _evaluate(system), eps_test)
    except InapplicableError as exc:
        return TestReport(name, INAPPLICABLE, str(exc))
    if not results:
        return TestReport(
            name, INAPPLICABLE, "no sub-design with numeric payloads and nonzero variance"
        )
    _, _, lhs, rhs = results.arrays
    failing = np.flatnonzero(~(lhs <= rhs + eps_test)).tolist()
    if failing:
        s = max(failing, key=(lhs - rhs).tolist().__getitem__)
        worst = _Results(system.design, tuple(a[s : s + 1] for a in results.arrays), eps_test)[0]
        return TestReport(
            name,
            RULED_OUT,
            f"{worst.lhs:.4f} > {worst.rhs:.4f} on sub-design {worst.subdesign}",
            witness=worst,
            details={"results": results},
        )
    flagged = int(np.count_nonzero(np.abs(lhs - rhs) <= eps_test))
    summary = f"all {len(results)} sub-designs pass"
    if flagged:
        summary += f" ({flagged} within tolerance of the bound)"
    return TestReport(name, CONSISTENT, summary, details={"results": results})
