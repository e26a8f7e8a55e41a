"""Complete marginal selectivity test.

Selective influences imply that the joint distribution of any subset of
outputs depends only on the levels of the paired inputs.  The test compares,
for every index subset up to a size cap, the sub-marginals of every pair of
treatments that agree on the corresponding input levels.  It is the cheapest
necessary condition and is also implied by the linear feasibility test.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import DESIGN_CACHE_SIZE, System, Treatment

EPS_TEST = 1e-9


@dataclass(frozen=True)
class MarginalReport:
    """Worst observed marginal discrepancy over all checked comparisons.

    ``discrepancy`` is the sup-norm difference between two sub-marginal
    tables (sharpest single violating cell); ``total_variation`` is reported
    for the same pair, informationally.  ``worst_subset``/``worst_pair`` are
    None when no comparable pair exists (vacuous pass).
    """

    worst_subset: tuple[int, ...] | None
    worst_pair: tuple[Treatment, Treatment] | None
    discrepancy: float
    total_variation: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "worst_subset": self.worst_subset,
            "worst_pair": self.worst_pair,
            "discrepancy": self.discrepancy,
            "total_variation": self.total_variation,
        }


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _comparisons(treatments: tuple[Treatment, ...], n: int, max_subset_size: int) -> tuple:
    """Per output subset, in test order, the treatment pairs (first, second
    position arrays) that agree on the subset's inputs: groups in order of
    their first treatment, pairs in combination order within each group.
    Only label equality is used, so equal labels of another type may share
    an entry."""
    out = []
    for size in range(1, max_subset_size + 1):
        for subset in itertools.combinations(range(n), size):
            groups: dict[tuple, list[int]] = {}
            for b, t in enumerate(treatments):
                groups.setdefault(tuple(t[k] for k in subset), []).append(b)
            pairs = [
                pair for members in groups.values() for pair in itertools.combinations(members, 2)
            ]
            if pairs:
                table = np.array(pairs, dtype=np.intp).T
                table.setflags(write=False)
                out.append((subset, *table))
    return tuple(out)


def check_marginal_selectivity(
    system: System,
    max_subset_size: int | None = None,
    eps_test: float = EPS_TEST,
) -> MarginalReport:
    """Run the complete marginal selectivity test up to ``max_subset_size``.

    The default cap is n-1 (the complete test); pass 1 for the simple test.
    Each subset's sub-marginals are one sum over ``system.array``; the worst
    pair is the first, in test order, with the largest sup-norm difference.
    """
    design = system.design
    n = design.n
    if max_subset_size is None:
        max_subset_size = n - 1
    if n > 1 and not 1 <= max_subset_size <= n - 1:
        raise UsageError(f"max_subset_size must be in [1, {n - 1}]")

    worst = MarginalReport(None, None, 0.0, 0.0, True)
    if n == 1 or len(design.treatments) < 2:
        return worst

    array = system.array
    for subset, first, second in _comparisons(design.treatments, n, max_subset_size):
        others = tuple(k + 1 for k in range(n) if k not in subset)
        margins = array.sum(axis=others).reshape(len(design.treatments), -1)
        diffs = np.abs(margins[first] - margins[second])
        sups = diffs.max(axis=1)
        c = int(np.argmax(sups))
        if sups[c] > worst.discrepancy:
            pair = (design.treatments[first[c]], design.treatments[second[c]])
            worst = MarginalReport(
                subset, pair, float(sups[c]), float(0.5 * diffs[c].sum()), True
            )
    return MarginalReport(
        worst.worst_subset,
        worst.worst_pair,
        worst.discrepancy,
        worst.total_variation,
        worst.discrepancy <= eps_test,
    )
