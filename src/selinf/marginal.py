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
from .tolerances import EPS_TEST


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
    """The comparison table of a design, in test order: output subsets by
    size, then in combination order; within a subset, the treatment pairs
    that agree on the subset's inputs, groups in order of their first
    treatment, pairs in combination order within each group.

    Returns (subsets, axes summed out per subset, pairs): subsets without a
    pair are left out, and ``pairs`` is a read-only (2, pairs) intp array of
    positions s * len(treatments) + b, subset s at treatment b, in the
    stacked sub-marginals.  Only label equality is used, so equal labels of
    another type may share an entry."""
    subsets, axes, pairs = [], [], []
    for size in range(1, max_subset_size + 1):
        for subset in itertools.combinations(range(n), size):
            groups: dict[tuple, list[int]] = {}
            for b, t in enumerate(treatments):
                groups.setdefault(tuple(t[k] for k in subset), []).append(b)
            found = [
                pair for members in groups.values() for pair in itertools.combinations(members, 2)
            ]
            if found:
                offset = len(subsets) * len(treatments)
                pairs += [(offset + b1, offset + b2) for b1, b2 in found]
                subsets.append(subset)
                axes.append(tuple(k + 1 for k in range(n) if k not in subset))
    table = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    table.setflags(write=False)
    return tuple(subsets), tuple(axes), table


def check_marginal_selectivity(
    system: System,
    max_subset_size: int | None = None,
    eps_test: float = EPS_TEST,
) -> MarginalReport:
    """Run the complete marginal selectivity test up to ``max_subset_size``.

    The default cap is n-1 (the complete test); pass 1 for the simple test.
    Each subset's sub-marginals are one sum over ``system.array``, stacked
    into one zero-padded table; every agreeing treatment pair of every
    subset is then compared in one pass.  The worst pair is the first, in
    test order, with the largest sup-norm difference.  A non-finite mass
    raises UsageError.
    """
    design = system.design
    n = design.n
    if max_subset_size is None:
        max_subset_size = n - 1
    if n > 1 and not 1 <= max_subset_size <= n - 1:
        raise UsageError(f"max_subset_size must be in [1, {n - 1}]")

    array = system.array
    n_treatments = len(design.treatments)
    subsets, axes, pairs = _comparisons(design.treatments, n, max_subset_size)
    margins = [array.sum(axis=summed).reshape(n_treatments, -1) for summed in axes]
    # Each subset's sub-marginals sum every cell's mass, so a non-finite
    # mass leaves a non-finite entry in the first subset's.
    masses = margins[0] if margins else array.reshape(n_treatments, -1)
    if not np.isfinite(masses).all():
        b = int(np.flatnonzero(~np.isfinite(masses).all(axis=1))[0])
        raise UsageError(f"non-finite mass at treatment {design.treatments[b]!r}")
    if not margins:
        return MarginalReport(None, None, 0.0, 0.0, True)

    # Cell-major, so that every per-pair reduction runs across whole rows.
    stack = np.zeros((max(m.shape[1] for m in margins), len(margins), n_treatments))
    for s, margin in enumerate(margins):
        stack[: margin.shape[1], s] = margin.T
    cells = stack.reshape(stack.shape[0], -1).take(pairs, axis=1)
    diffs = np.abs(cells[:, 0] - cells[:, 1])
    sups = diffs.max(axis=0)
    c = int(sups.argmax())
    if sups[c] == 0.0:
        return MarginalReport(None, None, 0.0, 0.0, 0.0 <= eps_test)
    s, first = divmod(int(pairs[0, c]), n_treatments)
    second = int(pairs[1, c]) % n_treatments
    discrepancy = float(sups[c])
    return MarginalReport(
        subsets[s],
        (design.treatments[first], design.treatments[second]),
        discrepancy,
        float(0.5 * diffs[: margins[s].shape[1], c].sum()),
        discrepancy <= eps_test,
    )
