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
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, UsageError
from .model import (
    MARGIN_CACHE_SIZE,
    System,
    Treatment,
    TreatmentIndex,
    margin_layout,
    sub_marginals,
)
from .tolerances import ARRAY_BYTE_CAP, EPS_TEST, rounding_band


@dataclass(frozen=True)
class MarginalReport:
    """Worst observed marginal discrepancy over all checked comparisons.

    ``discrepancy`` is the largest sup-norm difference between the
    sub-marginal tables of a compared pair (sharpest single violating cell);
    ``total_variation`` is reported for the worst pair, informationally.
    ``worst_subset``/``worst_pair`` are None when no compared pair differs
    (vacuous pass).  ``comparisons`` is the number of (subset, treatment
    pair) comparisons made; it is left out of ``to_json`` and of equality.
    """

    worst_subset: tuple[int, ...] | None
    worst_pair: tuple[Treatment, Treatment] | None
    discrepancy: float
    total_variation: float
    passed: bool
    comparisons: int = field(default=0, compare=False)

    def to_json(self) -> dict:
        return {
            "worst_subset": self.worst_subset,
            "worst_pair": self.worst_pair,
            "discrepancy": self.discrepancy,
            "total_variation": self.total_variation,
        }


@functools.lru_cache(maxsize=MARGIN_CACHE_SIZE)
def _comparisons(index: TreatmentIndex, shape: tuple[int, ...], max_subset_size: int) -> tuple:
    """The comparison table of a design and outcome shape, in test order:
    output subsets by size, then in combination order; within a subset, the
    treatment pairs that agree on the subset's inputs, groups in order of
    their first treatment, pairs in combination order within each group.

    Returns (gather, owners, pairs).  ``gather`` is a read-only, C-contiguous
    (2, cells, comparisons) intp array: ``gather[i, c, j]`` is the flat
    position, in the ``sub_marginals`` table, of cell c of comparison j's
    subset at the pair's i-th treatment; cells past the subset's own repeat
    its last, which leaves every maximum unchanged.  ``owners[j]`` is
    comparison j's subset, by its position in ``margin_layout``'s subsets,
    and ``pairs[:, j]`` its two treatment positions.

    Comparisons are counted from the group sizes first: CapacityError,
    before any table is built, when there are some and the ``sub_marginals``
    table or ``gather`` (and so the cells it gathers) would exceed
    ARRAY_BYTE_CAP."""
    layout = margin_layout(shape, max_subset_size)
    columns = layout.offsets[-1]
    groups = [index.groups(subset).values() if subset else () for subset in layout.subsets]
    counts = [sum(len(g) * (len(g) - 1) // 2 for g in found) for found in groups]
    widths = [b - a for a, b, count in zip(layout.offsets, layout.offsets[1:], counts) if count]
    width, comparisons = max(widths, default=1), sum(counts)
    for what, nbytes in (
        ("sub-marginal table", 8 * len(index.positions) * columns),
        ("comparison index", 8 * 2 * width * comparisons),  # as are the cells it gathers
    ):
        if comparisons and nbytes > ARRAY_BYTE_CAP:
            raise CapacityError(
                f"the marginal test's {what} needs {nbytes} bytes, over ARRAY_BYTE_CAP "
                f"({ARRAY_BYTE_CAP}); lower max_subset_size (--marginal-max-subset) "
                "or group output values"
            )
    owners, pairs = [], []
    for s, subset_groups in enumerate(groups):
        found = [pair for group in subset_groups for pair in itertools.combinations(group, 2)]
        owners += [s] * len(found)
        pairs += found
    owners = np.array(owners, dtype=np.intp)
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    lo, hi = np.array(layout.offsets[:-1])[owners], np.array(layout.offsets[1:])[owners]
    cells = lo + np.minimum(np.arange(width)[:, None], hi - lo - 1)
    gather = np.ascontiguousarray(pairs[:, None, :] * columns + cells)
    for table in (gather, owners, pairs):
        table.setflags(write=False)
    return gather, owners, pairs


def check_marginal_selectivity(
    system: System,
    max_subset_size: int | None = None,
    eps_test: float = EPS_TEST,
) -> MarginalReport:
    """Run the complete marginal selectivity test up to ``max_subset_size``.

    The default cap is n-1 (the complete test); pass 1 for the simple test.
    Every sub-marginal is one column block of ``sub_marginals``, a single
    matrix product; every agreeing treatment pair of every subset is then
    compared in one gather on that table.  The verdict compares the largest
    sup-norm difference with ``eps_test``.  The worst pair is the first, in
    test order, whose sup is within ``rounding_band(c, s)`` of the largest, c
    the outcome's cells (the most summed into one margin cell, a treatment's
    total) and s the largest absolute total: in any summation order a sup is
    within c eps s of its exact value.  CapacityError, before the table is
    built, when it, the comparison index or the gathered cells would exceed
    ARRAY_BYTE_CAP.
    """
    design = system.design
    n = design.n
    if max_subset_size is None:
        max_subset_size = n - 1
    if n > 1 and not 1 <= max_subset_size <= n - 1:
        raise UsageError(f"max_subset_size must be in [1, {n - 1}]")

    array = system.array
    shape = array.shape[1:]
    max_subset_size = max(0, min(max_subset_size, n - 1))
    gather, owners, pairs = _comparisons(design.index, shape, max_subset_size)
    if not owners.size:
        return MarginalReport(None, None, 0.0, 0.0, True)

    table = sub_marginals(array, max_subset_size)
    scale = float(np.abs(table[:, 0]).max())
    cells = table.take(gather)
    diffs = np.subtract(cells[0], cells[1], out=cells[0])
    np.abs(diffs, out=diffs)
    sups = diffs.max(axis=0)
    largest = float(sups.max())
    if largest == 0.0:
        return MarginalReport(None, None, 0.0, 0.0, 0.0 <= eps_test, owners.size)
    c = int((sups >= largest - rounding_band(math.prod(shape), scale)).argmax())
    layout = margin_layout(shape, max_subset_size)
    s = int(owners[c])
    first, second = pairs[:, c].tolist()
    return MarginalReport(
        layout.subsets[s],
        (design.treatments[first], design.treatments[second]),
        largest,
        float(0.5 * diffs[: layout.offsets[s + 1] - layout.offsets[s], c].sum()),
        largest <= eps_test,
        owners.size,
    )
