"""Chain-inequality tests built on pseudo-quasi-metrics over output pairs.

Any function d on jointly distributed random variables with d(X, X) = 0 and
the (possibly asymmetric) triangle inequality yields a necessary condition:
if a single coupling exists, then for every sequence of (input, level) pairs
whose consecutive links (and the closing pair) co-occur in some allowable
treatment, the distance across the closing pair is at most the sum of the
link distances.  All quantities are observable 2-marginals, so a violated
chain refutes selective influences outright.

Two metric families are provided:

* power: d_p(Q, R) = sum_{q < r} |q - r|**p * Pr(Q=q, R=r), 0 <= p <= 1,
  computed on numeric payloads (one-sided, hence asymmetric);
* classification: d(Q, R) = sum_{i < i'} Pr(Q in class_i, R in class_i'),
  for user-supplied ordered partitions of each output's value set (equals
  the p = 0 power metric after mapping values to class indices).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InapplicableError, UsageError
from .marginal import check_marginal_selectivity  # unused; perfbench/spans.py patches it here
from .model import (
    DESIGN_CACHE_SIZE, MARGIN_CACHE_SIZE, Design, Level, System, Treatment, TreatmentIndex,
    pair_layout,
)
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport
from .tolerances import EPS_TEST, rounding_band

MAX_SEQUENCE_LENGTH = 6

SequenceElement = tuple[int, Level]  # (input index, level)


@dataclass(frozen=True)
class PowerMetric:
    """One-sided power-difference metric with exponent p in [0, 1]."""

    p: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise UsageError(f"power exponent must be in [0, 1], got {self.p}")


@dataclass(frozen=True)
class ClassificationMetric:
    """Ordered partition of each output's values into at least two classes.

    ``partitions[k]`` is a tuple of classes (each a tuple of value labels)
    covering output k's values disjointly, in the order that defines the
    class indices.  Supplying a class order turns this into an
    order-distance; no separate strict-order type exists.
    """

    partitions: tuple[tuple[tuple, ...], ...]

    def __post_init__(self):
        norm = tuple(
            tuple(tuple(cls) for cls in per_output) for per_output in self.partitions
        )
        object.__setattr__(self, "partitions", norm)

    def validate(self, design: Design) -> None:
        if len(self.partitions) != design.n:
            raise UsageError("one partition per output is required")
        for per_output, out in zip(self.partitions, design.outputs):
            if len(per_output) < 2:
                raise UsageError(f"output {out.name!r}: at least 2 classes required")
            labels = [label for cls in per_output for label in cls]
            if len(labels) != len(out.values) or any(labels.count(v) != 1 for v in out.values):
                raise UsageError(
                    f"output {out.name!r}: partition must cover its values disjointly"
                )

    def class_index(self, k: int, value) -> int:
        for i, cls in enumerate(self.partitions[k]):
            if value in cls:
                return i
        raise UsageError(f"value {value!r} not classified for output {k}")


MetricSpec = PowerMetric | ClassificationMetric


@dataclass(frozen=True)
class ChainViolation:
    """A violated chain inequality: the refuting witness of a distance test.

    ``treatments[0]`` realizes the closing pair (first element, last
    element); ``treatments[1:]`` realize the consecutive links in order.
    """

    sequence: tuple[SequenceElement, ...]
    lhs: float
    rhs: float
    treatments: tuple[Treatment, ...]

    def to_json(self) -> dict:
        return asdict(self)


@functools.lru_cache(maxsize=MARGIN_CACHE_SIZE)
def _pair_weights(metric: MetricSpec, outputs: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(forward, backward): per ``pair_layout`` column the weight W of its
    cell, d(k, k') = sum(P2 * W) over a pair's 2-marginal P2, then from k'
    to k over the columns in ``transposed`` order: (y - x)**p where x < y,
    the class metric being p = 0 on class indices; 0 for absent payloads.
    Both come from one difference y - x, since x - y is its exact negation.
    Kept for as many (metric, outputs) as a battery's outcome shapes."""
    layout = pair_layout(tuple(len(out.values) for out in outputs))
    if isinstance(metric, PowerMetric):
        x, y, p = *layout.payloads(outputs), metric.p
    else:
        c = np.array([metric.class_index(k, v) for k, o in enumerate(outputs) for v in o.values])
        x, y, p = c[layout.first], c[layout.second], 0.0
    d = y - x
    w = np.power(np.abs(d), p)
    return np.where(d > 0, w, 0.0), np.where(d < 0, w, 0.0)[layout.transposed]


def _distances(system: System, metric: MetricSpec) -> np.ndarray:
    """(treatments, 2 pairs): at every treatment the distance from k to k'
    for each output pair (k, k') of ``pair_layout``, then from k' to k."""
    table = system.pair_table
    layout = pair_layout(system.array.shape[1:])
    forward, backward = _pair_weights(metric, system.design.outputs)
    backward = layout.sums(np.take(table, layout.transposed, axis=1) * backward)
    return np.concatenate((layout.sums(table * forward), backward), axis=1)


def pairwise_distance(
    system: System,
    metric: MetricSpec,
    treatment: Treatment,
    k: int,
    k_prime: int,
) -> tuple[float, float]:
    """Both directed distances between outputs k and k' at one treatment."""
    design = system.design
    for index in (k, k_prime):
        if not 0 <= index < design.n:
            raise UsageError(f"output index {index} is outside [0, {design.n})")
    if k == k_prime:
        raise UsageError("pairwise distance needs two distinct outputs")
    if isinstance(metric, ClassificationMetric):
        metric.validate(design)
    try:
        b = design.treatments.index(tuple(treatment))
    except ValueError:
        raise UsageError(f"no distribution for treatment {treatment!r}") from None
    out, out_prime = design.outputs[k], design.outputs[k_prime]
    if isinstance(metric, PowerMetric) and not (out.has_numeric and out_prime.has_numeric):
        raise InapplicableError(
            f"power metric needs numeric payloads on outputs {out.name!r} and {out_prime.name!r}"
        )
    p = pair_layout(system.array.shape[1:]).pairs.index((min(k, k_prime), max(k, k_prime)))
    directed = _distances(system, metric)[b].reshape(2, -1)[:, p]
    return float(directed[int(k > k_prime)]), float(directed[int(k < k_prime)])


def enumerate_test_sequences(
    design: Design, max_length: int = MAX_SEQUENCE_LENGTH
) -> list[tuple[tuple[SequenceElement, ...], tuple[Treatment, ...]]]:
    """Sequences of (input, level) pairs whose chain inequalities must hold.

    For a fully crossed design the irreducible sequences are exactly the
    quadruples (k, j1), (k', j2), (k, j3), (k', j4) with k != k', j1 != j3,
    j2 != j4, and only those are returned.  Otherwise all treatment-realizable
    sequences of length 3..max_length are enumerated (consecutive elements
    distinct, first != last, every consecutive pair and the closing pair
    housed in some allowable treatment).  Each sequence comes with its
    realizing treatments: closing first, then one per consecutive link, each
    the first matching treatment in declared order.

    Chains are compiled once per design index and max_length into a table
    of their distinct links, in level positions, shared by every design
    equal up to labels, battery members included; each call labels them
    with ``design``'s levels in a new list, which the caller owns.
    """
    sequences, ids, _, realizers = _chains(design.index, max_length)
    first = [design.treatments[b] for b in realizers[:, 0].tolist()]
    chains = zip(sequences, ids.tolist())
    return [(_labelled(design, s), tuple(first[i] for i in row[: len(s)])) for s, row in chains]


def _labelled(design: Design, sequence: tuple) -> tuple[SequenceElement, ...]:
    """``sequence``, a chain of (input, level position), in ``design``'s labels."""
    return tuple((k, design.inputs[k].levels[i]) for k, i in sequence)


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _chains(index: TreatmentIndex, max_length: int) -> tuple:
    """(sequences, ids, columns, realizers): the chains, elements (input,
    level position); per chain the closing link's id, then the consecutive
    links' ids, padded with the number of distinct (a, b) links; per link
    the column of ``_distances`` from output k_a to k_b, and its realizers'
    treatment positions, in declared order, padded with the last of them."""
    if max_length < 3:
        raise UsageError("max_length must be at least 3")
    counts = index.counts
    sequences = []
    if index.fully_crossed:
        for k, k_prime in itertools.permutations(range(len(counts)), 2):
            for j1, j3 in itertools.permutations(range(counts[k]), 2):
                for j2, j4 in itertools.permutations(range(counts[k_prime]), 2):
                    sequences.append(((k, j1), (k_prime, j2), (k, j3), (k_prime, j4)))
    else:
        elements = [(k, i) for k, m in enumerate(counts) for i in range(m)]
        edges = {a: [b for b in elements if index.realizers(a, b)] for a in elements}

        def extend(seq: list[SequenceElement]):
            if 3 <= len(seq) <= max_length and index.realizers(seq[0], seq[-1]):
                sequences.append(tuple(seq))
            if len(seq) == max_length:
                return
            for nxt in edges[seq[-1]]:
                seq.append(nxt)
                extend(seq)
                seq.pop()

        for start in elements:
            extend([start])

    link_ids: dict[tuple[SequenceElement, SequenceElement], int] = {}
    ids = np.full((len(sequences), 4 if index.fully_crossed else max_length), -1, dtype=np.intp)
    for c, seq in enumerate(sequences):
        pairs = [(seq[0], seq[-1]), *zip(seq, seq[1:])]
        ids[c, : len(seq)] = [link_ids.setdefault(pair, len(link_ids)) for pair in pairs]
    ids[ids < 0] = len(link_ids)
    positions = [index.realizers(a, b) for a, b in link_ids]
    w = max(map(len, positions), default=1)
    realizers = np.array([r + r[-1:] * (w - len(r)) for r in positions], np.intp).reshape(-1, w)
    pairs = list(itertools.combinations(range(len(counts)), 2))
    column = {pair: p for p, pair in enumerate(pairs)}
    column.update({(k_b, k_a): len(pairs) + p for p, (k_a, k_b) in enumerate(pairs)})
    columns = np.array([column[a[0], b[0]] for a, b in link_ids], dtype=np.intp)
    for table in (ids, columns, realizers):
        table.setflags(write=False)
    return tuple(sequences), ids, columns, realizers


def run_distance_test(
    system: System,
    metric: MetricSpec,
    max_length: int = MAX_SEQUENCE_LENGTH,
    eps_test: float = EPS_TEST,
) -> TestReport:
    """Check every enumerated chain inequality; report the worst violation.

    Under selective influences all realizers of a link share its 2-marginal,
    so each link takes its worst case: its largest distance if closing, else
    its smallest, read off the first realizer in declared order within
    ``rounding_band(c, s)`` of it, c the outcome's cells and s the largest
    distance: a distance sums c nonnegative mass-weight products, so in any
    order it is within c eps s of its exact value, and equal 2-marginals stay
    tied.  All chains are then checked at once, link sums added in chain
    order.  The witness has the smallest repr of its sequence among the
    violated chains whose lhs - rhs is within ``rounding_band(L, s)`` of the
    largest, L the chain length in use (4 on a fully crossed design, else
    ``max_length``) and s the largest lhs + rhs: each of the L distances in
    lhs - rhs is off by a few ulps of itself, so exact ties stay tied.
    """
    name = "distance"
    design = system.design
    if isinstance(metric, ClassificationMetric):
        metric.validate(design)
    elif isinstance(metric, PowerMetric) and not all(o.has_numeric for o in design.outputs):
        return TestReport(name, INAPPLICABLE, "power metric needs numeric payloads on all outputs")

    sequences, ids, columns, realizers = _chains(design.index, max_length)
    values = _distances(system, metric)[realizers, columns[:, None]]
    band = rounding_band(math.prod(system.array.shape[1:]), float(np.abs(values).max(initial=0.0)))
    # per link: the first realizer within the band of its largest, and of its smallest, distance
    closing = np.argmax(values >= values.max(axis=1, keepdims=True) - band, axis=1)
    linking = np.argmax(values <= values.min(axis=1, keepdims=True) + band, axis=1)
    rows = np.arange(len(realizers))
    lhs = values[rows, closing][ids[:, 0]]
    link_values = np.append(values[rows, linking], 0.0)
    rhs = np.zeros(len(sequences))
    for column in ids[:, 1:].T:
        rhs += link_values[column]
    violated = lhs > rhs + eps_test
    if not violated.any():
        return TestReport(name, CONSISTENT, "all chain inequalities hold")
    gap = lhs - rhs
    bound = rounding_band(ids.shape[1], (lhs + rhs)[violated].max())
    tied = np.flatnonzero(violated & (gap >= gap[violated].max() - bound))
    c = min(tied, key=lambda i: repr(_labelled(design, sequences[i])))
    row = ids[c, : len(sequences[c])]
    used = tuple(
        design.treatments[realizers[i, pick[i]]]
        for i, pick in zip(row, [closing] + [linking] * (len(row) - 1))
    )
    worst = ChainViolation(_labelled(design, sequences[c]), float(lhs[c]), float(rhs[c]), used)
    return TestReport(
        name,
        RULED_OUT,
        f"chain inequality violated: {worst.lhs:.6g} > {worst.rhs:.6g} "
        f"for sequence {worst.sequence}",
        witness=worst,
    )
