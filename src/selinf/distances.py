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
from dataclasses import dataclass

from .errors import InapplicableError, UsageError
from .marginal import check_marginal_selectivity
from .model import DESIGN_CACHE_SIZE, Design, JointPmf, Level, System, Treatment
from .model import TreatmentIndex, marginalize, treatment_index
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport

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
            seen: list = []
            for cls in per_output:
                seen.extend(cls)
            if sorted(map(repr, seen)) != sorted(map(repr, out.values)):
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


def _directed_distance(
    pmf2: JointPmf, system: System, metric: MetricSpec, k_from: int, k_to: int
) -> float:
    """Distance from output k_from to k_to given their 2-marginal (in order)."""
    if isinstance(metric, PowerMetric):
        out_from = system.design.outputs[k_from]
        out_to = system.design.outputs[k_to]
        if not (out_from.has_numeric and out_to.has_numeric):
            raise InapplicableError(
                f"power metric needs numeric payloads on outputs "
                f"{out_from.name!r} and {out_to.name!r}"
            )
        total = 0.0
        for (a, b), mass in pmf2.items():
            x, y = out_from.numeric_value(a), out_to.numeric_value(b)
            if x < y:
                total += (y - x) ** metric.p * mass
        return total
    total = 0.0
    for (a, b), mass in pmf2.items():
        if metric.class_index(k_from, a) < metric.class_index(k_to, b):
            total += mass
    return total


def pairwise_distance(
    system: System,
    metric: MetricSpec,
    treatment: Treatment,
    k: int,
    k_prime: int,
) -> tuple[float, float]:
    """Both directed distances between outputs k and k' at one treatment."""
    if k == k_prime:
        raise UsageError("pairwise distance needs two distinct outputs")
    if isinstance(metric, ClassificationMetric):
        metric.validate(system.design)
    pmf2 = marginalize(system.pmf(treatment), (k, k_prime))
    forward = _directed_distance(pmf2, system, metric, k, k_prime)
    backward = _directed_distance(
        marginalize(system.pmf(treatment), (k_prime, k)), system, metric, k_prime, k
    )
    return forward, backward


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

    Chains are computed once per distinct (inputs, treatments, max_length)
    and shared by every later call, battery members included; each call
    returns a new list, which the caller owns.
    """
    if max_length < 3:
        raise UsageError("max_length must be at least 3")
    index = treatment_index(design)
    return list(_chains(index, design.is_fully_crossed(), max_length))


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _chains(index: TreatmentIndex, fully_crossed: bool, max_length: int) -> tuple:
    inputs = index.inputs

    def realized(seq) -> tuple:
        pairs = [(seq[0], seq[-1])] + list(zip(seq, seq[1:]))
        return tuple(index.realizers(a, b)[0] for a, b in pairs)

    results = []
    if fully_crossed:
        for k, k_prime in itertools.permutations(range(len(inputs)), 2):
            for j1, j3 in itertools.permutations(inputs[k].levels, 2):
                for j2, j4 in itertools.permutations(inputs[k_prime].levels, 2):
                    seq = ((k, j1), (k_prime, j2), (k, j3), (k_prime, j4))
                    results.append((seq, realized(seq)))
        return tuple(results)

    elements = [(k, level) for k in range(len(inputs)) for level in inputs[k].levels]
    edges = {a: [b for b in elements if index.realizers(a, b)] for a in elements}

    def extend(seq: list[SequenceElement]):
        if 3 <= len(seq) <= max_length and index.realizers(seq[0], seq[-1]):
            results.append((tuple(seq), realized(seq)))
        if len(seq) == max_length:
            return
        for nxt in edges[seq[-1]]:
            seq.append(nxt)
            extend(seq)
            seq.pop()

    for start in elements:
        extend([start])
    return tuple(results)


def run_distance_test(
    system: System,
    metric: MetricSpec,
    max_length: int = MAX_SEQUENCE_LENGTH,
    eps_test: float = 1e-9,
) -> TestReport:
    """Check every enumerated chain inequality; report the worst violation.

    Link distances are read off the first realizing treatment in declared
    order; under marginal selectivity the choice cannot matter.  When the
    2-marginal selectivity fails, the report flags it and the worst case
    over all realizing treatments is taken instead (largest closing
    distance against smallest link sum).
    """
    name = "distance"
    design = system.design
    if isinstance(metric, ClassificationMetric):
        metric.validate(design)
    elif isinstance(metric, PowerMetric) and not all(
        o.has_numeric for o in design.outputs
    ):
        return TestReport(
            name, INAPPLICABLE, "power metric needs numeric payloads on all outputs"
        )

    ms = check_marginal_selectivity(system, min(2, max(1, design.n - 1)))
    treatment_dependent = not ms.passed

    index = treatment_index(design)
    cache: dict[tuple, float] = {}

    def dist(k_from: int, k_to: int, treatment: Treatment) -> float:
        key = (k_from, k_to, treatment)
        if key not in cache:
            pmf2 = marginalize(system.pmf(treatment), (k_from, k_to))
            cache[key] = _directed_distance(pmf2, system, metric, k_from, k_to)
        return cache[key]

    def link_distance(a: SequenceElement, b: SequenceElement, default: Treatment, best: str):
        if not treatment_dependent:
            return dist(a[0], b[0], default), default
        values = [(dist(a[0], b[0], t), t) for t in index.realizers(a, b)]
        pick = max if best == "max" else min
        return pick(values, key=lambda v: v[0])

    worst: ChainViolation | None = None
    for seq, realizers in enumerate_test_sequences(design, max_length):
        lhs, closing = link_distance(seq[0], seq[-1], realizers[0], "max")
        rhs = 0.0
        used = [closing]
        for i in range(1, len(seq)):
            d, t = link_distance(seq[i - 1], seq[i], realizers[i], "min")
            rhs += d
            used.append(t)
        if lhs > rhs + eps_test:
            candidate = ChainViolation(seq, lhs, rhs, tuple(used))
            if (
                worst is None
                or candidate.lhs - candidate.rhs > worst.lhs - worst.rhs
                or (
                    candidate.lhs - candidate.rhs == worst.lhs - worst.rhs
                    and repr(candidate.sequence) < repr(worst.sequence)
                )
            ):
                worst = candidate
    details = {"treatment_dependent_links": treatment_dependent}
    if worst is not None:
        return TestReport(
            name,
            RULED_OUT,
            f"chain inequality violated: {worst.lhs:.6g} > {worst.rhs:.6g} "
            f"for sequence {worst.sequence}",
            witness=worst,
            details=details,
        )
    return TestReport(name, CONSISTENT, "all chain inequalities hold", details=details)
