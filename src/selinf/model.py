"""Core data model: inputs, treatments, joint pmfs, and latent generators.

A *system* is a family of finite discrete joint distributions over output
tuples, one joint pmf per allowable treatment (a treatment assigns one level
to every input).  Inputs and outputs are index-paired one to one; callers
with a many-to-many influence pattern must pre-group inputs so that this
pairing holds.

The library reads a system as one dense array of masses; ``JointPmf``
label tables are the boundary form that documents, latent models and
callers write and read, and a system derives either form from the other.

In measure-theoretic terms each ``JointPmf`` is a distribution (S, Sigma, p)
with S a finite product of value sets and Sigma implicitly the power set;
only the point masses are stored.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, UsageError
from .tolerances import ARRAY_BYTE_CAP, EPS_PROB

#: Distinct designs whose derived lookups (index, chains) are kept.
DESIGN_CACHE_SIZE = 8

Level = Hashable
Value = Hashable
Treatment = tuple  # one level per input, in declared input order


@dataclass(frozen=True)
class InputSpec:
    """A deterministic input: a name and its ordered levels.

    Single-level ("dummy") inputs are allowed; they stand for outputs that
    no real input influences.
    """

    name: str
    levels: tuple[Level, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if len(self.levels) < 1:
            raise UsageError(f"input {self.name!r} needs at least one level")
        if len(set(self.levels)) != len(self.levels):
            raise UsageError(f"input {self.name!r} has duplicate levels")


@dataclass(frozen=True)
class OutputSpec:
    """A random output: a name, its ordered values, optional numeric payloads.

    Numeric payloads are deliberately separate from value labels: numeric
    coding of qualitative outcomes is arbitrary, and tests that need numbers
    (power metrics, correlations) refuse outputs that lack payloads instead
    of silently indexing the labels.
    """

    name: str
    values: tuple[Value, ...]
    numeric: tuple[float | None, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) < 1:
            raise UsageError(f"output {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise UsageError(f"output {self.name!r} has duplicate values")
        if self.numeric is not None:
            numeric = tuple(None if x is None else float(x) for x in self.numeric)
            if len(numeric) != len(self.values):
                raise UsageError(
                    f"output {self.name!r}: numeric payloads must align with values"
                )
            for x in numeric:
                if x is not None and not math.isfinite(x):
                    raise UsageError(f"output {self.name!r}: non-finite payload {x!r}")
            object.__setattr__(self, "numeric", numeric)

    @property
    def has_numeric(self) -> bool:
        """True when every value carries a numeric payload."""
        return self.numeric is not None and all(x is not None for x in self.numeric)

    def numeric_value(self, value: Value) -> float:
        """Payload of ``value``; raises UsageError when absent."""
        try:
            idx = self.values.index(value)
        except ValueError:
            raise UsageError(f"output {self.name!r}: unknown value {value!r}") from None
        if self.numeric is None or self.numeric[idx] is None:
            raise UsageError(f"output {self.name!r}: value {value!r} has no numeric payload")
        return self.numeric[idx]


@dataclass(frozen=True)
class Design:
    """Index-paired inputs and outputs plus the allowable treatments.

    ``treatments`` is an ordered tuple of full level assignments (one level
    per input, in declared input order); order is preserved everywhere so
    that derived matrices are reproducible.
    """

    inputs: tuple[InputSpec, ...]
    outputs: tuple[OutputSpec, ...]
    treatments: tuple[Treatment, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "treatments", tuple(tuple(t) for t in self.treatments))
        if len(self.inputs) != len(self.outputs):
            raise UsageError("inputs and outputs must be index-paired (equal counts)")
        if not self.treatments:
            raise UsageError("at least one allowable treatment is required")
        if len(set(self.treatments)) != len(self.treatments):
            raise UsageError("duplicate treatments")
        for t in self.treatments:
            if len(t) != len(self.inputs):
                raise UsageError(f"treatment {t!r} must assign a level to every input")
            for spec, level in zip(self.inputs, t):
                if level not in spec.levels:
                    raise UsageError(
                        f"treatment {t!r} assigns undeclared level {level!r} "
                        f"to input {spec.name!r}"
                    )

    @property
    def n(self) -> int:
        return len(self.inputs)

    def with_outputs(self, outputs: Iterable[OutputSpec]) -> Design:
        """This design with ``outputs`` in place of its own.  The inputs and
        treatments were checked when this design was made and are shared
        unchecked; only the pairing of the new outputs with the inputs is
        checked."""
        outputs = tuple(outputs)
        if len(outputs) != len(self.inputs):
            raise UsageError("inputs and outputs must be index-paired (equal counts)")
        design = copy.copy(self)
        object.__setattr__(design, "outputs", outputs)
        object.__setattr__(design, "index", self.index)
        return design

    @functools.cached_property
    def index(self) -> TreatmentIndex:
        """The treatment index, looked up once per Design object and shared
        by designs with equal inputs and treatments while cached; the key's
        repr keeps equal labels of different types (1, 1.0) apart."""
        key = (self.inputs, self.treatments)
        return _treatment_index(*key, repr(key))

    def is_fully_crossed(self) -> bool:
        """True when every combination of input levels is allowable."""
        return self.index.fully_crossed

    def outcome_tuples(self) -> Iterable[tuple[Value, ...]]:
        """All output-value tuples in lexicographic declared-value order."""
        return itertools.product(*(o.values for o in self.outputs))


class TreatmentIndex:
    """Allowable treatments grouped by the levels they share.

    ``groups(subset)`` maps each tuple of levels that treatments take on
    ``subset`` (distinct input indices) to their ascending positions in the
    design's treatment order, in order of first treatment; it is built when
    first asked for, then kept, and is not to be mutated.
    ``realizers(a, b)`` is the group of the treatments housing both
    ``a = (k, level)`` and ``b = (k', level')``, empty when k == k' or when
    none does.  A design's index is ``Design.index``.
    """

    def __init__(self, inputs: tuple[InputSpec, ...], treatments: tuple[Treatment, ...]):
        self.inputs = inputs
        self.treatments = treatments
        self.fully_crossed = len(treatments) == math.prod(len(spec.levels) for spec in inputs)
        self._groups: dict[tuple[int, ...], dict[tuple, tuple[int, ...]]] = {}

    def groups(self, subset: tuple[int, ...]) -> dict[tuple, tuple[int, ...]]:
        if subset not in self._groups:
            groups: dict[tuple, list[int]] = {}
            for b, t in enumerate(self.treatments):
                groups.setdefault(tuple(t[k] for k in subset), []).append(b)
            self._groups[subset] = {levels: tuple(group) for levels, group in groups.items()}
        return self._groups[subset]

    def realizers(self, a: tuple[int, Level], b: tuple[int, Level]) -> tuple[int, ...]:
        if a[0] == b[0]:
            return ()
        if a[0] > b[0]:
            a, b = b, a
        return self.groups((a[0], b[0])).get((a[1], b[1]), ())


@functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)
def _treatment_index(inputs, treatments, _labels: str) -> TreatmentIndex:
    return TreatmentIndex(inputs, treatments)


@dataclass(frozen=True)
class JointPmf:
    """A finite discrete joint pmf stored as a map from value tuples to mass.

    Masses in (-eps, 0) are clipped to zero at construction; exact zeros are
    dropped from the support.  Construction does not renormalize: a badly
    scaled table is surfaced by ``validate_system`` rather than hidden.
    """

    arity: int
    table: Mapping[tuple, float] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[tuple, float] = {}
        for key, mass in self.table.items():
            key = tuple(key) if isinstance(key, (tuple, list)) else (key,)
            if len(key) != self.arity:
                raise UsageError(f"tuple {key!r} has arity {len(key)}, expected {self.arity}")
            mass = float(mass)
            if not math.isfinite(mass):
                raise UsageError(f"non-finite mass {mass!r} at {key!r}")
            if -EPS_PROB < mass < 0.0:
                mass = 0.0
            if mass != 0.0:
                clean[key] = clean.get(key, 0.0) + mass
        object.__setattr__(self, "table", clean)

    def mass(self, key: tuple) -> float:
        return self.table.get(tuple(key), 0.0)

    def total(self) -> float:
        return sum(self.table.values())

    def items(self):
        return self.table.items()

    def support(self) -> list[tuple]:
        return list(self.table.keys())


class System:
    """A design together with one joint output pmf per allowable treatment.

    The library reads ``array``; ``distributions`` holds the ``JointPmf``
    tables.  A system keeps the form it was made from, tables or
    (``from_array``) an array, and derives the other on first use, checking
    the tables' structure as it builds the array.  Neither may be mutated.
    """

    def __init__(self, design: Design, distributions: Mapping[Treatment, JointPmf]):
        self.design = design
        self.distributions = dict(distributions)

    @classmethod
    def from_array(cls, design: Design, array: np.ndarray) -> "System":
        """The system whose ``array`` is ``array`` (shaped as that property
        describes).  Masses in (-EPS_PROB, 0) become 0, as ``JointPmf``
        clips them."""
        system = cls.__new__(cls)
        system.design = design
        system.array = np.where((array < 0.0) & (array > -EPS_PROB), 0.0, array)
        system.array.flags.writeable = False
        return system

    def pmf(self, treatment: Treatment) -> JointPmf:
        try:
            return self.distributions[tuple(treatment)]
        except KeyError:
            raise UsageError(f"no distribution for treatment {treatment!r}") from None

    @functools.cached_property
    def distributions(self) -> dict[Treatment, JointPmf]:
        """The tables, read off ``array``'s nonzero cells if not given."""
        values = [out.values for out in self.design.outputs]
        return {t: _table(values, masses) for t, masses in zip(self.design.treatments, self.array)}

    @functools.cached_property
    def array(self) -> np.ndarray:
        """Read-only float64 masses of shape (treatments, *outcome shape):
        ``array[b][o]`` is the mass of the outcome with value indices ``o`` at
        ``design.treatments[b]``.  UsageError for a table of an undeclared
        treatment, a missing table, a wrong arity or an undeclared value;
        CapacityError, before allocating, above ARRAY_BYTE_CAP."""
        design = self.design
        outputs = design.outputs
        shape = (len(design.treatments), *(len(out.values) for out in outputs))
        if math.prod(shape) * 8 > ARRAY_BYTE_CAP:
            raise CapacityError(
                f"pmf array of shape {shape} needs over {ARRAY_BYTE_CAP} bytes; "
                "group output values before testing"
            )
        declared = set(design.treatments)
        for t in self.distributions:
            if t not in declared:
                raise UsageError(f"distribution given for undeclared treatment {t!r}")
        positions = [{v: i for i, v in enumerate(out.values)} for out in outputs]
        index: list[list[int]] = [[] for _ in shape]
        masses: list[float] = []
        for b, t in enumerate(design.treatments):
            if t not in self.distributions:
                raise UsageError(f"treatment {t!r} has no distribution")
            pmf = self.distributions[t]
            if pmf.arity != design.n:
                raise UsageError(
                    f"treatment {t!r}: pmf arity {pmf.arity} != number of outputs {design.n}"
                )
            for key, mass in pmf.items():
                index[0].append(b)
                for k, value in enumerate(key):
                    try:
                        index[k + 1].append(positions[k][value])
                    except KeyError:
                        raise UsageError(
                            f"treatment {t!r}: undeclared value {value!r} "
                            f"for output {outputs[k].name!r}"
                        ) from None
                masses.append(mass)
        array = np.zeros(shape)
        array[tuple(index)] = masses
        array.flags.writeable = False
        return array

    @functools.cached_property
    def pair_marginals(self) -> dict[tuple[int, int], np.ndarray]:
        """Read-only 2-marginals of ``array``, by output pair (k, k') with
        k < k': each of shape (treatments, values of k, values of k')."""
        n = self.design.n
        out = {}
        for k, k_prime in itertools.combinations(range(n), 2):
            others = tuple(j + 1 for j in range(n) if j not in (k, k_prime))
            marginal = self.array.sum(axis=others)
            marginal.flags.writeable = False
            out[(k, k_prime)] = marginal
        return out


def _table(values: Sequence[tuple[Value, ...]], array: np.ndarray) -> JointPmf:
    """The pmf of ``array``'s nonzero cells, axis k labelled by ``values[k]``,
    in C order."""
    keys = [tuple(v[i] for v, i in zip(values, cell)) for cell in np.argwhere(array).tolist()]
    return JointPmf(len(values), dict(zip(keys, array[array != 0].tolist())))


@dataclass(frozen=True)
class LatentModel:
    """An explicit single-source model: a latent pmf and response tables.

    ``responses[k]`` maps ``(level of input k, latent value)`` to a value of
    output k.  Systems generated from such a model satisfy selective
    influences by construction, which makes the generator a source of
    known-consistent fixtures.
    """

    latent: JointPmf  # arity 1, over latent values
    responses: tuple[Mapping[tuple, Value], ...]

    def __post_init__(self):
        if self.latent.arity != 1:
            raise UsageError("latent pmf must be univariate (arity 1)")
        object.__setattr__(self, "responses", tuple(dict(r) for r in self.responses))

    def latent_values(self) -> list:
        return [r for (r,) in self.latent.support()]

    def respond(self, k: int, level: Level, r) -> Value:
        try:
            return self.responses[k][(level, r)]
        except KeyError:
            raise UsageError(
                f"response table {k} is not total: missing ({level!r}, {r!r})"
            ) from None


def marginalize(pmf: JointPmf, indices: Sequence[int]) -> JointPmf:
    """Project ``pmf`` onto the given coordinate indices (in the given order).

    Each original mass is summed into its projected tuple, so total mass is
    preserved exactly up to float addition.
    """
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        raise UsageError(f"duplicate indices in {indices!r}")
    for i in indices:
        if not 0 <= i < pmf.arity:
            raise UsageError(f"index {i} out of range for arity {pmf.arity}")
    out: dict[tuple, float] = {}
    for key, mass in pmf.items():
        proj = tuple(key[i] for i in indices)
        out[proj] = out.get(proj, 0.0) + mass
    return JointPmf(len(indices), out)


def validate_system(system: System, eps_prob: float = EPS_PROB) -> list[str]:
    """Collect invariant violations; an empty list means the system is valid.

    A structural defect, found as ``system.array`` is built, is the only
    violation returned; otherwise each non-finite mass (NaN or infinite),
    each mass below -eps_prob and each mass sum off 1 by more than eps_prob
    is read from the array and reported, treatments in declared order.  A
    valid array costs one vectorized check; only a flagged one is walked
    treatment by treatment.  Violations are data, not exceptions: ingested
    tables often carry rounding defects that the caller wants reported in
    bulk.
    """
    try:
        array = system.array
    except UsageError as exc:
        return [str(exc)]
    design = system.design
    totals = array.reshape(len(design.treatments), -1).sum(axis=1)
    # Sums within eps_prob of 1 are finite, and so is every mass summed.
    if array.min() >= -eps_prob and (np.abs(totals - 1.0) <= eps_prob).all():
        return []
    totals = totals.tolist()
    flagged = np.argwhere(~np.isfinite(array) | (array < -eps_prob)).tolist()
    violations: list[str] = []
    for b, (t, total) in enumerate(zip(design.treatments, totals)):
        for _, *cell in [c for c in flagged if c[0] == b]:
            key = tuple(out.values[i] for out, i in zip(design.outputs, cell))
            mass = array[(b, *cell)]
            kind = "negative" if np.isfinite(mass) else "non-finite"
            violations.append(f"treatment {t!r}: {kind} mass {mass} at {key!r}")
        if abs(total - 1.0) > eps_prob:
            violations.append(f"treatment {t!r}: mass sum {total:.10g} != 1")
    return violations


def generate_system(design: Design, model: LatentModel) -> System:
    """Build the system induced by a latent model, by exact enumeration.

    For each treatment the output tuple is a deterministic function of the
    latent value, so the treatment pmf is the pushforward of the latent pmf.
    """
    value_sets = [set(o.values) for o in design.outputs]
    distributions: dict[Treatment, JointPmf] = {}
    for t in design.treatments:
        table: dict[tuple, float] = {}
        for (r,), mass in model.latent.items():
            outcome = []
            for k, level in enumerate(t):
                value = model.respond(k, level, r)
                if value not in value_sets[k]:
                    raise UsageError(
                        f"response table {k} maps ({level!r}, {r!r}) to {value!r}, "
                        f"outside output {design.outputs[k].name!r}"
                    )
                outcome.append(value)
            key = tuple(outcome)
            table[key] = table.get(key, 0.0) + mass
        distributions[t] = JointPmf(design.n, table)
    return System(design, distributions)
