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

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError, UsageError
from .tolerances import ARRAY_BYTE_CAP, EPS_PROB, MARGIN_BYTE_CAP

#: Distinct designs whose derived lookups (index, chains) are kept.
DESIGN_CACHE_SIZE = 8

#: Distinct (outcome shape, subset size cap) aggregation plans kept, and
#: (design, outcome shape, cap) comparison tables: a battery brings one new
#: outcome shape per grouping member, so this holds several designs' worth.
MARGIN_CACHE_SIZE = 64

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
    #: True when every value carries a numeric payload; set from ``numeric``.
    has_numeric: bool = field(init=False, repr=False, compare=False)

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
        object.__setattr__(
            self, "has_numeric", self.numeric is not None and None not in self.numeric
        )

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
    that derived matrices are reproducible.  A level equal to a declared one
    in another type (1.0 or True for 1) is stored as the declared label.
    """

    inputs: tuple[InputSpec, ...]
    outputs: tuple[OutputSpec, ...]
    treatments: tuple[Treatment, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        treatments = tuple(tuple(t) for t in self.treatments)
        if len(self.inputs) != len(self.outputs):
            raise UsageError("inputs and outputs must be index-paired (equal counts)")
        if not treatments:
            raise UsageError("at least one allowable treatment is required")
        if len(set(treatments)) != len(treatments):
            raise UsageError("duplicate treatments")
        declared = [{level: level for level in spec.levels} for spec in self.inputs]
        for t in treatments:
            if len(t) != len(self.inputs):
                raise UsageError(f"treatment {t!r} must assign a level to every input")
            for spec, labels, level in zip(self.inputs, declared, t):
                if level not in labels:
                    raise UsageError(
                        f"treatment {t!r} assigns undeclared level {level!r} "
                        f"to input {spec.name!r}"
                    )
        treatments = tuple(tuple(map(dict.__getitem__, declared, t)) for t in treatments)
        object.__setattr__(self, "treatments", treatments)

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
        design = object.__new__(Design)  # frozen: its fields are set as copy.copy would
        design.__dict__.update(self.__dict__, outputs=outputs, index=self.index)
        return design

    @functools.cached_property
    def index(self) -> TreatmentIndex:
        """The treatment index, looked up once per Design object by level
        counts and positions, so designs equal up to labels share it."""
        levels = [spec.levels for spec in self.inputs]
        positions = tuple(tuple(map(tuple.index, levels, t)) for t in self.treatments)
        return _treatment_index(tuple(map(len, levels)), positions)

    def is_fully_crossed(self) -> bool:
        """True when every combination of input levels is allowable."""
        return self.index.fully_crossed

    def outcome_tuples(self) -> Iterable[tuple[Value, ...]]:
        """All output-value tuples in lexicographic declared-value order."""
        return itertools.product(*(o.values for o in self.outputs))


class TreatmentIndex:
    """Allowable treatments grouped by the level positions they share.

    It holds no labels: ``counts`` are the inputs' level counts m_k and
    ``positions`` the read-only (treatments, inputs) intp array of their
    level positions, 0..m_k - 1 in declared level order.
    ``groups(subset)`` maps each tuple of positions that treatments take on
    ``subset`` (distinct input indices) to their ascending rows in the
    design's treatment order, in order of first treatment; it is built when
    first asked for, then kept, and is not to be mutated.
    ``realizers(a, b)`` is the group of the treatments housing both
    ``a = (k, position)`` and ``b = (k', position')``, empty when k == k' or
    when none does.  A design's index is ``Design.index``.
    """

    def __init__(self, counts: tuple[int, ...], positions: tuple[tuple[int, ...], ...]):
        self.counts = counts
        self.positions = np.array(positions, dtype=np.intp)
        self.positions.flags.writeable = False
        self.fully_crossed = len(positions) == math.prod(counts)
        self._groups: dict[tuple[int, ...], dict[tuple, tuple[int, ...]]] = {}

    def groups(self, subset: tuple[int, ...]) -> dict[tuple, tuple[int, ...]]:
        if subset not in self._groups:
            groups: dict[tuple, list[int]] = {}
            for b, on_subset in enumerate(self.positions[:, list(subset)].tolist()):
                groups.setdefault(tuple(on_subset), []).append(b)
            self._groups[subset] = {key: tuple(group) for key, group in groups.items()}
        return self._groups[subset]

    def realizers(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, ...]:
        if a[0] == b[0]:
            return ()
        if a[0] > b[0]:
            a, b = b, a
        return self.groups((a[0], b[0])).get((a[1], b[1]), ())


_treatment_index = functools.lru_cache(maxsize=DESIGN_CACHE_SIZE)(TreatmentIndex)


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
    the tables' structure as it builds the array; ``with_design`` shares
    another system's array.  Neither may be mutated.
    """

    #: The system whose ``array`` this one shares (``with_design``), if any.
    _source: System | None = None

    def __init__(self, design: Design, distributions: Mapping[Treatment, JointPmf]):
        self.design = design
        self.distributions = dict(distributions)

    @classmethod
    def from_array(cls, design: Design, array: np.ndarray) -> "System":
        """The system whose ``array`` is ``array`` (shaped as that property
        describes), stored C-contiguous whatever the strides given, since the
        screens sum in memory order.  Masses in (-EPS_PROB, 0) become 0, as
        ``JointPmf`` clips them.  UsageError unless ``array`` has the design's
        shape, (treatments, *value counts)."""
        _check_shape(design, array)
        system = cls.__new__(cls)
        system.design = design
        clipped = np.where((array < 0.0) & (array > -EPS_PROB), 0.0, array)
        system.array = np.ascontiguousarray(clipped)
        system.array.flags.writeable = False
        return system

    def with_design(self, design: Design) -> "System":
        """This system's masses under ``design``, which has its treatments
        and outputs with as many values each (relabeled values, new
        payloads): the new system reads this one's ``array``, and its
        ``pair_table`` is this one's, built when either first asks for it.
        UsageError unless the array has ``design``'s shape."""
        _check_shape(design, self.array)
        system = System.__new__(System)
        system.design, system.array, system._source = design, self.array, self
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
    def pair_table(self) -> np.ndarray:
        """Read-only 2-marginals of ``array``, one (treatments, columns) table
        laid out by ``pair_layout``: the size-2 columns of one ``sub_marginals``
        table, copied out; with two outputs, the array.  UsageError, naming
        the first such treatment, for a non-finite mass."""
        if self._source is not None:
            return self._source.pair_table
        shape = self.array.shape
        bad = np.flatnonzero(~np.isfinite(self.array.reshape(shape[0], -1)).all(axis=1))
        if bad.size:
            raise UsageError(f"non-finite mass at treatment {self.design.treatments[bad[0]]!r}")
        if len(shape) == 3:
            return self.array.reshape(shape[0], -1)
        start = margin_layout(shape[1:], 2).offsets[len(shape)]  # past the total and singletons
        table = sub_marginals(self.array, 2)[:, start:].copy()
        table.flags.writeable = False
        return table


def _check_shape(design: Design, array: np.ndarray) -> None:
    """UsageError unless ``array`` has ``design``'s (treatments, *value counts)."""
    shape = (len(design.treatments), *(len(out.values) for out in design.outputs))
    if array.shape != shape:
        raise UsageError(f"array of shape {array.shape} does not match the design's {shape}")


@dataclass(frozen=True, eq=False)
class PairLayout:
    """The columns of ``System.pair_table`` for an outcome shape: output
    pair p, the p-th (k, k') with k < k' in combination order, holds columns
    ``offsets[p]:offsets[p + 1]``, its cells in C order.  Per column,
    ``pair`` is its pair, ``first`` and ``second`` the positions of its
    values of k and k' among all outputs' values; ``transposed`` orders
    every block's cells in (k', k) C order.  ``runs`` are (first pair, stop
    pair, block length) over maximal runs of one block length."""

    pairs: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]
    pair: np.ndarray
    first: np.ndarray
    second: np.ndarray
    transposed: np.ndarray
    runs: tuple[tuple[int, int, int], ...]

    def sums(self, values: np.ndarray, ufunc: np.ufunc = np.add) -> np.ndarray:
        """(..., pairs): ``ufunc`` reduced over each block of the (...,
        columns) ``values`` as one run, so a C-ordered block sums to the bit
        as ``.sum(axis=(1, 2))`` over it shaped (treatments, v_k, v_k')."""
        lead = values.shape[:-1]
        sums = [
            ufunc.reduce(values[..., self.offsets[a] : self.offsets[b]].reshape(*lead, b - a, n), -1)
            for a, b, n in self.runs
        ]
        return sums[0] if len(sums) == 1 else np.concatenate([np.empty((*lead, 0)), *sums], -1)

    @functools.lru_cache(maxsize=MARGIN_CACHE_SIZE)
    def payloads(self, outputs: tuple[OutputSpec, ...]) -> np.ndarray:
        """(2, columns): per column, the numeric payloads of its values of k
        and k' among ``outputs``, NaN where absent."""
        x = [v for out in outputs for v in out.numeric or [None] * len(out.values)]
        return np.array(x, dtype=np.float64)[np.stack((self.first, self.second))]  # None is NaN


@functools.lru_cache(maxsize=MARGIN_CACHE_SIZE)
def pair_layout(shape: tuple[int, ...]) -> PairLayout:
    """The layout of ``System.pair_table`` for an outcome shape."""
    pairs = tuple(itertools.combinations(range(len(shape)), 2))
    lengths = [shape[k] * shape[k_prime] for k, k_prime in pairs]
    offsets = tuple(itertools.accumulate(lengths, initial=0))
    starts = tuple(itertools.accumulate(shape, initial=0))
    columns = [np.zeros((4, 0), dtype=np.intp)]
    for p, (k, k_prime) in enumerate(pairs):
        cells = np.arange(lengths[p]).reshape(shape[k], shape[k_prime])
        first, second = np.divmod(cells.ravel(), shape[k_prime])
        columns.append((np.full(cells.size, p), starts[k] + first, starts[k_prime] + second,
                        offsets[p] + cells.T.ravel()))
    columns = np.concatenate(columns, axis=1)
    columns.flags.writeable = False
    runs = []
    for length, group in itertools.groupby(lengths):
        start = runs[-1][1] if runs else 0
        runs.append((start, start + len(list(group)), length))
    return PairLayout(pairs, offsets, *columns, tuple(runs))


@dataclass(frozen=True, eq=False)
class MarginLayout:
    """The columns of ``sub_marginals(array, max_size)`` and the plan that
    computes them.

    ``subsets`` are the output subsets of size at most the cap, by size,
    then in combination order, the empty subset first; subset s holds the
    columns ``offsets[s]:offsets[s + 1]``, its cells in C order over its
    outputs.  ``factor`` is the dense 0/1 factor (outcome cells, columns)
    that gives every column in one product, or None for a wide shape.  A
    wide shape is summed out one output per step, the last first:
    ``steps`` are (the output's value count, the columns kept so far that
    also keep its cells, or None for all; its total is kept beside every
    column); ``order`` takes the last step's columns to the layout's, and
    ``block`` treatments go through the steps at a time.
    """

    subsets: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    factor: np.ndarray | None
    steps: tuple[tuple[int, np.ndarray | None], ...] = ()
    order: np.ndarray | None = None
    block: int = 1


def sub_marginals(array: np.ndarray, max_size: int) -> np.ndarray:
    """Every sub-marginal of ``array`` (shaped as ``System.array``) over the
    output subsets of size at most ``max_size``, as one (treatments, columns)
    table laid out by ``margin_layout``; column 0 holds each treatment's total.

    The table is ``array.reshape(treatments, -1) @ A``, A the Kronecker
    product of [I_v | 1_v] over the outputs, restricted to the layout's
    columns; A is applied as one dense factor, or, for a wide shape, one
    output at a time (see ``margin_layout``).  Sums run in BLAS order, or
    einsum's on a wide shape: a margin cell summing c masses differs from
    their sum in any other order by at most (c - 1) eps s, eps the float64
    epsilon and s the sum of their absolute values.  A non-finite mass
    leaves its treatment's total non-finite, without a warning.
    """
    t = array.shape[0]
    layout = margin_layout(array.shape[1:], max_size)
    with np.errstate(invalid="ignore", over="ignore"):
        if layout.factor is not None:
            return np.dot(array.reshape(t, -1), layout.factor)
        table = np.empty((t, layout.offsets[-1]))
        for start in range(0, t, layout.block):
            y = array[start : start + layout.block].reshape(-1, 1)
            for values, keep in layout.steps:  # the total, then the cells where kept
                y = y.reshape(-1, values, y.shape[1])
                kept = y.shape[2]
                step = np.empty((len(y), kept + values * (kept if keep is None else len(keep))))
                np.einsum("ijk->ik", y, out=step[:, :kept])
                cells = step[:, kept:].reshape(len(y), values, -1)
                if keep is None:
                    cells[...] = y
                else:  # "clip" never clips here, but spares a buffer when cells is one row
                    np.take(y, keep, axis=2, out=cells, mode="clip")
                y = step
            # "clip" never clips here, but lets take write into the table unbuffered
            np.take(y, layout.order, axis=1, out=table[start : start + layout.block], mode="clip")
        return table


def _columns(shape: tuple[int, ...], max_size: int) -> tuple:
    """(subsets, offsets, codes) of the layout of ``shape`` up to
    ``max_size``; per column, ``codes`` is its index in the full Kronecker
    product of [I_v | 1_v] over ``shape`` (digit k is the value index of
    output k, or v_k where output k is summed out)."""
    n = len(shape)
    radix = [math.prod(v + 1 for v in shape[k + 1 :]) for k in range(n)]
    summed = sum(v * r for v, r in zip(shape, radix))
    subsets, offsets, codes = [], [0], []
    for size in range(min(max_size, n) + 1):
        for subset in itertools.combinations(range(n), size):
            sub_shape = [shape[k] for k in subset]
            cells = np.indices(sub_shape).reshape(size, math.prod(sub_shape))
            code = np.full(cells.shape[1], summed, dtype=np.intp)
            for digits, k in zip(cells, subset):
                code += (digits - shape[k]) * radix[k]
            subsets.append(subset)
            offsets.append(offsets[-1] + len(code))
            codes.append(code)
    return tuple(subsets), tuple(offsets), np.concatenate(codes)


@functools.lru_cache(maxsize=MARGIN_CACHE_SIZE)
def margin_layout(shape: tuple[int, ...], max_size: int) -> MarginLayout:
    """The layout and plan of ``sub_marginals`` for an outcome shape.

    A shape whose dense factor fits in MARGIN_BYTE_CAP gets it.  A wider
    shape is summed out one output at a time, the last first, over the axis
    of its values, so no step transposes: each step keeps the output's
    total beside every column and its cells only beside columns below the
    cap (a pass over its values, where a dense v x (v + 1) factor would cost
    v flops per cell).  Treatments go through the steps in blocks, as many
    at a time as keep the largest temporary within MARGIN_BYTE_CAP (at least
    one), so the table's peak memory is its own plus a few of those."""
    subsets, offsets, codes = _columns(shape, max_size)
    if math.prod(shape) * offsets[-1] * 8 <= MARGIN_BYTE_CAP:
        # 1 where the outcome (row) falls in the column's cell
        outcomes = np.indices(shape).reshape(len(shape), math.prod(shape))
        factor = np.zeros((outcomes.shape[1], offsets[-1]))
        rows = np.arange(outcomes.shape[1])
        for subset, offset in zip(subsets, offsets):
            sub_shape = [shape[k] for k in subset]
            cell = np.ravel_multi_index(outcomes[list(subset)], sub_shape) if subset else 0
            factor[rows, offset + cell] = 1.0
        factor.flags.writeable = False
        return MarginLayout(subsets, offsets, factor)
    steps = []
    largest = 1
    kept_codes = kept_sizes = np.zeros(1, dtype=np.intp)
    radix = 1  # of the codes over the outputs already summed out
    for k in reversed(range(len(shape))):
        values, before, kept = shape[k], math.prod(shape[:k]), len(kept_codes)
        keep = np.flatnonzero(kept_sizes < max_size)
        with_cells = (np.arange(values)[:, None] * radix + kept_codes[keep]).ravel()
        kept_codes = np.concatenate((values * radix + kept_codes, with_cells))
        kept_sizes = np.concatenate((kept_sizes, np.tile(kept_sizes[keep] + 1, values)))
        largest = max(largest, before * values * kept, before * len(kept_codes))
        radix *= values + 1
        steps.append((values, None if len(keep) == kept else keep))
    sorter = np.argsort(kept_codes)
    order = sorter[np.searchsorted(kept_codes, codes, sorter=sorter)]
    block = max(1, MARGIN_BYTE_CAP // (8 * largest))
    return MarginLayout(subsets, offsets, None, tuple(steps), order, block)


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
