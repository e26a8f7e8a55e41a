"""Input-value-specific output transformations and test batteries.

If selective influences hold for a system, they keep holding after each
output is transformed by any function of (its own input's level, its value);
merging values (grouping) is allowed, splitting is not.  Consequently a
necessary-condition test that is *not* invariant under such transformations
expands into one test per transformation: failure on any transformed system
refutes selective influences for the original.  This module applies the
transforms, runs batteries, and generates seeded random batteries
(groupings and monotone numeric relabelings) for CI-stable fishing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import UsageError
from .model import Design, Level, OutputSpec, System, Value
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport


@dataclass(frozen=True)
class OutputTransform:
    """Transform of a single output: target values plus per-level value maps.

    ``maps`` sends each level of the paired input to a total map from the old
    value set onto labels of ``target``; pass a single map under the key
    None to apply it at every level.
    """

    target: OutputSpec
    maps: Mapping[Level | None, Mapping[Value, Value]]

    def map_for(self, level: Level) -> Mapping[Value, Value]:
        if level in self.maps:
            return self.maps[level]
        if None in self.maps:
            return self.maps[None]
        raise UsageError(f"no value map for level {level!r}")

    def images(self, source: OutputSpec, levels: Sequence[Level]) -> list[list[int]]:
        """Per level of ``levels``, the position among the target values of
        the image of each of ``source``'s values.  Each distinct map is read
        once, at the first level that uses it; UsageError there for a level
        with no map, a value it leaves unmapped or an image outside the
        target values, the first in (level, value) order."""
        target = {v: i for i, v in enumerate(self.target.values)}
        # id of each map read so far: (the map, held so that its id stays its own; its images)
        seen: dict[int, tuple] = {}
        table = []
        for level in levels:
            mapping = self.map_for(level)
            if id(mapping) not in seen:
                for value in source.values:
                    if value not in mapping:
                        raise UsageError(
                            f"output {source.name!r}: value {value!r} unmapped at level {level!r}"
                        )
                    if mapping[value] not in target:
                        raise UsageError(
                            f"output {source.name!r}: image {mapping[value]!r} not in target values"
                        )
                seen[id(mapping)] = mapping, [target[mapping[v]] for v in source.values]
            table.append(seen[id(mapping)][1])
        return table


@dataclass(frozen=True)
class TransformSpec:
    """One output transform per output, applied coordinatewise."""

    outputs: tuple[OutputTransform, ...]
    name: str = ""


def identity_transform(design: Design) -> TransformSpec:
    return TransformSpec(
        tuple(
            OutputTransform(out, {None: {v: v for v in out.values}})
            for out in design.outputs
        ),
        name="identity",
    )


def apply_transform(system: System, spec: TransformSpec) -> System:
    """Push every treatment pmf forward through the level-selected maps.

    Works on ``system.array``, one pass per output: its maps are read once
    each (``OutputTransform.images``), and unless value i goes to target
    value i at every level (a monotone relabeling, an order-preserving
    grouping of two values), which keeps the axis as it is, every
    treatment's masses along the axis are summed into its level's images by
    one product with a 0/1 index matrix, on a C-ordered copy of the array
    with that axis last.  A system whose every axis is kept shares the
    parent's array and pair table (``System.with_design``); otherwise it is
    made from the pushed array alone, C-ordered, and its tables are built
    only if a caller reads them.  Its design shares the parent's inputs and
    treatments, which are not checked again.  UsageError unless ``spec``
    has one transform per output, each mapping every value at every level
    of its input into its target values.
    """
    design = system.design
    if len(spec.outputs) != design.n:
        raise UsageError("one transform per output is required")
    new_design = design.with_outputs(tr.target for tr in spec.outputs)
    array = system.array
    t = len(design.treatments)
    for k, (tr, out) in enumerate(zip(spec.outputs, design.outputs)):
        images = tr.images(out, design.inputs[k].levels)
        v, w = len(out.values), len(tr.target.values)
        if all(row == list(range(w)) for row in images):
            continue  # value i goes to target value i at every level: the axis stays
        # one 0/1 matrix per level position, gathered by each treatment's position
        onehot = np.eye(w)[images][design.index.positions[:, k]]
        shape = array.shape
        before, after = math.prod(shape[1 : k + 1]), math.prod(shape[k + 2 :])
        moved = array.reshape(t, before, v, after).swapaxes(2, 3).reshape(t, -1, v)
        pushed = (moved @ onehot).reshape(t, before, after, w).swapaxes(2, 3)
        array = pushed.reshape(*shape[: k + 1], w, *shape[k + 2 :])
    if array is system.array:
        return system.with_design(new_design)
    return System.from_array(new_design, array)


def run_battery(
    system: System,
    specs: Sequence[TransformSpec],
    test: Callable[[System], TestReport],
) -> TestReport:
    """Run ``test`` on each transformed system; any failure refutes the original.

    Inapplicable members are skipped.  An empty battery passes vacuously,
    with a warning.
    """
    name = "battery"
    if not specs:
        warnings.warn("empty transform battery: test passes vacuously", stacklevel=2)
        return TestReport(name, CONSISTENT, "vacuous (no transforms supplied)")
    verdicts = []
    for idx, spec in enumerate(specs):
        transformed = apply_transform(system, spec)
        report = test(transformed)
        label = spec.name or f"transform-{idx}"
        verdicts.append((label, report))
        if report.verdict == RULED_OUT:
            return TestReport(
                name,
                RULED_OUT,
                f"transform {label!r} fails the expanded test: {report.summary}",
                witness=report.witness,
                details={"member": label, "member_report": report},
            )
    applicable = sum(1 for _, r in verdicts if r.verdict != INAPPLICABLE)
    if applicable == 0:
        return TestReport(name, INAPPLICABLE, "test inapplicable on every member")
    return TestReport(
        name, CONSISTENT, f"{applicable}/{len(specs)} applicable members pass"
    )


def _random_grouping(out: OutputSpec, rng: np.random.Generator) -> OutputTransform:
    """Group the values into 2..v classes labeled g0, g1, ... (level-free)."""
    v = len(out.values)
    if v == 1:  # nothing to group; rename to the single class
        target = OutputSpec(out.name, ("g0",), (0.0,))
        return OutputTransform(target, {None: {out.values[0]: "g0"}})
    n_groups = 2 if v == 2 else int(rng.integers(2, v + 1))
    # Every group nonempty: deal one value per group first, then the rest.
    order = list(rng.permutation(v))
    assignment = {}
    for g in range(n_groups):
        assignment[out.values[order[g]]] = f"g{g}"
    for idx in order[n_groups:]:
        assignment[out.values[idx]] = f"g{int(rng.integers(n_groups))}"
    target = OutputSpec(
        out.name,
        tuple(f"g{g}" for g in range(n_groups)),
        tuple(float(g) for g in range(n_groups)),
    )
    return OutputTransform(target, {None: assignment})


def _random_monotone(out: OutputSpec, rng: np.random.Generator) -> OutputTransform:
    """Strictly increasing random relabeling of the numeric payloads."""
    if not out.has_numeric:
        raise UsageError(f"output {out.name!r} has no numeric payloads to relabel")
    gaps = rng.uniform(0.1, 2.0, size=len(out.values))
    start = rng.uniform(-1.0, 1.0)
    new_payloads = start + np.cumsum(gaps)
    order = np.argsort([out.numeric_value(v) for v in out.values], kind="stable")
    payload_by_value = {}
    for rank, idx in enumerate(order):
        payload_by_value[out.values[idx]] = float(new_payloads[rank])
    target = OutputSpec(
        out.name,
        out.values,
        tuple(payload_by_value[v] for v in out.values),
    )
    return OutputTransform(target, {None: {v: v for v in out.values}})


def generate_battery(
    design: Design,
    n_groupings: int = 25,
    n_monotone: int = 25,
    seed: int = 0,
) -> list[TransformSpec]:
    """Seeded battery of random groupings and monotone payload relabelings.

    Monotone relabelings are only generated when every output carries
    numeric payloads; groupings always apply.
    """
    rng = np.random.default_rng(seed)
    specs: list[TransformSpec] = []
    for i in range(n_groupings):
        specs.append(
            TransformSpec(
                tuple(_random_grouping(out, rng) for out in design.outputs),
                name=f"grouping-{i}",
            )
        )
    if all(out.has_numeric for out in design.outputs):
        for i in range(n_monotone):
            specs.append(
                TransformSpec(
                    tuple(_random_monotone(out, rng) for out in design.outputs),
                    name=f"monotone-{i}",
                )
            )
    return specs
