"""Seeded item generators, item runners and verdict oracles.

Each workload is a pool of items built from the seed alone.  Every item
carries the verdict it must produce, known by construction:

* systems generated from a latent model satisfy selective influences, so
  every test on them is consistent (or inapplicable);
* a PR-box component (outputs 1 and 2 agree at three corners of a 2x2
  sub-design and disagree at the fourth) keeps marginal selectivity but
  admits no coupling: at most three of the four agreement events can hold
  at once, so a mixture with PR weight above 3/4 is infeasible.

The runners call the library through module attributes
(``feasibility.solve_feasibility`` rather than an imported name) so that the
traced run can wrap those attributes; the untraced run wraps nothing.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from typing import Any

import numpy as np

from selinf import architectures, cli, cosphericity, distances, feasibility, marginal
from selinf import io as sio
from selinf import model, transforms
from selinf.report import CONSISTENT, INAPPLICABLE, RULED_OUT

PR_WEIGHT = 0.8
#: Latent values per generated system; more values mean more simplex pivots.
LP_LATENT = 8
SCREEN_LATENT = 12
CLI_LATENT = 6
RULE_LABELS = {
    "min": architectures.PARALLEL_OR,
    "max": architectures.PARALLEL_AND,
    "plus": architectures.SERIAL,
}
POWER = distances.PowerMetric(1.0)


@dataclass
class Item:
    """One unit of work: its inputs, its expected outcome, and a label."""

    index: int
    kind: str
    payload: Any
    expected: Any
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------- generators


def crossed_design(levels: tuple[int, ...], values: tuple[int, ...]) -> model.Design:
    """Fully crossed design; input k has levels[k] levels, output k values[k]
    values with numeric payloads 0, 1, 2, ..."""
    inputs = tuple(
        model.InputSpec(f"x{k}", tuple(range(1, n + 1))) for k, n in enumerate(levels)
    )
    outputs = tuple(
        model.OutputSpec(f"A{k}", tuple(range(v)), tuple(float(i) for i in range(v)))
        for k, v in enumerate(values)
    )
    treatments = tuple(itertools.product(*(spec.levels for spec in inputs)))
    return model.Design(inputs, outputs, treatments)


def thinned_design(design: model.Design, drop: int) -> model.Design:
    """The design without its last ``drop`` treatments (so not fully crossed)."""
    return model.Design(design.inputs, design.outputs, design.treatments[:-drop])


def latent_system(design: model.Design, rng: np.random.Generator, n_latent: int) -> model.System:
    """A system generated from a random latent model (consistent by construction)."""
    masses = rng.dirichlet(np.ones(n_latent))
    latent = model.JointPmf(1, {(r,): float(m) for r, m in enumerate(masses)})
    responses = tuple(
        {
            (level, r): out.values[int(rng.integers(len(out.values)))]
            for level in spec.levels
            for r in range(n_latent)
        }
        for spec, out in zip(design.inputs, design.outputs)
    )
    return model.generate_system(design, model.LatentModel(latent, responses))


def pr_table(design: model.Design, t: tuple) -> dict[tuple, float]:
    """PR-box pmf of outputs 1 and 2 at treatment t.

    Output 1 is uniform; output 2 equals it, shifted by one value (mod v)
    when both inputs sit above their first level.
    """
    v1, v2 = design.outputs[0].values, design.outputs[1].values
    v = min(len(v1), len(v2))
    shift = int(t[0] != design.inputs[0].levels[0] and t[1] != design.inputs[1].levels[0])
    return {(v1[i], v2[(i + shift) % v]): 1.0 / v for i in range(v)}


def pr_mixture(system: model.System, weight: float) -> model.System:
    """Mix a PR box (other outputs uniform) into ``system`` with PR ``weight``."""
    design = system.design
    rest = [out.values for out in design.outputs[2:]]
    rest_mass = 1.0 / float(np.prod([len(v) for v in rest])) if rest else 1.0
    distributions = {}
    for t in design.treatments:
        table = {k: (1.0 - weight) * m for k, m in system.pmf(t).items()}
        for pair, m in pr_table(design, t).items():
            for tail in itertools.product(*rest):
                key = pair + tail
                table[key] = table.get(key, 0.0) + weight * m * rest_mass
        distributions[t] = model.JointPmf(design.n, table)
    return model.System(design, distributions)


def pr_product(system: model.System) -> model.System:
    """PR box on outputs 1 and 2 times the system's own outputs 3, 4, ..."""
    design = system.design
    distributions = {}
    for t in design.treatments:
        rest = model.marginalize(system.pmf(t), range(2, design.n)).table if design.n > 2 else {(): 1.0}
        table = {}
        for pair, m in pr_table(design, t).items():
            for tail, mt in rest.items():
                table[pair + tail] = m * mt
        distributions[t] = model.JointPmf(design.n, table)
    return model.System(design, distributions)


def shape_label(design: model.Design) -> str:
    """Treatment count, then the value count of each output: '8x3x3x3'."""
    return "x".join(map(str, (len(design.treatments),) + tuple(len(o.values) for o in design.outputs)))


# ------------------------------------------------------------- lp_criterion

#: (levels per input, values per output): M is 256x256, 81x729, 216x729, 216x512.
LP_SHAPES = (
    ((2, 2, 2, 2), (2, 2, 2, 2)),
    ((3, 3), (3, 3)),
    ((2, 2, 2), (3, 3, 3)),
    ((3, 3, 3), (2, 2, 2)),
)


def lp_items(seed: int, pool: int) -> list[Item]:
    """Alternating feasible (latent) and infeasible (PR mixture) systems."""
    rng = np.random.default_rng([seed, 1])
    designs = [crossed_design(lv, vals) for lv, vals in LP_SHAPES]
    items = []
    for i in range(pool):
        design = designs[(i // 2) % len(designs)]
        system = latent_system(design, rng, LP_LATENT)
        feasible = i % 2 == 0
        if not feasible:
            system = pr_mixture(system, PR_WEIGHT)
        kind = f"{shape_label(design)}/{'latent' if feasible else 'pr0.8'}"
        items.append(Item(i, kind, system, feasible))
    return items


def run_lp(item: Item) -> tuple[bool, dict]:
    """Marginal check, matrix build and simplex solve of one system."""
    report = marginal.check_marginal_selectivity(item.payload)
    fs = feasibility.build_feasibility_system(item.payload)
    verdict = feasibility.solve_feasibility(fs)
    m, n = fs.matrix.shape
    counts = {
        "feasibility.iterations": verdict.iterations,
        "feasibility.matrix_cells": m * n,
        "feasibility.pivot_flops": verdict.iterations * 2 * m * (n + m + 1),
    }
    return report.passed and verdict.feasible == item.expected, counts


def lp_oracle(items: list[Item]) -> set[int]:
    """Indices whose expected verdict disagrees with HiGHS (scipy linprog)."""
    from scipy.optimize import linprog

    bad = set()
    for item in items:
        fs = feasibility.build_feasibility_system(item.payload)
        res = linprog(
            np.zeros(fs.matrix.shape[1]),
            A_eq=fs.matrix.astype(np.float64),
            b_eq=fs.p,
            bounds=(0, None),
            method="highs",
        )
        if res.status not in (0, 2) or (res.status == 0) != item.expected:
            bad.add(item.index)
    return bad


# ----------------------------------------------------------- screen_battery

#: (levels per input, values per output, treatments dropped): too large for the LP.
SCREEN_SHAPES = (
    ((4, 4), (3, 5), 0),
    ((2, 2, 2, 2), (2, 2, 3, 3), 0),
    ((3, 3, 3), (2, 2, 4), 0),
    ((2, 2, 2), (3, 4, 5), 2),
)
#: One group of ten items, as (index into SCREEN_SHAPES, PR box or latent).
#: In cost order the two PR items and the 2x2x2x2 latent one come first,
#: then the four 4x4 latent items, then the two 3x3x3 latent items and the
#: design that is not fully crossed; the 4x4 items cost about the same, so
#: the median falls inside one kind of item, and the p95 inside the
#: uncrossed design, which makes up a third of the time.
SCREEN_MIX = (
    (1, True), (0, False), (2, False), (0, False), (2, True),
    (0, False), (1, False), (0, False), (2, False), (3, False),
)


def class_metric(design: model.Design) -> distances.ClassificationMetric:
    """Two ordered classes per output: lower half of the values, then the rest."""
    parts = []
    for out in design.outputs:
        cut = max(1, len(out.values) // 2)
        parts.append((out.values[:cut], out.values[cut:]))
    return distances.ClassificationMetric(tuple(parts))


def screen_items(seed: int, pool: int, members: int = 6, tracer=None) -> list[Item]:
    """Items in groups of ten, as SCREEN_MIX lists them: latent systems
    (every test consistent) and, for the crossed designs whose first two
    outputs are binary, a PR box on outputs 1 and 2 (every test rules out):
    any relabeling of a binary PR box still has correlations +-1 with one
    sign flipped, so every battery member fails cosphericity if not the
    distance test."""
    rng = np.random.default_rng([seed, 2])
    designs = []
    for levels, values, drop in SCREEN_SHAPES:
        design = crossed_design(levels, values)
        if drop:
            design = thinned_design(design, drop)
        with span(tracer, "distances.enumerate"):
            n_seq = len(distances.enumerate_test_sequences(design))
        designs.append((design, n_seq, class_metric(design)))
    items = []
    for i in range(pool):
        which, ruled_out = SCREEN_MIX[i % len(SCREEN_MIX)]
        design, n_seq, cmetric = designs[which]
        with span(tracer, "model.generate"):
            system = latent_system(design, rng, SCREEN_LATENT)
        if ruled_out:
            system = pr_product(system)
        # one battery per item: the groupings drawn set the cost of its members
        with span(tracer, "transforms.generate"):
            specs = transforms.generate_battery(
                design, n_groupings=members // 2, n_monotone=members - members // 2,
                seed=int(rng.integers(2**31)),
            )
        kind = f"{shape_label(design)}/{'pr' if ruled_out else 'latent'}"
        extra = {"specs": specs, "metric": cmetric, "sequences": n_seq}
        items.append(Item(i, kind, system, ruled_out, extra))
    return items


def run_screen(item: Item, member_wrap=None) -> tuple[bool, dict]:
    """Marginal, two distance tests, cosphericity, then the transform battery."""
    system = item.payload
    counts = {"distances.calls": 0, "cosphericity.subdesigns": 0,
              "transforms.members": 0, "transforms.applicable": 0}

    def cosph(s):
        report = cosphericity.cosphericity_report(s)
        counts["cosphericity.subdesigns"] += len(report.details.get("results", ()))
        return report

    def member(s):
        counts["transforms.members"] += 1
        counts["distances.calls"] += 1
        report = distances.run_distance_test(s, POWER)
        if report.verdict != RULED_OUT:
            report = cosph(s)
        if report.verdict != INAPPLICABLE:
            counts["transforms.applicable"] += 1
        return report

    ms = marginal.check_marginal_selectivity(system)
    power = distances.run_distance_test(system, POWER).verdict
    klass = distances.run_distance_test(system, item.extra["metric"]).verdict
    counts["distances.calls"] += 2
    cos = cosph(system).verdict
    battery = transforms.run_battery(
        system, item.extra["specs"], member if member_wrap is None else member_wrap(member)
    ).verdict
    counts["distances.sequences"] = counts["distances.calls"] * item.extra["sequences"]
    if item.expected:
        ok = ms.passed and power == klass == cos == battery == RULED_OUT
    else:
        ok = (
            ms.passed
            and power == klass == CONSISTENT
            and cos in (CONSISTENT, INAPPLICABLE)
            and battery in (CONSISTENT, INAPPLICABLE)
        )
    return ok, counts


# ---------------------------------------------------------------- cli_mixed


def rt_document(rng: np.random.Generator, rule: str, n_latent: int = 3) -> dict:
    """An 'rt' block composed under ``rule`` from random prolonged durations."""
    low = rng.uniform(1.0, 6.0, size=(2, n_latent)).round(3)
    high = low + rng.uniform(0.5, 3.0, size=(2, n_latent)).round(3)
    values = [tuple(sorted({*map(float, low[k]), *map(float, high[k])})) for k in (0, 1)]
    design = model.Design(
        (model.InputSpec("a", (1, 2)), model.InputSpec("b", (1, 2))),
        tuple(model.OutputSpec(f"T{k}", values[k], values[k]) for k in (0, 1)),
        tuple(itertools.product((1, 2), (1, 2))),
    )
    latent = model.LatentModel(
        model.JointPmf(1, {(r,): 1.0 / n_latent for r in range(n_latent)}),
        tuple(
            {(1, r): float(low[k, r]) for r in range(n_latent)}
            | {(2, r): float(high[k, r]) for r in range(n_latent)}
            for k in (0, 1)
        ),
    )
    grid = architectures.bracketing_grid(architectures.jump_points(design, latent, rule))
    rt = architectures.compose_rt(design, latent, rule, grid)
    return {
        "grid": [float(x) for x in rt.grid],
        "cdfs": {f"{i},{j}": [float(x) for x in rt.cdfs[(i, j)]] for (i, j) in rt.cdfs},
    }


def cli_items(seed: int, pool: int, workdir: str, tracer=None) -> list[Item]:
    """Small system and rt documents written to ``workdir`` as JSON files.

    Per group of ten: 2x2 systems without payloads (three latent, one PR
    mixture), 2x2 systems with payloads (one of each), 2x3 systems with
    payloads (one of each), and rt documents under min, max and plus.  In
    cost order the two 2x2 latent systems without payloads hold the middle
    fifth, so the median stays inside one kind of item.  Formats alternate.
    """
    rng = np.random.default_rng([seed, 3])
    d22 = crossed_design((2, 2), (2, 2))
    d23 = crossed_design((3, 3), (2, 2))
    plain = model.Design(
        d22.inputs, tuple(model.OutputSpec(o.name, o.values) for o in d22.outputs), d22.treatments
    )
    recipes = [
        ("2x2/latent", plain, False),
        ("2x2/pr0.8", plain, True),
        ("2x3/latent", d23, False),
        ("2x3/pr0.8", d23, True),
        ("rt/min", "min", None),
        ("rt/max", "max", None),
        ("rt/plus", "plus", None),
        ("2x2num/latent", d22, False),
        ("2x2/latent", plain, False),
        ("2x2num/pr0.8", d22, True),
    ]
    items = []
    for i in range(pool):
        kind, what, pr = recipes[i % len(recipes)]
        fmt = ("text", "json")[(i // len(recipes)) % 2 ^ (i % 2)]
        path = os.path.join(workdir, f"doc-{i:04d}.json")
        if pr is None:
            with span(tracer, "architectures.compose"):
                doc = {"rt": rt_document(rng, what)}
            argv = [path, "--tests", "contrast", "--format", fmt]
            expected = {"exit": 0, "label": RULE_LABELS[what]}
        else:
            with span(tracer, "model.generate"):
                system = latent_system(what, rng, CLI_LATENT)
            if pr:
                system = pr_mixture(system, PR_WEIGHT)
            doc = sio.system_to_dict(system)
            argv = [path, "--format", fmt]
            expected = {"exit": 1 if pr else 0}
        with span(tracer, "io.write"):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        expected["format"] = fmt
        items.append(Item(i, kind, argv, expected))
    return items


def run_cli(item: Item) -> tuple[int, str]:
    """``selinf.cli.main`` in-process with stdout captured."""
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli.main(item.payload)
    return code, buf.getvalue()


def cli_check(item: Item, code: int, out: str) -> bool:
    """Exit code as constructed; JSON reports carry the schema; rt reports
    name the composing rule among their labels."""
    expected = item.expected
    if code != expected["exit"]:
        return False
    if expected["format"] == "json":
        try:
            report = json.loads(out)
        except ValueError:
            return False
        if report.get("schema") != cli.SCHEMA or report.get("exit_code") != code:
            return False
        if "label" in expected:
            labels = [t["details"].get("labels", []) for t in report["tests"]]
            return any(expected["label"] in group for group in labels)
        return True
    if "label" in expected:
        return repr(expected["label"]) in out
    last = out.rstrip().splitlines()[-1] if out.strip() else ""
    return last == ("verdict: selective influences ruled out" if code else "verdict: not refuted")


def span(tracer, name: str):
    """A span of ``tracer``, or nothing when no tracer is given."""
    return nullcontext() if tracer is None else tracer.span(name)
