"""Worked systems and random generators shared across the test modules.

The deterministic fixtures are small hand-checked systems with known
verdicts; the random generators produce seeded latent-model systems that
satisfy selective influences by construction.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from selinf import (
    Design,
    InapplicableError,
    InputSpec,
    JointPmf,
    LatentModel,
    OutputSpec,
    OutputTransform,
    PowerMetric,
    System,
    TransformSpec,
    UsageError,
    generate_system,
)
from selinf.model import margin_layout, sub_marginals
from selinf.tolerances import EPS_PROB, VAR_RTOL


def binary_design(values1=(1, 2), values2=(1, 2), numeric=False) -> Design:
    kw1 = {"numeric": values1} if numeric else {}
    kw2 = {"numeric": values2} if numeric else {}
    return Design(
        (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
        (OutputSpec("A1", values1, **kw1), OutputSpec("A2", values2, **kw2)),
        tuple(itertools.product((1, 2), (1, 2))),
    )


def system_from_tables(design: Design, tables: dict) -> System:
    return System(design, {t: JointPmf(design.n, tb) for t, tb in tables.items()})


def feasible_binary_system() -> System:
    """2x2 binary system known to admit a coupling (feasible)."""
    return system_from_tables(
        binary_design(),
        {
            (1, 1): {(1, 1): 0.140, (1, 2): 0.360, (2, 1): 0.360, (2, 2): 0.140},
            (1, 2): {(1, 1): 0.198, (1, 2): 0.302, (2, 1): 0.302, (2, 2): 0.198},
            (2, 1): {(1, 1): 0.189, (1, 2): 0.311, (2, 1): 0.311, (2, 2): 0.189},
            (2, 2): {(1, 1): 0.460, (1, 2): 0.040, (2, 1): 0.040, (2, 2): 0.460},
        },
    )


#: A known coupling pmf for feasible_binary_system (one of many), in column order.
FEASIBLE_BINARY_WITNESS = np.array(
    [0.067, 0, 0.131, 0.04, 0, 0.073, 0, 0.189, 0.122, 0, 0.14, 0, 0.04, 0.198, 0, 0]
)


def pr_box_system() -> System:
    """Uniform marginals everywhere, yet no coupling exists (infeasible)."""
    diag = {(1, 1): 0.5, (2, 2): 0.5}
    anti = {(1, 2): 0.5, (2, 1): 0.5}
    return system_from_tables(
        binary_design(),
        {(1, 1): diag, (1, 2): diag, (2, 1): diag, (2, 2): anti},
    )


def marginal_violation_system() -> System:
    """A2's marginal differs between treatments sharing l2=2: fails by 0.1."""
    return system_from_tables(
        binary_design(),
        {
            (1, 1): {(1, 1): 0.2, (1, 2): 0.2, (2, 1): 0.3, (2, 2): 0.3},
            (1, 2): {(1, 1): 0.3, (1, 2): 0.1, (2, 1): 0.2, (2, 2): 0.4},
            (2, 1): {(1, 1): 0.4, (1, 2): 0.3, (2, 1): 0.1, (2, 2): 0.2},
            (2, 2): {(1, 1): 0.3, (1, 2): 0.4, (2, 1): 0.1, (2, 2): 0.2},
        },
    )


def transform_base_system() -> System:
    """Feasible 2x2 binary system used for the level-specific transform."""
    return system_from_tables(
        binary_design(),
        {
            (1, 1): {(1, 1): 0.30, (1, 2): 0.40, (2, 1): 0.10, (2, 2): 0.20},
            (1, 2): {(1, 1): 0.35, (1, 2): 0.35, (2, 1): 0.15, (2, 2): 0.15},
            (2, 1): {(1, 1): 0.32, (1, 2): 0.48, (2, 1): 0.08, (2, 2): 0.12},
            (2, 2): {(1, 1): 0.45, (1, 2): 0.35, (2, 1): 0.05, (2, 2): 0.15},
        },
    )


def level_specific_transform() -> TransformSpec:
    """First output to {+1, -1} (order flips with the level), second to {7, 3}."""
    b1 = OutputSpec("B1", (1, -1), (1.0, -1.0))
    b2 = OutputSpec("B2", (7, 3), (7.0, 3.0))
    return TransformSpec(
        (
            OutputTransform(b1, {1: {1: 1, 2: -1}, 2: {1: -1, 2: 1}}),
            OutputTransform(b2, {1: {1: 7, 2: 3}, 2: {1: 3, 2: 7}}),
        ),
        name="level-specific",
    )


#: Transformed tables after level_specific_transform, keyed like the system.
TRANSFORMED_TABLES = {
    (1, 1): {(1, 7): 0.30, (1, 3): 0.40, (-1, 7): 0.10, (-1, 3): 0.20},
    (1, 2): {(1, 7): 0.35, (1, 3): 0.35, (-1, 7): 0.15, (-1, 3): 0.15},
    (2, 1): {(1, 7): 0.08, (1, 3): 0.12, (-1, 7): 0.32, (-1, 3): 0.48},
    (2, 2): {(1, 7): 0.15, (1, 3): 0.05, (-1, 7): 0.35, (-1, 3): 0.45},
}

#: Observed-probability vector of the transformed system, in row order.
TRANSFORMED_P = [
    0.3, 0.4, 0.1, 0.2,
    0.35, 0.35, 0.15, 0.15,
    0.08, 0.12, 0.32, 0.48,
    0.15, 0.05, 0.35, 0.45,
]

#: A known coupling pmf for the transformed system (one of many).
TRANSFORMED_WITNESS = np.array(
    [0.03, 0, 0, 0, 0, 0.27, 0.32, 0.08, 0, 0.05, 0.12, 0, 0, 0.05, 0.03, 0.05]
)


def _tridiagonal_tables(values):
    """The .24/.07 band tables shared by the distance and correlation fixtures."""
    a, b, c = values
    diag = {
        (a, a): 0.24, (a, b): 0.07,
        (b, a): 0.07, (b, b): 0.24, (b, c): 0.07,
        (c, b): 0.07, (c, c): 0.24,
    }
    anti = {
        (a, b): 0.07, (a, c): 0.24,
        (b, a): 0.07, (b, b): 0.24, (b, c): 0.07,
        (c, a): 0.24, (c, b): 0.07,
    }
    return {(1, 1): diag, (1, 2): diag, (2, 1): diag, (2, 2): anti}


def d1_system() -> System:
    """Three-valued outputs (0,2,4) x (0,1,2); passes the p=1 distance test."""
    design = Design(
        (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
        (
            OutputSpec("A1", (0, 2, 4), (0.0, 2.0, 4.0)),
            OutputSpec("A2", (0, 1, 2), (0.0, 1.0, 2.0)),
        ),
        tuple(itertools.product((1, 2), (1, 2))),
    )
    return system_from_tables(design, _tridiagonal_tables_pair())


def _tridiagonal_tables_pair():
    diag = {
        (0, 0): 0.24, (0, 1): 0.07,
        (2, 0): 0.07, (2, 1): 0.24, (2, 2): 0.07,
        (4, 1): 0.07, (4, 2): 0.24,
    }
    anti = {
        (0, 1): 0.07, (0, 2): 0.24,
        (2, 0): 0.07, (2, 1): 0.24, (2, 2): 0.07,
        (4, 0): 0.24, (4, 1): 0.07,
    }
    return {(1, 1): diag, (1, 2): diag, (2, 1): diag, (2, 2): anti}


def d1_grouping_transform() -> TransformSpec:
    """Level-free grouping 0->2, 2->1, 4->1 and 0->2, 1->1, 2->1."""
    b1 = OutputSpec("B1", (1, 2), (1.0, 2.0))
    b2 = OutputSpec("B2", (1, 2), (1.0, 2.0))
    return TransformSpec(
        (
            OutputTransform(b1, {None: {0: 2, 2: 1, 4: 1}}),
            OutputTransform(b2, {None: {0: 2, 1: 1, 2: 1}}),
        ),
        name="grouping",
    )


def cosphericity_system() -> System:
    """Same band tables on values (0,1,5): passes the correlation test."""
    design = Design(
        (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
        (
            OutputSpec("A1", (0, 1, 5), (0.0, 1.0, 5.0)),
            OutputSpec("A2", (0, 1, 5), (0.0, 1.0, 5.0)),
        ),
        tuple(itertools.product((1, 2), (1, 2))),
    )
    return system_from_tables(design, _tridiagonal_tables((0, 1, 5)))


def squash_five_transform() -> TransformSpec:
    """Nonlinear monotone payload change 0->0, 1->1, 5->2 on both outputs."""
    target = OutputSpec("B", (0, 1, 2), (0.0, 1.0, 2.0))
    tr = OutputTransform(target, {None: {0: 0, 1: 1, 5: 2}})
    return TransformSpec((tr, tr), name="squash-five")


def three_variable_pmf() -> JointPmf:
    """Three binary variables with masses 1/16, 7/16, 3/16, 5/16."""
    return JointPmf(
        3,
        {
            (0, 0, 0): 1 / 16,
            (0, 1, 0): 7 / 16,
            (1, 0, 0): 3 / 16,
            (1, 1, 0): 5 / 16,
        },
    )


def four_output_system() -> System:
    """Four binary inputs, fully crossed, and four three-valued outputs with
    payloads: a seeded latent system with one treatment mixed with noise, so
    that the marginal and distance tests both report sums of many masses."""
    rng = np.random.default_rng(16)
    levels = (1, 2)
    inputs = tuple(InputSpec(f"l{k + 1}", levels) for k in range(4))
    outputs = tuple(OutputSpec(f"A{k + 1}", (0, 1, 2), (0.0, 1.0, 2.0)) for k in range(4))
    design = Design(inputs, outputs, tuple(itertools.product(levels, repeat=4)))
    masses = rng.dirichlet(np.ones(6))
    latent = JointPmf(1, {(r,): float(p) for r, p in enumerate(masses)})
    responses = tuple(
        {(level, r): int(rng.integers(3)) for level in levels for r in range(6)} for _ in range(4)
    )
    array = generate_system(design, LatentModel(latent, responses)).array.copy()
    array[5] = 0.8 * array[5] + 0.2 * rng.dirichlet(np.ones(81)).reshape(3, 3, 3, 3)
    return System.from_array(design, array)


def random_latent_setup(
    rng: np.random.Generator,
    max_inputs: int = 3,
    max_levels: int = 3,
    max_values: int = 3,
    max_latent: int = 6,
    column_cap: int = 5000,
    allow_partial: bool = True,
):
    """Seeded random (design, latent model) pair within the stated bounds.

    Oversized coupling spaces are resampled so that downstream feasibility
    runs stay fast; every bound (including dummy single-level inputs) is
    still exercised.
    """
    while True:
        n = int(rng.integers(1, max_inputs + 1))
        m = [int(rng.integers(1, max_levels + 1)) for _ in range(n)]
        v = [int(rng.integers(2, max_values + 1)) for _ in range(n)]
        cols = 1
        for mk, vk in zip(m, v):
            cols *= vk**mk
        if cols <= column_cap:
            break
    inputs = tuple(InputSpec(f"l{k+1}", tuple(range(1, m[k] + 1))) for k in range(n))
    outputs = []
    for k in range(n):
        payloads = np.sort(rng.choice(np.arange(10), size=v[k], replace=False))
        outputs.append(
            OutputSpec(
                f"A{k+1}",
                tuple(int(x) for x in payloads),
                tuple(float(x) for x in payloads),
            )
        )
    all_treatments = list(itertools.product(*(spec.levels for spec in inputs)))
    if allow_partial and len(all_treatments) > 1 and rng.random() < 0.3:
        keep = max(1, int(rng.integers(1, len(all_treatments) + 1)))
        chosen = rng.choice(len(all_treatments), size=keep, replace=False)
        treatments = tuple(all_treatments[i] for i in sorted(chosen))
    else:
        treatments = tuple(all_treatments)
    design = Design(inputs, tuple(outputs), treatments)

    n_latent = int(rng.integers(1, max_latent + 1))
    latent_values = list(range(n_latent))
    masses = rng.dirichlet(np.ones(n_latent))
    latent = JointPmf(1, {(r,): float(p) for r, p in zip(latent_values, masses)})
    responses = []
    for k in range(n):
        table = {}
        for level in inputs[k].levels:
            for r in latent_values:
                table[(level, r)] = outputs[k].values[int(rng.integers(v[k]))]
        responses.append(table)
    return design, LatentModel(latent, tuple(responses))


def random_selective_system(rng: np.random.Generator, **kwargs) -> System:
    design, model = random_latent_setup(rng, **kwargs)
    return generate_system(design, model)


def random_marginally_selective_2x2(rng: np.random.Generator) -> System:
    """Mixture of a feasible 2x2 binary system with the infeasible box.

    The mixture keeps marginal selectivity (both components have
    level-determined marginals) while sweeping from feasible to infeasible
    as the mixing weight grows.
    """
    design = binary_design()
    feasible = generate_system(
        design,
        _random_binary_latent(rng, design),
    )
    box = pr_box_system()
    alpha = float(rng.uniform(0.0, 1.0))
    tables = {}
    for t in design.treatments:
        table = {}
        for key in itertools.product((1, 2), (1, 2)):
            table[key] = (1 - alpha) * feasible.pmf(t).mass(key) + alpha * box.pmf(
                t
            ).mass(key)
        tables[t] = table
    return system_from_tables(design, tables)


def _random_binary_latent(rng: np.random.Generator, design: Design) -> LatentModel:
    n_latent = int(rng.integers(2, 7))
    masses = rng.dirichlet(np.ones(n_latent))
    latent = JointPmf(1, {(r,): float(p) for r, p in enumerate(masses)})
    responses = []
    for k in range(2):
        table = {}
        for level in design.inputs[k].levels:
            for r in range(n_latent):
                table[(level, r)] = int(rng.integers(1, 3))
        responses.append(table)
    return LatentModel(latent, tuple(responses))


def random_rt_setup(rng: np.random.Generator, max_latent: int = 6):
    """Seeded random prolongation-valid two-process latent model."""
    n_latent = int(rng.integers(1, max_latent + 1))
    masses = rng.dirichlet(np.ones(n_latent))
    latent = JointPmf(1, {(r,): float(p) for r, p in enumerate(masses)})
    durations = {}
    for k in range(2):
        low = rng.uniform(0.0, 10.0, size=n_latent)
        high = low + rng.uniform(0.0, 5.0, size=n_latent)
        durations[k] = (low, high)
    outputs, responses = [], []
    for k in range(2):
        low, high = durations[k]
        values = tuple(sorted({float(x) for x in np.concatenate([low, high])}))
        outputs.append(OutputSpec(f"T{k+1}", values, values))
        table = {}
        for r in range(n_latent):
            table[(1, r)] = float(low[r])
            table[(2, r)] = float(high[r])
        responses.append(table)
    design = Design(
        (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
        tuple(outputs),
        tuple(itertools.product((1, 2), (1, 2))),
    )
    return design, LatentModel(latent, tuple(responses))


# ------------------------------------------------------------------ oracles


def allclose(pmf: JointPmf, other: JointPmf, tol: float = EPS_PROB) -> bool:
    """Equal arity and every mass of either pmf within ``tol`` of the other's."""
    if pmf.arity != other.arity:
        return False
    keys = set(pmf.table) | set(other.table)
    return all(abs(pmf.mass(k) - other.mass(k)) <= tol for k in keys)


def correlation(pmf: JointPmf, numeric_x, numeric_y) -> float:
    """Pearson correlation of a bivariate pmf under given value payloads: the
    scalar, table-walking oracle of the cosphericity test's correlations.

    ``numeric_x``/``numeric_y`` map value labels to reals.  Raises
    InapplicableError when either marginal has (numerically) zero variance,
    by the library's rule: variance at most (VAR_RTOL * max(spread, 1))**2.
    Central moments are accumulated in two passes: the naive E[X^2] - E[X]^2
    form cancels catastrophically for nearly degenerate marginals.
    """
    if pmf.arity != 2:
        raise UsageError(f"correlation needs a bivariate pmf, got arity {pmf.arity}")
    points = [(numeric_x(a), numeric_y(b), mass) for (a, b), mass in pmf.items()]
    ex = sum(x * m for x, _, m in points)
    ey = sum(y * m for _, y, m in points)
    var_x = var_y = cov = 0.0
    spread_x = spread_y = 0.0
    for x, y, m in points:
        dx, dy = x - ex, y - ey
        var_x += dx * dx * m
        var_y += dy * dy * m
        cov += dx * dy * m
        spread_x = max(spread_x, abs(dx))
        spread_y = max(spread_y, abs(dy))
    if var_x <= (VAR_RTOL * max(spread_x, 1.0)) ** 2 or var_y <= (
        VAR_RTOL * max(spread_y, 1.0)
    ) ** 2:
        raise InapplicableError("correlation undefined: zero-variance marginal")
    rho = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, rho))


# ------------------------------------- per-pair references of the pair-table screens
#
# The distance and cosphericity screens once walked the output pairs one at a
# time; these are those functions, kept verbatim but for reading the pair
# marginals off ``reference_pair_marginals``.  The pair-table screens must
# reproduce them to the last bit.


def reference_pair_marginals(system: System) -> dict[tuple[int, int], np.ndarray]:
    """Read-only 2-marginals of ``array``, by output pair (k, k') with
    k < k': each of shape (treatments, values of k, values of k').  They
    are the size-2 columns of one ``sub_marginals`` table, copied out, so
    only the 2-marginals are kept; with two outputs, those columns are
    the array itself."""
    shape = system.array.shape
    if len(shape) < 3:
        return {}
    if len(shape) == 3:
        return {(0, 1): system.array}
    layout = margin_layout(shape[1:], 2)
    first = len(shape)  # the first pair, after the empty subset and the n singletons
    start = layout.offsets[first]
    block = sub_marginals(system.array, 2)[:, start:].copy()
    block.flags.writeable = False
    bounds = zip(layout.subsets[first:], layout.offsets[first:], layout.offsets[first + 1 :])
    return {
        (k, k_prime): block[:, lo - start : hi - start].reshape(
            shape[0], shape[k + 1], shape[k_prime + 1]
        )
        for (k, k_prime), lo, hi in bounds
    }


def _weights(metric, design: Design, k_from: int, k_to: int) -> np.ndarray:
    """W with d(k_from, k_to) = sum(P2 * W) for a (values of k_from, values of
    k_to) 2-marginal P2: (y - x)**p where x < y, or 1 where class(a) < class(b)."""
    out_from, out_to = design.outputs[k_from], design.outputs[k_to]
    if isinstance(metric, PowerMetric):
        if not (out_from.has_numeric and out_to.has_numeric):
            raise InapplicableError(
                f"power metric needs numeric payloads on outputs "
                f"{out_from.name!r} and {out_to.name!r}"
            )
        x, y = np.array(out_from.numeric)[:, None], np.array(out_to.numeric)[None, :]
        return np.where(x < y, np.power(np.maximum(y - x, 0.0), metric.p), 0.0)
    c_from = np.array([metric.class_index(k_from, v) for v in out_from.values])
    c_to = np.array([metric.class_index(k_to, v) for v in out_to.values])
    return (c_from[:, None] < c_to[None, :]).astype(np.float64)


def _directed(system: System, metric, k_from: int, k_to: int) -> np.ndarray:
    """Distance from output k_from to k_to at every treatment, in declared order."""
    if k_from < k_to:
        pmf2 = reference_pair_marginals(system)[(k_from, k_to)]
    else:
        pmf2 = reference_pair_marginals(system)[(k_to, k_from)].transpose(0, 2, 1)
    return (pmf2 * _weights(metric, system.design, k_from, k_to)).sum(axis=(1, 2))


def _correlations(pmf2: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation at every treatment of a (treatments, values,
    values) 2-marginal under payloads x and y, central moments in two passes
    (E[X^2] - E[X]^2 cancels on nearly degenerate marginals): (rho, defined),
    rho 0 where a marginal's variance is zero by the ``VAR_RTOL`` rule."""
    support = pmf2 != 0.0
    ex = (pmf2 * x[:, None]).sum(axis=(1, 2))
    ey = (pmf2 * y[None, :]).sum(axis=(1, 2))
    dx = x[None, :, None] - ex[:, None, None]
    dy = y[None, None, :] - ey[:, None, None]
    var_x = (dx * dx * pmf2).sum(axis=(1, 2))
    var_y = (dy * dy * pmf2).sum(axis=(1, 2))
    cov = (dx * dy * pmf2).sum(axis=(1, 2))
    spread_x = np.where(support, np.abs(dx), 0.0).max(axis=(1, 2), initial=0.0)
    spread_y = np.where(support, np.abs(dy), 0.0).max(axis=(1, 2), initial=0.0)
    defined = (var_x > (VAR_RTOL * np.maximum(spread_x, 1.0)) ** 2) & (
        var_y > (VAR_RTOL * np.maximum(spread_y, 1.0)) ** 2
    )
    rho = np.divide(cov, np.sqrt(var_x * var_y), out=np.zeros_like(cov), where=defined)
    return np.clip(rho, -1.0, 1.0), defined
