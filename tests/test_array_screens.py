"""The screens read ``System.array``; dict-based brute-force oracles check them.

Every oracle here sums straight off the ``JointPmf`` tables, in table order,
so it shares no code with the array reductions it checks.  Sums run in
another order there, so values are compared within 1e-12; the verdict-level
choices (which sub-designs are skipped, which pair is worst) must agree
exactly.
"""

import itertools
import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fixtures import (
    _correlations,
    _directed,
    correlation,
    feasible_binary_system,
    pr_box_system,
    random_selective_system,
    reference_pair_marginals,
    system_from_tables,
)
from selinf import (
    CONSISTENT,
    CapacityError,
    ClassificationMetric,
    Design,
    InapplicableError,
    InputSpec,
    JointPmf,
    LatentModel,
    OutputSpec,
    PowerMetric,
    RULED_OUT,
    System,
    UsageError,
    apply_transform,
    build_feasibility_system,
    check_marginal_selectivity,
    cosphericity_report,
    fine_inequality_check,
    lp_report,
    generate_battery,
    generate_system,
    pairwise_distance,
    run_battery,
    run_cosphericity,
    run_distance_test,
)
from selinf import cosphericity, distances, model
from selinf.io import system_to_dict
from selinf.tolerances import VAR_RTOL
from test_array_construction import table_to_dict
from test_distances import random_class_metric
from test_marginal import _oracle_discrepancy, perturbed

# ------------------------------------------------------------------ systems


def pr_mixture(system, weight):
    """Mix a PR box on outputs 1 and 2 into ``system``: output 2 copies output
    1, shifted by one value at treatments above both inputs' first levels."""
    return system_from_tables(system.design, pr_tables(system, weight))


def pr_tables(system, weight):
    """The tables of ``pr_mixture(system, weight)``."""
    design = system.design
    v1, v2 = design.outputs[0].values, design.outputs[1].values
    v = min(len(v1), len(v2))
    first = [spec.levels[0] for spec in design.inputs[:2]]
    rest = list(itertools.product(*(o.values for o in design.outputs[2:])))
    tables = {}
    for t in design.treatments:
        table = {k: (1 - weight) * m for k, m in system.pmf(t).items()}
        shift = int(t[0] != first[0] and t[1] != first[1])
        for i in range(v):
            for tail in rest:
                key = (v1[i], v2[(i + shift) % v]) + tail
                table[key] = table.get(key, 0.0) + weight / v / len(rest)
        tables[t] = table
    return tables


def with_outputs(system, outputs):
    return System(
        Design(system.design.inputs, tuple(outputs), system.design.treatments),
        system.distributions,
    )


def unobserved_value(system):
    """Output 1 gains a value that no treatment gives mass to."""
    out = system.design.outputs[0]
    numeric = None if out.numeric is None else out.numeric + (99.0,)
    grown = OutputSpec(out.name, out.values + ("never",), numeric)
    return with_outputs(system, (grown,) + system.design.outputs[1:])


def no_payload(system):
    """Output 1 without numeric payloads."""
    out = system.design.outputs[0]
    return with_outputs(system, (OutputSpec(out.name, out.values),) + system.design.outputs[1:])


def seeded_systems(seed, count=24):
    """Latent systems (partial designs and single-level inputs included), PR
    mixtures, marginally broken perturbations, and the variants above."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        system = random_selective_system(rng, column_cap=3000, allow_partial=True)
        systems += [system, perturbed(system, rng), unobserved_value(system), no_payload(system)]
        if system.design.n >= 2:
            systems.append(pr_mixture(system, float(rng.uniform(0.5, 1.0))))
    return systems


def kinds_covered(systems):
    return {
        "partial": any(not s.design.is_fully_crossed() for s in systems),
        "single level": any(len(spec.levels) == 1 for s in systems for spec in s.design.inputs),
        "no payload": any(not o.has_numeric for s in systems for o in s.design.outputs),
        "broken": any(not check_marginal_selectivity(s).passed for s in systems),
    }


# ------------------------------------------------------------------ oracles


def dict_marginal(pmf, indices):
    table = {}
    for key, mass in pmf.items():
        proj = tuple(key[i] for i in indices)
        table[proj] = table.get(proj, 0.0) + mass
    return table


def dict_sup(system, subset, t1, t2):
    a, b = dict_marginal(system.pmf(t1), subset), dict_marginal(system.pmf(t2), subset)
    return max([abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)] + [0.0])


def dict_distance(system, metric, t, k_from, k_to):
    design = system.design
    total = 0.0
    for (a, b), mass in dict_marginal(system.pmf(t), (k_from, k_to)).items():
        if isinstance(metric, PowerMetric):
            x = design.outputs[k_from].numeric[design.outputs[k_from].values.index(a)]
            y = design.outputs[k_to].numeric[design.outputs[k_to].values.index(b)]
            if x < y:
                total += (y - x) ** metric.p * mass
        elif metric.class_index(k_from, a) < metric.class_index(k_to, b):
            total += mass
    return total


def dict_correlations(system):
    """(sub-design, rho) for every crossed 2x2 sub-design, found by scanning the
    treatments, whose four correlations the scalar ``correlation`` defines."""
    design = system.design
    out = []
    for k, kp in itertools.permutations(range(design.n), 2):
        for i, ip in itertools.combinations(design.inputs[k].levels, 2):
            for j, jp in itertools.combinations(design.inputs[kp].levels, 2):
                cells = [
                    [t for t in design.treatments if t[k] == a and t[kp] == b]
                    for a, b in itertools.product((i, ip), (j, jp))
                ]
                if not all(cells):
                    continue
                ok, x = design.outputs[k], design.outputs[kp]
                if not (ok.has_numeric and x.has_numeric):
                    continue
                try:
                    rho = tuple(
                        correlation(
                            JointPmf(2, dict_marginal(system.pmf(c[0]), (k, kp))),
                            ok.numeric_value,
                            x.numeric_value,
                        )
                        for c in cells
                    )
                except InapplicableError:
                    continue
                out.append(((k, kp, i, ip, j, jp), rho))
    return out


# -------------------------------------------------------------------- tests


def test_seeded_systems_cover_every_kind():
    assert all(kinds_covered(seeded_systems(41)).values())


@pytest.mark.parametrize("seed", [41, 42])
def test_marginal_test_matches_the_brute_force_oracle(seed):
    for system in seeded_systems(seed):
        design = system.design
        if design.n < 2:
            continue
        report = check_marginal_selectivity(system)
        assert report.discrepancy == pytest.approx(
            _oracle_discrepancy(system, design.n - 1), abs=1e-12
        )
        if report.worst_pair is None:
            assert report.discrepancy == 0.0
        else:
            subset, (t1, t2) = report.worst_subset, report.worst_pair
            assert all(t1[k] == t2[k] for k in subset) and t1 != t2
            assert dict_sup(system, subset, t1, t2) == pytest.approx(report.discrepancy, abs=1e-12)


@pytest.mark.parametrize("seed", [43, 44])
def test_directed_distances_match_the_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    for system in seeded_systems(seed):
        design = system.design
        parts = []
        for out in design.outputs:
            order = rng.permutation(len(out.values))
            split = int(rng.integers(1, len(out.values)))
            parts.append(
                (tuple(out.values[i] for i in order[:split]), tuple(out.values[i] for i in order[split:]))
            )
        metrics = [ClassificationMetric(tuple(parts))]
        if all(o.has_numeric for o in design.outputs):
            metrics += [PowerMetric(0.0), PowerMetric(0.5), PowerMetric(1.0)]
        for metric, t in itertools.product(metrics, design.treatments):
            for k, kp in itertools.combinations(range(design.n), 2):
                forward, backward = pairwise_distance(system, metric, t, k, kp)
                assert forward == pytest.approx(dict_distance(system, metric, t, k, kp), abs=1e-12)
                assert backward == pytest.approx(dict_distance(system, metric, t, kp, k), abs=1e-12)


@pytest.mark.parametrize("seed", [45, 46])
def test_correlations_match_the_scalar_oracle_per_subdesign(seed):
    compared = 0
    for system in seeded_systems(seed):
        expected = dict_correlations(system)
        try:
            results = run_cosphericity(system)
        except InapplicableError:
            assert expected == []
            continue
        assert [r.subdesign for r in results] == [sub for sub, _ in expected]
        for r, (_, rho) in zip(results, expected):
            assert r.rho == pytest.approx(rho, abs=1e-12)
            compared += 1
    assert compared > 0


def crossed_system(rng, shape, levels=2, treatments_dropped=0):
    """A random system with outputs of ``shape``, payloads on all outputs,
    on a crossed design of ``levels`` levels per input, less the last
    ``treatments_dropped`` treatments."""
    inputs = tuple(InputSpec(f"l{k}", tuple(range(levels))) for k in range(len(shape)))
    outputs = tuple(
        OutputSpec(f"A{k}", tuple(range(v)), tuple(np.round(rng.normal(size=v), 3)))
        for k, v in enumerate(shape)
    )
    treatments = list(itertools.product(range(levels), repeat=len(shape)))
    treatments = treatments[: len(treatments) - treatments_dropped]
    array = rng.dirichlet(np.full(int(np.prod(shape)), 0.5), size=len(treatments))
    design = Design(inputs, outputs, tuple(treatments))
    return System.from_array(design, array.reshape(len(treatments), *shape))


def pair_table_systems(seed):
    """The seeded systems, crossed systems whose pair blocks are of equal
    and of unequal lengths, and battery members of some of each."""
    rng = np.random.default_rng(seed)
    systems = seeded_systems(seed, count=12)
    for shape in ((2, 2, 3, 3), (3, 4, 5), (2, 3, 2), (2, 2, 2, 2), (3, 5), (4, 2, 2)):
        systems.append(crossed_system(rng, shape, treatments_dropped=int(rng.integers(2))))
    systems.append(pr_mixture(crossed_system(rng, (3, 3, 3), levels=3), 0.8))
    for system in systems[::4]:
        specs = generate_battery(system.design, n_groupings=2, n_monotone=2, seed=seed)
        systems += [apply_transform(system, spec) for spec in specs]
    return systems


@pytest.mark.parametrize("seed", [61, 62])
def test_directed_distances_equal_the_per_pair_reference_to_the_bit(seed):
    rng = np.random.default_rng(seed)
    lengths, compared = set(), 0
    for system in pair_table_systems(seed):
        design = system.design
        layout = model.pair_layout(system.array.shape[1:])
        pairs = layout.pairs
        lengths.add(len(set(np.diff(layout.offsets))))
        metrics = [random_class_metric(rng, design)]
        metrics += [PowerMetric(p) for p in (0.0, 0.5, 1.0)]
        for metric in metrics:
            got = distances._distances(system, metric)
            for p, (k, kp) in enumerate(pairs):
                if isinstance(metric, PowerMetric) and not (
                    design.outputs[k].has_numeric and design.outputs[kp].has_numeric
                ):
                    continue
                forward, backward = _directed(system, metric, k, kp), _directed(system, metric, kp, k)
                assert got[:, p].tobytes() == forward.tobytes()
                assert got[:, len(pairs) + p].tobytes() == backward.tobytes()
                for b, t in enumerate(design.treatments):
                    assert pairwise_distance(system, metric, t, k, kp) == (forward[b], backward[b])
                    assert pairwise_distance(system, metric, t, kp, k) == (backward[b], forward[b])
                compared += 1
    assert compared > 0 and {1, 2} <= lengths  # blocks of equal and of unequal lengths


@pytest.mark.parametrize("seed", [63, 64])
def test_correlations_equal_the_per_pair_reference_to_the_bit(seed):
    defined_somewhere = skipped = 0
    for system in pair_table_systems(seed):
        outputs = system.design.outputs
        rho, defined = cosphericity._pearson(system)
        for p, pair in enumerate(model.pair_layout(system.array.shape[1:]).pairs):
            if not all(outputs[k].has_numeric for k in pair):
                assert not defined[:, p].any() and not rho[:, p].any()
                skipped += 1
                continue
            expected_rho, expected_defined = _correlations(
                reference_pair_marginals(system)[pair],
                *(np.array(outputs[k].numeric) for k in pair),
            )
            assert rho[:, p].tobytes() == expected_rho.tobytes()
            assert defined[:, p].tobytes() == expected_defined.tobytes()
            defined_somewhere += int(expected_defined.any())
    assert defined_somewhere > 0 and skipped > 0


def near_degenerate_system(q, scale=1.0, unobserved=False):
    """2x2 design; at treatment (2, 2) output 1 is 1 with mass q only, so its
    variance is about q * scale**2 against the (VAR_RTOL * spread)**2 rule;
    elsewhere both outputs are perfectly (anti-)correlated.  ``unobserved``
    gives output 1 a third value, far away and never observed, which must
    not count towards the spread."""
    values, payloads = ((0, 1, 2), (0.0, scale, 1e6)) if unobserved else ((0, 1), (0.0, scale))
    design = Design(
        (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
        (OutputSpec("A1", values, payloads), OutputSpec("A2", (0, 1), (0.0, 1.0))),
        tuple(itertools.product((1, 2), (1, 2))),
    )
    tables = {
        (1, 1): {(0, 0): 0.5, (1, 1): 0.5},
        (1, 2): {(0, 1): 0.5, (1, 0): 0.5},
        (2, 1): {(0, 0): 0.5, (1, 1): 0.5},
        (2, 2): {(0, 0): 0.5, (0, 1): 0.5 - q, (1, 1): q},
    }
    return system_from_tables(design, tables)


@pytest.mark.parametrize("scale, unobserved", [(1.0, False), (1e3, False), (1.0, True)])
def test_zero_variance_rule_skips_exactly_what_the_scalar_rule_rejects(scale, unobserved):
    def defined(q):
        return dict_correlations(near_degenerate_system(q, scale, unobserved)) != []

    # the scalar rule's boundary: lo is rejected, the next float up is not
    lo = (VAR_RTOL * scale) ** 2 / scale**2
    toward = 0.0 if defined(lo) else 1.0
    for _ in range(1000):
        if defined(lo) != defined(float(np.nextafter(lo, 1.0))):
            break
        lo = float(np.nextafter(lo, toward))
    assert not defined(lo) and defined(float(np.nextafter(lo, 1.0)))
    qs = [lo * f for f in (0.5, 1 - 1e-6, 1 + 1e-6, 2.0)]
    for _ in range(3):
        qs += [lo, float(np.nextafter(lo, 1.0))]
        lo = float(np.nextafter(lo, 0.0))
    seen = set()
    for q in qs:
        system = near_degenerate_system(q, scale, unobserved)
        expected = dict_correlations(system)
        results = run_cosphericity(system)
        assert [r.subdesign for r in results] == [sub for sub, _ in expected], q
        seen.add(len(results))
    assert seen == {0, 2}  # both sides of the boundary were exercised


def test_perfect_correlations_are_clipped_to_one():
    # diagonal everywhere but at (1, 2), which is anti-diagonal
    system = near_degenerate_system(0.5)
    first, second = run_cosphericity(system)
    assert first.rho == (1.0, -1.0, 1.0, 1.0) and second.rho == (1.0, 1.0, -1.0, 1.0)
    assert [first.rho, second.rho] == [rho for _, rho in dict_correlations(system)]
    assert not first.passed and first.rhs == 0.0 and first.lhs == 2.0


# ------------------------------------------------------------ the array


@pytest.mark.parametrize("seed", [47])
def test_array_holds_the_tables_and_p_is_its_flat_view(seed):
    for system in seeded_systems(seed, count=12):
        design = system.design
        array = system.array
        assert array.shape == (len(design.treatments), *(len(o.values) for o in design.outputs))
        assert not array.flags.writeable
        for b, t in enumerate(design.treatments):
            for idx in itertools.product(*(range(len(o.values)) for o in design.outputs)):
                key = tuple(o.values[i] for o, i in zip(design.outputs, idx))
                assert array[(b, *idx)] == system.pmf(t).mass(key)
        if not model.validate_system(system):
            fs = build_feasibility_system(system)
            rows = np.array([system.pmf(t).mass(o) for t, o in fs.row_labels], dtype=np.float64)
            assert fs.p.tobytes() == rows.tobytes()
        again = System.from_array(design, array)
        assert all(again.pmf(t).table == system.pmf(t).table for t in design.treatments)


def test_transformed_array_matches_the_dict_pushforward():
    rng = np.random.default_rng(48)
    for system in seeded_systems(48, count=10):
        design = system.design
        for spec in generate_battery(design, n_groupings=2, n_monotone=2, seed=int(rng.integers(99))):
            member = apply_transform(system, spec)
            rebuilt = System(member.design, member.distributions)
            assert member.array.tobytes() == rebuilt.array.tobytes()
            for t in design.treatments:
                maps = [tr.map_for(level) for tr, level in zip(spec.outputs, t)]
                expected = {}
                for key, mass in system.pmf(t).items():
                    image = tuple(m[v] for m, v in zip(maps, key))
                    expected[image] = expected.get(image, 0.0) + mass
                got = member.pmf(t)
                for key in set(expected) | set(got.table):
                    assert got.mass(key) == pytest.approx(expected.get(key, 0.0), abs=1e-12)


def test_array_rejects_undeclared_values_and_oversized_shapes(monkeypatch):
    design = Design(
        (InputSpec("l1", (1,)),), (OutputSpec("A1", (0, 1)),), ((1,),)
    )
    with pytest.raises(UsageError, match="undeclared value"):
        System(design, {(1,): JointPmf(1, {(2,): 1.0})})
    monkeypatch.setattr(model, "ARRAY_BYTE_CAP", 8)
    with pytest.raises(CapacityError):
        System(design, {(1,): JointPmf(1, {(0,): 1.0})})


# --------------------------------------------------- the single representation


def dict_validate(system, eps_prob=model.EPS_PROB):
    """The table walk ``validate_system`` did before it read the array."""
    design = system.design
    violations = []
    declared = set(design.treatments)
    for t in system.distributions:
        if t not in declared:
            violations.append(f"distribution given for undeclared treatment {t!r}")
    for t in design.treatments:
        if t not in system.distributions:
            violations.append(f"treatment {t!r} has no distribution")
            continue
        pmf = system.distributions[t]
        if pmf.arity != design.n:
            violations.append(
                f"treatment {t!r}: pmf arity {pmf.arity} != number of outputs {design.n}"
            )
            continue
        for key, mass in pmf.items():
            if mass < -eps_prob:
                violations.append(f"treatment {t!r}: negative mass {mass} at {key!r}")
            for value, spec in zip(key, design.outputs):
                if value not in spec.values:
                    violations.append(
                        f"treatment {t!r}: undeclared value {value!r} for output {spec.name!r}"
                    )
        total = pmf.total()
        if abs(total - 1.0) > eps_prob:
            violations.append(f"treatment {t!r}: mass sum {total:.10g} != 1")
    return violations


def defective_tables(system, rng):
    """Raw tables in shuffled key order: one treatment gains masses in
    (-EPS_PROB, 0), which are clipped, one a negative mass, one a mass sum
    off by 1e-6 (treatments may coincide)."""
    design = system.design
    outcomes = list(itertools.product(*(o.values for o in design.outputs)))
    tables = {}
    for t in design.treatments:
        items = list(system.pmf(t).items())
        tables[t] = dict(items[i] for i in rng.permutation(len(items)))
    clipped, negative, scaled = (
        design.treatments[int(rng.integers(len(design.treatments)))] for _ in range(3)
    )
    for key in rng.choice(len(outcomes), size=min(2, len(outcomes)), replace=False):
        tables[clipped][outcomes[key]] = -float(rng.uniform(0.1, 0.9)) * model.EPS_PROB
    key = outcomes[int(rng.integers(len(outcomes)))]
    tables[negative][key] = tables[negative].get(key, 0.0) - 0.01
    tables[scaled] = {k: m * (1 + 1e-6) for k, m in tables[scaled].items()}
    return tables


def test_tables_round_trip_through_the_array():
    rng = np.random.default_rng(49)
    for system in seeded_systems(49, count=8):
        design = system.design
        for raw in (
            {t: dict(system.pmf(t).items()) for t in design.treatments},
            defective_tables(system, rng),
        ):
            cleaned = {t: JointPmf(design.n, table).table for t, table in raw.items()}
            made = system_from_tables(design, raw)
            assert {t: pmf.table for t, pmf in made.distributions.items()} == cleaned
            again = System.from_array(design, made.array)
            assert again.array.tobytes() == made.array.tobytes()
            assert {t: pmf.table for t, pmf in again.distributions.items()} == cleaned
            assert list(again.distributions) == list(design.treatments)


def test_validation_reads_the_array_as_the_tables_read():
    rng = np.random.default_rng(50)
    defects = 0
    for system in seeded_systems(50, count=12):
        design = system.design
        made = system_from_tables(design, defective_tables(system, rng))
        order = {repr(t): b for b, t in enumerate(design.treatments)}
        for eps_prob in (model.EPS_PROB, 1e-4):
            got = model.validate_system(made, eps_prob)
            assert sorted(got) == sorted(dict_validate(made, eps_prob))
            blocks = [order[message.split(":")[0][len("treatment ") :]] for message in got]
            assert blocks == sorted(blocks)
            defects += len(got)
        assert model.validate_system(system) == dict_validate(system) == []
    assert defects > 0


def test_structural_defects_keep_their_messages():
    """A structural defect is raised where the system is made, with the
    message the table walk gives it."""
    one = Design((InputSpec("l1", (1, 2)),), (OutputSpec("A1", (1, 2)),), ((1,), (2,)))
    only_first = Design(one.inputs, one.outputs, ((1,),))
    fine = JointPmf(1, {(1,): 1.0})
    cases = {
        "distribution given for undeclared treatment (2,)": (
            only_first, {(1,): fine, (2,): fine}
        ),
        "treatment (2,) has no distribution": (one, {(1,): fine}),
        "treatment (1,): pmf arity 2 != number of outputs 1": (
            one, {(1,): JointPmf(2, {(1, 1): 1.0}), (2,): fine}
        ),
        "treatment (2,): undeclared value 3 for output 'A1'": (
            one, {(1,): fine, (2,): JointPmf(1, {(3,): 1.0})}
        ),
    }
    for message, (design, tables) in cases.items():
        assert message in dict_validate(SimpleNamespace(design=design, distributions=tables))
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            System(design, tables)


def test_table_built_systems_keep_only_their_array():
    """A PR mixture made from tables holds its array and nothing of the
    tables it was given: traced memory grows by the array and under 1 KB of
    objects.  The tables it derives on request equal the given ones, and
    its document is the one the table writer gives."""
    rng = np.random.default_rng(53)
    cases = []
    while len(cases) < 12:
        system = random_selective_system(rng, column_cap=3000, allow_partial=True)
        if system.design.n >= 2:
            cases.append((system.design, pr_tables(system, float(rng.uniform(0.5, 1.0)))))
    made, retained = [], []
    tracemalloc.start()
    try:
        for design, tables in cases:  # fills the interpreter's free lists with traced blocks
            system_from_tables(design, tables)
        for design, tables in cases:
            before = tracemalloc.get_traced_memory()[0]
            system = system_from_tables(design, tables)
            retained.append(tracemalloc.get_traced_memory()[0] - before)
            made.append(system)
    finally:
        tracemalloc.stop()
    for system, (_, tables), size in zip(made, cases, retained):
        assert system.array.nbytes <= size <= system.array.nbytes + 1024
        document = json.dumps(system_to_dict(system))
        assert {t: pmf.table for t, pmf in system.distributions.items()} == tables
        assert json.dumps(system_to_dict(system)) == document == json.dumps(table_to_dict(system))


def test_battery_members_build_no_tables(monkeypatch):
    built = []
    original = JointPmf.__post_init__

    def counting(self):
        built.append(self.arity)
        original(self)

    rng = np.random.default_rng(52)
    systems = [random_selective_system(rng, column_cap=256, allow_partial=True) for _ in range(4)]
    systems += [pr_box_system(), feasible_binary_system()]
    for system in systems:
        system.array
    monkeypatch.setattr(JointPmf, "__post_init__", counting)
    members = []

    def member(s):
        members.append(s)
        assert model.validate_system(s) == []
        check_marginal_selectivity(s)
        fine_inequality_check(s)
        run_distance_test(s, random_class_metric(rng, s.design))
        cosphericity_report(s)
        return lp_report(s)

    for system in systems:
        run_battery(system, generate_battery(system.design, 3, 3, seed=len(members)), member)
    assert len(members) > len(systems) and built == []


@pytest.mark.parametrize("seed", [5, 6])
def test_screens_do_not_depend_on_the_callers_memory_layout(seed):
    """``from_array`` stores the masses C-ordered, so a Fortran-ordered or
    strided copy of the same masses gives the same reports to the last bit."""
    rng = np.random.default_rng(seed)
    compared = 0
    for system in seeded_systems(seed, count=8):
        design, array = system.design, system.array
        copies = [np.asfortranarray(array), np.flip(np.flip(array, -1).copy(), -1)]
        if array.ndim > 2:
            copies.append(np.moveaxis(np.moveaxis(array, 1, -1).copy(), -1, 1))
        metric = random_class_metric(rng, design)
        for copy in copies:
            again = System.from_array(design, copy)
            assert again.array.flags.c_contiguous
            assert again.array.tobytes() == array.tobytes()
            for screen in (
                check_marginal_selectivity,
                lambda s: run_distance_test(s, PowerMetric(1.0)),
                lambda s: run_distance_test(s, PowerMetric(0.5)),
                lambda s: run_distance_test(s, metric),
                cosphericity_report,
            ):
                assert repr(screen(again)) == repr(screen(system))
            compared += 1
    assert compared > 30


# ------------------------------------------------------------ presentation


def latent_crossed_system(rng, levels, values, n_latent=4):
    """A system from a random latent model on the crossed design whose input
    k has ``levels[k]`` levels and output k the values and payloads 0, 1, ...,
    ``values[k] - 1``."""
    inputs = tuple(InputSpec(f"l{k}", tuple(range(1, m + 1))) for k, m in enumerate(levels))
    outputs = tuple(OutputSpec(f"A{k}", tuple(range(v)), tuple(range(v))) for k, v in enumerate(values))
    design = Design(inputs, outputs, tuple(itertools.product(*(s.levels for s in inputs))))
    masses = rng.dirichlet(np.ones(n_latent))
    latent = JointPmf(1, {(r,): float(m) for r, m in enumerate(masses)})
    responses = [
        {(level, r): int(rng.integers(v)) for level in spec.levels for r in range(n_latent)}
        for spec, v in zip(inputs, values)
    ]
    return generate_system(design, LatentModel(latent, responses))


def rewritten(system):
    """``system`` written down four other ways: treatments in reverse order;
    inputs reversed together with their outputs; each output's values
    reversed with their payloads; every level and value renamed to a string."""
    design, array = system.design, system.array
    inputs, outputs, treatments = design.inputs, design.outputs, design.treatments
    axes = tuple(range(1, design.n + 1))
    flipped = [OutputSpec(o.name, o.values[::-1], o.numeric[::-1]) for o in outputs]
    names = [{x: f"{spec.name}={x}" for x in spec.levels} for spec in inputs]
    renamed = Design(
        tuple(InputSpec(spec.name, tuple(m.values())) for spec, m in zip(inputs, names)),
        tuple(OutputSpec(o.name, tuple(f"v{x}" for x in o.values), o.numeric) for o in outputs),
        tuple(tuple(map(dict.__getitem__, names, t)) for t in treatments),
    )
    reversed_inputs = Design(inputs[::-1], outputs[::-1], tuple(t[::-1] for t in treatments))
    return [
        System.from_array(Design(inputs, outputs, treatments[::-1]), array[::-1]),
        System.from_array(reversed_inputs, array.transpose(0, *axes[::-1])),
        System.from_array(design.with_outputs(flipped), np.flip(array, axes)),
        System.from_array(renamed, array),
    ]


def screen_verdicts(system):
    return (
        CONSISTENT if check_marginal_selectivity(system).passed else RULED_OUT,
        run_distance_test(system, PowerMetric(1.0)).verdict,
        run_distance_test(system, PowerMetric(0.5)).verdict,
        cosphericity_report(system).verdict,
    )


@pytest.mark.parametrize(
    "seed, levels, values",
    [(71, (2, 2), (2, 2)), (72, (3, 3), (3, 3)), (73, (2, 2, 2), (3, 3, 3)), (74, (4, 4), (3, 5))],
)
def test_screen_verdicts_do_not_depend_on_how_the_system_is_written(seed, levels, values):
    """Latent systems and their PR mixtures at weight 0.9 keep every screen's
    verdict under each rewrite.  A marginally broken perturbation keeps its
    marginal and distance verdicts, the distance test taking each link's
    worst case over its realizers; cosphericity reads each cell off its first
    treatment in declared order, so it is not compared there.  The LP is not
    checked: its phase-I tolerance reads basis rows in declared treatment
    order too."""
    rng = np.random.default_rng(seed)
    ruled_out = 0
    for _ in range(30):
        latent = latent_crossed_system(rng, levels, values)
        for system in (latent, pr_mixture(latent, 0.9), perturbed(latent, rng)):
            verdicts = screen_verdicts(system)
            if verdicts[0] == RULED_OUT:
                verdicts = verdicts[:3]
            ruled_out += verdicts.count(RULED_OUT)
            for again in rewritten(system):
                assert screen_verdicts(again)[: len(verdicts)] == verdicts
    assert ruled_out > 60
