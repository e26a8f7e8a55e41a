"""Complete marginal selectivity: fixtures, oracle equivalence, LP linkage."""

import itertools

import numpy as np
import pytest

from fixtures import (
    binary_design,
    feasible_binary_system,
    marginal_violation_system,
    pr_box_system,
    random_selective_system,
    system_from_tables,
)
from selinf import (
    Design,
    InputSpec,
    JointPmf,
    OutputSpec,
    System,
    build_feasibility_system,
    check_marginal_selectivity,
    solve_feasibility,
)


def test_violation_example_fails_by_point_one():
    report = check_marginal_selectivity(marginal_violation_system())
    assert not report.passed
    assert report.discrepancy == pytest.approx(0.1, abs=1e-12)
    assert report.worst_subset == (1,)  # the second output's marginal
    assert set(report.worst_pair) == {(1, 2), (2, 2)}  # both share l2=2


def test_pr_box_passes_with_zero_discrepancy():
    report = check_marginal_selectivity(pr_box_system())
    assert report.passed
    assert report.discrepancy == 0.0


def test_ties_go_to_the_first_pair_in_test_order():
    # Independent outputs with dyadic masses: every comparable pair, on
    # either output, differs by exactly 1/4.
    a = {(1, 1): 0.5, (1, 2): 0.25, (2, 1): 0.5, (2, 2): 0.25}
    b = {(1, 1): 0.5, (1, 2): 0.5, (2, 1): 0.25, (2, 2): 0.25}
    tables = {
        t: {
            (x, y): (a[t] if x == 1 else 1 - a[t]) * (b[t] if y == 1 else 1 - b[t])
            for x, y in itertools.product((1, 2), (1, 2))
        }
        for t in a
    }
    report = check_marginal_selectivity(system_from_tables(binary_design(), tables))
    assert (report.worst_subset, report.worst_pair) == ((0,), ((1, 1), (1, 2)))
    assert report.discrepancy == report.total_variation == 0.25


def test_single_treatment_is_vacuous():
    design = Design(
        (InputSpec("l1", (1,)), InputSpec("l2", (1,))),
        (OutputSpec("A1", (0, 1)), OutputSpec("A2", (0, 1))),
        ((1, 1),),
    )
    system = System(design, {(1, 1): JointPmf(2, {(0, 1): 1.0})})
    report = check_marginal_selectivity(system)
    assert report.passed
    assert report.discrepancy == 0.0
    assert report.worst_pair is None


def test_generated_systems_pass_tightly():
    rng = np.random.default_rng(101)
    for _ in range(15):
        system = random_selective_system(rng, column_cap=800)
        report = check_marginal_selectivity(system, eps_test=1e-12)
        assert report.passed, report


def _oracle_discrepancy(system, max_subset_size):
    """Independent recomputation: brute-force sums straight off the tables."""
    design = system.design
    worst = 0.0
    for size in range(1, max_subset_size + 1):
        for subset in itertools.combinations(range(design.n), size):
            for t1, t2 in itertools.combinations(design.treatments, 2):
                if any(t1[k] != t2[k] for k in subset):
                    continue
                keys = set()
                for key in list(system.pmf(t1).table) + list(system.pmf(t2).table):
                    keys.add(tuple(key[k] for k in subset))
                for pkey in keys:
                    m1 = sum(
                        m
                        for key, m in system.pmf(t1).items()
                        if tuple(key[k] for k in subset) == pkey
                    )
                    m2 = sum(
                        m
                        for key, m in system.pmf(t2).items()
                        if tuple(key[k] for k in subset) == pkey
                    )
                    worst = max(worst, abs(m1 - m2))
    return worst


def test_discrepancy_matches_brute_force_oracle():
    rng = np.random.default_rng(102)
    for _ in range(10):
        # Random noisy systems (not selective): exercise nonzero discrepancies.
        design = binary_design(values1=(0, 1, 2), values2=(0, 1))
        tables = {}
        for t in design.treatments:
            masses = rng.dirichlet(np.ones(6))
            keys = list(itertools.product((0, 1, 2), (0, 1)))
            tables[t] = {k: float(m) for k, m in zip(keys, masses)}
        system = system_from_tables(design, tables)
        report = check_marginal_selectivity(system)
        assert report.discrepancy == pytest.approx(
            _oracle_discrepancy(system, design.n - 1), abs=1e-12
        )


def test_oracle_equivalence_on_perturbed_three_input_systems():
    """Up to n = 3: perturb one treatment of a selective system, then both
    the worst discrepancy (vs brute force) and the LP implication must hold."""
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 6:
        system = random_selective_system(rng, column_cap=400, allow_partial=False)
        design = system.design
        if design.n < 2 or len(design.treatments) < 2:
            continue
        target = design.treatments[int(rng.integers(len(design.treatments)))]
        keys = list(itertools.product(*(o.values for o in design.outputs)))
        noise = rng.dirichlet(np.ones(len(keys)))
        eps = 0.25
        tables = {
            t: dict(system.pmf(t).table) for t in design.treatments
        }
        tables[target] = {
            k: (1 - eps) * system.pmf(target).mass(k) + eps * float(m)
            for k, m in zip(keys, noise)
        }
        perturbed = system_from_tables(design, tables)
        report = check_marginal_selectivity(perturbed)
        assert report.discrepancy == pytest.approx(
            _oracle_discrepancy(perturbed, design.n - 1), abs=1e-12
        )
        if not report.passed:
            # Marginal failure must imply infeasibility of the coupling LP.
            verdict = solve_feasibility(build_feasibility_system(perturbed))
            assert not verdict.feasible
            checked += 1


def test_failing_marginal_selectivity_implies_lp_infeasible():
    for system in (marginal_violation_system(),):
        assert not check_marginal_selectivity(system).passed
        verdict = solve_feasibility(build_feasibility_system(system))
        assert not verdict.feasible


def test_feasible_fixture_passes():
    assert check_marginal_selectivity(feasible_binary_system()).passed
