"""Complete marginal selectivity: fixtures, oracle equivalence, LP linkage."""

import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from fixtures import (
    binary_design,
    d1_system,
    feasible_binary_system,
    marginal_violation_system,
    pr_box_system,
    random_selective_system,
    system_from_tables,
)
from selinf import (
    ClassificationMetric,
    Design,
    InputSpec,
    JointPmf,
    MarginalReport,
    OutputSpec,
    System,
    UsageError,
    build_feasibility_system,
    check_marginal_selectivity,
    fine_inequality_check,
    run_distance_test,
    solve_feasibility,
)
from selinf.model import margin_layout, sub_marginals
from selinf.tolerances import EPS_TEST
from test_feasibility import blend, crossed, latent_system, pr_mixture


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


def tied_outputs_system() -> System:
    """Independent outputs with dyadic masses: every comparable pair, on
    either output, differs by exactly 1/4."""
    a = {(1, 1): 0.5, (1, 2): 0.25, (2, 1): 0.5, (2, 2): 0.25}
    b = {(1, 1): 0.5, (1, 2): 0.5, (2, 1): 0.25, (2, 2): 0.25}
    tables = {
        t: {
            (x, y): (a[t] if x == 1 else 1 - a[t]) * (b[t] if y == 1 else 1 - b[t])
            for x, y in itertools.product((1, 2), (1, 2))
        }
        for t in a
    }
    return system_from_tables(binary_design(), tables)


def tied_sizes_system() -> System:
    """Three binary inputs and outputs: output 1 takes 0 with probability
    1/2, or 3/4 where input 3 is at level 2; output 2 is always 0; output 3
    is a fair coin.  Subsets (0,) and (0, 1) both differ by exactly 1/4 on
    the pair ((1, 1, 1), (1, 1, 2)), (0, 2) by 1/8."""
    design = crossed((2, 2, 2), (2, 2, 2))
    array = np.zeros((len(design.treatments), 2, 2, 2))
    for b, t in enumerate(design.treatments):
        zero = 0.75 if t[2] == 2 else 0.5
        array[b, 0, 0] = zero / 2
        array[b, 1, 0] = (1 - zero) / 2
    return System.from_array(design, array)


def single_treatment_system() -> System:
    design = Design(
        (InputSpec("l1", (1,)), InputSpec("l2", (1,))),
        (OutputSpec("A1", (0, 1)), OutputSpec("A2", (0, 1))),
        ((1, 1),),
    )
    return System(design, {(1, 1): JointPmf(2, {(0, 1): 1.0})})


def perturbed(system, rng, eps=0.2):
    """One treatment mixed with noise: marginal selectivity breaks."""
    design = system.design
    target = design.treatments[int(rng.integers(len(design.treatments)))]
    keys = list(itertools.product(*(o.values for o in design.outputs)))
    noise = rng.dirichlet(np.ones(len(keys)))
    tables = {t: dict(system.pmf(t).table) for t in design.treatments}
    tables[target] = {
        k: (1 - eps) * system.pmf(target).mass(k) + eps * float(m) for k, m in zip(keys, noise)
    }
    return system_from_tables(design, tables)


def rounding_bound(system):
    """The tie bound of ``check_marginal_selectivity``: 4 c eps s, c the cells
    of the outcome and s the largest treatment total."""
    totals = system.array.reshape(len(system.design.treatments), -1).sum(axis=1)
    cells = int(np.prod(system.array.shape[1:]))
    return 4 * cells * np.finfo(np.float64).eps * float(np.abs(totals).max())


def reference_marginal_selectivity(system, max_subset_size=None, eps_test=EPS_TEST):
    """The complete marginal test one output subset at a time: per subset,
    its agreeing pairs, one sum, one gather and one comparison.  The worst
    pair is the first, in test order, whose sup is within
    ``rounding_bound`` of the largest.  The oracle that
    ``check_marginal_selectivity`` is checked against."""
    design = system.design
    n = design.n
    if max_subset_size is None:
        max_subset_size = n - 1
    array = system.array
    found = []  # (subset, pair, sup, total variation) in test order
    for size in range(1, max_subset_size + 1):
        for subset in itertools.combinations(range(n), size):
            groups = {}
            for b, t in enumerate(design.treatments):
                groups.setdefault(tuple(t[k] for k in subset), []).append(b)
            pairs = [
                pair for members in groups.values() for pair in itertools.combinations(members, 2)
            ]
            if not pairs:
                continue
            first, second = np.array(pairs, dtype=np.intp).T
            others = tuple(k + 1 for k in range(n) if k not in subset)
            margins = array.sum(axis=others).reshape(len(design.treatments), -1)
            diffs = np.abs(margins[first] - margins[second])
            for (b1, b2), row in zip(pairs, diffs):
                pair = (design.treatments[b1], design.treatments[b2])
                found.append((subset, pair, float(row.max()), float(0.5 * row.sum())))
    largest = max((sup for _, _, sup, _ in found), default=0.0)
    if largest == 0.0:
        return MarginalReport(None, None, 0.0, 0.0, 0.0 <= eps_test, len(found))
    bound = rounding_bound(system)
    subset, pair, _, tv = next(f for f in found if f[2] >= largest - bound)
    return MarginalReport(subset, pair, largest, tv, largest <= eps_test, len(found))


def assert_matches_reference(report, system, max_subset_size=None):
    """Witness, verdict and comparison count exactly as the reference; the
    two sums within the rounding bound."""
    expected = reference_marginal_selectivity(system, max_subset_size)
    assert (report.worst_subset, report.worst_pair, report.passed) == (
        expected.worst_subset,
        expected.worst_pair,
        expected.passed,
    )
    assert report.comparisons == expected.comparisons
    bound = rounding_bound(system)
    assert abs(report.discrepancy - expected.discrepancy) <= bound
    assert abs(report.total_variation - expected.total_variation) <= bound


def test_ties_go_to_the_first_pair_in_test_order():
    report = check_marginal_selectivity(tied_outputs_system())
    assert (report.worst_subset, report.worst_pair) == ((0,), ((1, 1), (1, 2)))
    assert report.discrepancy == report.total_variation == 0.25


def test_ties_across_subset_sizes_go_to_the_smaller_subset():
    system = tied_sizes_system()
    pair_margins = system.array.sum(axis=3)  # outputs 1 and 2
    assert np.abs(pair_margins[0] - pair_margins[1]).max() == 0.25
    report = check_marginal_selectivity(system)
    assert (report.worst_subset, report.worst_pair) == ((0,), ((1, 1, 1), (1, 1, 2)))
    assert report.discrepancy == report.total_variation == 0.25


def oracle_systems():
    """Latent systems (crossed and partial), PR mixtures, perturbations that
    break marginal selectivity, the two tie systems and a one-treatment
    design."""
    rng = np.random.default_rng(104)
    systems = []
    for _ in range(12):
        system = random_selective_system(rng, column_cap=3000, allow_partial=True)
        systems += [system, perturbed(system, rng)]
    for shape in (
        ((2, 2, 2, 2), (2, 2, 2, 2)),
        ((3, 3), (3, 3)),
        ((2, 2, 2), (3, 3, 3)),
        ((3, 3, 3), (2, 2, 4)),
    ):
        design = crossed(*shape)
        latent = latent_system(design, rng)
        systems += [latent, perturbed(latent, rng, eps=0.05)]
        systems += [blend(latent, pr_mixture(design, 1.0), w) for w in (0.5, 0.8, 1.0)]
    return systems + [tied_outputs_system(), tied_sizes_system(), single_treatment_system()]


def test_reports_equal_the_per_subset_reference():
    systems = oracle_systems()
    failed = sizes = 0
    for system in systems:
        n = system.design.n
        for max_subset_size in [None, *range(1, n)]:
            report = check_marginal_selectivity(system, max_subset_size)
            assert_matches_reference(report, system, max_subset_size)
            failed += not report.passed
            sizes += report.worst_subset is not None and len(report.worst_subset) > 1
    assert any(not s.design.is_fully_crossed() for s in systems)
    assert len(systems[-1].design.treatments) == 1
    assert failed > 20 and sizes > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("test", ["marginal", "fine", "distance"])
def test_non_finite_mass_is_a_usage_error(test, bad):
    """A system built from an array skips validation; the screens still
    refuse a non-finite mass instead of passing it."""
    base = feasible_binary_system()
    array = base.array.copy()
    array[0, 0, 0] = bad
    system = System.from_array(base.design, array)
    run = {
        "marginal": check_marginal_selectivity,
        "fine": fine_inequality_check,
        "distance": lambda s: run_distance_test(
            s, ClassificationMetric((((1,), (2,)), ((1,), (2,))))
        ),
    }[test]
    with pytest.raises(UsageError, match=r"non-finite mass at treatment \(1, 1\)"):
        run(system)


def test_non_finite_mass_is_a_usage_error_without_comparable_pairs():
    base = single_treatment_system()
    array = base.array.copy()
    array[0, 1, 1] = np.nan
    with pytest.raises(UsageError, match="non-finite mass"):
        check_marginal_selectivity(System.from_array(base.design, array))


def test_single_treatment_is_vacuous():
    report = check_marginal_selectivity(single_treatment_system())
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


def test_witness_survives_a_one_ulp_bump_of_any_mass():
    # The first two systems tie 4 of 4 and 12 of 48 comparisons at their
    # largest discrepancy in exact arithmetic, the third has one worst pair;
    # one ulp on one mass must not hand the witness to another pair.
    for system in (tied_outputs_system(), tied_sizes_system(), marginal_violation_system()):
        expected = check_marginal_selectivity(system)
        array = system.array
        for cell in itertools.product(*map(range, array.shape)):
            for toward in (0.0, 1.0):
                bumped = array.copy()
                bumped[cell] = np.nextafter(bumped[cell], toward)
                report = check_marginal_selectivity(System.from_array(system.design, bumped))
                witness = (report.worst_subset, report.worst_pair, report.passed)
                assert witness == (expected.worst_subset, expected.worst_pair, expected.passed)


def wide_system(rng, levels=(2,) * 7) -> System:
    """Seven binary outputs, fully crossed: more cells than one aggregation
    factor may hold, so the product runs as one matmul per output group."""
    design = crossed(levels, (2,) * 7)
    latent = latent_system(design, rng, n_latent=16)
    return blend(latent, perturbed(latent, rng, eps=0.05), 0.5)


def subset_sums(array, max_size):
    """Every sub-marginal by its own ``array.sum``, in layout order."""
    n = array.ndim - 1
    return [
        array.sum(axis=tuple(k + 1 for k in range(n) if k not in subset)).reshape(len(array), -1)
        for size in range(max_size + 1)
        for subset in itertools.combinations(range(n), size)
    ]


def best_of(repeats, fn):
    """The shortest wall time of ``repeats`` calls, and the largest
    tracemalloc peak."""
    times, peaks = [], []
    for _ in range(repeats):
        tracemalloc.start()
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return min(times), max(peaks)


def test_wide_design_margins_match_the_per_subset_sums():
    system = wide_system(np.random.default_rng(105))
    array, n = system.array, system.design.n
    layout = margin_layout(array.shape[1:], n - 1)
    assert layout.order is not None and len(layout.steps) > 1  # more than one group
    bound = rounding_bound(system)
    table = sub_marginals(array, n - 1)
    for s, margin in enumerate(subset_sums(array, n - 1)):
        block = table[:, layout.offsets[s] : layout.offsets[s + 1]]
        assert np.abs(block - margin).max() <= bound
    # All subset sizes on eight treatments; the 128 have too many pairs.
    few = wide_system(np.random.default_rng(106), levels=(2, 2, 2, 1, 1, 1, 1))
    for checked, sizes in ((system, (1, 2)), (few, range(1, n))):
        for max_subset_size in sizes:
            report = check_marginal_selectivity(checked, max_subset_size)
            assert_matches_reference(report, checked, max_subset_size)
            assert not report.passed
    product_s, product_peak = best_of(5, lambda: sub_marginals(array, n - 1))
    sums_s, sums_peak = best_of(5, lambda: subset_sums(array, n - 1))
    assert product_peak <= 2 * sums_peak
    assert product_s <= 2 * sums_s


def test_vacuous_designs_pass_without_comparisons():
    one_output = Design((InputSpec("l1", (1, 2)),), (OutputSpec("A1", (0, 1)),), ((1,), (2,)))
    one = System(one_output, {(t,): JointPmf(1, {(t - 1,): 1.0}) for t in (1, 2)})
    # No two treatments share a level of either input.
    diagonal = Design(
        (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
        (OutputSpec("A1", (0, 1)), OutputSpec("A2", (0, 1))),
        ((1, 1), (2, 2)),
    )
    apart = System(
        diagonal, {(1, 1): JointPmf(2, {(0, 0): 1.0}), (2, 2): JointPmf(2, {(1, 1): 1.0})}
    )
    for system in (one, single_treatment_system(), apart):
        report = check_marginal_selectivity(system)
        assert report == MarginalReport(None, None, 0.0, 0.0, True)
        assert report.comparisons == 0
        assert report == reference_marginal_selectivity(system)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_mass_names_the_first_bad_treatment_without_a_warning(bad):
    base = tied_sizes_system()
    array = base.array.copy()
    array[5, 1, 0, 1] = bad
    array[6, 0, 0, 0] = bad
    system = System.from_array(base.design, array)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UsageError, match=r"non-finite mass at treatment \(2, 1, 2\)"):
            check_marginal_selectivity(system)


def brute_force_comparisons(design, max_subset_size):
    return sum(
        all(t1[k] == t2[k] for k in subset)
        for size in range(1, max_subset_size + 1)
        for subset in itertools.combinations(range(design.n), size)
        for t1, t2 in itertools.combinations(design.treatments, 2)
    )


def test_comparisons_count_every_subset_and_agreeing_pair():
    d1 = d1_system()
    assert check_marginal_selectivity(d1).comparisons == 4 == brute_force_comparisons(d1.design, 1)
    rng = np.random.default_rng(106)
    partial = None
    while partial is None or partial.design.is_fully_crossed() or partial.design.n < 3:
        partial = random_selective_system(rng, column_cap=3000, allow_partial=True)
    n = partial.design.n
    for max_subset_size in range(1, n):
        report = check_marginal_selectivity(partial, max_subset_size)
        assert report.comparisons == brute_force_comparisons(partial.design, max_subset_size)
    assert "comparisons" not in report.to_json()
