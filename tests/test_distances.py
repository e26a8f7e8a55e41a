"""Distance metrics, sequence enumeration, and chain-inequality tests."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    binary_design,
    d1_grouping_transform,
    d1_system,
    feasible_binary_system,
    four_output_system,
    pr_box_system,
    random_selective_system,
    system_from_tables,
)
from selinf import (
    CONSISTENT,
    RULED_OUT,
    ChainViolation,
    ClassificationMetric,
    Design,
    InapplicableError,
    InputSpec,
    JointPmf,
    OutputSpec,
    PowerMetric,
    System,
    UsageError,
    apply_transform,
    check_marginal_selectivity,
    enumerate_test_sequences,
    pairwise_distance,
    run_distance_test,
)
from selinf import TestReport as Report
from selinf import marginal, model
from selinf.model import sub_marginals
from test_feasibility import crossed, latent_system, pr_product

D1 = PowerMetric(1.0)


def scan_realizers(design, a, b):
    """Reference scan: allowable treatments housing both elements, in order."""
    return [t for t in design.treatments if a[0] != b[0] and t[a[0]] == a[1] and t[b[0]] == b[1]]


def assert_first_realizers(design, sequences):
    for seq, realizers in sequences:
        pairs = [(seq[0], seq[-1])] + list(zip(seq, seq[1:]))
        assert list(realizers) == [scan_realizers(design, a, b)[0] for a, b in pairs]


def reference_links(system, metric, max_length=6):
    """Per link of every chain, (closing, linking): the (distance, treatment)
    the link reads when it closes a chain and when it links one.  Every
    realizer, found by a scan of the treatments, is looked up in turn; the
    link reads the first realizer in declared order whose distance is within
    4 c eps s of the largest when closing, of the smallest when linking (c
    the outcome's cells, s the largest distance of any realizer of any
    link)."""
    design = system.design
    found = {}
    for seq, _ in enumerate_test_sequences(design, max_length):
        for a, b in [(seq[0], seq[-1]), *zip(seq, seq[1:])]:
            if (a, b) not in found:
                found[a, b] = [
                    (pairwise_distance(system, metric, t, a[0], b[0])[0], t)
                    for t in scan_realizers(design, a, b)
                ]
    scale = max((abs(d) for values in found.values() for d, _ in values), default=0.0)
    band = 4 * math.prod(len(o.values) for o in design.outputs) * np.finfo(np.float64).eps * scale
    picks = {}
    for link, values in found.items():
        largest = max(d for d, _ in values)
        smallest = min(d for d, _ in values)
        picks[link] = (
            next(v for v in values if v[0] >= largest - band),
            next(v for v in values if v[0] <= smallest + band),
        )
    return picks


def reference_distance_test(system, metric, max_length=6, eps_test=1e-9):
    """Reference for run_distance_test on numeric or classified outputs: each
    chain's links read as ``reference_links`` picks them, link distances
    summed in chain order; of the violations whose gap is within 4 L eps s
    of the largest (L the chain length in use, s the largest lhs + rhs), the
    smallest repr of its sequence is reported."""
    design = system.design
    if isinstance(metric, ClassificationMetric):
        metric.validate(design)
    picks = reference_links(system, metric, max_length)
    violations = []
    for seq, _ in enumerate_test_sequences(design, max_length):
        lhs, closing = picks[seq[0], seq[-1]][0]
        rhs = 0.0
        used = [closing]
        for i in range(1, len(seq)):
            d, t = picks[seq[i - 1], seq[i]][1]
            rhs += d
            used.append(t)
        if lhs > rhs + eps_test:
            violations.append(ChainViolation(seq, lhs, rhs, tuple(used)))
    if not violations:
        return Report("distance", CONSISTENT, "all chain inequalities hold")
    length = 4 if design.is_fully_crossed() else max_length
    bound = 4 * length * np.finfo(np.float64).eps * max(v.lhs + v.rhs for v in violations)
    best = max(v.lhs - v.rhs for v in violations)
    worst = min(
        (v for v in violations if v.lhs - v.rhs >= best - bound),
        key=lambda v: repr(v.sequence),
    )
    return Report(
        "distance",
        RULED_OUT,
        f"chain inequality violated: {worst.lhs:.6g} > {worst.rhs:.6g} "
        f"for sequence {worst.sequence}",
        witness=worst,
    )


def random_class_metric(rng, design):
    parts = []
    for out in design.outputs:
        split = int(rng.integers(1, len(out.values)))
        order = rng.permutation(len(out.values))
        parts.append(
            (
                tuple(out.values[i] for i in order[:split]),
                tuple(out.values[i] for i in order[split:]),
            )
        )
    return ClassificationMetric(tuple(parts))


def independent_pmfs(rng, design):
    """One random pmf per treatment, drawn independently: 2-marginals that
    depend on the whole treatment, so the links are treatment-dependent."""
    outcomes = list(itertools.product(*(o.values for o in design.outputs)))
    tables = {}
    for t in design.treatments:
        k = int(rng.integers(1, len(outcomes) + 1))
        chosen = rng.choice(len(outcomes), size=k, replace=False)
        tables[t] = {outcomes[i]: float(m) for i, m in zip(chosen, rng.dirichlet(np.ones(k)))}
    return system_from_tables(design, tables)


class TestPairwiseDistance:
    def test_d1_tables(self):
        system = d1_system()
        for t in ((1, 1), (1, 2), (2, 1)):
            fwd, back = pairwise_distance(system, D1, t, 0, 1)
            assert fwd == pytest.approx(0.07, abs=1e-12)
            assert back == pytest.approx(1.07, abs=1e-12)
        fwd, back = pairwise_distance(system, D1, (2, 2), 0, 1)
        assert fwd == pytest.approx(0.55, abs=1e-12)
        assert back == pytest.approx(1.55, abs=1e-12)

    @pytest.mark.parametrize("k, k_prime", [(0, 5), (2, 0), (-1, 1)])
    def test_an_output_index_out_of_range_is_a_usage_error(self, k, k_prime):
        bad = k_prime if k in (0, 1) else k
        with pytest.raises(UsageError, match=rf"output index {bad} is outside \[0, 2\)"):
            pairwise_distance(d1_system(), PowerMetric(1.0), (1, 1), k, k_prime)

    @pytest.mark.parametrize(
        "system, metric, treatment, k, k_prime, error, message",
        [
            (d1_system, D1, (1, 1), 1, 1, UsageError, "pairwise distance needs two distinct outputs"),
            (d1_system, D1, (3, 1), 0, 1, UsageError, "no distribution for treatment (3, 1)"),
            (
                d1_system,
                ClassificationMetric((((0, 2), (4,)),)),
                (1, 1),
                0,
                1,
                UsageError,
                "one partition per output is required",
            ),
            (
                feasible_binary_system,
                D1,
                (1, 1),
                0,
                1,
                InapplicableError,
                "power metric needs numeric payloads on outputs 'A1' and 'A2'",
            ),
        ],
    )
    def test_a_pair_it_cannot_measure_names_the_fault(
        self, system, metric, treatment, k, k_prime, error, message
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            pairwise_distance(system(), metric, treatment, k, k_prime)

    def test_diagonal_coupling_has_zero_distance(self):
        design = Design(
            (InputSpec("l1", (1,)), InputSpec("l2", (1,))),
            (
                OutputSpec("A1", (0, 1), (0.0, 1.0)),
                OutputSpec("A2", (0, 1), (0.0, 1.0)),
            ),
            ((1, 1),),
        )
        system = System(design, {(1, 1): JointPmf(2, {(0, 0): 0.5, (1, 1): 0.5})})
        assert pairwise_distance(system, D1, (1, 1), 0, 1) == (0.0, 0.0)

    def test_missing_payloads_are_inapplicable(self):
        design = Design(
            (InputSpec("l1", (1,)), InputSpec("l2", (1,))),
            (OutputSpec("A1", ("x", "y")), OutputSpec("A2", ("x", "y"))),
            ((1, 1),),
        )
        system = System(
            design, {(1, 1): JointPmf(2, {("x", "x"): 0.5, ("y", "y"): 0.5})}
        )
        report = run_distance_test(system, D1)
        assert report.verdict == "inapplicable"

    def test_triangle_inequality_within_one_treatment(self):
        """Metric axiom on jointly distributed triples, both metric kinds."""
        rng = np.random.default_rng(21)
        design = Design(
            tuple(InputSpec(f"l{k}", (1,)) for k in range(3)),
            tuple(
                OutputSpec(f"A{k}", (0, 1, 2), (0.0, 1.0, 2.0)) for k in range(3)
            ),
            ((1, 1, 1),),
        )
        metrics = [
            PowerMetric(0.0),
            PowerMetric(0.5),
            PowerMetric(1.0),
            ClassificationMetric(tuple([((0,), (1, 2))] * 3)),
        ]
        for _ in range(25):
            keys = list(itertools.product((0, 1, 2), repeat=3))
            chosen = rng.choice(len(keys), size=8, replace=False)
            masses = rng.dirichlet(np.ones(8))
            system = System(
                design,
                {
                    (1, 1, 1): JointPmf(
                        3, {keys[i]: float(m) for i, m in zip(chosen, masses)}
                    )
                },
            )
            for metric in metrics:
                d = {}
                for a, b in itertools.permutations(range(3), 2):
                    d[(a, b)], d[(b, a)] = pairwise_distance(
                        system, metric, (1, 1, 1), a, b
                    )
                for a, b, c in itertools.permutations(range(3), 3):
                    assert d[(a, b)] + d[(b, c)] >= d[(a, c)] - 1e-12


@given(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(-100, 100),
    st.floats(-100, 100),
    st.floats(-100, 100),
)
@settings(max_examples=300, deadline=None)
def test_one_sided_power_difference_is_triangular(p, x, y, z):
    """The scalar base metric |x-y|^p (one-sided) obeys the triangle rule."""

    def d(a, b):
        return (b - a) ** p if a < b else 0.0

    assert d(x, y) + d(y, z) >= d(x, z) - 1e-9 * max(1.0, abs(x - z)) ** p


class TestEnumerate:
    def test_two_binary_inputs_give_eight_quadruples(self):
        design = d1_system().design
        sequences = enumerate_test_sequences(design)
        assert len(sequences) == 8
        # Brute-force oracle over all 4-tuples of (input, level) elements.
        elements = [(k, j) for k in range(2) for j in (1, 2)]
        expected = set()
        for quad in itertools.product(elements, repeat=4):
            k, kp = quad[0][0], quad[1][0]
            if (
                k != kp
                and quad[2][0] == k
                and quad[3][0] == kp
                and quad[0][1] != quad[2][1]
                and quad[1][1] != quad[3][1]
            ):
                expected.add(quad)
        assert {seq for seq, _ in sequences} == expected

    def test_realizing_treatments_contain_the_pairs(self):
        design = d1_system().design
        for seq, realizers in enumerate_test_sequences(design):
            closing, *links = realizers
            pairs = [(seq[0], seq[-1])] + list(zip(seq, seq[1:]))
            for (a, b), t in zip(pairs, [closing] + links):
                assert t[a[0]] == a[1] and t[b[0]] == b[1]

    def test_single_treatment_design_is_empty(self):
        design = Design(
            (InputSpec("l1", (1,)), InputSpec("l2", (1,))),
            (OutputSpec("A1", (0, 1)), OutputSpec("A2", (0, 1))),
            ((1, 1),),
        )
        assert enumerate_test_sequences(design) == []

    def test_three_binary_inputs_give_only_quadruples(self):
        design = Design(
            tuple(InputSpec(f"l{k}", (1, 2)) for k in range(3)),
            tuple(OutputSpec(f"A{k}", (0, 1)) for k in range(3)),
            tuple(itertools.product((1, 2), repeat=3)),
        )
        sequences = enumerate_test_sequences(design, max_length=6)
        assert sequences and all(len(seq) == 4 for seq, _ in sequences)
        assert len(sequences) == 24  # 6 ordered input pairs x 2 x 2 level choices
        # Irreducibility oracle: in a fully crossed design any two elements on
        # different inputs co-occur in a treatment, so every sequence longer
        # than 4 has a realizable non-adjacent sub-pair and is reducible.
        elements = [(k, j) for k in range(3) for j in (1, 2)]
        for a, b in itertools.combinations(elements, 2):
            if a[0] != b[0]:
                assert any(
                    t[a[0]] == a[1] and t[b[0]] == b[1] for t in design.treatments
                )

    def test_partial_design_uses_general_enumeration(self):
        # Drop (2,2): quadruples needing it disappear, triples remain valid.
        design = Design(
            (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
            (OutputSpec("A1", (0, 1)), OutputSpec("A2", (0, 1))),
            ((1, 1), (1, 2), (2, 1)),
        )
        sequences = enumerate_test_sequences(design, max_length=4)
        assert sequences
        assert_first_realizers(design, sequences)
        # Random designs, against a brute-force scan of the same conditions.
        rng = np.random.default_rng(5)
        partial = 0
        while partial < 8:
            design = random_selective_system(rng, allow_partial=True).design
            sequences = enumerate_test_sequences(design, max_length=4)
            assert_first_realizers(design, sequences)
            if design.is_fully_crossed():
                continue
            partial += 1
            # Every realizable sequence of length 3..4, each exactly once.
            elements = [(k, j) for k in range(design.n) for j in design.inputs[k].levels]
            expected = {
                seq
                for length in (3, 4)
                for seq in itertools.product(elements, repeat=length)
                if seq[0] != seq[-1]
                and all(
                    scan_realizers(design, a, b)
                    for a, b in [(seq[0], seq[-1])] + list(zip(seq, seq[1:]))
                )
            }
            assert len(sequences) == len(expected)
            assert {seq for seq, _ in sequences} == expected

    def test_returned_list_belongs_to_the_caller(self):
        design = d1_system().design
        first = enumerate_test_sequences(design)
        expected = list(first)
        first.clear()
        first.append("junk")
        again = enumerate_test_sequences(design)
        assert again == expected and again is not first

    @pytest.mark.parametrize("casts", [(int, float), (float, int)])
    def test_equal_labels_of_another_type_get_their_own_results(self, casts):
        # The grouped band system fails the p=1 test; the same system with
        # levels 1.0, 2.0 compares equal label by label but must keep floats.
        grouped = apply_transform(d1_system(), d1_grouping_transform())
        for cast in casts:
            design = grouped.design
            relabeled = Design(
                tuple(
                    InputSpec(f"{spec.name}-{casts[0].__name__}", tuple(map(cast, spec.levels)))
                    for spec in design.inputs
                ),
                design.outputs,
                tuple(tuple(map(cast, t)) for t in design.treatments),
            )
            system = System(
                relabeled,
                {tuple(map(cast, t)): pmf for t, pmf in grouped.distributions.items()},
            )
            for seq, realizers in enumerate_test_sequences(relabeled):
                assert {type(level) for _, level in seq} == {cast}
                assert {type(level) for t in realizers for level in t} == {cast}
            witness = run_distance_test(system, D1).witness
            assert {type(level) for t in witness.treatments for level in t} == {cast}

    def test_max_length_below_three_is_usage_error(self):
        with pytest.raises(UsageError):
            enumerate_test_sequences(d1_system().design, max_length=2)


class TestRunDistanceTest:
    def test_original_system_passes(self):
        report = run_distance_test(d1_system(), D1)
        assert report.verdict == "consistent"

    def test_grouped_system_fails_by_point_one(self):
        grouped = apply_transform(d1_system(), d1_grouping_transform())
        # The grouped distance table collapses to .07/.07/.07/.31 both ways.
        for t in ((1, 1), (1, 2), (2, 1)):
            assert pairwise_distance(grouped, D1, t, 0, 1) == pytest.approx(
                (0.07, 0.07), abs=1e-12
            )
        assert pairwise_distance(grouped, D1, (2, 2), 0, 1) == pytest.approx(
            (0.31, 0.31), abs=1e-12
        )
        report = run_distance_test(grouped, D1)
        assert report.verdict == "ruled-out"
        assert report.witness.lhs == pytest.approx(0.31, abs=1e-12)
        assert report.witness.rhs == pytest.approx(0.21, abs=1e-12)

    def test_classification_metric_fails_identically(self):
        metric = ClassificationMetric((((0, 2), (4,)), ((0, 1), (2,))))
        report = run_distance_test(d1_system(), metric)
        assert report.verdict == "ruled-out"
        assert report.witness.lhs == pytest.approx(0.31, abs=1e-12)
        assert report.witness.rhs == pytest.approx(0.21, abs=1e-12)

    def test_first_partition_scheme_passes(self):
        # Classes {0} | {2,4} and {0,1} | {2} give distances that satisfy
        # every chain: 0/0/0/.24 one way and .38/.38/.38/.62 the other.
        metric = ClassificationMetric((((0,), (2, 4)), ((0, 1), (2,))))
        system = d1_system()
        assert pairwise_distance(system, metric, (1, 1), 0, 1) == pytest.approx(
            (0.0, 0.38), abs=1e-12
        )
        assert pairwise_distance(system, metric, (2, 2), 0, 1) == pytest.approx(
            (0.24, 0.62), abs=1e-12
        )
        assert run_distance_test(system, metric).verdict == "consistent"

    def test_classification_equals_power_zero_on_class_indices(self):
        metric = ClassificationMetric((((0, 2), (4,)), ((0, 1), (2,))))
        # Map values to their class indices and rerun with p = 0.
        mapped_design = Design(
            d1_system().design.inputs,
            (
                OutputSpec("C1", (0, 1), (0.0, 1.0)),
                OutputSpec("C2", (0, 1), (0.0, 1.0)),
            ),
            d1_system().design.treatments,
        )
        value_map = [{0: 0, 2: 0, 4: 1}, {0: 0, 1: 0, 2: 1}]
        tables = {}
        for t in d1_system().design.treatments:
            table = {}
            for key, mass in d1_system().pmf(t).items():
                mkey = (value_map[0][key[0]], value_map[1][key[1]])
                table[mkey] = table.get(mkey, 0.0) + mass
            tables[t] = table
        mapped = system_from_tables(mapped_design, tables)
        for t in d1_system().design.treatments:
            a = pairwise_distance(d1_system(), metric, t, 0, 1)
            b = pairwise_distance(mapped, PowerMetric(0.0), t, 0, 1)
            assert a == pytest.approx(b, abs=1e-12)

    def test_classification_invariant_under_class_respecting_relabeling(self):
        metric = ClassificationMetric((((0, 2), (4,)), ((0, 1), (2,))))
        relabeled_metric = ClassificationMetric(
            ((("a", "b"), ("c",)), (("a", "b"), ("c",)))
        )
        design = d1_system().design
        relabel = [{0: "a", 2: "b", 4: "c"}, {0: "a", 1: "b", 2: "c"}]
        new_design = Design(
            design.inputs,
            (
                OutputSpec("A1", ("a", "b", "c")),
                OutputSpec("A2", ("a", "b", "c")),
            ),
            design.treatments,
        )
        tables = {
            t: {
                (relabel[0][k[0]], relabel[1][k[1]]): m
                for k, m in d1_system().pmf(t).items()
            }
            for t in design.treatments
        }
        relabeled = system_from_tables(new_design, tables)
        before = run_distance_test(d1_system(), metric)
        after = run_distance_test(relabeled, relabeled_metric)
        assert before.verdict == after.verdict
        assert before.witness.lhs == pytest.approx(after.witness.lhs, abs=1e-12)

    def test_generated_systems_pass_metric_battery(self):
        """100 random partitions and the four power exponents, zero refutations."""
        rng = np.random.default_rng(22)
        for _ in range(2):
            system = random_selective_system(rng, column_cap=500)
            for p in (0.0, 0.25, 0.5, 1.0):
                report = run_distance_test(system, PowerMetric(p), max_length=4)
                assert report.verdict in ("consistent", "inapplicable"), report
            for _ in range(100):
                parts = []
                for out in system.design.outputs:
                    split = int(rng.integers(1, len(out.values)))
                    order = list(rng.permutation(len(out.values)))
                    cls1 = tuple(out.values[i] for i in order[:split])
                    cls2 = tuple(out.values[i] for i in order[split:])
                    parts.append((cls1, cls2))
                report = run_distance_test(
                    system, ClassificationMetric(tuple(parts)), max_length=4
                )
                assert report.verdict == "consistent", report

    def test_power_exponent_outside_unit_interval_is_rejected(self):
        with pytest.raises(UsageError):
            PowerMetric(1.5)
        with pytest.raises(UsageError):
            PowerMetric(-0.1)

    def test_bad_partitions_are_rejected(self):
        design = d1_system().design
        with pytest.raises(UsageError, match="cover"):
            run_distance_test(
                d1_system(), ClassificationMetric((((0,), (2,)), ((0, 1), (2,))))
            )
        with pytest.raises(UsageError, match="2 classes"):
            run_distance_test(
                d1_system(), ClassificationMetric((((0, 2, 4),), ((0, 1), (2,))))
            )
        with pytest.raises(UsageError, match="^value 3 not classified for output 1$"):
            ClassificationMetric((((0,), (2, 4)), ((0, 1), (2,)))).class_index(1, 3)
        assert design.n == 2  # partitions count must match

    def test_partition_labels_are_matched_by_equality(self):
        system = d1_system()
        reports = {
            kind: run_distance_test(
                system,
                ClassificationMetric(
                    (((kind(0),), (kind(2), kind(4))), ((kind(0),), (kind(1), kind(2))))
                ),
            )
            for kind in (int, float)
        }
        assert reports[int].verdict == "ruled-out"
        assert reports[float] == reports[int]
        for bad in (
            (((0,), (2, 4, 2.0)), ((0,), (1, 2))),  # a value listed twice
            (((0, 0.0), (2, 4)), ((0,), (1, 2))),  # ... within one class
            (((0,), (2, 4, 6)), ((0,), (1, 2))),  # a label outside the values
        ):
            with pytest.raises(UsageError, match="cover"):
                run_distance_test(system, ClassificationMetric(bad))

    @pytest.mark.parametrize("kind", ["crossed", "partial", "dependent", "pr-box"])
    def test_matches_the_per_chain_reference(self, kind):
        rng = np.random.default_rng(["crossed", "partial", "dependent", "pr-box"].index(kind))
        if kind == "pr-box":
            box = pr_box_system()
            numeric = binary_design(numeric=True)
            systems = [
                system_from_tables(numeric, {t: box.pmf(t).table for t in numeric.treatments}),
                apply_transform(d1_system(), d1_grouping_transform()),
            ]
        else:
            systems = []
            while len(systems) < 8:
                system = random_selective_system(
                    rng, column_cap=2000, allow_partial=kind != "crossed"
                )
                if kind == "partial" and system.design.is_fully_crossed():
                    continue
                if kind == "dependent":
                    system = independent_pmfs(rng, system.design)
                systems.append(system)
        seen = {"non-first": 0, "ruled-out": 0}
        for system in systems:
            metrics = [PowerMetric(0.0), PowerMetric(0.5), PowerMetric(1.0)]
            metrics.append(random_class_metric(rng, system.design))
            for metric, max_length in itertools.product(metrics, (3, 4)):
                report = run_distance_test(system, metric, max_length=max_length)
                assert repr(report) == repr(
                    reference_distance_test(system, metric, max_length=max_length)
                )
                picks = reference_links(system, metric, max_length).items()
                seen["non-first"] += any(
                    t != scan_realizers(system.design, a, b)[0]
                    for (a, b), pair in picks
                    for _, t in pair
                )
                seen["ruled-out"] += report.verdict == "ruled-out"
        if kind in ("dependent", "pr-box"):
            assert seen["ruled-out"] > 0
        # links read off other than their first realizer only where the
        # 2-marginals depend on the whole treatment
        assert (seen["non-first"] > 0) == (kind == "dependent")

    def test_crossed_design_checks_quadruples_at_max_length_three(self):
        grouped = apply_transform(d1_system(), d1_grouping_transform())
        report = run_distance_test(grouped, D1, max_length=3)
        assert report.verdict == "ruled-out" and len(report.witness.sequence) == 4
        assert repr(report) == repr(reference_distance_test(grouped, D1, max_length=3))

    def test_link_sums_are_added_in_chain_order(self):
        # Links 0.1, 0.2, 0.3 along (0,1) (1,1) (0,2) (1,2); closing pair 0.9.
        # In chain order the sum is 0.6000000000000001, in reverse order 0.6.
        system = system_from_tables(
            binary_design((0, 1), (0, 1), numeric=True),
            {
                (1, 1): {(0, 1): 0.1, (0, 0): 0.9},
                (2, 1): {(1, 0): 0.2, (0, 0): 0.8},
                (2, 2): {(0, 1): 0.3, (0, 0): 0.7},
                (1, 2): {(0, 1): 0.9, (0, 0): 0.1},
            },
        )
        report = run_distance_test(system, D1)
        assert report.witness.sequence == ((0, 1), (1, 1), (0, 2), (1, 2))
        assert report.witness.rhs == (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
        assert repr(report) == repr(reference_distance_test(system, D1))

    def test_witness_survives_a_one_ulp_bump_of_any_mass(self):
        # The PR box's violated chains all have gap 0.5 in exact arithmetic;
        # one ulp on one mass must not hand the witness to another of them.
        box = pr_box_system()
        numeric = binary_design(numeric=True)
        tables = {t: dict(box.pmf(t).table) for t in numeric.treatments}
        expected = run_distance_test(system_from_tables(numeric, tables), D1).witness.sequence
        for t, key in [(t, key) for t in tables for key in tables[t]]:
            for toward in (0.0, 1.0):
                bumped = {u: dict(table) for u, table in tables.items()}
                bumped[t][key] = float(np.nextafter(bumped[t][key], toward))
                report = run_distance_test(system_from_tables(numeric, bumped), D1)
                assert report.witness.sequence == expected, (t, key, toward)

    def test_single_treatment_design_has_no_chains(self):
        design = Design(
            (InputSpec("l1", (1,)), InputSpec("l2", (1,))),
            (OutputSpec("A1", (0, 1), (0.0, 1.0)), OutputSpec("A2", (0, 1), (0.0, 1.0))),
            ((1, 1),),
        )
        system = System(design, {(1, 1): JointPmf(2, {(1, 0): 1.0})})
        report = run_distance_test(system, D1)
        assert report.verdict == "consistent"
        assert repr(report) == repr(reference_distance_test(system, D1))

    def test_marginal_failure_takes_the_worst_case_over_realizers(self):
        # Three binary inputs, every output 0 with mass 1 except A2 = 1 at
        # (1, 2, 2): the link from (0, 1) to (1, 2) measures 0 at its first
        # realizer (1, 2, 1) and 1 at (1, 2, 2).  Closing a chain it reads the
        # latter; read off its first realizer, every chain would hold.
        design = Design(
            tuple(InputSpec(f"l{k}", (1, 2)) for k in range(3)),
            tuple(OutputSpec(f"A{k}", (0, 1), (0.0, 1.0)) for k in range(3)),
            tuple(itertools.product((1, 2), repeat=3)),
        )
        tables = {t: {(0, 0, 0): 1.0} for t in design.treatments}
        tables[(1, 2, 2)] = {(0, 1, 0): 1.0}
        system = system_from_tables(design, tables)
        assert not check_marginal_selectivity(system).passed
        report = run_distance_test(system, D1)
        assert report.verdict == "ruled-out" and report.details == {}
        assert report.witness == ChainViolation(
            ((0, 1), (1, 1), (0, 2), (1, 2)),
            1.0,
            0.0,
            ((1, 2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1)),
        )
        assert repr(report) == repr(reference_distance_test(system, D1))

    def test_realizers_tied_up_to_rounding_read_the_first(self):
        # A PR box times a latent system's third output, with 1e-15 added at
        # the second realizer of the witness's closing link: within the
        # rounding band of the first realizer's distance, though above it,
        # so the link still reads its first realizer.
        design = crossed((2, 2, 2), (2, 2, 2))
        base = pr_product(latent_system(design, np.random.default_rng(0), 6))
        metric = ClassificationMetric((((0,), (1,)),) * design.n)
        witness = run_distance_test(base, metric).witness
        closing = (witness.sequence[0], witness.sequence[-1])
        first, second = scan_realizers(design, *closing)
        assert witness.treatments[0] == first
        cell = [design.treatments.index(second)] + [0] * design.n
        cell[1 + closing[1][0]] = 1  # A_k in class 0, A_k' in class 1
        array = base.array.copy()
        array[tuple(cell)] += 1e-15
        system = System.from_array(design, array)
        k, k_prime = closing[0][0], closing[1][0]
        d_first, d_second = (
            pairwise_distance(system, metric, t, k, k_prime)[0] for t in (first, second)
        )
        assert 0 < d_second - d_first < 4 * 8 * np.finfo(np.float64).eps * d_second
        report = run_distance_test(system, metric)
        assert (report.witness.sequence, report.witness.treatments) == (
            witness.sequence,
            witness.treatments,
        )
        assert report.witness.lhs == d_first
        assert repr(report) == repr(reference_distance_test(system, metric))

    def test_a_second_test_on_a_system_makes_no_sub_marginals(self, monkeypatch):
        # The pair table is the one sub-marginal product a distance test
        # needs, and the system keeps it.
        caps = []

        def recording(array, max_size):
            caps.append(max_size)
            return sub_marginals(array, max_size)

        for module in (model, marginal):
            monkeypatch.setattr(module, "sub_marginals", recording)
        system = four_output_system()
        run_distance_test(system, D1)
        assert caps == [2]
        run_distance_test(system, PowerMetric(0.5))
        assert caps == [2]
