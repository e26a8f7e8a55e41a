"""Output transformations and test batteries."""

import warnings

import numpy as np
import pytest

from fixtures import (
    TRANSFORMED_TABLES,
    d1_grouping_transform,
    d1_system,
    feasible_binary_system,
    level_specific_transform,
    random_selective_system,
    transform_base_system,
)
from selinf import (
    ClassificationMetric,
    Design,
    PowerMetric,
    UsageError,
    apply_transform,
    build_feasibility_system,
    generate_battery,
    identity_transform,
    lp_report,
    run_battery,
    run_distance_test,
    solve_feasibility,
)


class TestApplyTransform:
    def test_level_specific_tables_match_expected(self):
        system = apply_transform(transform_base_system(), level_specific_transform())
        assert system.design.outputs[0].values == (1, -1)
        assert system.design.outputs[1].values == (7, 3)
        for t, expected in TRANSFORMED_TABLES.items():
            for key, mass in expected.items():
                assert system.pmf(t).mass(key) == pytest.approx(mass, abs=1e-12)

    def test_identity_maps_preserve_the_system(self):
        base = transform_base_system()
        same = apply_transform(base, identity_transform(base.design))
        for t in base.design.treatments:
            assert same.pmf(t).table == base.pmf(t).table

    def test_grouping_tables_match_expected(self):
        grouped = apply_transform(d1_system(), d1_grouping_transform())
        expected_shared = {(1, 1): 0.62, (1, 2): 0.07, (2, 1): 0.07, (2, 2): 0.24}
        for t in ((1, 1), (1, 2), (2, 1)):
            for key, mass in expected_shared.items():
                assert grouped.pmf(t).mass(key) == pytest.approx(mass, abs=1e-12)
        cell = grouped.pmf((2, 2))
        assert cell.mass((1, 1)) == pytest.approx(0.38, abs=1e-12)
        assert cell.mass((1, 2)) == pytest.approx(0.31, abs=1e-12)
        assert cell.mass((2, 1)) == pytest.approx(0.31, abs=1e-12)
        assert cell.mass((2, 2)) == 0.0

    def test_unmapped_value_is_usage_error(self):
        spec = d1_grouping_transform()
        broken = spec.outputs[0].maps[None].copy()
        del broken[4]
        from selinf import OutputTransform, TransformSpec

        bad = TransformSpec(
            (OutputTransform(spec.outputs[0].target, {None: broken}), spec.outputs[1]),
            name="broken",
        )
        with pytest.raises(UsageError, match="unmapped"):
            apply_transform(d1_system(), bad)

    def test_member_design_equals_the_checked_build_without_rechecking(self, monkeypatch):
        """Members share the parent's inputs and treatments and equal the
        design built through ``Design(...)``; no treatment is checked again."""
        rng = np.random.default_rng(42)
        systems = [d1_system(), transform_base_system()]
        systems += [
            random_selective_system(rng, column_cap=300, allow_partial=True) for _ in range(4)
        ]
        cases = [(s, spec) for s in systems for spec in generate_battery(s.design, 3, 3)]
        cases.append((transform_base_system(), level_specific_transform()))
        expected = [
            Design(s.design.inputs, tuple(tr.target for tr in spec.outputs), s.design.treatments)
            for s, spec in cases
        ]
        checks = []
        check = Design.__post_init__
        monkeypatch.setattr(
            Design, "__post_init__", lambda self: checks.append(self) or check(self)
        )
        for (system, spec), design in zip(cases, expected):
            member = apply_transform(system, spec).design
            assert member == design
            assert member.inputs is system.design.inputs
            assert member.treatments is system.design.treatments
        assert checks == []

    def test_with_outputs_checks_the_pairing(self):
        design = d1_system().design
        with pytest.raises(UsageError, match="index-paired"):
            design.with_outputs(design.outputs[:1])


class TestBattery:
    def test_grouping_battery_refutes_d1(self):
        """Original passes p=1; the grouped member fails; battery rules out."""
        assert run_distance_test(d1_system(), PowerMetric(1.0)).verdict == "consistent"
        report = run_battery(
            d1_system(),
            [d1_grouping_transform()],
            lambda s: run_distance_test(s, PowerMetric(1.0)),
        )
        assert report.verdict == "ruled-out"

    def test_empty_battery_is_vacuous_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_battery(d1_system(), [], lambda s: lp_report(s))
        assert report.verdict == "consistent"
        assert any("vacuous" in str(w.message) for w in caught)

    def test_random_relabelings_preserve_lp_feasibility(self):
        """Fifty seeded level-free relabelings of a feasible fixture stay feasible."""
        base = feasible_binary_system()
        specs = generate_battery(base.design, n_groupings=50, n_monotone=0, seed=3)
        assert len(specs) == 50
        # Groupings may merge; feasibility must survive in the forward direction.
        report = run_battery(base, specs, lp_report)
        assert report.verdict == "consistent"
        for spec in specs:
            transformed = apply_transform(base, spec)
            assert solve_feasibility(
                build_feasibility_system(transformed)
            ).feasible

    def test_forward_feasibility_for_random_systems(self):
        rng = np.random.default_rng(41)
        for _ in range(4):
            system = random_selective_system(rng, column_cap=300)
            specs = generate_battery(system.design, 4, 4, seed=int(rng.integers(1000)))
            for spec in specs:
                transformed = apply_transform(system, spec)
                assert solve_feasibility(
                    build_feasibility_system(transformed)
                ).feasible

    def test_bijective_transforms_preserve_verdicts_both_ways(self):
        """Reversible relabelings: feasible stays feasible, infeasible stays infeasible."""
        from fixtures import pr_box_system

        base_cases = [(feasible_binary_system(), True), (pr_box_system(), False)]
        for base, expected in base_cases:
            specs = generate_battery(base.design, n_groupings=0, n_monotone=6, seed=11)
            for spec in specs:
                transformed = apply_transform(base, spec)
                verdict = solve_feasibility(build_feasibility_system(transformed))
                assert verdict.feasible == expected

    def test_class_respecting_transform_keeps_classification_verdict(self):
        metric = ClassificationMetric((((0, 2), (4,)), ((0, 1), (2,))))
        before = run_distance_test(d1_system(), metric)
        # Merge within classes only: 2 and 4 stay distinct classes, 0,1 merge.
        from selinf import OutputSpec, OutputTransform, TransformSpec

        spec = TransformSpec(
            (
                OutputTransform(
                    OutputSpec("B1", ("lo", "hi")),
                    {None: {0: "lo", 2: "lo", 4: "hi"}},
                ),
                OutputTransform(
                    OutputSpec("B2", ("lo", "hi")),
                    {None: {0: "lo", 1: "lo", 2: "hi"}},
                ),
            ),
            name="class-respecting",
        )
        transformed = apply_transform(d1_system(), spec)
        after_metric = ClassificationMetric(
            ((("lo",), ("hi",)), (("lo",), ("hi",)))
        )
        after = run_distance_test(transformed, after_metric)
        assert before.verdict == after.verdict == "ruled-out"
        assert before.witness.lhs == pytest.approx(after.witness.lhs, abs=1e-12)

    def test_battery_handles_single_valued_outputs(self):
        from selinf import Design, InputSpec, JointPmf, OutputSpec, System

        design = Design(
            (InputSpec("l1", (1, 2)),),
            (OutputSpec("A1", ("only",)),),
            ((1,), (2,)),
        )
        system = System(
            design, {t: JointPmf(1, {("only",): 1.0}) for t in design.treatments}
        )
        specs = generate_battery(design, n_groupings=3, n_monotone=0, seed=0)
        for spec in specs:
            transformed = apply_transform(system, spec)
            assert transformed.pmf((1,)).mass(("g0",)) == 1.0

    def test_generated_battery_is_deterministic(self):
        a = generate_battery(d1_system().design, 5, 5, seed=9)
        b = generate_battery(d1_system().design, 5, 5, seed=9)
        assert [s.name for s in a] == [s.name for s in b]
        for s1, s2 in zip(a, b):
            for o1, o2 in zip(s1.outputs, s2.outputs):
                assert o1.target == o2.target
                assert o1.maps == o2.maps
