"""Output transformations and test batteries."""

import itertools
import warnings

import numpy as np
import pytest

from fixtures import (
    TRANSFORMED_TABLES,
    d1_grouping_transform,
    d1_system,
    feasible_binary_system,
    four_output_system,
    level_specific_transform,
    random_selective_system,
    transform_base_system,
)
from selinf import (
    ClassificationMetric,
    Design,
    PowerMetric,
    System,
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
from selinf import model


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

    def test_a_transform_it_cannot_apply_is_usage_error(self):
        from selinf import OutputTransform, TransformSpec

        spec = d1_grouping_transform()
        stray = {**spec.outputs[0].maps[None], 4: 3}
        bad = TransformSpec((OutputTransform(spec.outputs[0].target, {None: stray}), spec.outputs[1]))
        with pytest.raises(UsageError, match="^output 'A1': image 3 not in target values$"):
            apply_transform(d1_system(), bad)
        with pytest.raises(UsageError, match="^one transform per output is required$"):
            apply_transform(d1_system(), TransformSpec(spec.outputs[:1]))

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


# ------------------------------------------------ identity axes stay as given


def reference_apply_transform(system, spec):
    """Every output's axis pushed through its 0/1 index matrix, identity maps
    included: ``apply_transform`` without the kept axes."""
    from selinf import System

    design = system.design
    new_design = design.with_outputs(tr.target for tr in spec.outputs)
    array = system.array
    rows = np.arange(len(design.treatments))[:, None]
    for k, (tr, out) in enumerate(zip(spec.outputs, design.outputs)):
        target = {v: i for i, v in enumerate(tr.target.values)}
        images = {
            level: [target[tr.map_for(level)[value]] for value in out.values]
            for level in design.inputs[k].levels
        }
        onehot = np.zeros((len(design.treatments), len(out.values), len(target)))
        onehot[rows, np.arange(len(out.values)), [images[t[k]] for t in design.treatments]] = 1.0
        moved = np.moveaxis(array, k + 1, -1)
        summed = moved.reshape(len(design.treatments), -1, len(out.values)) @ onehot
        array = np.moveaxis(summed.reshape(moved.shape[:-1] + (len(target),)), -1, k + 1)
    return System.from_array(new_design, array)


def permutation_transform(design, level=None):
    """Every output's values rotated by one place, at ``level`` of its input
    only (identity elsewhere) or, with None, at every level."""
    from selinf import OutputTransform, TransformSpec

    outputs = []
    for k, out in enumerate(design.outputs):
        rotated = dict(zip(out.values, out.values[1:] + out.values[:1]))
        maps = {None: rotated} if level is None else {
            lv: rotated if lv == level else {v: v for v in out.values}
            for lv in design.inputs[k].levels
        }
        outputs.append(OutputTransform(out, maps))
    return TransformSpec(tuple(outputs), name="rotation")


def transform_systems():
    rng = np.random.default_rng(61)
    systems = [d1_system(), feasible_binary_system(), transform_base_system()]
    systems += [random_selective_system(rng, column_cap=3000, allow_partial=True) for _ in range(12)]
    return systems


def kept_axes(spec, design):
    """Per output, whether it sends its i-th value to the i-th target value
    at every level, onto as many target values."""
    return [
        len(tr.target.values) == len(out.values)
        and all(
            tr.map_for(level) == dict(zip(out.values, tr.target.values))
            for level in spec_in.levels
        )
        for tr, out, spec_in in zip(spec.outputs, design.outputs, design.inputs)
    ]


def is_kept(spec, design):
    return all(kept_axes(spec, design))


class TestIdentityAxes:
    def check(self, system, spec, monkeypatch):
        """The sizes of the 0/1 index matrices that ``apply_transform``
        builds, one per pushed axis, after checking the member byte for byte
        against the full push: it shares the parent's array exactly when no
        axis is pushed."""
        pushed = []
        original = np.eye

        def counting(*args, **kwargs):
            pushed.append(args[0])
            return original(*args, **kwargs)

        expected = reference_apply_transform(system, spec)
        with monkeypatch.context() as patch:
            patch.setattr(np, "eye", counting)
            member = apply_transform(system, spec)
        assert member.array.flags.c_contiguous and expected.array.flags.c_contiguous
        assert member.array.shape == expected.array.shape
        assert member.array.tobytes() == expected.array.tobytes()
        assert len(pushed) == kept_axes(spec, system.design).count(False)
        assert (member.array is system.array) == (pushed == [])
        return pushed

    def test_kept_axes_match_the_full_push_bit_for_bit(self, monkeypatch):
        kept = 0
        for system in transform_systems():
            design = system.design
            specs = [identity_transform(design)] + generate_battery(design, 6, 6, seed=design.n)
            for spec in specs:
                pushed = self.check(system, spec, monkeypatch)
                if not spec.name.startswith("grouping"):
                    assert is_kept(spec, design)
                assert (pushed == []) == is_kept(spec, design)
                kept += pushed == []
        assert kept > 12  # identities, monotone members and ordered binary groupings

    def test_binary_groupings_in_order_are_kept(self, monkeypatch):
        system = feasible_binary_system()
        groupings = generate_battery(system.design, 12, 0, seed=3)
        kinds = set()
        for spec in groupings:
            pushed = self.check(system, spec, monkeypatch)
            kinds.add(is_kept(spec, system.design))
            assert (pushed == []) == is_kept(spec, system.design)
        assert kinds == {True, False}

    def test_maps_that_move_values_are_pushed(self, monkeypatch):
        cases = [(transform_base_system(), level_specific_transform())]
        for system in transform_systems():
            if all(len(out.values) > 1 for out in system.design.outputs):
                cases.append((system, permutation_transform(system.design)))
                first = system.design.inputs[0].levels[0]
                cases.append((system, permutation_transform(system.design, level=first)))
        for system, spec in cases:
            assert not is_kept(spec, system.design)
            assert self.check(system, spec, monkeypatch) != []
        assert len(cases) > 10

    def test_members_on_the_screen_shapes_equal_the_full_push_bit_for_bit(self):
        """Latent systems with 12 latent values on the benchmark's screen
        designs, each with a battery of 3 groupings and 3 relabelings: every
        member is byte for byte the reference's (..., v) @ (v, w) product,
        which a product of another orientation is not."""
        rng = np.random.default_rng(7)
        members = 0
        for _ in range(30):
            for levels, values, drop in SCREEN_SHAPES:
                system = screen_system(rng, levels, values, drop)
                for spec in generate_battery(system.design, 3, 3, seed=int(rng.integers(2**31))):
                    member = apply_transform(system, spec)
                    expected = reference_apply_transform(system, spec)
                    assert member.array.shape == expected.array.shape
                    assert member.array.tobytes() == expected.array.tobytes()
                    members += 1
        assert members == 720


#: (levels per input, values per output, last treatments dropped)
SCREEN_SHAPES = (
    ((4, 4), (3, 5), 0),
    ((2, 2, 2, 2), (2, 2, 3, 3), 0),
    ((3, 3, 3), (2, 2, 4), 0),
    ((2, 2, 2), (3, 4, 5), 2),
)


def screen_system(rng, levels, values, drop, n_latent=12):
    """A latent system on a crossed design less its last ``drop`` treatments;
    output k takes values 0..values[k] - 1, with those payloads."""
    from selinf import InputSpec, JointPmf, LatentModel, OutputSpec, generate_system

    inputs = tuple(InputSpec(f"x{k}", tuple(range(1, m + 1))) for k, m in enumerate(levels))
    outputs = tuple(
        OutputSpec(f"A{k}", tuple(range(v)), tuple(map(float, range(v))))
        for k, v in enumerate(values)
    )
    treatments = tuple(itertools.product(*(spec.levels for spec in inputs)))
    design = Design(inputs, outputs, treatments[: len(treatments) - drop])
    masses = rng.dirichlet(np.ones(n_latent))
    latent = JointPmf(1, {(r,): float(m) for r, m in enumerate(masses)})
    responses = tuple(
        {(level, r): int(rng.integers(v)) for level in spec.levels for r in range(n_latent)}
        for spec, v in zip(inputs, values)
    )
    return generate_system(design, LatentModel(latent, responses))


class TestKeptMembersShareTheParent:
    """A member whose every axis is kept reads its parent's array and pair
    table; the table is built once, for whichever asks first."""

    def kept_members(self, system):
        design = system.design
        specs = [identity_transform(design)] + generate_battery(design, 0, 4, seed=2)
        return [apply_transform(system, spec) for spec in specs]

    def test_pair_table_is_the_parents_with_no_product(self, monkeypatch):
        calls = []
        product = model.sub_marginals
        monkeypatch.setattr(model, "sub_marginals", lambda *a: calls.append(a) or product(*a))
        rng = np.random.default_rng(5)
        systems = [four_output_system(), screen_system(rng, (3, 3, 3), (2, 2, 4), 0)]
        for system in systems:
            members = self.kept_members(system)
            assert all(member.array is system.array for member in members)
            calls.clear()
            assert members[0].pair_table is system.pair_table  # built through the member
            assert all(member.pair_table is system.pair_table for member in members)
            assert len(calls) == 1

    def test_a_design_of_another_shape_is_a_usage_error(self):
        system = d1_system()
        other = transform_base_system().design  # two values per output, not three
        with pytest.raises(UsageError, match="does not match the design's"):
            system.with_design(other)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_mass_is_refused_before_a_parent_or_member_is_made(self, bad):
        """A kept member shares its parent's checked array, so neither can
        hold a non-finite mass: ``from_array`` refuses one under the parent's
        design and under each member's, with the same text."""
        for base in (d1_system(), four_output_system()):
            message = f"non-finite mass at treatment {base.design.treatments[2]!r}"
            array = base.array.copy()
            array[2].flat[1] = bad
            for design in [base.design] + [m.design for m in self.kept_members(base)]:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(UsageError) as refused:
                        System.from_array(design, array)
                assert str(refused.value) == message


def test_parent_weights_survive_a_battery():
    """Both directed weight vectors are cached per (metric, outputs) for as
    many as a battery brings: after six members, each tested under two
    exponents as ``--metric`` flags would, the parent's own entries for the
    power and class metrics still hit."""
    from selinf import distances

    system = screen_system(np.random.default_rng(3), (4, 4), (3, 5), 0)
    design = system.design
    parent_metrics = [
        PowerMetric(1.0),
        ClassificationMetric(tuple((out.values[:1], out.values[1:]) for out in design.outputs)),
    ]
    distances._pair_weights.cache_clear()
    for metric in parent_metrics:
        assert run_distance_test(system, metric).verdict == "consistent"

    def member(s):
        run_distance_test(s, PowerMetric(0.5))
        return run_distance_test(s, PowerMetric(1.0))

    specs = generate_battery(design, 3, 3, seed=8)
    assert run_battery(system, specs, member).verdict == "consistent"
    before = distances._pair_weights.cache_info()
    assert before.misses > model.DESIGN_CACHE_SIZE  # more entries than one per design kept
    for metric in parent_metrics:
        run_distance_test(system, metric)
    after = distances._pair_weights.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
