"""Core model: marginalization, validation, and the latent generator."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    allclose,
    binary_design,
    cosphericity_system,
    d1_system,
    feasible_binary_system,
    random_latent_setup,
    three_variable_pmf,
)
from selinf import (
    Design,
    apply_transform,
    check_marginal_selectivity,
    generate_battery,
    InputSpec,
    JointPmf,
    LatentModel,
    OutputSpec,
    System,
    UsageError,
    build_feasibility_system,
    generate_system,
    lp_report,
    marginalize,
    solve_feasibility,
    validate_system,
)


class TestMarginalize:
    def test_first_variable_is_uniform(self):
        result = marginalize(three_variable_pmf(), (0,))
        assert result.mass((0,)) == pytest.approx(0.5, abs=1e-15)
        assert result.mass((1,)) == pytest.approx(0.5, abs=1e-15)

    def test_two_marginal_table(self):
        result = marginalize(three_variable_pmf(), (0, 1))
        expected = {(0, 0): 1 / 16, (0, 1): 7 / 16, (1, 0): 3 / 16, (1, 1): 5 / 16}
        for key, value in expected.items():
            assert result.mass(key) == pytest.approx(value, abs=1e-15)

    def test_full_projection_is_identity(self):
        pmf = three_variable_pmf()
        assert marginalize(pmf, (0, 1, 2)).table == pmf.table

    def test_out_of_range_index_is_usage_error(self):
        with pytest.raises(UsageError):
            marginalize(three_variable_pmf(), (0, 3))
        with pytest.raises(UsageError):
            marginalize(three_variable_pmf(), (0, 0))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_projection_properties(self, seed):
        """Idempotence, permutation-commutation, and mass preservation."""
        rng = np.random.default_rng(seed)
        arity = int(rng.integers(2, 5))
        support = list(itertools.product(*([range(3)] * arity)))
        chosen = rng.choice(len(support), size=min(6, len(support)), replace=False)
        masses = rng.dirichlet(np.ones(len(chosen)))
        pmf = JointPmf(
            arity, {support[i]: float(m) for i, m in zip(chosen, masses)}
        )
        size = int(rng.integers(1, arity + 1))
        subset = tuple(
            int(i) for i in rng.choice(arity, size=size, replace=False)
        )
        once = marginalize(pmf, subset)

        # Mass preserved within accumulated rounding.
        terms = len(pmf.table)
        assert abs(once.total() - pmf.total()) <= 4 * np.finfo(float).eps * terms

        # Re-projecting onto everything is the identity.
        again = marginalize(once, tuple(range(len(subset))))
        assert again.table == once.table

        # Projecting then permuting equals permuting the index list.
        perm = tuple(int(i) for i in rng.permutation(len(subset)))
        direct = marginalize(pmf, tuple(subset[i] for i in perm))
        via = marginalize(once, perm)
        assert allclose(direct, via, tol=1e-15)

        # Brute-force oracle: sum masses over the projected key directly.
        oracle = {}
        for key, mass in pmf.items():
            pkey = tuple(key[i] for i in subset)
            oracle[pkey] = oracle.get(pkey, 0.0) + mass
        assert set(once.table) == {k for k, v in oracle.items() if v != 0.0}
        for key, value in oracle.items():
            assert once.mass(key) == pytest.approx(value, abs=1e-15)


class TestValidateSystem:
    def test_known_feasible_system_is_clean(self):
        assert validate_system(feasible_binary_system()) == []

    def test_mass_sum_defect_is_reported(self):
        design = binary_design()
        bad = {t: JointPmf(2, {(1, 1): 0.45, (2, 2): 0.45}) for t in design.treatments}
        problems = validate_system(System(design, bad))
        assert any("mass sum 0.9" in p for p in problems)

    def test_non_finite_array_masses_are_reported_in_treatment_order(self):
        """``System.from_array`` takes any float; a NaN mass fails no
        comparison, so it is reported as non-finite, as infinities are."""
        system = feasible_binary_system()
        array = system.array.copy()
        array[0, 0, 0] = np.nan
        nan_only = System.from_array(system.design, array.copy())
        assert validate_system(nan_only) == ["treatment (1, 1): non-finite mass nan at (1, 1)"]
        with pytest.raises(UsageError, match="non-finite mass nan"):
            lp_report(nan_only)
        array[2, 1, 1] = np.inf
        array[1, 0, 1] = -np.inf
        assert validate_system(System.from_array(system.design, array)) == [
            "treatment (1, 1): non-finite mass nan at (1, 1)",
            "treatment (1, 2): non-finite mass -inf at (1, 2)",
            "treatment (1, 2): mass sum -inf != 1",
            "treatment (2, 1): non-finite mass inf at (2, 2)",
            "treatment (2, 1): mass sum inf != 1",
        ]

    def test_the_vectorized_check_passes_only_what_the_walk_passes(self):
        """A lone infinity leaves the smallest mass finite, and is caught by
        its treatment's sum; a mass of exactly -eps_prob passes, as does a
        sum exactly eps_prob off 1, and twice either is reported."""
        system = feasible_binary_system()
        array = system.array.copy()
        array[2, 1, 1] = np.inf
        assert validate_system(System.from_array(system.design, array)) == [
            "treatment (2, 1): non-finite mass inf at (2, 2)",
            "treatment (2, 1): mass sum inf != 1",
        ]
        negative, heavy = np.full((2, 4, 2, 2), 0.25)  # masses and sums exact in binary
        negative[0, 0, :] = -1 / 8, 5 / 8
        heavy[1, 0, 0] += 1 / 8
        for array, message in (
            (negative, "treatment (1, 1): negative mass -0.125 at (1, 1)"),
            (heavy, "treatment (1, 2): mass sum 1.125 != 1"),
        ):
            defective = System.from_array(system.design, array)
            assert validate_system(defective, 1 / 8) == []
            assert validate_system(defective, 1 / 16) == [message]

    def test_undeclared_level_in_treatment_is_rejected(self):
        with pytest.raises(UsageError, match=r"\(1, 3\)"):
            Design(
                (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
                (OutputSpec("A1", (1, 2)), OutputSpec("A2", (1, 2))),
                ((1, 1), (1, 3)),
            )

    def test_undeclared_distribution_key_is_reported(self):
        design = Design(
            (InputSpec("l1", (1, 2)),),
            (OutputSpec("A1", (1, 2)),),
            ((1,),),
        )
        system = System(
            design,
            {(1,): JointPmf(1, {(1,): 1.0}), (2,): JointPmf(1, {(1,): 1.0})},
        )
        problems = validate_system(system)
        assert any("(2,)" in p for p in problems)

    def test_undeclared_output_value_is_reported(self):
        design = binary_design()
        bad = {t: JointPmf(2, {(1, 3): 1.0}) for t in design.treatments}
        problems = validate_system(System(design, bad))
        assert any("undeclared value 3" in p for p in problems)

    def test_non_finite_masses_and_payloads_are_rejected(self):
        with pytest.raises(UsageError, match="non-finite mass"):
            JointPmf(1, {(0,): float("nan")})
        with pytest.raises(UsageError, match="non-finite payload"):
            OutputSpec("A", (0, 1), (0.0, float("inf")))
        with pytest.raises(UsageError, match="unknown value"):
            OutputSpec("A", (0, 1), (0.0, 1.0)).numeric_value(7)


class TestGenerateSystem:
    def test_identity_responses_give_diagonal(self):
        design = binary_design(values1=(0, 1), values2=(0, 1))
        latent = JointPmf(1, {(0,): 0.5, (1,): 0.5})
        responses = tuple(
            {(level, r): r for level in (1, 2) for r in (0, 1)} for _ in range(2)
        )
        system = generate_system(design, LatentModel(latent, responses))
        for t in design.treatments:
            assert system.pmf(t).mass((0, 0)) == pytest.approx(0.5)
            assert system.pmf(t).mass((1, 1)) == pytest.approx(0.5)
            assert system.pmf(t).mass((0, 1)) == 0.0

    def test_dummy_input_constant_response_is_point_mass(self):
        design = Design(
            (InputSpec("dummy", ("only",)),),
            (OutputSpec("A1", ("x", "y")),),
            (("only",),),
        )
        model = LatentModel(
            JointPmf(1, {(0,): 0.3, (1,): 0.7}),
            ({("only", 0): "x", ("only", 1): "x"},),
        )
        system = generate_system(design, model)
        assert system.pmf(("only",)).mass(("x",)) == pytest.approx(1.0)

    def test_image_outside_output_spec_is_usage_error(self):
        design = binary_design()
        model = LatentModel(
            JointPmf(1, {(0,): 1.0}),
            (
                {(1, 0): 1, (2, 0): 1},
                {(1, 0): 9, (2, 0): 9},  # 9 is not a declared value
            ),
        )
        with pytest.raises(UsageError, match="outside"):
            generate_system(design, model)

    def test_generated_systems_are_valid_and_feasible(self):
        """Generator oracle: the feasibility test must accept every output."""
        rng = np.random.default_rng(47)
        for _ in range(10):
            design, model = random_latent_setup(rng, column_cap=800)
            system = generate_system(design, model)
            assert validate_system(system) == []
            verdict = solve_feasibility(build_feasibility_system(system))
            assert verdict.feasible

    def test_one_marginals_depend_only_on_own_level(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            design, model = random_latent_setup(rng, column_cap=800)
            system = generate_system(design, model)
            for k in range(design.n):
                seen = {}
                for t in design.treatments:
                    marg = marginalize(system.pmf(t), (k,))
                    if t[k] in seen:
                        assert allclose(marg, seen[t[k]], tol=1e-12)
                    else:
                        seen[t[k]] = marg


def scan_groups(design, subset):
    """Oracle for ``TreatmentIndex.groups``: one pass over the treatments
    per distinct level tuple, tuples in order of first appearance."""
    on_subset = [tuple(t[k] for k in subset) for t in design.treatments]
    return {
        levels: tuple(b for b, other in enumerate(on_subset) if other == levels)
        for levels in dict.fromkeys(on_subset)
    }


class TestTreatmentIndex:
    def test_a_design_has_one_index_shared_by_its_output_variants(self):
        design = d1_system().design
        index = design.index
        assert design.index is index
        assert design.with_outputs(reversed(design.outputs)).index is index
        members = [apply_transform(d1_system(), spec) for spec in generate_battery(design)]
        assert members and all(m.design.index is index for m in members)

    def test_equal_designs_share_an_index_and_label_types_do_not(self):
        design = d1_system().design
        assert Design(design.inputs, design.outputs, design.treatments).index is design.index
        as_float = Design(
            tuple(InputSpec(s.name, tuple(float(x) for x in s.levels)) for s in design.inputs),
            design.outputs,
            tuple(tuple(float(x) for x in t) for t in design.treatments),
        )
        assert as_float == design and as_float.index is not design.index
        assert as_float.index.realizers((0, 1.0), (1, 2.0)) == design.index.realizers(
            (0, 1), (1, 2)
        )

    def test_groups_are_built_per_subset_on_first_use(self):
        design = Design(
            (InputSpec("x", ("a", "b")), InputSpec("y", ("c",)), InputSpec("z", ("d", "e"))),
            tuple(OutputSpec(f"A{k}", (0, 1)) for k in range(3)),
            (("a", "c", "d"), ("b", "c", "d"), ("a", "c", "e")),
        )
        assert design.index._groups == {}
        check_marginal_selectivity(System.from_array(design, np.full((3, 2, 2, 2), 0.125)), 1)
        assert sorted(design.index._groups) == [(0,), (1,), (2,)]
        assert design.index.groups((1,)) is design.index.groups((1,))
        groups = {("a", "d"): (0,), ("b", "d"): (1,), ("a", "e"): (2,)}
        assert design.index.groups((0, 2)) == groups
        assert not design.index.fully_crossed and design.index.realizers((0, "a"), (0, "a")) == ()

    def test_groups_match_a_plain_scan_on_every_subset(self):
        rng = np.random.default_rng(52)
        designs = [random_latent_setup(rng, column_cap=800)[0] for _ in range(30)]
        fixed = (feasible_binary_system(), d1_system(), cosphericity_system())
        designs += [s.design for s in fixed]
        assert any(not d.is_fully_crossed() for d in designs)
        for design in designs:
            for size in range(design.n + 1):
                for subset in itertools.combinations(range(design.n), size):
                    groups = design.index.groups(subset)
                    assert list(groups.items()) == list(scan_groups(design, subset).items())
