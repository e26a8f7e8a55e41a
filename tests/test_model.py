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
    d1_grouping_transform,
    d1_system,
    feasible_binary_system,
    marginal_violation_system,
    random_latent_setup,
    three_variable_pmf,
)
from selinf import (
    Design,
    InapplicableError,
    PowerMetric,
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
    enumerate_test_sequences,
    generate_system,
    lp_report,
    marginalize,
    run_cosphericity,
    run_distance_test,
    solve_feasibility,
    validate_system,
)
from selinf import cosphericity, distances, feasibility, marginal, model
from selinf.model import margin_layout, pair_layout, sub_marginals


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

    def test_treatment_levels_keep_their_declared_labels(self):
        declared = marginal_violation_system()
        design = declared.design
        expected = repr(check_marginal_selectivity(declared))
        assert "worst_pair=((1, 2), (2, 2))" in expected
        for spell in (float, lambda level: True if level == 1 else level):
            treatments = [tuple(map(spell, t)) for t in design.treatments]
            respelled = Design(design.inputs, design.outputs, treatments)
            system = System.from_array(respelled, declared.array)
            assert repr(check_marginal_selectivity(system)) == expected
            assert repr(respelled.treatments) == repr(design.treatments)

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


def relabelled(system, rename):
    """``system`` with each input's levels and each output's values renamed
    by ``rename``, the i-th new label in place of the i-th declared one;
    positions, payloads and masses stay as they are."""
    design = system.design
    levels = [dict(zip(s.levels, rename(s.levels))) for s in design.inputs]
    return System.from_array(
        Design(
            tuple(InputSpec(s.name, rename(s.levels)) for s in design.inputs),
            tuple(OutputSpec(o.name, rename(o.values), o.numeric) for o in design.outputs),
            tuple(tuple(m[x] for m, x in zip(levels, t)) for t in design.treatments),
        ),
        system.array,
    )


def fresh(system):
    """``system`` on a new Design object, after every design cache is cleared."""
    for cache in (
        model._treatment_index,
        feasibility._criterion_matrix,
        distances._chains,
        cosphericity._crossed_subdesigns,
        marginal._comparisons,
    ):
        cache.cache_clear()
    design = system.design
    return System.from_array(
        Design(design.inputs, design.outputs, design.treatments), system.array
    )


def label_reports(system):
    """The reprs of every report part that carries labels: the test
    sequences, the distance witness, the cosphericity results, the marginal
    worst pair, the LP witness's coord_values and M's labelled grid."""
    design = system.design
    fs = build_feasibility_system(system)
    witness = solve_feasibility(fs).witness
    try:
        cospherical = run_cosphericity(system)
    except InapplicableError:
        cospherical = None
    return tuple(
        map(
            repr,
            (
                enumerate_test_sequences(design),
                run_distance_test(system, PowerMetric(1.0)).witness,
                cospherical,
                check_marginal_selectivity(system).worst_pair,
                witness and witness.coord_values,
                fs.format_grid(),
                str(witness and witness.to_json()),
            ),
        )
    )


def scan_groups(design, subset):
    """Oracle for ``TreatmentIndex.groups``: one pass over the treatments
    per distinct tuple of level positions, tuples in order of first
    appearance."""
    on_subset = [
        tuple(design.inputs[k].levels.index(t[k]) for k in subset) for t in design.treatments
    ]
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

    def test_designs_equal_up_to_labels_share_an_index_and_report_their_own(self):
        """Floats, strings or the reversed declared order in place of int
        labels give the same level positions, so one index and one set of
        design tables; every report still carries its own design's labels,
        equal to the report made after every design cache is cleared."""
        bases = (
            apply_transform(d1_system(), d1_grouping_transform()),  # a chain fails
            feasible_binary_system(),  # a coupling witness
            marginal_violation_system(),  # a worst pair
            cosphericity_system(),  # sub-designs
        )
        renames = (
            lambda labels: tuple(map(float, labels)),
            lambda labels: tuple(map(str, labels)),
            lambda labels: tuple(reversed(labels)),
        )
        seen = []
        for base in bases:
            variants = [relabelled(base, rename) for rename in renames]
            assert all(v.design.index is base.design.index for v in variants)
            warm = [label_reports(system) for system in (base, *variants)]
            for system, reports in zip((base, *variants), warm):
                assert reports == label_reports(fresh(system))
            for rename, reports in zip(renames, warm[1:]):
                levels = [dict(zip(s.levels, rename(s.levels))) for s in base.design.inputs]
                expected = [
                    (
                        tuple((k, levels[k][x]) for k, x in seq),
                        tuple(tuple(m[x] for m, x in zip(levels, t)) for t in realizers),
                    )
                    for seq, realizers in enumerate_test_sequences(base.design)
                ]
                assert reports[0] == repr(expected)
            seen.append(warm[0])
        assert all(any(r[i] not in ("None", "[]") for r in seen) for i in range(7))

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
        groups = {(0, 0): (0,), (1, 0): (1,), (0, 1): (2,)}  # ("a", "d"), ("b", "d"), ("a", "e")
        assert design.index.groups((0, 2)) == groups
        assert not design.index.fully_crossed and design.index.realizers((0, 0), (0, 0)) == ()

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


class TestOutputSpec:
    @pytest.mark.parametrize(
        "numeric",
        [None, (1.0, None, 3.0), (None, None, None), (1.0, 2.0, 3.0), (0, -1, 2.5)],
    )
    def test_has_numeric_is_the_scan_of_the_payloads(self, numeric):
        out = OutputSpec("A", ("x", "y", "z"), numeric)
        scan = out.numeric is not None and all(x is not None for x in out.numeric)
        assert out.has_numeric == scan

    def test_has_numeric_stays_out_of_equality_and_repr(self):
        out = OutputSpec("A", ("x", "y"), (1.0, 2.0))
        assert out == OutputSpec("A", ("x", "y"), (1.0, 2.0))
        assert hash(out) == hash(OutputSpec("A", ("x", "y"), (1.0, 2.0)))
        assert "has_numeric" not in repr(out)
        with pytest.raises(TypeError):
            OutputSpec("A", ("x", "y"), (1.0, 2.0), True)


class TestSubMarginals:
    def test_pair_table_holds_the_size_two_sums_and_nothing_more(self):
        rng = np.random.default_rng(53)
        for shape in ((2, 3), (2, 3, 4), (3, 2, 2, 2)):
            array = rng.random((5, *shape))
            table = System.from_array(_design(shape, 5), array).pair_table
            layout = pair_layout(shape)
            assert layout.pairs == tuple(itertools.combinations(range(len(shape)), 2))
            assert table.shape == (5, layout.offsets[-1]) and not table.flags.writeable
            starts = np.cumsum((0, *shape))
            for p, (k, k_prime) in enumerate(layout.pairs):
                others = tuple(j + 1 for j in range(len(shape)) if j not in (k, k_prime))
                lo, hi = layout.offsets[p], layout.offsets[p + 1]
                marginal = array.sum(axis=others)
                np.testing.assert_allclose(
                    table[:, lo:hi], marginal.reshape(5, -1), rtol=0, atol=1e-13
                )
                cells = np.indices(marginal.shape[1:]).reshape(2, -1)
                assert (layout.pair[lo:hi] == p).all()
                assert (layout.first[lo:hi] == starts[k] + cells[0]).all()
                assert (layout.second[lo:hi] == starts[k_prime] + cells[1]).all()
                transposed = table[:, layout.transposed[lo:hi]]
                assert (transposed == table[:, lo:hi].reshape(marginal.shape).transpose(0, 2, 1)
                        .reshape(5, -1)).all()
            # runs: the pairs in order, each a maximal stretch of one block length
            runs = [range(start, stop) for start, stop, _ in layout.runs]
            assert [p for run in runs for p in run] == list(range(len(layout.pairs)))
            lengths = [length for _, _, length in layout.runs]
            assert all(a != b for a, b in zip(lengths, lengths[1:]))
            for run, length in zip(runs, lengths):
                assert set(np.diff(layout.offsets[run.start : run.stop + 1])) == {length}
            assert _owner(table).size == table.size  # the 2-marginals only

    def test_no_pair_table_columns_below_two_outputs(self):
        system = System.from_array(_design((3,), 2), np.full((2, 3), 1 / 3))
        assert system.pair_table.shape == (2, 0) and pair_layout((3,)).pairs == ()

    @pytest.mark.parametrize("shape", [(), (4,), (2, 2), (300, 3), (2, 90, 2), (5, 6, 7), (2,) * 7])
    def test_every_column_block_is_its_subsets_sum(self, shape):
        rng = np.random.default_rng(54)
        array = rng.random((3, *shape))
        for max_size in range(len(shape) + 1):
            layout = margin_layout(shape, max_size)
            table = sub_marginals(array, max_size)
            assert table.shape == (3, layout.offsets[-1])
            assert [len(s) for s in layout.subsets] == sorted(len(s) for s in layout.subsets)
            for s, subset in enumerate(layout.subsets):
                others = tuple(k + 1 for k in range(len(shape)) if k not in subset)
                expected = array.sum(axis=others).reshape(3, -1)
                block = table[:, layout.offsets[s] : layout.offsets[s + 1]]
                np.testing.assert_allclose(block, expected, rtol=0, atol=1e-12)


def _owner(array):
    while array.base is not None:
        array = array.base
    return array


def _design(shape, treatments):
    """One input with ``treatments`` levels, then dummy inputs; outputs of
    ``shape``."""
    inputs = [InputSpec("l0", tuple(range(treatments)))]
    inputs += [InputSpec(f"l{k}", (0,)) for k in range(1, len(shape))]
    outputs = tuple(OutputSpec(f"A{k}", tuple(range(v))) for k, v in enumerate(shape))
    rest = (0,) * (len(shape) - 1)
    return Design(tuple(inputs), outputs, tuple((b,) + rest for b in range(treatments)))
