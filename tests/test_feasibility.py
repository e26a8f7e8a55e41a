"""Feasibility system construction, the simplex, and the closed-form check."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from fixtures import (
    FEASIBLE_BINARY_WITNESS,
    TRANSFORMED_P,
    TRANSFORMED_WITNESS,
    allclose,
    binary_design,
    feasible_binary_system,
    level_specific_transform,
    marginal_violation_system,
    pr_box_system,
    random_marginally_selective_2x2,
    random_selective_system,
    system_from_tables,
    transform_base_system,
)
from selinf import (
    CapacityError,
    Design,
    InputSpec,
    JointPmf,
    LatentModel,
    OutputSpec,
    SolverError,
    System,
    UsageError,
    apply_transform,
    build_feasibility_system,
    extract_coupling_marginals,
    feasibility,
    fine_inequality_check,
    generate_system,
    lp_report,
    make_witness,
    marginalize,
    solve_feasibility,
)
from selinf import model

# Golden 16x16 matrix for the 2x2 binary design, row by row ('.' = 0).
GOLDEN_ROWS = [
    "11..11..........",
    "..11..11........",
    "........11..11..",
    "..........11..11",
    "1.1.1.1.........",
    ".1.1.1.1........",
    "........1.1.1.1.",
    ".........1.1.1.1",
    "11......11......",
    "..11......11....",
    "....11......11..",
    "......11......11",
    "1.1.....1.1.....",
    ".1.1.....1.1....",
    "....1.1.....1.1.",
    ".....1.1.....1.1",
]
GOLDEN_HEADER = [
    "1111111122222222",  # coupling coordinate (input 1, level 1)
    "1111222211112222",  # (input 1, level 2)
    "1122112211221122",  # (input 2, level 1)
    "1212121212121212",  # (input 2, level 2)
]


#: A single-level input beside a three-level one, two of three treatments.
SINGLE_LEVEL = Design(
    (InputSpec("l1", (1,)), InputSpec("l2", ("a", "b", "c"))),
    (OutputSpec("A1", ("x", "y")), OutputSpec("A2", (0, 1, 2))),
    ((1, "a"), (1, "c")),
)
#: An output with one value, three of four treatments.
ONE_VALUED = Design(
    (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
    (OutputSpec("A1", ("only",)), OutputSpec("A2", (0, 1))),
    ((1, 1), (2, 1), (2, 2)),
)


def golden_matrix() -> np.ndarray:
    return np.array(
        [[1 if ch == "1" else 0 for ch in row] for row in GOLDEN_ROWS], dtype=np.int8
    )


def uniform_system(design: Design) -> System:
    """Every treatment spreads its mass evenly over all outcome tuples."""
    outcomes = list(design.outcome_tuples())
    return system_from_tables(
        design, {t: {o: 1 / len(outcomes) for o in outcomes} for t in design.treatments}
    )


def crossed(levels, values) -> Design:
    """Fully crossed design; input k has levels[k] levels, output k values[k] values."""
    inputs = tuple(InputSpec(f"l{k + 1}", tuple(range(1, m + 1))) for k, m in enumerate(levels))
    outputs = tuple(OutputSpec(f"A{k + 1}", tuple(range(v))) for k, v in enumerate(values))
    return Design(inputs, outputs, tuple(itertools.product(*(i.levels for i in inputs))))


def latent_system(design: Design, rng: np.random.Generator, n_latent: int = 8) -> System:
    """A system from a random latent model on ``design`` (consistent by construction)."""
    masses = rng.dirichlet(np.ones(n_latent))
    latent = JointPmf(1, {(r,): float(m) for r, m in enumerate(masses)})
    responses = tuple(
        {
            (level, r): out.values[int(rng.integers(len(out.values)))]
            for level in spec.levels
            for r in range(n_latent)
        }
        for spec, out in zip(design.inputs, design.outputs)
    )
    return generate_system(design, LatentModel(latent, responses))


def pr_box(design: Design) -> System:
    """Binary outputs 1 and 2 agree, each uniform, except where inputs 1 and 2
    both sit above their first level (there they disagree); other outputs
    are uniform.  Marginally selective, and no coupling exists."""
    first1, first2 = design.inputs[0].levels[0], design.inputs[1].levels[0]
    tables = {}
    for t in design.treatments:
        flip = t[0] != first1 and t[1] != first2
        tables[t] = {
            o: 0.5 ** (design.n - 1) if (o[0] != o[1]) == flip else 0.0
            for o in design.outcome_tuples()
        }
    return system_from_tables(design, tables)


def blend(a: System, b: System, alpha: float) -> System:
    """The mixture (1 - alpha) a + alpha b, treatment by treatment."""
    design = a.design
    tables = {
        t: {
            o: (1 - alpha) * a.pmf(t).mass(o) + alpha * b.pmf(t).mass(o)
            for o in design.outcome_tuples()
        }
        for t in design.treatments
    }
    return system_from_tables(design, tables)


def pr_mixture(design: Design, weight: float) -> System:
    """Outputs 1 and 2 on their first two values: a PR box (as ``pr_box``)
    with weight ``weight``, its opposite (agreement and disagreement
    swapped) with the rest; every other output at its first value, so each
    remaining outcome is a zero cell.  A coupling exists exactly when the
    weight is in [1/4, 3/4]."""
    first1, first2 = design.inputs[0].levels[0], design.inputs[1].levels[0]
    flip = np.array([t[0] != first1 and t[1] != first2 for t in design.treatments])
    agree = np.where(flip, 1 - weight, weight)
    array = np.zeros((len(design.treatments),) + tuple(len(o.values) for o in design.outputs))
    rest = (0,) * (design.n - 2)
    array[(slice(None), 0, 0) + rest] = array[(slice(None), 1, 1) + rest] = agree / 2
    array[(slice(None), 0, 1) + rest] = array[(slice(None), 1, 0) + rest] = (1 - agree) / 2
    return System.from_array(design, array)


def pr_product(system: System) -> System:
    """A PR box on binary outputs 1 and 2 times the system's own marginal of
    outputs 3, 4, ... at each treatment.  No coupling exists."""
    design = system.design
    box = pr_mixture(design, 1.0).array.sum(axis=tuple(range(3, design.n + 1)))
    rest = system.array.sum(axis=(1, 2))
    return System.from_array(design, np.einsum("tab,t...->tab...", box, rest))


def highs_feasible(fs) -> bool:
    """The HiGHS oracle (scipy, test-only): does M q = p, q >= 0 have a solution?"""
    res = linprog(
        c=np.zeros(fs.matrix.shape[1]),
        A_eq=fs.matrix.astype(float),
        b_eq=fs.p,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": feasibility.EPS_LP},
    )
    return res.status == 0


class TestBuild:
    def test_matrix_matches_golden_bit_for_bit(self):
        fs = build_feasibility_system(feasible_binary_system())
        assert fs.matrix.shape == (16, 16)
        assert np.array_equal(fs.matrix, golden_matrix())

    def test_column_labels_match_golden(self):
        fs = build_feasibility_system(feasible_binary_system())
        assert fs.coords == ((0, 1), (0, 2), (1, 1), (1, 2))
        for c, header in enumerate(GOLDEN_HEADER):
            assert [a[c] for a in fs.col_labels] == [int(ch) for ch in header]

    def test_row_labels_match_golden(self):
        fs = build_feasibility_system(feasible_binary_system())
        expected = [
            (t, o)
            for t in itertools.product((1, 2), (1, 2))
            for o in itertools.product((1, 2), (1, 2))
        ]
        assert list(fs.row_labels) == expected

    def test_single_treatment_identity(self):
        design = Design(
            (InputSpec("l1", (1,)),),
            (OutputSpec("A1", (1, 2)),),
            ((1,),),
        )
        system = System(design, {(1,): JointPmf(1, {(1,): 0.3, (2,): 0.7})})
        fs = build_feasibility_system(system)
        assert np.array_equal(fs.matrix, np.eye(2, dtype=np.int8))
        assert fs.p == pytest.approx([0.3, 0.7])

    def test_transformed_example_p_vector(self):
        system = apply_transform(transform_base_system(), level_specific_transform())
        fs = build_feasibility_system(system)
        assert fs.p == pytest.approx(TRANSFORMED_P, abs=1e-12)

    def test_matrix_matches_its_definition(self):
        """Entry ((t, o), j) is 1 exactly when column j's assignment,
        restricted to the coordinates t selects, equals o; the columns are
        the coupling grid in C order."""
        rng = np.random.default_rng(22)
        systems = [
            random_selective_system(rng, column_cap=400, allow_partial=False)
            for _ in range(6)
        ]
        partial = [
            random_selective_system(rng, column_cap=400, allow_partial=True)
            for _ in range(12)
        ]
        assert any(not s.design.is_fully_crossed() for s in partial)
        systems += partial + [uniform_system(SINGLE_LEVEL), uniform_system(ONE_VALUED)]
        for system in systems:
            design = system.design
            fs = build_feasibility_system(system)
            grid = [design.outputs[k].values for k, _ in fs.coords]
            assert fs.col_labels == tuple(itertools.product(*grid))
            expected = np.zeros((len(fs.row_labels), len(fs.col_labels)), dtype=np.int8)
            for r, (t, o) in enumerate(fs.row_labels):
                selected = [fs.coords.index((k, level)) for k, level in enumerate(t)]
                for j, assignment in enumerate(fs.col_labels):
                    expected[r, j] = tuple(assignment[c] for c in selected) == o
            assert fs.matrix.dtype == np.int8
            assert np.array_equal(fs.matrix, expected)

    def test_column_cap(self, monkeypatch):
        """The cap charges M as int8 and two float64 arrays of (r + 1) x
        (columns + 1), r = prod(m_k (v_k - 1) + 1): 2x2 binary, 16 x 16 + 2 x
        10 x 17 x 8 bytes; 3x3 ternary, 81 x 729 + 2 x 50 x 730 x 8."""
        for system, solve_bytes in (
            (feasible_binary_system(), 2976),
            (uniform_system(crossed((3, 3), (3, 3))), 643049),
        ):
            monkeypatch.setattr(feasibility, "TABLEAU_BYTE_CAP", solve_bytes)
            build_feasibility_system(system)
            monkeypatch.setattr(feasibility, "TABLEAU_BYTE_CAP", solve_bytes - 1)
            with pytest.raises(CapacityError, match=f"{solve_bytes} bytes.*decompose"):
                build_feasibility_system(system)

    def test_tableau_cap_rejects_before_allocating(self):
        """Two 5-level inputs, refused before M or the column labels exist:
        5-valued outputs, 625 rows, 5**10 columns and r = 441, 75.2 GB;
        4-valued outputs, 400 rows, 4**10 columns and r = 256, 4.7 GB."""
        for values, solve_bytes in (((5, 5), 75166022697), ((4, 4), 4731179024)):
            design = crossed((5, 5), values)
            system = system_from_tables(design, {t: {(0, 0): 1.0} for t in design.treatments})
            with pytest.raises(CapacityError, match=f"{solve_bytes} bytes.*decompose"):
                build_feasibility_system(system)

    def test_tableau_cap_admits_the_3x3x3_ternary_design(self):
        fs = build_feasibility_system(uniform_system(crossed((3, 3, 3), (3, 3, 3))))
        assert fs.matrix.shape == (729, 19683)
        assert np.array_equal(fs.matrix.sum(axis=0), np.full(19683, 27))

    def test_row_basis_of_the_2x2_binary_design(self):
        """Last value 2: (1,1) keeps all four rows; (1,2) adds the rows where
        its level 2 of input 2 first appears; (2,1) those of level 2 of input
        1; (2,2) only its (1, 1) row."""
        fs = build_feasibility_system(feasible_binary_system())
        assert fs.basis.tolist() == [0, 1, 2, 3, 4, 6, 8, 9, 12]
        assert len(fs.basis) == feasibility.rank_bound(fs.system.design) == 9

    def test_row_basis_spans_the_row_space(self):
        rng = np.random.default_rng(31)
        systems = [
            random_selective_system(rng, column_cap=600, allow_partial=partial)
            for partial in [False] * 12 + [True] * 40
        ]
        designs = (crossed((2, 2, 2), (3, 3, 3)), SINGLE_LEVEL, ONE_VALUED)
        systems += [uniform_system(design) for design in designs]
        assert sum(not s.design.is_fully_crossed() for s in systems) >= 5
        for system in systems:
            fs = build_feasibility_system(system)
            matrix = fs.matrix.astype(float)
            rank = np.linalg.matrix_rank(matrix)
            assert len(fs.basis) == rank
            assert np.linalg.matrix_rank(matrix[fs.basis]) == rank
            assert fs.basis.dtype == np.intp
            assert np.all(np.diff(fs.basis) > 0)
            if system.design.is_fully_crossed():
                assert rank == feasibility.rank_bound(system.design)

    def test_row_basis_is_read_only_and_built_once_per_design(self):
        fs = build_feasibility_system(feasible_binary_system())
        with pytest.raises(ValueError):
            fs.basis[0] = 1
        assert build_feasibility_system(pr_box_system()).basis is fs.basis

    def test_rank_bound_is_respected(self):
        fs = build_feasibility_system(feasible_binary_system())
        bound = feasibility.rank_bound(fs.system.design)
        assert np.linalg.matrix_rank(fs.matrix.astype(float)) <= bound
        rng = np.random.default_rng(7)
        for _ in range(5):
            system = random_selective_system(rng, column_cap=400)
            fs = build_feasibility_system(system)
            rank = np.linalg.matrix_rank(fs.matrix.astype(float))
            assert rank <= feasibility.rank_bound(system.design)

    def test_each_column_hits_every_treatment_block_once(self):
        rng = np.random.default_rng(13)
        systems = [feasible_binary_system()] + [
            random_selective_system(rng, column_cap=400) for _ in range(4)
        ]
        for system in systems:
            fs = build_feasibility_system(system)
            t = len(system.design.treatments)
            block = fs.matrix.shape[0] // t
            assert fs.matrix.shape[0] == t * block
            for b in range(t):
                sums = fs.matrix[b * block : (b + 1) * block].sum(axis=0)
                assert np.all(sums == 1)
            assert fs.p.min() >= 0.0
            assert fs.p.sum() == pytest.approx(t, abs=1e-9)

    def test_row_sums_reproduce_marginal_structure(self):
        """Summing rows sharing one output's value gives level-determined rows."""
        rng = np.random.default_rng(8)
        systems = [feasible_binary_system()] + [
            random_selective_system(rng, column_cap=400) for _ in range(4)
        ]
        for system in systems:
            fs = build_feasibility_system(system)
            design = system.design
            block = fs.matrix.shape[0] // len(design.treatments)
            for k in range(design.n):
                for value in design.outputs[k].values:
                    summed = {}
                    for b, t in enumerate(design.treatments):
                        rows = [
                            b * block + i
                            for i, (_, o) in enumerate(fs.row_labels[:block])
                            if o[k] == value
                        ]
                        key = t[k]
                        row_sum = fs.matrix[rows].sum(axis=0)
                        if key in summed:
                            assert np.array_equal(summed[key], row_sum)
                        else:
                            summed[key] = row_sum


class TestSolve:
    def test_feasible_binary_system_is_feasible_with_valid_witness(self):
        fs = build_feasibility_system(feasible_binary_system())
        verdict = solve_feasibility(fs)
        assert verdict.feasible
        w = verdict.witness
        assert w.q.min() >= 0.0
        assert abs(w.q.sum() - 1.0) <= 1e-8
        assert w.residual <= 1e-8
        assert verdict.iterations > 0

    def test_reference_witness_validates(self):
        fs = build_feasibility_system(feasible_binary_system())
        w = make_witness(fs, FEASIBLE_BINARY_WITNESS)
        assert w.residual <= 1e-8

    def test_pr_box_is_infeasible(self):
        verdict = solve_feasibility(build_feasibility_system(pr_box_system()))
        assert not verdict.feasible
        assert verdict.witness is None

    def test_transformed_example_feasible_and_reference_witness_validates(self):
        system = apply_transform(transform_base_system(), level_specific_transform())
        fs = build_feasibility_system(system)
        assert solve_feasibility(fs).feasible
        assert make_witness(fs, TRANSFORMED_WITNESS).residual <= 1e-8

    def test_bad_witnesses_are_rejected(self):
        fs = build_feasibility_system(feasible_binary_system())
        with pytest.raises(UsageError, match="negative"):
            make_witness(fs, FEASIBLE_BINARY_WITNESS - 1e-3)
        with pytest.raises(UsageError, match="mass"):
            make_witness(fs, FEASIBLE_BINARY_WITNESS * 0.9)
        wrong = FEASIBLE_BINARY_WITNESS.copy()
        wrong[0], wrong[1] = wrong[1], wrong[0] + wrong[0]
        with pytest.raises(UsageError):
            make_witness(fs, wrong)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_witness_with_a_non_finite_entry_is_rejected(self, bad):
        """Put on a zero entry, so the residual over q's support reads it."""
        fs = build_feasibility_system(feasible_binary_system())
        q = FEASIBLE_BINARY_WITNESS.copy()
        q[np.flatnonzero(q == 0)[0]] = bad
        with pytest.raises(UsageError, match="non-finite"):
            make_witness(fs, q)

    def test_witness_labels_and_json_safe_report_details(self):
        fs = build_feasibility_system(feasible_binary_system())
        witness = lp_report(feasible_binary_system(), fs=fs).witness
        assert "col_labels" not in fs.__dict__ and "row_labels" not in fs.__dict__
        cells = [
            {"assignment": list(fs.col_labels[i]), "p": float(v)}
            for i, v in enumerate(witness.q)
            if v > 0
        ]
        assert json.dumps(witness.to_json()) == json.dumps(
            {"residual": witness.residual, "q": cells}
        )
        for system in (feasible_binary_system(), pr_box_system()):
            report = lp_report(system)
            assert json.loads(json.dumps(report.details)) == report.details

    def test_iteration_cap_raises_solver_error(self):
        fs = build_feasibility_system(feasible_binary_system())
        with pytest.raises(SolverError, match="iterations"):
            solve_feasibility(fs, max_iter=1)

    def test_verdict_reports_the_solved_rows(self):
        """On a full-support p every basis row and every column is pivoted."""
        fs = build_feasibility_system(uniform_system(crossed((2, 2, 2), (3, 3, 3))))
        verdict = solve_feasibility(fs)
        assert verdict.feasible
        assert verdict.rows == len(fs.basis) == 125 < fs.matrix.shape[0]
        assert verdict.columns == fs.matrix.shape[1] == 729
        assert 0 <= verdict.degenerate <= verdict.iterations
        assert 0 <= verdict.bland <= verdict.iterations
        assert abs(verdict.optimum) <= feasibility.EPS_LP
        ruled_out = solve_feasibility(build_feasibility_system(pr_box_system()))
        assert ruled_out.optimum > feasibility.EPS_LP
        for v in (verdict, ruled_out):
            assert type(v.feasible) is bool
            for value in (v.rows, v.columns, v.degenerate, v.bland, v.iterations):
                assert type(value) is int
            assert type(v.optimum) is type(v.bound) is float
            assert v.bound == v.optimum  # both ran to an optimal basis

    def test_marginal_violation_is_ruled_out_by_the_full_residual(self):
        """The basis rows alone are satisfiable; p breaks marginal selectivity,
        a dependency among M's rows, which only the residual over all rows
        sees."""
        verdict = solve_feasibility(build_feasibility_system(marginal_violation_system()))
        assert not verdict.feasible
        assert verdict.witness is None
        assert verdict.optimum <= feasibility.EPS_LP

    def test_residual_matches_the_matrix_product(self):
        rng = np.random.default_rng(32)
        systems = [
            random_selective_system(rng, column_cap=400, allow_partial=True) for _ in range(20)
        ]
        systems.append(uniform_system(ONE_VALUED))
        for system in systems:
            fs = build_feasibility_system(system)
            q = rng.dirichlet(np.ones(fs.matrix.shape[1]))
            expected = np.abs(fs.matrix.astype(float) @ q - fs.p).max()
            assert feasibility._residual(fs, q) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_stall_fallback_engages_and_matches_highs(self):
        """A latent 2x2x2 system with ternary outputs, mixed 0.99/0.01 with
        the uniform system so that p has full support and every column is
        pivoted: runs of degenerate pivots reach the row count, so Bland's
        rule takes over."""
        design = crossed((2, 2, 2), (3, 3, 3))
        latent = latent_system(design, np.random.default_rng(24))
        system = blend(latent, uniform_system(design), 0.01)
        fs = build_feasibility_system(system)
        verdict = solve_feasibility(fs)
        assert verdict.columns == fs.matrix.shape[1]
        assert verdict.bland > 0
        assert verdict.feasible == highs_feasible(fs) is True
        with pytest.raises(SolverError, match="iterations"):
            solve_feasibility(fs, max_iter=verdict.iterations - 1)

    def test_latent_and_pr_product_on_a_3x3x3_design(self):
        """3x3x3 inputs with 2, 2 and 4 output values (M 432x4096): the
        latent system is consistent with a valid witness, its PR product
        (a PR box on outputs 1 and 2) is ruled out.  A dense tableau that
        pivots all 4096 columns diverges on the latent system."""
        design = crossed((3, 3, 3), (2, 2, 4))
        latent = latent_system(design, np.random.default_rng(2))
        fs = build_feasibility_system(latent)
        assert fs.matrix.shape == (432, 4096)
        verdict = solve_feasibility(fs)
        assert verdict.feasible == highs_feasible(fs) is True
        assert make_witness(fs, verdict.witness.q).residual <= feasibility.EPS_LP
        fs = build_feasibility_system(pr_product(latent))
        verdict = solve_feasibility(fs)
        assert verdict.feasible == highs_feasible(fs) is False
        assert verdict.witness is None

    @pytest.mark.parametrize("levels", [(2, 2), (3, 3), (2, 2, 2)])
    def test_eps_lp_bounds_a_broken_dependency(self, levels):
        """Moving mass delta between two outcomes that differ in output 1 at
        one treatment breaks marginal selectivity by delta: the residual over
        all rows is about delta, so delta <= eps_lp / 10 stays consistent and
        delta >= 2 eps_lp is ruled out.  At delta = eps_lp itself the residual
        equals the bound up to rounding, and either verdict can come out."""
        eps = feasibility.EPS_LP
        design = crossed(levels, (2,) * len(levels))
        base = latent_system(design, np.random.default_rng(33), n_latent=6)
        for t in design.treatments:
            table = dict(base.pmf(t).items())
            source = max(table, key=table.get)
            target = (1 - source[0],) + source[1:]
            for delta, consistent in (
                (eps / 100, True), (eps / 10, True), (2 * eps, False), (100 * eps, False)
            ):
                tables = {u: dict(base.pmf(u).items()) for u in design.treatments}
                tables[t][source] -= delta
                tables[t][target] = tables[t].get(target, 0.0) + delta
                fs = build_feasibility_system(system_from_tables(design, tables))
                assert solve_feasibility(fs).feasible == consistent, (t, delta)

    def test_rounding_below_zero_does_not_derail_the_pivots(self):
        """3x3 designs with ternary outputs and a 1e-10 dependency break: the
        solutions are degenerate with right-hand sides at rounding level.  A
        ratio test that lets a near-tie step past a smaller ratio, or that
        reads a right-hand side below 0 as a negative step, drives basic
        variables negative here and ends ruled out or at the iteration cap."""
        design = crossed((3, 3), (3, 3))
        for seed in (1, 5):
            base = latent_system(design, np.random.default_rng(seed), n_latent=6)
            for t in design.treatments:
                table = dict(base.pmf(t).items())
                source = max(table, key=table.get)
                target = ((source[0] + 1) % 3,) + source[1:]
                tables = {u: dict(base.pmf(u).items()) for u in design.treatments}
                tables[t][source] -= 1e-10
                tables[t][target] = tables[t].get(target, 0.0) + 1e-10
                fs = build_feasibility_system(system_from_tables(design, tables))
                assert solve_feasibility(fs).feasible, (seed, t)

    def test_agrees_with_highs_on_partial_designs(self):
        rng = np.random.default_rng(34)
        outcomes = {True: 0, False: 0}
        checked = 0
        while checked < 16:
            system = random_selective_system(rng, column_cap=600, allow_partial=True)
            design = system.design
            if design.is_fully_crossed():
                continue
            outcomes_list = list(design.outcome_tuples())
            independent = system_from_tables(design, {
                t: dict(zip(outcomes_list, rng.dirichlet(np.ones(len(outcomes_list)))))
                for t in design.treatments
            })
            for candidate in (system, independent):
                fs = build_feasibility_system(candidate)
                mine = solve_feasibility(fs).feasible
                assert mine == highs_feasible(fs)
                outcomes[mine] += 1
            checked += 1
        assert outcomes[True] >= 16 and outcomes[False] > 0

    @pytest.mark.parametrize("levels", [(3, 3), (2, 2, 2)])
    def test_agrees_with_highs_near_the_pr_mixture_boundary(self, levels):
        """Bisect the PR-box weight of a mixture with a latent system (half
        of it uniform, so the mixture starts inside the feasible set), then
        compare with HiGHS just off the boundary on either side."""
        rng = np.random.default_rng(35)
        design = crossed(levels, (2,) * len(levels))
        box = pr_box(design)

        def feasible_at(base, alpha):
            return solve_feasibility(build_feasibility_system(blend(base, box, alpha))).feasible

        for _ in range(4):
            base = blend(latent_system(design, rng), uniform_system(design), 0.5)
            lo, hi = 0.0, 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if feasible_at(base, mid):
                    lo = mid
                else:
                    hi = mid
            assert 1e-3 < lo < 1 - 1e-3
            for offset, expected in ((-1e-5, True), (1e-5, False)):
                fs = build_feasibility_system(blend(base, box, 0.5 * (lo + hi) + offset))
                assert solve_feasibility(fs).feasible == highs_feasible(fs) == expected

    def test_feasibility_invariant_under_value_relabeling(self):
        for system in (feasible_binary_system(), pr_box_system(), marginal_violation_system()):
            before = solve_feasibility(build_feasibility_system(system)).feasible
            # Swap the two values of each output consistently.
            design = system.design
            perm = {1: 2, 2: 1}
            tables = {
                t: {
                    tuple(perm[v] for v in key): m
                    for key, m in system.pmf(t).items()
                }
                for t in design.treatments
            }
            relabeled = system_from_tables(design, tables)
            after = solve_feasibility(build_feasibility_system(relabeled)).feasible
            assert before == after

    def test_witness_pushback_reproduces_p(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            system = random_selective_system(rng, column_cap=400)
            fs = build_feasibility_system(system)
            verdict = solve_feasibility(fs)
            assert verdict.feasible
            for t in system.design.treatments:
                coords = [(k, t[k]) for k in range(system.design.n)]
                recovered = extract_coupling_marginals(verdict.witness, fs, coords)
                assert allclose(recovered, system.pmf(t), tol=2e-8)

    def test_agrees_with_scipy_linprog(self):
        """Independent solver oracle on a mixed batch of systems."""
        rng = np.random.default_rng(11)
        batch = [feasible_binary_system(), pr_box_system(), marginal_violation_system()]
        batch += [random_marginally_selective_2x2(rng) for _ in range(30)]
        batch += [random_selective_system(rng, column_cap=300) for _ in range(5)]
        for system in batch:
            fs = build_feasibility_system(system)
            mine = solve_feasibility(fs).feasible
            assert mine == highs_feasible(fs), f"disagreement: mine={mine}"

    def test_agrees_with_scipy_near_the_feasibility_boundary(self):
        """Bisect the mixing weight toward the box vertex, then compare all
        three routes (simplex, scipy, closed form) just off the boundary."""
        from fixtures import _random_binary_latent

        rng = np.random.default_rng(14)
        design = binary_design()
        box = pr_box_system()

        def mix(feasible, alpha):
            tables = {
                t: {
                    key: (1 - alpha) * feasible.pmf(t).mass(key)
                    + alpha * box.pmf(t).mass(key)
                    for key in itertools.product((1, 2), (1, 2))
                }
                for t in design.treatments
            }
            return system_from_tables(design, tables)

        def feasible_at(feasible, alpha):
            return solve_feasibility(
                build_feasibility_system(mix(feasible, alpha))
            ).feasible

        trials = 0
        while trials < 8:
            feasible = generate_system(design, _random_binary_latent(rng, design))
            if feasible_at(feasible, 1.0):
                continue  # base already box-like; no boundary to find
            lo, hi = 0.0, 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if feasible_at(feasible, mid):
                    lo = mid
                else:
                    hi = mid
            for offset in (-1e-5, 1e-5):
                alpha = min(1.0, max(0.0, 0.5 * (lo + hi) + offset))
                system = mix(feasible, alpha)
                fs = build_feasibility_system(system)
                mine = solve_feasibility(fs).feasible
                assert mine == highs_feasible(fs)
                fine = fine_inequality_check(system)
                assert mine == (fine.verdict == "consistent")
            trials += 1


class TestSupport:
    """The simplex pivots only the basis rows with p > 0 and the columns
    with no 1 in a row where p is exactly 0."""

    def test_restriction_agrees_with_highs_on_the_full_matrix(self):
        """Latent systems (consistent) and PR mixtures whose verdict flips
        at weight 3/4, each paired with its constructed verdict."""
        rng = np.random.default_rng(36)
        cases = [
            (random_selective_system(rng, column_cap=600, allow_partial=True), True)
            for _ in range(20)
        ]
        for levels, values in (((3, 3), (3, 3)), ((2, 2, 2), (2, 3, 3)), ((3, 3, 3), (2, 2, 2))):
            cases += [(latent_system(crossed(levels, values), rng), True) for _ in range(3)]
        for levels, values in (((2, 2), (3, 3)), ((3, 3), (2, 3)), ((2, 2, 2), (2, 2, 3))):
            cases += [
                (pr_mixture(crossed(levels, values), w), bool(w < 0.75))
                for w in np.linspace(0.70, 0.80, 6)
            ]
        outcomes = {True: 0, False: 0}
        restricted = 0
        for system, expected in cases:
            fs = build_feasibility_system(system)
            verdict = solve_feasibility(fs)
            assert verdict.feasible == highs_feasible(fs) == expected
            assert verdict.rows == np.count_nonzero(fs.p[fs.basis])
            outcomes[verdict.feasible] += 1
            restricted += verdict.columns < fs.matrix.shape[1]
        assert outcomes == {True: 38, False: 9}
        assert restricted >= 40  # the rest have full support

    def test_pr_box_keeps_no_columns(self):
        verdict = solve_feasibility(build_feasibility_system(pr_box_system()))
        assert verdict.columns == verdict.iterations == 0
        assert not verdict.feasible
        assert verdict.optimum > feasibility.EPS_LP

    def test_only_an_exactly_zero_cell_drops_its_columns(self):
        """A mass in (-eps_prob, 0) reads as 0 and drops the cell's columns;
        a mass of 1e-300 keeps them."""
        design = crossed((2, 2), (3, 3))
        system = latent_system(design, np.random.default_rng(0))
        base = solve_feasibility(build_feasibility_system(system))
        assert base.columns < 81
        b, *cell = np.argwhere(system.array == 0)[0]
        columns = {}
        for mass in (-1e-12, 1e-300):
            tables = {u: dict(system.pmf(u).items()) for u in design.treatments}
            tables[design.treatments[b]][tuple(cell)] = mass
            fs = build_feasibility_system(system_from_tables(design, tables))
            assert fs.p[b * 9 + np.ravel_multi_index(cell, (3, 3))] == max(mass, 0.0)
            verdict = solve_feasibility(fs)
            assert verdict.feasible == highs_feasible(fs) is True
            columns[mass] = verdict.columns
        assert columns[-1e-12] == base.columns < columns[1e-300]


#: (iterations, degenerate, bland, rows, columns) and the nonzero entries of
#: q (none when ruled out) for the latent system from ``rng(40 + shape
#: index)`` and its 0.8 PR mixture, on the four shapes of the benchmark's
#: ``lp_criterion`` workload.  The latent entries were recorded before the
#: criterion matrix was cached per design and the tableau lost its
#: artificial columns; the PR mixtures stop early, before their first pivot,
#: at the row-cap floor (``TestPivotOracle``).
PIVOTS_ON_LP_SHAPES = {
    ((2, 2, 2, 2), (2, 2, 2, 2), "latent"): (
        (10, 1, 0, 44, 10),
        {
            20: 0.02576379967997396, 49: 0.4073022344224927, 138: 0.08643574826082519,
            160: 0.00718545542012633, 187: 0.06644455689814546, 196: 0.06882000927527815,
            205: 0.11043060292059538, 206: 0.11043060292059538, 207: 0.11718699020196759,
        },
    ),
    ((2, 2, 2, 2), (2, 2, 2, 2), "pr0.8"): ((0, 0, 0, 51, 13), {}),
    ((3, 3), (3, 3), "latent"): (
        (34, 16, 0, 27, 59),
        {
            230: 0.08171795081882942, 263: 5.551115123125783e-17, 281: 0.04419985448792367,
            316: 0.04457413654761137, 350: 0.010547794853644004, 407: 0.010547794853643983,
            425: 0.19814246541207797, 442: 2.7755575615628914e-17, 478: 0.012143834369570936,
            479: 0.03402634169396747, 559: 0.42311897813264776, 575: 0.010547794853643955,
            593: 0.012930751986679387, 602: 2.7755575615628914e-17, 646: 0.010547794853643983,
            648: 0.03765556128759202, 656: 0.003629219593624669, 668: 0.006918575260019433,
            672: 0.024724809300912608, 682: 0.010547794853643955, 727: 0.023478546840323508,
        },
    ),
    ((3, 3), (3, 3), "pr0.8"): ((0, 0, 0, 39, 151), {}),
    ((2, 2, 2), (3, 3, 3), "latent"): (
        (8, 0, 0, 26, 8),
        {
            94: 0.10460962029887755, 132: 0.17332959268814652, 383: 0.006413074916837146,
            401: 0.10777766046252024, 412: 0.17837614211835057, 416: 0.020758858415255422,
            533: 0.23180179067903528, 647: 0.1769332604209774,
        },
    ),
    ((2, 2, 2), (3, 3, 3), "pr0.8"): ((0, 0, 0, 40, 8), {}),
    ((3, 3, 3), (2, 2, 2), "latent"): (
        (15, 4, 0, 51, 17),
        {
            18: 0.017481502653295917, 20: 0.017481502653295917, 22: 0.016168337368874918,
            63: 0.27302475461899917, 98: 0.24226098448378067, 185: 0.31600781432985314,
            356: 2.7755575615628914e-17, 357: 0.08220745091136891, 376: 0.024501510518795913,
            486: 0.010866142461735617,
        },
    ),
    ((3, 3, 3), (2, 2, 2), "pr0.8"): ((0, 0, 0, 52, 21), {}),
}
LP_SHAPES = list(dict.fromkeys(key[:2] for key in PIVOTS_ON_LP_SHAPES))


class TestDesignCache:
    """M and its basis are built once per design and shared read-only; the
    solver keeps its pivots and its solution."""

    @pytest.mark.parametrize("kind", ["latent", "pr0.8"])
    @pytest.mark.parametrize("shape", LP_SHAPES, ids=str)
    def test_pivots_and_q_are_as_recorded(self, shape, kind):
        design = crossed(*shape)
        system = latent_system(design, np.random.default_rng(40 + LP_SHAPES.index(shape)))
        if kind == "pr0.8":
            system = blend(system, pr_mixture(design, 1.0), 0.8)
        counts, cells = PIVOTS_ON_LP_SHAPES[shape + (kind,)]
        fs = build_feasibility_system(system)
        verdict = solve_feasibility(fs)
        assert verdict.feasible is bool(cells)
        assert (
            verdict.iterations, verdict.degenerate, verdict.bland, verdict.rows, verdict.columns
        ) == counts
        assert (verdict.bound < verdict.optimum) is (kind == "pr0.8")
        if cells:
            expected = np.zeros(fs.matrix.shape[1])
            expected[list(cells)] = list(cells.values())
            np.testing.assert_allclose(verdict.witness.q, expected, rtol=0, atol=1e-15)

    def test_systems_on_one_design_share_one_read_only_matrix(self):
        fs = build_feasibility_system(feasible_binary_system())
        other = build_feasibility_system(pr_box_system())
        assert other.matrix is fs.matrix and other.basis is fs.basis
        with pytest.raises(ValueError):
            fs.matrix[0, 0] = 0
        assert np.array_equal(fs.matrix, golden_matrix())

    def test_relabelled_sub_designs_share_one_matrix(self):
        """The 100 2x2 sub-designs of a 5x5 design with (4, 4) values, each
        labelled with its own levels of the 5x5 design, have the same level
        positions: solved twice each, they build one index and one M, and
        every verdict is the one a fresh build gives."""
        design = crossed((5, 5), (4, 4))
        latent = latent_system(design, np.random.default_rng(17))
        whole = blend(latent, pr_mixture(design, 1.0), 0.5)
        rows = {t: b for b, t in enumerate(design.treatments)}
        subsystems = []
        for levels in itertools.product(
            *(itertools.combinations(spec.levels, 2) for spec in design.inputs)
        ):
            treatments = tuple(itertools.product(*levels))
            inputs = tuple(InputSpec(spec.name, pair) for spec, pair in zip(design.inputs, levels))
            sub = Design(inputs, design.outputs, treatments)
            subsystems.append(System.from_array(sub, whole.array[[rows[t] for t in treatments]]))

        def verdict(system):
            v = solve_feasibility(build_feasibility_system(system))
            return v.feasible, v.iterations, v.optimum, v.bound, v.witness and v.witness.q.tolist()

        def clear():
            model._treatment_index.cache_clear()
            feasibility._criterion_matrix.cache_clear()

        clear()
        twice = [verdict(system) for system in subsystems for _ in range(2)]
        hits, misses, _, _ = feasibility._criterion_matrix.cache_info()
        assert len(subsystems) == 100 and (hits, misses) == (199, 1)
        assert model._treatment_index.cache_info().misses == 1
        fresh = []
        for system in subsystems:
            clear()
            d = system.design
            copy = Design(d.inputs, d.outputs, d.treatments)
            fresh.append(verdict(System.from_array(copy, system.array)))
        assert twice[::2] == twice[1::2] == fresh
        assert {feasible for feasible, *_ in fresh} == {True, False}

    def test_capacity_error_leaves_the_cache_untouched(self):
        build_feasibility_system(feasible_binary_system())
        before = feasibility._criterion_matrix.cache_info()
        design = crossed((5, 5), (5, 5))
        system = system_from_tables(design, {t: {(0, 0): 1.0} for t in design.treatments})
        with pytest.raises(CapacityError):
            build_feasibility_system(system)
        assert feasibility._criterion_matrix.cache_info() == before

    def test_residual_of_a_sparse_and_an_all_zero_q_is_the_dense_product(self):
        rng = np.random.default_rng(33)
        fs = build_feasibility_system(uniform_system(crossed((2, 2, 2), (3, 3, 3))))
        sparse = np.zeros(fs.matrix.shape[1])
        sparse[rng.choice(sparse.size, 12, replace=False)] = rng.dirichlet(np.ones(12))
        dense = fs.matrix.astype(float)
        expected = np.abs(dense @ sparse - fs.p).max()
        assert feasibility._residual(fs, sparse) == pytest.approx(expected, rel=1e-12, abs=1e-15)
        zero = np.zeros_like(sparse)
        assert feasibility._residual(fs, zero) == np.abs(dense @ zero - fs.p).max() == fs.p.max()


class TestExtractMarginals:
    def test_full_coordinate_set_is_q_reshaped(self):
        fs = build_feasibility_system(feasible_binary_system())
        w = make_witness(fs, FEASIBLE_BINARY_WITNESS)
        full = extract_coupling_marginals(w, fs, list(fs.coords))
        for assignment, mass in zip(fs.col_labels, FEASIBLE_BINARY_WITNESS):
            assert full.mass(assignment) == pytest.approx(mass, abs=1e-12)

    def test_treatment_coordinates_give_observed_table(self):
        fs = build_feasibility_system(feasible_binary_system())
        w = make_witness(fs, FEASIBLE_BINARY_WITNESS)
        recovered = extract_coupling_marginals(w, fs, [(0, 1), (1, 1)])
        observed = feasible_binary_system().pmf((1, 1))
        assert allclose(recovered, observed, tol=2e-8)

    def test_cross_level_marginals_match_direct_summation(self):
        fs = build_feasibility_system(feasible_binary_system())
        w = make_witness(fs, FEASIBLE_BINARY_WITNESS)
        cross = extract_coupling_marginals(w, fs, [(0, 1), (0, 2)])
        # Oracle: sum the reference q over the two first coordinates directly.
        oracle = {}
        for assignment, mass in zip(fs.col_labels, FEASIBLE_BINARY_WITNESS):
            key = (assignment[0], assignment[1])
            oracle[key] = oracle.get(key, 0.0) + mass
        for key, value in oracle.items():
            assert cross.mass(key) == pytest.approx(value, abs=1e-12)
        # Its 1-marginals match the observed first-output marginals.
        for position, level in ((0, 1), (1, 2)):
            m = marginalize(cross, (position,))
            treatment = (level, 1)
            observed = marginalize(feasible_binary_system().pmf(treatment), (0,))
            assert allclose(m, observed, tol=2e-8)

    def test_unknown_coordinate_is_usage_error(self):
        fs = build_feasibility_system(feasible_binary_system())
        w = make_witness(fs, FEASIBLE_BINARY_WITNESS)
        with pytest.raises(UsageError):
            extract_coupling_marginals(w, fs, [(0, 3)])

    def test_selection_order_sets_the_axes_and_repeats_are_usage_errors(self):
        fs = build_feasibility_system(feasible_binary_system())
        w = make_witness(fs, FEASIBLE_BINARY_WITNESS)
        which = [(1, 2), (0, 1), (1, 1)]
        positions = [fs.coords.index(c) for c in which]
        oracle = {}
        for assignment, mass in zip(fs.col_labels, FEASIBLE_BINARY_WITNESS):
            key = tuple(assignment[c] for c in positions)
            oracle[key] = oracle.get(key, 0.0) + mass
        got = extract_coupling_marginals(w, fs, which)
        assert set(got.table) == {key for key, mass in oracle.items() if mass}
        for key, mass in oracle.items():
            assert got.mass(key) == pytest.approx(mass, abs=1e-12)
        with pytest.raises(UsageError, match="duplicate"):
            extract_coupling_marginals(w, fs, [(0, 1), (1, 1), (0, 1)])


class TestFineInequalities:
    def test_feasible_binary_system_passes(self):
        report = fine_inequality_check(feasible_binary_system())
        assert report.verdict == "consistent"

    def test_pr_box_fails_by_half(self):
        report = fine_inequality_check(pr_box_system())
        assert report.verdict == "ruled-out"
        assert report.witness.excess == pytest.approx(0.5, abs=1e-12)

    def test_independent_outputs_pass(self):
        design = binary_design()
        # Level-determined marginals, independent product at each treatment.
        p1 = {1: 0.3, 2: 0.8}
        p2 = {1: 0.6, 2: 0.2}
        tables = {}
        for i, j in design.treatments:
            tables[(i, j)] = {
                (1, 1): p1[i] * p2[j],
                (1, 2): p1[i] * (1 - p2[j]),
                (2, 1): (1 - p1[i]) * p2[j],
                (2, 2): (1 - p1[i]) * (1 - p2[j]),
            }
        report = fine_inequality_check(system_from_tables(design, tables))
        assert report.verdict == "consistent"

    def test_inapplicable_on_wrong_shapes(self):
        # Non-binary output.
        design = binary_design(values1=(0, 1, 2))
        tables = {t: {(0, 1): 1.0} for t in design.treatments}
        assert (
            fine_inequality_check(system_from_tables(design, tables)).verdict
            == "inapplicable"
        )
        # Marginal selectivity failure.
        assert (
            fine_inequality_check(marginal_violation_system()).verdict
            == "inapplicable"
        )

    def test_agrees_with_lp_on_random_batch(self):
        rng = np.random.default_rng(12)
        outcomes = {True: 0, False: 0}
        for _ in range(60):
            system = random_marginally_selective_2x2(rng)
            fine = fine_inequality_check(system)
            assert fine.verdict in ("consistent", "ruled-out")
            lp = solve_feasibility(build_feasibility_system(system)).feasible
            assert (fine.verdict == "consistent") == lp
            outcomes[lp] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0


def reference_phase1_simplex(a, b, max_iter, trace=None):
    """A phase-I simplex with the pivot rules of ``feasibility._phase1_simplex``
    written row by row: a cost vector beside the tableau, the eligible
    columns found by ``flatnonzero``, a ratio test over the gathered rows and
    an update of the touched rows in blocks of 32.  It has no early stop and
    always runs to the optimum.  The oracle that the solver's pivots are
    checked against, bit for bit.  ``trace``, when given, receives the
    objective and the degenerate and Bland pivot counts at the start and
    after each pivot."""
    m, n = a.shape
    tableau = np.empty((m, n + 1))
    tableau[:, :n] = a
    tableau[:, -1] = b
    tableau[b < 0] *= -1.0
    basis = np.arange(n, n + m)
    cost = np.empty(n + 1)
    cost[:n] = -tableau[:, :n].sum(axis=0)
    cost[-1] = -tableau[:, -1].sum()

    iterations = degenerate = bland = stall = 0
    if trace is not None:
        trace.append((float(-cost[-1]), degenerate, bland))
    while True:
        eligible = np.flatnonzero(cost[:n] < -feasibility.PIVOT_TOL)
        if eligible.size == 0:
            break
        if stall < m:
            entering = int(eligible[np.argmin(cost[eligible])])
        else:
            entering = int(eligible[0])
            bland += 1
        iterations += 1
        if iterations > max_iter:
            raise SolverError(f"phase-I simplex exceeded {max_iter} iterations")

        col = tableau[:, entering]
        rows = np.nonzero(col > feasibility.PIVOT_TOL)[0]
        if rows.size == 0:
            raise SolverError("phase-I objective unbounded; matrix is malformed")
        ratios = np.maximum(tableau[rows, -1], 0.0) / col[rows]
        best = ratios.min()
        if best <= feasibility.PIVOT_TOL:
            degenerate += 1
            stall += 1
        else:
            stall = 0
        ties = rows[ratios == best]
        leaving = int(ties[np.argmin(basis[ties])])

        pivot_row = tableau[leaving] / tableau[leaving, entering]
        touched = np.flatnonzero(col)
        for start in range(0, touched.size, 32):
            block = touched[start : start + 32]
            tableau[block] -= col[block, None] * pivot_row
        tableau[leaving] = pivot_row
        cost -= cost[entering] * pivot_row
        basis[leaving] = entering
        if trace is not None:
            trace.append((float(-cost[-1]), degenerate, bland))

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tableau[structural, -1]
    return float(-cost[-1]), x, iterations, degenerate, bland


def pivot_oracle_cases():
    """(id, system): latent and 0.8 PR systems on the four ``lp_criterion``
    shapes, the full-support mixture on which Bland's rule engages, the 3x3x3
    design with 2, 2 and 4 values and its PR product, and the PR box, whose
    support keeps no column."""
    cases = []
    for index, shape in enumerate(LP_SHAPES):
        design = crossed(*shape)
        latent = latent_system(design, np.random.default_rng(40 + index))
        label = "-".join("x".join(map(str, sizes)) for sizes in shape)
        cases.append((f"{label}-latent", latent))
        cases.append((f"{label}-pr0.8", blend(latent, pr_mixture(design, 1.0), 0.8)))
    design = crossed((2, 2, 2), (3, 3, 3))
    latent = latent_system(design, np.random.default_rng(24))
    cases.append(("stall", blend(latent, uniform_system(design), 0.01)))
    latent = latent_system(crossed((3, 3, 3), (2, 2, 4)), np.random.default_rng(2))
    cases += [("3x3x3-latent", latent), ("3x3x3-pr-product", pr_product(latent))]
    cases.append(("pr-box", pr_box_system()))
    return cases


PIVOT_ORACLE_CASES = pivot_oracle_cases()


class TestPivotOracle:
    def test_stop_rule_compares_the_bound_with_eps_lp(self):
        """One row, one column, b = 1 + k eps_lp: the start's bound is
        b - (1 + eps_lp) = (k - 1) eps_lp, so the loop stops there only when
        k > 2, and otherwise pivots to the optimum 0."""
        eps_lp = feasibility.EPS_LP
        a = np.ones((1, 1))
        for k in (1.5, 2.5):
            b = np.array([1 + k * eps_lp])
            optimum, bound, x, *counts = feasibility._phase1_simplex(a, b, eps_lp, 10)
            if k > 2:
                assert bound == pytest.approx(1.5 * eps_lp, abs=1e-15)
                assert (optimum, x.tolist(), counts) == (b[0], [0.0], [0, 0, 0])
            else:
                assert (optimum, bound, x.tolist(), counts) == (0.0, 0.0, b.tolist(), [1, 0, 0])

    @pytest.mark.parametrize(
        "name, system", PIVOT_ORACLE_CASES, ids=[name for name, _ in PIVOT_ORACLE_CASES]
    )
    def test_pivots_match_the_row_by_row_reference_bit_for_bit(self, name, system):
        """A solve that ends at an optimal basis matches the reference bit
        for bit.  The PR mixtures stop early: their k pivots are the
        reference's first k (objective bits and counts after pivot k), and
        the reference, run to its optimum, rules them out as well."""
        fs = build_feasibility_system(system)
        rows = fs.basis[fs.p[fs.basis] > 0]
        cols = np.flatnonzero(~fs.matrix[fs.p == 0].any(axis=0))
        a, b = fs.matrix[np.ix_(rows, cols)], fs.p[rows]
        max_iter = 50 * (len(fs.basis) + fs.matrix.shape[1]) + 1000
        eps_lp = feasibility.EPS_LP
        optimum, bound, x, *counts = feasibility._phase1_simplex(a, b, eps_lp, max_iter)
        trace = []
        expected_optimum, expected_x, *expected_counts = reference_phase1_simplex(
            a, b, max_iter, trace
        )
        iterations, degenerate, bland = counts
        objective, *counts_at_k = trace[iterations]
        assert optimum.hex() == objective.hex()
        assert [degenerate, bland] == counts_at_k
        assert (bound < optimum) is name.endswith("pr0.8")
        if bound < optimum:
            assert eps_lp < bound
            assert iterations < expected_counts[0]
            assert expected_optimum > eps_lp
        else:
            assert bound == optimum
            assert optimum.hex() == expected_optimum.hex()
            assert x.tobytes() == expected_x.tobytes()
            assert counts == expected_counts
        if name == "stall":
            assert bland > 0
        if name == "pr-box":
            assert cols.size == iterations == 0


def floor_certificate(a, b):
    """The row-cap floor of a x = b, x >= 0 (a 0/1, b > 0) in exact
    arithmetic, with its integer Farkas vector y.  Column j's cap ub_j is
    the least b_r on its rows, attained first at row r(j); R holds the rows
    r with b_r > sum_j a_rj ub_j, c_j counts column j's rows in R, and
    y = 1_R - sum_j c_j e_r(j)."""
    m, n = a.shape
    b = [Fraction(v) for v in b.tolist()]
    ones = [[r for r in range(m) if a[r, j]] for j in range(n)]
    cap_row = [min(rows, key=lambda r: (b[r], r)) for rows in ones]
    short = [b[r] - sum(b[cap_row[j]] for j in range(n) if a[r, j]) for r in range(m)]
    in_r = [gap > 0 for gap in short]
    y = [int(flag) for flag in in_r]
    for j, rows in enumerate(ones):
        y[cap_row[j]] -= sum(in_r[r] for r in rows)
    return sum(gap for gap in short if gap > 0), y


def floor_cases():
    """``PIVOT_ORACLE_CASES`` and three more 0.8 PR mixtures of latent
    systems on each of the four ``lp_criterion`` shapes."""
    cases = list(PIVOT_ORACLE_CASES)
    for index, shape in enumerate(LP_SHAPES):
        design = crossed(*shape)
        for k in range(3):
            latent = latent_system(design, np.random.default_rng([60, index, k]))
            cases.append((f"{shape}-{k}-pr0.8", blend(latent, pr_mixture(design, 1.0), 0.8)))
    return cases


class TestFloorCertificate:
    def test_each_floor_rule_out_carries_an_integer_farkas_certificate(self):
        """Whenever the exact floor exceeds eps_lp the solver stops before
        its first pivot, with the floor as its bound; y a <= 0 on every kept
        column and y b = floor > eps_lp then prove, without the solver, that
        a x = b has no x >= 0.  Otherwise the floor does not stop it."""
        eps_lp = Fraction(feasibility.EPS_LP)
        stopped = []
        for name, system in floor_cases():
            fs = build_feasibility_system(system)
            rows = fs.basis[fs.p[fs.basis] > 0]
            cols = np.flatnonzero(~fs.matrix[fs.p == 0].any(axis=0))
            a, b = fs.matrix[rows][:, cols], fs.p[rows]
            floor, y = floor_certificate(a, b)
            verdict = solve_feasibility(fs)
            if floor <= eps_lp:
                assert verdict.iterations > 0 or verdict.feasible, name
                continue
            stopped.append(name)
            assert not verdict.feasible and verdict.iterations == verdict.degenerate == 0
            assert verdict.bound == pytest.approx(float(floor), rel=1e-12)
            assert all(sum(y[r] for r in np.flatnonzero(column)) <= 0 for column in a.T)
            assert sum(yr * Fraction(br) for yr, br in zip(y, b.tolist())) == floor
        oracle_mixtures = {name for name, _ in PIVOT_ORACLE_CASES if name.endswith("pr0.8")}
        assert oracle_mixtures | {"3x3x3-pr-product", "pr-box"} <= set(stopped)
        assert len(stopped) > len(oracle_mixtures) + 2


#: 2x2 binary and the four shapes of the benchmark's ``lp_criterion`` workload.
BOUNDARY_SHAPES = [((2, 2), (2, 2))] + LP_SHAPES


def verdict_run_to_the_optimum(fs, monkeypatch):
    """``solve_feasibility``'s verdict with ``reference_phase1_simplex``,
    which has no early stop, in place of the solver's pivot loop."""

    def run_to_the_optimum(a, b, eps_lp, max_iter):
        optimum, x, *counts = reference_phase1_simplex(a, b, max_iter)
        return (optimum, optimum, x, *counts)

    with monkeypatch.context() as patch:
        patch.setattr(feasibility, "_phase1_simplex", run_to_the_optimum)
        return solve_feasibility(fs)


class TestBoundary:
    """Near the feasibility boundary the early stop changes no verdict: each
    equals the verdict of the reference simplex run to its optimum."""

    def test_pr_mixtures_around_weight_three_quarters(self, monkeypatch):
        """A coupling exists exactly up to PR weight 3/4."""
        offsets = (0, 1e-9, -1e-9, 3e-9, -3e-9, 1e-8, -1e-8, 3e-8, -3e-8, 1e-7, -1e-7, 1e-6, -1e-6)
        for shape in BOUNDARY_SHAPES:
            design = crossed(*shape)
            for delta in offsets:
                fs = build_feasibility_system(pr_mixture(design, 0.75 + delta))
                verdict = solve_feasibility(fs)
                reference = verdict_run_to_the_optimum(fs, monkeypatch)
                assert verdict.feasible == reference.feasible
                assert verdict.bound <= reference.optimum + 1e-12
                if abs(delta) >= 1e-7:
                    assert verdict.feasible is (delta < 0)

    def test_latent_and_pr_blends_across_the_threshold(self, monkeypatch):
        """Two seeded latent systems per shape, each mixed with the PR box
        at the weight where the solver's verdict flips (bisected), just off
        it, and on a grid from 0.1 to 1."""
        verdicts = {True: 0, False: 0}
        early = pivots = reference_pivots = 0
        for index, shape in enumerate(BOUNDARY_SHAPES):
            design = crossed(*shape)
            box = pr_mixture(design, 1.0).array
            for k in range(2):
                latent = latent_system(design, np.random.default_rng([50, index, k])).array

                def blended(alpha):
                    mix = System.from_array(design, (1 - alpha) * latent + alpha * box)
                    return build_feasibility_system(mix)

                lo, hi = 0.0, 1.0
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    if solve_feasibility(blended(mid)).feasible:
                        lo = mid
                    else:
                        hi = mid
                offsets = (0, 1e-9, -1e-9, 1e-8, -1e-8, 1e-6, -1e-6)
                alphas = [lo + offset for offset in offsets] + list(np.linspace(0.1, 1, 10))
                for alpha in alphas:
                    if not 0 <= alpha <= 1:
                        continue
                    fs = blended(alpha)
                    verdict = solve_feasibility(fs)
                    reference = verdict_run_to_the_optimum(fs, monkeypatch)
                    assert verdict.feasible == reference.feasible
                    assert verdict.bound <= reference.optimum + 1e-12
                    verdicts[verdict.feasible] += 1
                    if verdict.bound < verdict.optimum:
                        assert not verdict.feasible
                        assert verdict.iterations < reference.iterations
                        early += 1
                    else:
                        assert verdict.iterations == reference.iterations
                    if not verdict.feasible:
                        pivots += verdict.iterations
                        reference_pivots += reference.iterations
        assert verdicts[True] > 0 and verdicts[False] > 0
        assert early > 0 and pivots < reference_pivots
