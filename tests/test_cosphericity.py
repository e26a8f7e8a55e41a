"""Correlation computation and the cosphericity inequality."""

import itertools

import numpy as np
import pytest

from fixtures import (
    correlation,
    cosphericity_system,
    random_selective_system,
    squash_five_transform,
)
from selinf.cosphericity import _crossed_subdesigns
from selinf import (
    Design,
    InapplicableError,
    InputSpec,
    JointPmf,
    OutputSpec,
    System,
    apply_transform,
    build_feasibility_system,
    cosphericity_report,
    marginalize,
    run_cosphericity,
    solve_feasibility,
)
from selinf.tolerances import EPS_COSPHERICAL


def _ident(x):
    return float(x)


class TestCorrelation:
    def test_band_table_values(self):
        system = cosphericity_system()
        pmf = marginalize(system.pmf((1, 1)), (0, 1))
        assert correlation(pmf, _ident, _ident) == pytest.approx(0.7299, abs=5e-5)
        anti = marginalize(system.pmf((2, 2)), (0, 1))
        assert correlation(anti, _ident, _ident) == pytest.approx(-0.6322, abs=5e-5)

    def test_perfect_diagonal_is_one(self):
        pmf = JointPmf(2, {(0, 0): 0.5, (1, 1): 0.5})
        assert correlation(pmf, _ident, _ident) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_is_inapplicable(self):
        pmf = JointPmf(2, {(1, 0): 0.5, (1, 1): 0.5})
        with pytest.raises(InapplicableError):
            correlation(pmf, _ident, _ident)


class TestRunCosphericity:
    def test_original_system_passes(self):
        results = run_cosphericity(cosphericity_system())
        assert results and all(r.passed for r in results)
        r = results[0]
        # Four-decimal reference values computed from rounded correlations;
        # the exact sides are 0.9941094 and 0.9969624.
        assert r.lhs == pytest.approx(0.9942, abs=1.5e-4)
        assert r.rhs == pytest.approx(0.9969, abs=1.5e-4)
        for rho in r.rho[:3]:
            assert rho == pytest.approx(0.7299, abs=5e-5)
        assert r.rho[3] == pytest.approx(-0.6322, abs=5e-5)

    def test_squashed_system_fails(self):
        squashed = apply_transform(cosphericity_system(), squash_five_transform())
        results = run_cosphericity(squashed)
        assert results and not any(r.passed for r in results)
        r = results[0]
        assert r.lhs == pytest.approx(1.1988, abs=5e-4)
        assert r.rhs == pytest.approx(0.8012, abs=5e-4)
        for rho in r.rho[:3]:
            assert rho == pytest.approx(0.7742, abs=5e-5)
        assert r.rho[3] == pytest.approx(-0.7742, abs=5e-5)

    def test_equal_correlations_always_pass(self):
        design = cosphericity_system().design
        table = {(0, 0): 0.4, (1, 1): 0.3, (5, 5): 0.2, (0, 1): 0.1}
        system = System(
            design, {t: JointPmf(2, table) for t in design.treatments}
        )
        results = run_cosphericity(system)
        for r in results:
            assert len(set(r.rho)) == 1
            assert r.lhs == pytest.approx(0.0, abs=1e-12)
            assert r.passed

    def test_no_crossed_subdesign_is_inapplicable(self):
        design = Design(
            (InputSpec("l1", (1,)), InputSpec("l2", (1,))),
            (
                OutputSpec("A1", (0, 1), (0.0, 1.0)),
                OutputSpec("A2", (0, 1), (0.0, 1.0)),
            ),
            ((1, 1),),
        )
        system = System(design, {(1, 1): JointPmf(2, {(0, 0): 0.5, (1, 1): 0.5})})
        with pytest.raises(InapplicableError):
            run_cosphericity(system)
        assert cosphericity_report(system).verdict == "inapplicable"

    def test_zero_variance_subdesigns_are_skipped(self):
        design = cosphericity_system().design
        system = System(
            design,
            {t: JointPmf(2, {(0, 0): 1.0}) for t in design.treatments},
        )
        assert run_cosphericity(system) == []
        assert cosphericity_report(system).verdict == "inapplicable"

    def test_partial_3x3_design_matches_a_brute_force_scan(self):
        rng = np.random.default_rng(3)
        levels = (1, 2, 3)
        dropped = {(1, 1), (3, 3)}
        design = Design(
            (InputSpec("l1", levels), InputSpec("l2", levels)),
            (
                OutputSpec("A1", (0, 1), (0.0, 1.0)),
                OutputSpec("A2", (0, 1), (0.0, 1.0)),
            ),
            tuple(t for t in itertools.product(levels, levels) if t not in dropped),
        )
        keys = list(itertools.product((0, 1), (0, 1)))
        system = System(
            design,
            {
                t: JointPmf(2, dict(zip(keys, map(float, rng.dirichlet(np.ones(4))))))
                for t in design.treatments
            },
        )
        expected = []
        for k, kp in itertools.permutations(range(2), 2):
            for i, ip in itertools.combinations(levels, 2):
                for j, jp in itertools.combinations(levels, 2):
                    found = [
                        [t for t in design.treatments if t[k] == a and t[kp] == b]
                        for a, b in itertools.product((i, ip), (j, jp))
                    ]
                    if all(found):
                        expected.append(((k, kp, i, ip, j, jp), [f[0] for f in found]))
        assert expected and len(expected) < 2 * 3 * 3  # some sub-designs drop out
        subdesigns, _, cells = _crossed_subdesigns(design.index)
        table = [
            ((*sub[:2], *(levels[i] for i in sub[2:])), [design.treatments[b] for b in row])
            for sub, row in zip(subdesigns, cells)
        ]
        assert table == expected
        results = run_cosphericity(system)
        assert [r.subdesign for r in results] == [sub for sub, _ in expected]
        for r, (sub, cells) in zip(results, expected):
            k, kp = sub[:2]
            rho = tuple(
                correlation(marginalize(system.pmf(t), (k, kp)), _ident, _ident)
                for t in cells
            )
            assert r.rho == rho

    def test_affine_payload_changes_leave_verdicts_alone(self):
        base = cosphericity_system()
        design = base.design
        for a, b in ((2.0, 3.0), (0.5, -1.0), (10.0, 0.0)):
            outputs = tuple(
                OutputSpec(
                    out.name,
                    out.values,
                    tuple(a * x + b for x in out.numeric),
                )
                for out in design.outputs
            )
            scaled = System(
                Design(design.inputs, outputs, design.treatments),
                {t: base.pmf(t) for t in design.treatments},
            )
            before = run_cosphericity(base)
            after = run_cosphericity(scaled)
            for r1, r2 in zip(before, after):
                assert r1.passed == r2.passed
                assert r1.lhs == pytest.approx(r2.lhs, abs=1e-9)
                assert r1.rhs == pytest.approx(r2.rhs, abs=1e-9)

    def test_nonlinear_payload_change_flips_the_fixture(self):
        """Non-invariance regression: pass before the squash, fail after."""
        assert cosphericity_report(cosphericity_system()).verdict == "consistent"
        squashed = apply_transform(cosphericity_system(), squash_five_transform())
        assert cosphericity_report(squashed).verdict == "ruled-out"

    def test_feasible_bivariate_systems_pass_everywhere(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 12:
            system = random_selective_system(
                rng, max_inputs=2, column_cap=400, allow_partial=False
            )
            if system.design.n != 2:
                continue
            assert solve_feasibility(build_feasibility_system(system)).feasible
            report = cosphericity_report(system)
            assert report.verdict in ("consistent", "inapplicable"), report
            checked += 1


# ------------------------------------------------- the report on the arrays


def reference_cosphericity_report(system, eps_test=EPS_COSPHERICAL):
    """The report as a scan of ``run_cosphericity``'s list: the worst failing
    result by ``max``, the flagged results counted one by one."""
    from selinf.report import TestReport

    name = "cosphericity"
    try:
        results = run_cosphericity(system, eps_test)
    except InapplicableError as exc:
        return TestReport(name, "inapplicable", str(exc))
    if not results:
        return TestReport(
            name, "inapplicable", "no sub-design with numeric payloads and nonzero variance"
        )
    failing = [r for r in results if not r.passed]
    if failing:
        worst = max(failing, key=lambda r: r.lhs - r.rhs)
        return TestReport(
            name,
            "ruled-out",
            f"{worst.lhs:.4f} > {worst.rhs:.4f} on sub-design {worst.subdesign}",
            witness=worst,
            details={"results": results},
        )
    flagged = sum(r.boundary for r in results)
    summary = f"all {len(results)} sub-designs pass"
    if flagged:
        summary += f" ({flagged} within tolerance of the bound)"
    return TestReport(name, "consistent", summary, details={"results": results})


def latent_4x4(rng, n_latent=5):
    """A latent system on two 4-level inputs with 3-valued numeric outputs."""
    from selinf import LatentModel, generate_system

    levels = (1, 2, 3, 4)
    design = Design(
        (InputSpec("l1", levels), InputSpec("l2", levels)),
        tuple(OutputSpec(f"A{k}", (0, 1, 2), (0.0, 1.0, 3.0)) for k in (1, 2)),
        tuple(itertools.product(levels, levels)),
    )
    latent = JointPmf(1, {(r,): float(p) for r, p in enumerate(rng.dirichlet(np.ones(n_latent)))})
    responses = tuple(
        {(level, r): int(rng.integers(3)) for level in levels for r in range(n_latent)}
        for _ in range(2)
    )
    return generate_system(design, LatentModel(latent, responses))


def squashed_tie_system():
    """The squashed fixture fails both orientations of its one sub-design by
    exactly the same lhs - rhs."""
    return apply_transform(cosphericity_system(), squash_five_transform())


def report_cases():
    from selinf import generate_battery
    from test_array_screens import near_degenerate_system, pr_mixture, seeded_systems

    rng = np.random.default_rng(77)
    systems = seeded_systems(15, count=10)
    systems += [random_selective_system(rng, column_cap=3000, allow_partial=True) for _ in range(8)]
    systems += [latent_4x4(rng) for _ in range(3)]
    products = [pr_mixture(s, w) for s in systems[:12] if s.design.n >= 2 for w in (0.8, 1.0)]
    systems += products
    members = [
        apply_transform(s, spec)
        for s in systems[:: 3]
        for spec in generate_battery(s.design, 3, 3, seed=len(s.design.treatments))
    ]
    zero_variance = [
        near_degenerate_system(q, scale, unobserved)
        for q in (0.0, 1e-20, 0.25)
        for scale, unobserved in ((1.0, False), (1e3, False), (1.0, True))
    ]
    design = cosphericity_system().design
    zero_variance.append(
        System(design, {t: JointPmf(2, {(0, 0): 1.0}) for t in design.treatments})
    )
    # both outputs equal everywhere: rho = 1 and lhs = rhs = 0, flagged as on the bound
    on_bound = System(
        design, {t: JointPmf(2, {(0, 0): 0.5, (1, 1): 0.5}) for t in design.treatments}
    )
    return systems + members + zero_variance + [
        squashed_tie_system(), cosphericity_system(), on_bound
    ]


class TestReportOnArrays:
    def test_report_matches_the_list_based_reference(self):
        verdicts, flagged = set(), False
        for system in report_cases():
            expected = reference_cosphericity_report(system)
            report = cosphericity_report(system)
            verdicts.add(report.verdict)
            flagged = flagged or "within tolerance of the bound" in report.summary
            assert (report.verdict, report.summary) == (expected.verdict, expected.summary)
            assert repr(report.witness) == repr(expected.witness)
            if "results" not in expected.details:
                assert report.details == expected.details == {}
                continue
            results, listed = report.details["results"], expected.details["results"]
            assert len(results) == len(listed)
            assert list(results) == listed == run_cosphericity(system)
            assert repr(list(results)) == repr(listed)
        assert verdicts == {"consistent", "ruled-out", "inapplicable"}
        assert flagged

    def test_tied_failures_give_the_first_as_witness(self):
        system = squashed_tie_system()
        first, second = run_cosphericity(system)
        assert not first.passed and not second.passed
        assert first.lhs - first.rhs == second.lhs - second.rhs
        assert first.subdesign != second.subdesign
        assert cosphericity_report(system).witness == first

    def test_only_the_witness_is_built_until_results_are_read(self, monkeypatch):
        import selinf.cosphericity as cosphericity

        built = []
        original = cosphericity.CosphericityResult.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["subdesign"])
            original(self, *args, **kwargs)

        consistent = latent_4x4(np.random.default_rng(4))
        ruled_out = squashed_tie_system()
        expected = {s: run_cosphericity(s) for s in (consistent, ruled_out)}
        monkeypatch.setattr(cosphericity.CosphericityResult, "__init__", counting)

        report = cosphericity_report(consistent)
        assert report.verdict == "consistent" and built == []
        results = report.details["results"]
        assert len(results) == len(expected[consistent]) == 72 and built == []
        assert results[0] == expected[consistent][0]
        assert len(built) == 72
        assert list(results) == expected[consistent] and results[-1] == expected[consistent][-1]
        assert len(built) == 72  # built once and kept

        built.clear()
        report = cosphericity_report(ruled_out)
        assert report.verdict == "ruled-out" and len(built) == 1
        assert report.witness == expected[ruled_out][0]

    def test_results_compare_and_print_as_the_list(self):
        system = latent_4x4(np.random.default_rng(8))
        results = cosphericity_report(system).details["results"]
        listed = run_cosphericity(system)
        assert results == listed and listed == results
        assert results == cosphericity_report(system).details["results"]
        assert results != listed[:-1]
        assert repr(results) == repr(listed)
        assert results[1:3] == listed[1:3] and results.index(listed[2]) == 2
        assert not isinstance(results, (list, tuple))
        with pytest.raises(TypeError):
            results[0] = listed[0]
