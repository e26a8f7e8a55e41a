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
from selinf.model import treatment_index
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
        subdesigns, _, cells = _crossed_subdesigns(treatment_index(design))
        table = [(sub, [design.treatments[b] for b in row]) for sub, row in zip(subdesigns, cells)]
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
