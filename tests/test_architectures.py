"""Interaction contrasts, composition oracles, and architecture labels."""

import itertools

import numpy as np
import pytest

from fixtures import random_rt_setup
from selinf import (
    Design,
    InputSpec,
    JointPmf,
    LatentModel,
    OutputSpec,
    RtSystem,
    UsageError,
    classify_architecture,
    compose_rt,
    interaction_contrast,
    jump_points,
)
from selinf.architectures import bracketing_grid


def _rt_design(low1, high1, low2, high2):
    """Two-process design with explicit per-latent-value durations."""
    n = len(low1)
    values1 = tuple(sorted({*map(float, low1), *map(float, high1)}))
    values2 = tuple(sorted({*map(float, low2), *map(float, high2)}))
    design = Design(
        (InputSpec("l1", (1, 2)), InputSpec("l2", (1, 2))),
        (
            OutputSpec("T1", values1, values1),
            OutputSpec("T2", values2, values2),
        ),
        tuple(itertools.product((1, 2), (1, 2))),
    )
    responses = (
        {(1, r): float(low1[r]) for r in range(n)}
        | {(2, r): float(high1[r]) for r in range(n)},
        {(1, r): float(low2[r]) for r in range(n)}
        | {(2, r): float(high2[r]) for r in range(n)},
    )
    return design, responses


def _oracle_cdfs(model, g, rule, grid):
    """Brute-force reference: count latent mass at or below each grid point."""
    comp = {"plus": lambda a, b: a + b, "min": min, "max": max}[rule]
    cdfs = {}
    for i in (1, 2):
        for j in (1, 2):
            values = []
            for t in grid:
                total = 0.0
                for (r,), mass in model.latent.items():
                    if comp(g[0][(i, r)], g[1][(j, r)]) <= t:
                        total += mass
                values.append(total)
            cdfs[(i, j)] = values
    return cdfs


class TestInteractionContrast:
    def test_identical_cdfs_cancel(self):
        grid = np.array([0.0, 1.0, 2.0, 3.0])
        cdf = np.array([0.0, 0.3, 0.8, 1.0])
        rt = RtSystem(grid, {key: cdf for key in [(1, 1), (1, 2), (2, 1), (2, 2)]})
        profile = interaction_contrast(rt)
        assert np.all(profile.c == 0.0)
        assert np.all(profile.cumulative == 0.0)
        assert classify_architecture(rt) == {"parallel-OR", "parallel-AND", "serial"}

    def test_min_composition_contrast_is_nonpositive(self):
        design, responses = _rt_design(
            low1=(1.0, 2.0, 4.0),
            high1=(3.0, 5.0, 4.5),
            low2=(2.0, 1.0, 6.0),
            high2=(2.5, 6.0, 7.0),
        )
        latent = JointPmf(1, {(0,): 0.5, (1,): 0.3, (2,): 0.2})
        model = LatentModel(latent, responses)
        grid = bracketing_grid(jump_points(design, model, "min"))
        rt = compose_rt(design, model, "min", grid)
        profile = interaction_contrast(rt)
        assert profile.c.max() <= 1e-12
        assert "parallel-OR" in classify_architecture(rt, 1e-12)

    def test_plus_composition_integrates_to_zero(self):
        design, responses = _rt_design(
            low1=(1.0, 2.0, 4.0),
            high1=(3.0, 5.0, 4.5),
            low2=(2.0, 1.0, 6.0),
            high2=(2.5, 6.0, 7.0),
        )
        latent = JointPmf(1, {(0,): 0.5, (1,): 0.3, (2,): 0.2})
        model = LatentModel(latent, responses)
        grid = bracketing_grid(jump_points(design, model, "plus"))
        rt = compose_rt(design, model, "plus", grid)
        profile = interaction_contrast(rt)
        assert profile.cumulative.min() >= -1e-12
        assert abs(profile.total) <= 1e-12
        assert "serial" in classify_architecture(rt, 1e-12)


class TestComposeRt:
    def test_single_latent_plus_gives_step_cdfs(self):
        design, responses = _rt_design((2.0,), (3.0,), (1.0,), (5.0,))
        model = LatentModel(JointPmf(1, {(0,): 1.0}), responses)
        grid = np.array([0.0, 2.9, 3.0, 4.0, 7.9, 8.0, 9.0])
        rt = compose_rt(design, model, "plus", grid)
        # T_11 jumps at 2+1=3, T_22 at 3+5=8.
        assert rt.cdfs[(1, 1)] == pytest.approx([0, 0, 1, 1, 1, 1, 1])
        assert rt.cdfs[(2, 2)] == pytest.approx([0, 0, 0, 0, 0, 1, 1])

    def test_uniform_two_value_min_is_nonpositive(self):
        design, responses = _rt_design((1.0, 4.0), (2.0, 6.0), (1.5, 3.0), (5.0, 3.5))
        model = LatentModel(JointPmf(1, {(0,): 0.5, (1,): 0.5}), responses)
        grid = bracketing_grid(jump_points(design, model, "min"))
        rt = compose_rt(design, model, "min", grid)
        assert interaction_contrast(rt).c.max() <= 1e-12

    def test_case_two_arrangement_min_contrast_is_minus_one_band(self):
        # Single latent value with g1_low <= g2_low <= g1_high <= g2_high.
        g1_low, g2_low, g1_high, g2_high = 1.0, 2.0, 4.0, 6.0
        design, responses = _rt_design((g1_low,), (g1_high,), (g2_low,), (g2_high,))
        model = LatentModel(JointPmf(1, {(0,): 1.0}), responses)
        grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.999, 4.0, 5.0, 6.0, 7.0])
        rt = compose_rt(design, model, "min", grid)
        profile = interaction_contrast(rt)
        for t, c in zip(grid, profile.c):
            if g2_low <= t < g1_high:
                assert c == -1.0
            else:
                assert c == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            design, model = random_rt_setup(rng)
            g = (
                {
                    (i, r): design.outputs[0].numeric_value(model.respond(0, i, r))
                    for i in (1, 2)
                    for r in model.latent_values()
                },
                {
                    (j, r): design.outputs[1].numeric_value(model.respond(1, j, r))
                    for j in (1, 2)
                    for r in model.latent_values()
                },
            )
            for rule in ("plus", "min", "max"):
                grid = bracketing_grid(jump_points(design, model, rule))
                rt = compose_rt(design, model, rule, grid)
                oracle = _oracle_cdfs(model, g, rule, grid)
                for key in rt.cdfs:
                    assert rt.cdfs[key] == pytest.approx(oracle[key], abs=1e-12)

    def test_prolongation_violation_names_the_latent_value(self):
        design, responses = _rt_design((5.0,), (3.0,), (1.0,), (2.0,))
        model = LatentModel(JointPmf(1, {(0,): 1.0}), responses)
        with pytest.raises(UsageError, match="latent value 0"):
            compose_rt(design, model, "min", np.array([0.0, 1.0]))

    def test_negative_duration_is_usage_error(self):
        design, responses = _rt_design((-1.0,), (3.0,), (1.0,), (2.0,))
        model = LatentModel(JointPmf(1, {(0,): 1.0}), responses)
        with pytest.raises(UsageError, match="negative duration"):
            compose_rt(design, model, "min", np.array([0.0, 1.0]))


class TestSignSuite:
    def test_randomized_sign_properties(self):
        rng = np.random.default_rng(52)
        for _ in range(40):
            design, model = random_rt_setup(rng)
            jumps = np.concatenate(
                [jump_points(design, model, rule) for rule in ("plus", "min", "max")]
            )
            grid = bracketing_grid(jumps)
            c_min = interaction_contrast(compose_rt(design, model, "min", grid))
            assert c_min.c.max() <= 1e-12
            c_max = interaction_contrast(compose_rt(design, model, "max", grid))
            assert c_max.c.min() >= -1e-12
            c_plus = interaction_contrast(compose_rt(design, model, "plus", grid))
            assert c_plus.cumulative.min() >= -1e-12
            assert abs(c_plus.total) <= 1e-12

    def test_contrast_is_mixture_linear_in_the_latent_pmf(self):
        rng = np.random.default_rng(53)
        design, model = random_rt_setup(rng, max_latent=4)
        values = model.latent_values()
        if len(values) < 2:
            values = values * 2
        p = rng.dirichlet(np.ones(len(set(values))))
        q = rng.dirichlet(np.ones(len(set(values))))
        alpha = 0.3
        support = sorted(set(values))
        pmf_p = JointPmf(1, {(r,): float(m) for r, m in zip(support, p)})
        pmf_q = JointPmf(1, {(r,): float(m) for r, m in zip(support, q)})
        pmf_mix = JointPmf(
            1,
            {
                (r,): alpha * pmf_p.mass((r,)) + (1 - alpha) * pmf_q.mass((r,))
                for r in support
            },
        )
        grid = bracketing_grid(
            jump_points(design, LatentModel(pmf_mix, model.responses), "min")
        )
        profiles = {}
        for name, pmf in (("p", pmf_p), ("q", pmf_q), ("mix", pmf_mix)):
            rt = compose_rt(design, LatentModel(pmf, model.responses), "min", grid)
            profiles[name] = interaction_contrast(rt)
        blended_c = alpha * profiles["p"].c + (1 - alpha) * profiles["q"].c
        assert profiles["mix"].c == pytest.approx(blended_c, abs=1e-12)
        blended_cum = (
            alpha * profiles["p"].cumulative + (1 - alpha) * profiles["q"].cumulative
        )
        assert profiles["mix"].cumulative == pytest.approx(blended_cum, abs=1e-12)

    def test_specific_noise_preserves_sign_properties(self):
        """Adding independent per-process noise keeps all three signatures."""
        rng = np.random.default_rng(54)
        for _ in range(10):
            design, model = random_rt_setup(rng, max_latent=3)
            noise1 = rng.uniform(0.0, 2.0, size=2)
            noise2 = rng.uniform(0.0, 2.0, size=2)
            weights = rng.dirichlet(np.ones(4))
            base_values = model.latent_values()
            aug_values = [
                (r, u1, u2) for r in base_values for u1 in (0, 1) for u2 in (0, 1)
            ]
            aug_latent = JointPmf(
                1,
                {
                    ((r, u1, u2),): float(
                        model.latent.mass((r,)) * weights[2 * u1 + u2]
                    )
                    for r, u1, u2 in aug_values
                },
            )
            durations: list[dict] = [{}, {}]
            out_values: list[set] = [set(), set()]
            for k, noise in ((0, noise1), (1, noise2)):
                for level in (1, 2):
                    for r, u1, u2 in aug_values:
                        u = (u1, u2)[k]
                        base = design.outputs[k].numeric_value(
                            model.respond(k, level, r)
                        )
                        d = base + float(noise[u])
                        durations[k][(level, (r, u1, u2))] = d
                        out_values[k].add(d)
            outputs = tuple(
                OutputSpec(
                    f"T{k+1}", tuple(sorted(out_values[k])), tuple(sorted(out_values[k]))
                )
                for k in (0, 1)
            )
            aug_design = Design(design.inputs, outputs, design.treatments)
            aug_model = LatentModel(aug_latent, tuple(durations))
            jumps = np.concatenate(
                [
                    jump_points(aug_design, aug_model, rule)
                    for rule in ("plus", "min", "max")
                ]
            )
            grid = bracketing_grid(jumps)
            c_min = interaction_contrast(compose_rt(aug_design, aug_model, "min", grid))
            assert c_min.c.max() <= 1e-12
            c_max = interaction_contrast(compose_rt(aug_design, aug_model, "max", grid))
            assert c_max.c.min() >= -1e-12
            c_plus = interaction_contrast(
                compose_rt(aug_design, aug_model, "plus", grid)
            )
            assert c_plus.cumulative.min() >= -1e-12
            assert abs(c_plus.total) <= 1e-12


class TestClassify:
    def test_min_and_max_fixtures_carry_their_labels(self):
        rng = np.random.default_rng(55)
        design, model = random_rt_setup(rng)
        grid = bracketing_grid(
            np.concatenate(
                [jump_points(design, model, rule) for rule in ("min", "max", "plus")]
            )
        )
        assert "parallel-OR" in classify_architecture(
            compose_rt(design, model, "min", grid), 1e-12
        )
        assert "parallel-AND" in classify_architecture(
            compose_rt(design, model, "max", grid), 1e-12
        )
        assert "serial" in classify_architecture(
            compose_rt(design, model, "plus", grid), 1e-12
        )

    def test_truncated_grid_skips_the_total_condition(self):
        design, responses = _rt_design((1.0,), (2.0,), (1.5,), (3.0,))
        model = LatentModel(JointPmf(1, {(0,): 1.0}), responses)
        full = bracketing_grid(jump_points(design, model, "plus"))
        truncated = full[full <= 3.2]  # cuts off before the last jump (5.0)
        rt = compose_rt(design, model, "plus", truncated)
        assert not rt.covers_support()
        labels = classify_architecture(rt, 1e-12)
        assert "serial" in labels  # cumulative stays nonnegative; total unchecked

    def test_grid_validation(self):
        with pytest.raises(UsageError, match="strictly increasing"):
            RtSystem(
                np.array([0.0, 0.0, 1.0]),
                {k: np.zeros(3) for k in [(1, 1), (1, 2), (2, 1), (2, 2)]},
            )
        with pytest.raises(UsageError, match="nondecreasing"):
            RtSystem(
                np.array([0.0, 1.0, 2.0]),
                {
                    k: np.array([0.5, 0.2, 1.0])
                    for k in [(1, 1), (1, 2), (2, 1), (2, 2)]
                },
            )

    def test_non_finite_grid_or_cdf_is_usage_error(self):
        keys = [(1, 1), (1, 2), (2, 1), (2, 2)]
        for bad in (np.nan, np.inf):
            with pytest.raises(UsageError, match=f"grid has non-finite point {bad}"):
                RtSystem(np.array([0.0, 1.0, bad]), {k: np.array([0.0, 1.0, 1.0]) for k in keys})
        for bad in (np.nan, np.inf, -np.inf):
            cdfs = {k: np.array([0.0, 0.5, 1.0]) for k in keys}
            cdfs[(2, 1)] = np.array([0.0, bad, 1.0])
            with pytest.raises(UsageError, match=rf"cdf \(2, 1\): non-finite value {bad}"):
                RtSystem(np.array([0.0, 1.0, 2.0]), cdfs)
