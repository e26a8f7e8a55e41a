"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


@pytest.fixture(autouse=True)
def private_out(tmp_path, monkeypatch):
    """Keep the exact-repeat store of these runs out of perfbench/.out."""
    monkeypatch.setattr(harness, "OUT", str(tmp_path / "out"))


def test_lp_oracle_flags_a_wrong_expected_verdict():
    items = wl.lp_items(5, 4)
    assert wl.lp_oracle(items) == set()
    assert all(wl.run_lp(item)[0] for item in items)
    items[1].expected = not items[1].expected
    assert wl.lp_oracle(items) == {1}
    assert not wl.run_lp(items[1])[0]


def test_cli_check_flags_a_wrong_expected_outcome(tmp_path):
    items = wl.cli_items(5, 10, str(tmp_path))
    outputs = [wl.run_cli(item) for item in items]
    assert all(wl.cli_check(item, *out) for item, out in zip(items, outputs))
    ruled_out = next(i for i, item in enumerate(items) if item.expected["exit"] == 1)
    items[ruled_out].expected["exit"] = 0
    assert not wl.cli_check(items[ruled_out], *outputs[ruled_out])
    rt = next(i for i, item in enumerate(items) if "label" in item.expected)
    items[rt].expected["label"] = "no-such-rule"
    assert not wl.cli_check(items[rt], *outputs[rt])


def test_screen_verdicts_and_a_wrong_expectation():
    items = wl.screen_items(5, 8, members=2)
    assert {item.expected for item in items} == {True, False}
    assert all(wl.run_screen(item)[0] for item in items)
    items[0].expected = not items[0].expected
    assert not wl.run_screen(items[0])[0]


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(name):
    plain = harness.run_workload(name, 3, 0.0, False, pool=8)
    traced = harness.run_workload(name, 3, 0.0, True, pool=8)
    assert plain["correct"] and traced["correct"], (plain["error"], traced["error"])
    assert plain["failed"] == traced["failed"] == 0
    for spec in BENCH["end_to_end"]:
        value, unit = plain["end_to_end"][spec["name"]]
        assert unit == spec["unit"] and value > 0
    assert set(traced["per_layer"]) == {spec["name"] for spec in BENCH["per_layer"]}
    for spec in BENCH["per_layer"]:
        assert traced["per_layer"][spec["name"]][1] == spec["unit"]
    assert plain["counts"] == {k: v for k, v in traced["counts"].items() if k in plain["counts"]}


def test_exact_repeat_counts_are_stored_and_checked():
    first = harness.run_workload("lp_criterion", 4, 0.0, False, pool=4)
    again = harness.run_workload("lp_criterion", 4, 0.0, False, pool=4)
    assert first["counts"] == again["counts"] and again["repeat_ok"]
    (path,) = [
        os.path.join(d, f) for d, _, files in os.walk(harness.OUT) for f in files
    ]
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    stored["feasibility.iterations"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    tampered = harness.run_workload("lp_criterion", 4, 0.0, False, pool=4)
    assert tampered["repeat_mismatches"] == ["feasibility.iterations"]
    assert not tampered["correct"]


def test_command_prints_the_result_line():
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "cli_mixed", "--seed", "2", "--seconds", "0.2",
                            "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {spec["name"] for spec in BENCH["end_to_end"]}


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "lp_criterion", "--seed", "1", "--seconds", "1",
                            "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
