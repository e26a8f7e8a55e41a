"""CLI contract: exit codes, report determinism, round-trips, parsing."""

import itertools
import json
import warnings

import numpy as np
import pytest

from fixtures import (
    d1_system,
    eight_output_system,
    feasible_binary_system,
    marginal_violation_system,
    pr_box_system,
)
from selinf.cli import build_parser, main
from selinf.io import rt_from_dict, system_from_dict, system_to_dict
from selinf import UsageError, check_marginal_selectivity, lp_report, run_distance_test
from selinf import Design, InputSpec, OutputSpec, System
from selinf import PowerMetric


def write_system(tmp_path, system, name="system.json", extra=None):
    doc = system_to_dict(system)
    if extra:
        doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_lp_on_feasible_system_exits_zero(tmp_path, capsys):
    path = write_system(tmp_path, feasible_binary_system())
    code = main([path, "--tests", "lp", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["schema"] == "selinf-report/1"
    (lp,) = out["tests"]
    assert lp["verdict"] == "consistent"
    assert lp["witness"]["residual"] <= 1e-8
    assert sum(entry["p"] for entry in lp["witness"]["q"]) == pytest.approx(1.0, abs=1e-8)


def test_pr_box_marginal_passes_lp_fails_exit_one(tmp_path, capsys):
    path = write_system(tmp_path, pr_box_system())
    code = main([path, "--tests", "marginal,lp,fine", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    verdicts = {t["name"]: t["verdict"] for t in out["tests"]}
    assert verdicts["marginal"] == "consistent"
    assert verdicts["lp"] == "ruled-out"
    assert verdicts["fine"] == "ruled-out"
    fine = next(t for t in out["tests"] if t["name"] == "fine")
    assert fine["witness"] == {
        "i": 1, "i_prime": 2, "j": 1, "j_prime": 2, "value": -0.5, "bound": "lower", "excess": 0.5
    }


def test_empty_treatments_exit_two(tmp_path, capsys):
    doc = system_to_dict(feasible_binary_system())
    doc["treatments"] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main([str(path)])
    assert code == 2
    assert "treatment" in capsys.readouterr().err


def test_a_mass_sum_past_the_float_range_exit_two_without_a_warning(tmp_path, capsys):
    """At treatment (2,) two finite masses of 1e308 sum past the float range."""
    design = Design((InputSpec("x", (1, 2)),), (OutputSpec("A", ("a", "b")),), ((1,), (2,)))
    path = write_system(tmp_path, System.from_array(design, np.array([[0.5, 0.5], [1e308, 1e308]])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([path])
    assert code == 2
    assert capsys.readouterr().err == "error: treatment (2,): mass sum inf != 1\n"
    assert caught == []


def test_malformed_json_exit_two_with_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"inputs": [,]}')
    code = main([str(path)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def _set(*path_and_value):
    """Edit that sets doc[path...] = value, creating nothing."""
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return edit


def _drop(*path):
    """Edit that deletes doc[path...]."""
    *path, key = path

    def edit(doc):
        for step in path:
            doc = doc[step]
        del doc[key]

    return edit


def _rt_only(doc):
    """Edit that replaces the document with an rt block alone."""
    doc.clear()
    cdfs = {f"{i},{j}": [0.0, 0.5, 1.0] for i in (1, 2) for j in (1, 2)}
    doc["rt"] = {"grid": [0.0, 1.0, 2.0], "cdfs": cdfs}


@pytest.mark.parametrize(
    "edit, where",
    [
        (_set("inputs", 5), "inputs"),
        (_set("outputs", 0, "values", 5), "outputs[0].values"),
        (_set("inputs", 0, "levels", [[1], [2]]), "inputs[0].levels[0]"),
        (_set("inputs", 0, "name", ["l1"]), "inputs[0].name"),
        (_set("rt", 5), "rt"),
        (_set("rt", {"grid": [0, 1], "cdfs": [[0, 1]]}), "rt.cdfs"),
        (_set("treatments", 0, "pmf", 0, "tuple", 5), "treatments[0].pmf[0].tuple"),
        (_set("treatments", 1, "pmf", 0, "p", "nan"), "treatments[1].pmf[0].p"),
        (_set("treatments", 1, "pmf", 0, "p", "inf"), "treatments[1].pmf[0].p"),
        (_set("treatments", 1, "pmf", 0, "p", float("nan")), "treatments[1].pmf[0].p"),
        (_set("treatments", 1, "pmf", 0, "p", "1e400"), "treatments[1].pmf[0].p"),
        (
            _set("treatments", 0, "pmf", 0, "p", 10**400),
            "treatments[0].pmf[0].p: non-finite probability inf",
        ),
        (_drop("treatments", 0, "pmf"), "treatments[0]"),
        (_drop("inputs", 0, "levels"), "inputs[0]: need 'name' and 'levels'"),
        (_drop("treatments", 0, "levels", "l2"), "treatments[0].levels"),
        (_set("outputs", 0, "values", 0, "numeric", "x"), "outputs[0].values[0].numeric"),
        (_set("outputs", 0, "values", 1, "numeric", "nan"), "outputs[0].values[1].numeric"),
        (_set("outputs", 1, "values", 1, "numeric", "1e400"), "outputs[1].values[1].numeric"),
        (
            _set("outputs", 0, "values", 0, "numeric", -10**400),
            "outputs[0].values[0].numeric: output 'A1': non-finite payload -inf",
        ),
        (_set("outputs", 0, "values", []), "outputs[0].values: output 'A1' needs at least one value"),
        (_set("outputs", 1, "values", [1, True]), "outputs[1].values: output 'A2' has duplicate values"),
        (_set("inputs", 0, "levels", []), "inputs[0].levels: input 'l1' needs at least one level"),
        (_set("inputs", 1, "levels", [1, 1]), "inputs[1].levels: input 'l2' has duplicate levels"),
        (_set("treatments", []), "treatments: at least one allowable treatment is required"),
    ],
)
def test_malformed_document_exit_two_with_path(tmp_path, capsys, edit, where):
    doc = system_to_dict(feasible_binary_system())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    where, _, message = where.partition(": ")
    assert captured.err.startswith(f"error: {where}: ")
    assert captured.err.count("\n") == 1
    message = message or PINNED_MESSAGES.get(where)
    if message:
        assert captured.err == f"error: {where}: {message}\n"


#: The whole message after the path, for the cases whose ``where`` does not
#: carry it after a ": ".
PINNED_MESSAGES = {
    "outputs[0].values[0].numeric": "cannot parse 'x' as a number",
    "outputs[0].values[1].numeric": "output 'A1': non-finite payload nan",
    "outputs[1].values[1].numeric": "output 'A2': non-finite payload inf",
}


def test_unknown_test_name_exit_two(tmp_path, capsys):
    path = write_system(tmp_path, feasible_binary_system())
    assert main([path, "--tests", "nonsense"]) == 2
    assert "unknown tests" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, args, message",
    [
        (None, ["--metric", "power:q=1"], "--metric: unknown power option 'q'"),
        (None, ["--metric", "power:p=abc"], "--metric: bad exponent 'abc'"),
        (
            None,
            ["--metric", "euclid"],
            "--metric: expected 'power:p=<x>' or 'class:<spec>', got 'euclid'",
        ),
        (
            None,
            ["--metric", "class:0|2,4"],
            "--metric class: expected 2 partitions (outputs), got 1",
        ),
        (_rt_only, ["--metric", "class:0|2,4;0|1,2"], "--metric class requires a system input"),
        (_rt_only, ["--dump-matrix", "{tmp}/matrix.txt"], "--dump-matrix needs a system input"),
        (_rt_only, ["--tests", "marginal"], "test 'marginal' needs a system input"),
        (_rt_only, ["--tests", "contrast,distance,fine"], "test 'fine' needs a system input"),
        (None, ["--tests", ","], "at least one test must be selected"),
        (None, ["--tests", "marginal", "--marginal-max-subset", "2"], "max_subset_size must be in [1, 1]"),
        (_drop("outputs", 1), [], "inputs and outputs must have equal length (index-paired)"),
        (_drop("outputs"), [], "missing top-level key 'outputs'"),
        (
            None,
            ["--metric", "powerful"],
            "--metric: expected 'power:p=<x>' or 'class:<spec>', got 'powerful'",
        ),
        (
            None,
            ["--metric", "power_typo:p=0.5"],
            "--metric: expected 'power:p=<x>' or 'class:<spec>', got 'power_typo:p=0.5'",
        ),
    ],
)
def test_usage_error_exit_two_with_one_message(tmp_path, capsys, edit, args, message):
    doc = system_to_dict(d1_system())
    if edit:
        edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), *(a.format(tmp=tmp_path) for a in args)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_a_marginal_test_over_the_byte_cap_exit_two(tmp_path, capsys):
    path = write_system(tmp_path, eight_output_system())
    assert main([path, "--tests", "marginal"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the marginal test's comparison index needs 1585971200 bytes, over "
        "ARRAY_BYTE_CAP (1073741824); lower max_subset_size (--marginal-max-subset) "
        "or group output values\n"
    )
    assert main([path, "--tests", "marginal", "--marginal-max-subset", "2"]) == 0


def test_missing_input_file_exit_two(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: No such file or directory\n"


@pytest.mark.parametrize(
    "flag, value",
    itertools.product(
        ("--eps-prob", "--eps-test", "--eps-lp", "--eps-cospherical"),
        ("0", "-1", "nan", "inf"),
    ),
    ids=lambda x: x,
)
def test_invalid_tolerance_exit_two(tmp_path, capsys, flag, value):
    # The band fixture is ruled out, so a tolerance that slipped through
    # would exit 1 rather than 2.
    path = write_system(tmp_path, d1_system())
    assert main([path, flag, value]) == 2
    assert f"error: {flag} must be positive and finite" in capsys.readouterr().err


def test_negative_seed_exit_two(tmp_path, capsys):
    path = write_system(tmp_path, d1_system())
    assert main([path, "--tests", "battery", "--seed", "-1"]) == 2
    assert "error: --seed must be non-negative" in capsys.readouterr().err


def test_dump_matrix_to_missing_directory_exit_two(tmp_path, capsys):
    path = write_system(tmp_path, d1_system())
    target = tmp_path / "missing" / "matrix.txt"
    assert main([path, "--tests", "lp", "--dump-matrix", str(target)]) == 2
    assert f"error: {target}: " in capsys.readouterr().err


def _off_by_5e_7(tmp_path):
    """The band fixture with 5e-7 extra mass in one cell of its first treatment."""
    doc = system_to_dict(d1_system())
    doc["treatments"][0]["pmf"][0]["p"] += 5e-7
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("tests", ["marginal", "distance", "lp"])
def test_eps_prob_governs_every_test(tmp_path, capsys, tests):
    path = _off_by_5e_7(tmp_path)
    assert main([path, "--tests", tests, "--eps-prob", "1e-6"]) in (0, 1)
    assert "verdict: " in capsys.readouterr().out
    assert main([path, "--tests", tests]) == 2
    assert "mass sum 1.0000005 != 1" in capsys.readouterr().err


def test_eps_prob_governs_the_dumped_matrix(tmp_path, capsys):
    path = _off_by_5e_7(tmp_path)
    target = tmp_path / "matrix.txt"
    argv = [path, "--tests", "marginal", "--dump-matrix", str(target)]
    assert main(argv + ["--eps-prob", "1e-6"]) in (0, 1)
    assert "H(l1=1)" in target.read_text()
    target.unlink()
    assert main(argv) == 2
    assert "mass sum 1.0000005 != 1" in capsys.readouterr().err
    assert not target.exists()


def test_marginal_witness_is_a_json_object(tmp_path, capsys):
    path = write_system(tmp_path, marginal_violation_system())
    assert main([path, "--tests", "marginal", "--format", "json"]) == 1
    (marginal,) = json.loads(capsys.readouterr().out)["tests"]
    witness = marginal["witness"]
    assert set(witness) == {"worst_subset", "worst_pair", "discrepancy", "total_variation"}
    assert witness["worst_subset"] == [1]
    assert witness["worst_pair"] == [[1, 2], [2, 2]]
    assert witness["discrepancy"] == pytest.approx(0.1, abs=1e-12)
    assert main([path, "--tests", "marginal"]) == 1
    assert capsys.readouterr().out.startswith(
        "[FAIL] marginal: worst discrepancy 0.1 on outputs (1,) between treatments (1, 2) and (2, 2)"
    )


def test_parser_is_built_once_and_parses_do_not_leak(tmp_path, capsys):
    assert build_parser() is build_parser()
    path = write_system(tmp_path, d1_system())
    main([path, "--tests", "distance", "--metric", "power:p=1", "--metric", "power:p=0.5"])
    capsys.readouterr()
    main([path, "--tests", "distance", "--format", "json"])
    (distance,) = json.loads(capsys.readouterr().out)["tests"]
    assert distance["name"] == "distance"
    assert build_parser().parse_args([path]).metric == []


def test_round_trip_preserves_verdicts(tmp_path):
    for system in (feasible_binary_system(), pr_box_system(), d1_system(), marginal_violation_system()):
        doc = system_to_dict(system)
        reparsed = system_from_dict(json.loads(json.dumps(doc)))
        assert (
            check_marginal_selectivity(reparsed).passed
            == check_marginal_selectivity(system).passed
        )
        assert lp_report(reparsed).verdict == lp_report(system).verdict
        if all(o.has_numeric for o in system.design.outputs):
            assert (
                run_distance_test(reparsed, PowerMetric(1.0)).verdict
                == run_distance_test(system, PowerMetric(1.0)).verdict
            )


def test_reports_are_byte_deterministic(tmp_path, capsys):
    path = write_system(tmp_path, d1_system())
    main([path, "--format", "json", "--seed", "7"])
    first = capsys.readouterr().out
    main([path, "--format", "json", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_dump_matrix_writes_labeled_grid(tmp_path):
    path = write_system(tmp_path, feasible_binary_system())
    target = tmp_path / "matrix.txt"
    assert main([path, "--tests", "lp", "--dump-matrix", str(target)]) == 0
    text = target.read_text()
    assert "H(l1=1)" in text
    body = [
        line
        for line in text.splitlines()
        if "|" in line and "A1=" in line
    ]
    assert len(body) == 16
    first = body[0].split("|")[1]
    assert first.split()[2:] == list("11..11..........")


def test_dump_matrix_grid_and_lp_report_do_not_depend_on_each_other(tmp_path, capsys):
    path = write_system(tmp_path, feasible_binary_system())
    with_lp, with_marginal = tmp_path / "lp.txt", tmp_path / "marginal.txt"
    assert main([path, "--tests", "lp", "--dump-matrix", str(with_lp)]) == 0
    dumped = capsys.readouterr().out
    assert main([path, "--tests", "marginal", "--dump-matrix", str(with_marginal)]) == 0
    capsys.readouterr()
    assert with_lp.read_bytes() == with_marginal.read_bytes()
    assert main([path, "--tests", "lp"]) == 0
    assert capsys.readouterr().out == dumped


def test_metric_flags(tmp_path, capsys):
    path = write_system(tmp_path, d1_system())
    code = main(
        [
            path,
            "--tests",
            "distance",
            "--metric",
            "class:0,2|4;0,1|2",
            "--format",
            "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    (distance,) = out["tests"]
    assert distance["verdict"] == "ruled-out"
    assert distance["witness"]["lhs"] == pytest.approx(0.31, abs=1e-12)

    assert main([path, "--tests", "distance", "--metric", "power:p=1"]) == 0
    capsys.readouterr()


def test_transform_battery_from_file(tmp_path, capsys):
    path = write_system(tmp_path, d1_system())
    battery = [
        {
            "name": "grouping",
            "outputs": [
                {
                    "output": "A1",
                    "values": [
                        {"label": 1, "numeric": 1},
                        {"label": 2, "numeric": 2},
                    ],
                    "map": {"0": 2, "2": 1, "4": 1},
                },
                {
                    "output": "A2",
                    "values": [
                        {"label": 1, "numeric": 1},
                        {"label": 2, "numeric": 2},
                    ],
                    "map": {"0": 2, "1": 1, "2": 1},
                },
            ],
        }
    ]
    tpath = tmp_path / "battery.json"
    tpath.write_text(json.dumps(battery))
    code = main(
        [
            path,
            "--tests",
            "battery",
            "--transforms",
            str(tpath),
            "--format",
            "json",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    (battery_report,) = out["tests"]
    assert battery_report["verdict"] == "ruled-out"


def test_transform_entry_naming_an_output_twice_exit_two(tmp_path, capsys):
    # [A1, A2] rules the band fixture out and [A1, A2'] does not: A2' must
    # not silently replace A2.
    path = write_system(tmp_path, d1_system())
    values = [{"label": 1, "numeric": 1}, {"label": 2, "numeric": 2}]
    maps = [("A1", {"0": 2, "2": 1, "4": 1}), ("A2", {"0": 2, "1": 1, "2": 1}),
            ("A2", {"0": 1, "1": 1, "2": 2})]
    battery = [{"outputs": [{"output": o, "values": values, "map": m} for o, m in maps]}]
    tpath = tmp_path / "battery.json"
    tpath.write_text(json.dumps(battery))
    assert main([path, "--tests", "battery", "--transforms", str(tpath)]) == 2
    message = "transforms[0].outputs[2]: output 'A2' already mapped at transforms[0].outputs[1]"
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, message",
    [
        (
            {"map": {"0": 1, "2": 2}},
            "transforms[0].outputs[0].map: output 'A1': value 4 unmapped at level 1",
        ),
        (
            {"maps": {"1": {"0": 1, "2": 2, "4": 2}}},
            "transforms[0].outputs[0].maps: no value map for level 2",
        ),
        (
            {"maps": {"1": {"0": 1, "2": 2, "4": 2}, "2": {"0": 1, "4": 2}}},
            "transforms[0].outputs[0].maps: output 'A1': value 2 unmapped at level 2",
        ),
        (
            {"maps": {"1": {"0": 1, "2": 2, "5": 2}}},
            "transforms[0].outputs[0].maps: unknown label '5' (declared: [0, 2, 4])",
        ),
        (
            {"map": {"0": 1, "2": 2, "4": 2}, "maps": {"1": {"0": 1}}},
            "transforms[0].outputs[0]: give 'map' or 'maps', not both",
        ),
    ],
)
def test_transform_map_that_is_not_total_exit_two_with_location(tmp_path, capsys, entry, message):
    # The band fixture is 2x2 with three values per output; each map must
    # cover every value at every level of its input.
    path = write_system(tmp_path, d1_system())
    values = [{"label": 1, "numeric": 1}, {"label": 2, "numeric": 2}]
    battery = [{"outputs": [{"output": "A1", "values": values, **entry}]}]
    tpath = tmp_path / "battery.json"
    tpath.write_text(json.dumps(battery))
    assert main([path, "--tests", "battery", "--transforms", str(tpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_empty_transforms_file_exit_two(tmp_path, capsys):
    # A battery asked for with no member is a usage error, not a vacuous pass.
    path = write_system(tmp_path, d1_system())
    tpath = tmp_path / "empty.json"
    tpath.write_text("[]")
    assert main([path, "--tests", "battery", "--transforms", str(tpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: transforms file lists no transform\n"


def test_contrast_test_via_rt_block(tmp_path, capsys):
    grid = [0.0, 1.0, 2.0, 3.0]
    flat = [0.0, 0.5, 1.0, 1.0]
    doc = {"rt": {"grid": grid, "cdfs": {f"{i},{j}": flat for i in (1, 2) for j in (1, 2)}}}
    path = tmp_path / "rt.json"
    path.write_text(json.dumps(doc))
    code = main([str(path), "--tests", "contrast", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    (contrast,) = out["tests"]
    assert contrast["verdict"] == "consistent"
    assert contrast["details"]["labels"] == ["parallel-AND", "parallel-OR", "serial"]


@pytest.mark.parametrize(
    "grid, cdfs, message",
    [
        ([0.0, 1.0, 2.0], {"1,2": [0.0, float("nan"), 1.0]}, "cdf (1, 2): non-finite value nan"),
        ([0.0, 1.0, "inf"], {}, "grid has non-finite point inf"),
        ([0.0, 1.0, 2.0], {"1, 1": [0.0, 0.5, 1.0]}, "keys '1,1' and '1, 1' name one treatment"),
        ([0.0, 1.0, "inf"], {}, "rt.grid[2]: grid has non-finite point inf"),
        ([0.0, 1.0, "x"], {}, "rt.grid[2]: cannot parse 'x' as a number"),
        ([0.0, 1.0, 2.0], {"1,2": [0.0, "inf", 1.0]}, "rt.cdfs[1,2][1]: cdf (1, 2): non-finite value inf"),
        ([0.0, 1.0, 2.0], {"2,1": ["x"]}, "rt.cdfs[2,1][0]: cannot parse 'x' as a number"),
        ([0.0, 1.0, 2.0], {"1,2": [0.0, 0.5, 1.5]}, "cdf (1, 2): values outside [0, 1]"),
        ([0.0, 1.0, 10**400], {}, "rt.grid[2]: grid has non-finite point inf"),
        ([0.0, 1.0, 2.0], {"2,1": [0.0, 10**400, 1.0]}, "rt.cdfs[2,1][1]: cdf (2, 1): non-finite value inf"),
    ],
)
def test_malformed_rt_block_exit_two(tmp_path, capsys, grid, cdfs, message):
    flat = [0.0, 0.5, 1.0]
    doc = {"rt": {"grid": grid, "cdfs": {f"{i},{j}": flat for i in (1, 2) for j in (1, 2)}}}
    doc["rt"]["cdfs"].update(cdfs)
    path = tmp_path / "rt.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), "--tests", "contrast"]) == 2
    assert message in capsys.readouterr().err


def test_contrast_without_rt_block_exit_two(tmp_path, capsys):
    path = write_system(tmp_path, feasible_binary_system())
    assert main([path, "--tests", "contrast"]) == 2


def test_default_test_selection_runs_everything_applicable(tmp_path, capsys):
    path = write_system(tmp_path, feasible_binary_system())
    code = main([path, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    names = [t["name"] for t in out["tests"]]
    assert names == ["marginal", "lp", "fine", "distance", "cosphericity"]
    verdicts = {t["name"]: t["verdict"] for t in out["tests"]}
    assert verdicts["lp"] == verdicts["fine"] == "consistent"
    # No numeric payloads on this fixture: numeric tests skip, exit stays 0.
    assert verdicts["distance"] == verdicts["cosphericity"] == "inapplicable"
    assert code == 0


def test_default_run_refutes_the_band_fixture(tmp_path, capsys):
    # The three-valued band system is not couplable: the criterion test and
    # the (0,2,4)/(0,1,2)-payload cosphericity test both refute it, while
    # the p=1 distance test alone cannot.
    path = write_system(tmp_path, d1_system())
    code = main([path, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    verdicts = {t["name"]: t["verdict"] for t in out["tests"]}
    assert code == 1
    assert verdicts["lp"] == "ruled-out"
    assert verdicts["distance"] == "consistent"
    assert verdicts["cosphericity"] == "ruled-out"


def test_probabilities_accept_decimal_strings(tmp_path):
    doc = {
        "inputs": [{"name": "l1", "levels": ["1"]}],
        "outputs": [{"name": "A1", "values": ["x", "y"]}],
        "treatments": [
            {
                "levels": {"l1": "1"},
                "pmf": [
                    {"tuple": ["x"], "p": ".25"},
                    {"tuple": ["y"], "p": 0.75},
                ],
            }
        ],
    }
    system = system_from_dict(doc)
    assert system.pmf(("1",)).mass(("x",)) == 0.25


@pytest.mark.parametrize("spelling", [1.0, True])
def test_labels_written_in_another_form_resolve_to_the_declared_ones(tmp_path, capsys, spelling):
    """A level or value declared as 1 and written as 1.0 or true is the
    declared 1: the same design and tables, and the same reports byte for
    byte."""
    doc = system_to_dict(marginal_violation_system())
    respelled = json.loads(json.dumps(doc))
    for entry in respelled["treatments"]:
        levels = entry["levels"]
        entry["levels"] = {name: spelling if x == 1 else x for name, x in levels.items()}
        for cell in entry["pmf"]:
            cell["tuple"] = [spelling if x == 1 else x for x in cell["tuple"]]
    path = tmp_path / "system.json"
    reports = []
    for variant in (doc, respelled):
        system = system_from_dict(variant)
        assert system.design == marginal_violation_system().design
        tuples = [key for pmf in system.distributions.values() for key in pmf.table]
        labels = [*system.design.treatments, *system.distributions, *tuples]
        assert {type(x) for label in labels for x in label} == {int}
        path.write_text(json.dumps(variant))
        flag_sets = ([], ["--format", "json"], ["--tests", "marginal,distance,cosphericity"])
        for flags in flag_sets:
            reports.append((main([str(path), *flags]), capsys.readouterr().out))
    assert reports[:3] == reports[3:]
    assert "between treatments (1, 2) and (2, 2)" in reports[0][1]


def test_a_document_root_that_is_not_an_object_is_refused():
    with pytest.raises(UsageError, match="^document root must be an object$"):
        system_from_dict([])


def test_unknown_tuple_label_is_flagged_with_path():
    doc = {
        "inputs": [{"name": "l1", "levels": ["1"]}],
        "outputs": [{"name": "A1", "values": ["x"]}],
        "treatments": [
            {"levels": {"l1": "1"}, "pmf": [{"tuple": ["z"], "p": 1}]}
        ],
    }
    with pytest.raises(UsageError, match=r"treatments\[0\].pmf\[0\].tuple"):
        system_from_dict(doc)


def test_repeated_treatment_is_flagged_with_both_entries():
    doc = system_to_dict(feasible_binary_system())
    doc["treatments"][2]["levels"] = dict(doc["treatments"][0]["levels"])
    message = r"^treatments\[2\]\.levels: same treatment as treatments\[0\]$"
    with pytest.raises(UsageError, match=message):
        system_from_dict(doc)


def test_rt_parsing_validates_keys():
    with pytest.raises(UsageError, match="i,j"):
        rt_from_dict({"grid": [0, 1], "cdfs": {"3,1": [0, 1]}})


def test_class_metric_applies_to_the_battery_members_it_partitions(tmp_path, capsys):
    """Grouping members relabel values to g0, g1, ...; a class metric skips
    them (as a power metric skips members without payloads) and still runs on
    the members that keep the values, while a partition that does not cover
    the system's own values stays a usage error."""
    d1 = write_system(tmp_path, d1_system(), "d1.json")
    assert main([d1, "--tests", "battery", "--metric", "class:0|2,4;0|1,2"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] battery: transform 'grouping-6' fails the expanded test" in out

    binary = write_system(tmp_path, feasible_binary_system(), "binary.json")
    code = main([binary, "--tests", "battery", "--metric", "class:1|2;1|2"])
    assert code == 0
    assert "[PASS] battery: 25/25 applicable members pass" in capsys.readouterr().out

    assert main([d1, "--tests", "battery", "--metric", "class:0|2;0|1,2"]) == 2
    err = capsys.readouterr().err
    assert "output 'A1': partition must cover its values disjointly" in err
    assert main([d1, "--tests", "distance", "--metric", "class:0|2,4;0|1,2"]) == 1
