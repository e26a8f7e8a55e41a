"""Command-line entry point: parse a system file, dispatch tests, report.

Exit codes: 0 when every selected test is consistent (or inapplicable),
1 when at least one test rules selective influences out, 2 on usage or
validation errors.  Reports are byte-deterministic for a fixed config and
seed; the JSON format carries a versioned ``schema`` field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Any

from . import io as sio
from .architectures import classify_architecture, interaction_contrast
from .cosphericity import cosphericity_report
from .distances import ClassificationMetric, MetricSpec, PowerMetric, run_distance_test
from .errors import SelinfError, UsageError
from .feasibility import build_feasibility_system, fine_inequality_check, lp_report
from .marginal import check_marginal_selectivity
from .model import System, validate_system
from .report import CONSISTENT, INAPPLICABLE, RULED_OUT, TestReport
from .tolerances import EPS_COSPHERICAL, EPS_LP, EPS_PROB, EPS_TEST
from .transforms import generate_battery, run_battery

SCHEMA = "selinf-report/1"
TEST_ORDER = ("marginal", "lp", "fine", "distance", "cosphericity", "battery", "contrast")
TOLERANCES = ("eps_prob", "eps_test", "eps_lp", "eps_cospherical")


def parse_metric(raw: str, system: System | None) -> MetricSpec:
    """Parse '--metric power:p=<x>' or '--metric class:<spec>'.

    The class spec lists one partition per output, outputs separated by ';',
    classes by '|', value labels by ',': e.g. ``class:0,2|4;0,1|2``.
    """
    if raw == "power" or raw.startswith("power:"):
        p = 1.0
        _, _, rest = raw.partition(":")
        if rest:
            key, _, value = rest.partition("=")
            if key != "p":
                raise UsageError(f"--metric: unknown power option {key!r}")
            try:
                p = float(value)
            except ValueError:
                raise UsageError(f"--metric: bad exponent {value!r}") from None
        return PowerMetric(p)
    if raw.startswith("class:"):
        if system is None:
            raise UsageError("--metric class requires a system input")
        spec = raw[len("class:"):]
        parts = spec.split(";")
        if len(parts) != system.design.n:
            raise UsageError(
                f"--metric class: expected {system.design.n} partitions "
                f"(outputs), got {len(parts)}"
            )
        partitions = []
        for out, part in zip(system.design.outputs, parts):
            classes = []
            for cls in part.split("|"):
                labels = [
                    sio.resolve_label(out.values, lab.strip(), f"--metric class ({out.name})")
                    for lab in cls.split(",")
                    if lab.strip() != ""
                ]
                classes.append(tuple(labels))
            partitions.append(tuple(classes))
        return ClassificationMetric(tuple(partitions))
    raise UsageError(f"--metric: expected 'power:p=<x>' or 'class:<spec>', got {raw!r}")


def _json_safe(value: Any) -> bool:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return True
    if isinstance(value, (list, tuple)):
        return all(_json_safe(v) for v in value)
    return False


def _witness_json(report: TestReport) -> Any:
    return None if report.witness is None else report.witness.to_json()


def run_tests(args, system: System | None, rt, fs=None) -> list[TestReport]:
    """The selected tests' reports; ``fs`` is the system's FeasibilitySystem
    when it has already been built."""
    reports: list[TestReport] = []
    metrics: list[MetricSpec] = [parse_metric(m, system) for m in args.metric] or [
        PowerMetric(1.0)
    ]

    def needs_system(name: str) -> System:
        if system is None:
            raise UsageError(f"test {name!r} needs a system input")
        return system

    for name in TEST_ORDER:
        if name not in args.tests:
            continue
        if name == "marginal":
            report = check_marginal_selectivity(
                needs_system(name), args.marginal_max_subset, args.eps_test
            )
            verdict = CONSISTENT if report.passed else RULED_OUT
            summary = f"worst discrepancy {report.discrepancy:.6g}"
            if report.worst_pair is not None:
                summary += (
                    f" on outputs {report.worst_subset} between treatments "
                    f"{report.worst_pair[0]} and {report.worst_pair[1]}"
                )
            reports.append(TestReport("marginal", verdict, summary, witness=report))
        elif name == "lp":
            reports.append(lp_report(needs_system(name), args.eps_lp, args.eps_prob, fs))
        elif name == "fine":
            reports.append(fine_inequality_check(needs_system(name), args.eps_test))
        elif name == "distance":
            sys_ = needs_system(name)
            for metric in metrics:
                reports.append(run_distance_test(sys_, metric, eps_test=args.eps_test))
        elif name == "cosphericity":
            reports.append(cosphericity_report(needs_system(name), args.eps_cospherical))
        elif name == "battery":
            sys_ = needs_system(name)
            if args.transforms:
                specs = sio.transforms_from_file(args.transforms, sys_.design)
            else:
                specs = generate_battery(sys_.design, seed=args.seed)

            for metric in metrics:  # a partition must cover the system's own values
                if isinstance(metric, ClassificationMetric):
                    metric.validate(sys_.design)

            def expanded(s: System) -> TestReport:
                for metric in metrics:
                    if isinstance(metric, ClassificationMetric):
                        try:
                            metric.validate(s.design)
                        except UsageError:  # a grouping relabeled the values
                            continue
                    r = run_distance_test(s, metric, eps_test=args.eps_test)
                    if r.verdict == RULED_OUT:
                        return r
                return cosphericity_report(s, args.eps_cospherical)

            reports.append(run_battery(sys_, specs, expanded))
        elif name == "contrast":
            if rt is None:
                raise UsageError("test 'contrast' needs an 'rt' block in the input")
            profile = interaction_contrast(rt)
            labels = classify_architecture(rt, args.eps_test)
            reports.append(
                TestReport(
                    "contrast",
                    CONSISTENT,
                    f"consistent with: {sorted(labels) or 'none of min/max/serial'}",
                    details={
                        "labels": sorted(labels),
                        "c_min": float(profile.c.min()),
                        "c_max": float(profile.c.max()),
                        "cumulative_min": float(profile.cumulative.min()),
                        "total": profile.total,
                    },
                )
            )
    return reports


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="selinf",
        description="Decide whether a family of joint output distributions is "
        "consistent with selective influences.",
    )
    parser.add_argument("input", help="path to the system/RT document (JSON)")
    parser.add_argument(
        "--tests",
        default=None,
        help="comma-separated subset of "
        f"{','.join(TEST_ORDER)} (default: all applicable except battery)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="SPEC",
        help="distance metric: 'power:p=<x>' or 'class:<v,v|v;...>' (repeatable)",
    )
    parser.add_argument("--transforms", help="path to a JSON battery of transforms")
    parser.add_argument("--eps-prob", type=float, default=EPS_PROB)
    parser.add_argument("--eps-test", type=float, default=EPS_TEST)
    parser.add_argument("--eps-lp", type=float, default=EPS_LP)
    parser.add_argument(
        "--eps-cospherical",
        type=float,
        default=EPS_COSPHERICAL,
        help="tolerance for the correlation inequality",
    )
    parser.add_argument(
        "--marginal-max-subset",
        type=int,
        default=None,
        help="restrict marginal selectivity to subsets up to this size (1 = simple test)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="seed for generated batteries")
    parser.add_argument(
        "--dump-matrix",
        metavar="PATH",
        help="write the feasibility matrix as a labeled 0/1 grid",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except SelinfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    for name in TOLERANCES:
        value = getattr(args, name)
        if not (math.isfinite(value) and value > 0):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be positive and finite, got {value}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")

    doc = sio.load_document(args.input)
    if not isinstance(doc, dict):
        raise UsageError(f"{args.input}: document root must be an object")
    system = rt = None
    if "inputs" in doc or "outputs" in doc or "treatments" in doc:
        system = sio.system_from_dict(doc)
        problems = validate_system(system, args.eps_prob)
        if problems:
            raise UsageError("; ".join(problems))
    if "rt" in doc:
        rt = sio.rt_from_dict(doc["rt"])
    if system is None and rt is None:
        raise UsageError("document contains neither a system nor an 'rt' block")

    if args.tests is None:
        selected = [
            t
            for t in TEST_ORDER
            if (t == "contrast" and rt is not None)
            or (t not in ("battery", "contrast") and system is not None)
        ]
    else:
        selected = [t.strip() for t in args.tests.split(",") if t.strip()]
        unknown = [t for t in selected if t not in TEST_ORDER]
        if unknown:
            raise UsageError(f"unknown tests: {unknown} (choose from {TEST_ORDER})")
    if not selected:
        raise UsageError("at least one test must be selected")
    args.tests = selected

    fs = None
    if args.dump_matrix:
        if system is None:
            raise UsageError("--dump-matrix needs a system input")
        fs = build_feasibility_system(system, args.eps_prob)
        try:
            with open(args.dump_matrix, "w", encoding="utf-8") as fh:
                fh.write(fs.format_grid() + "\n")
        except OSError as exc:
            raise UsageError(f"{args.dump_matrix}: {exc.strerror}") from None

    reports = run_tests(args, system, rt, fs)
    ruled_out = any(r.verdict == RULED_OUT for r in reports)
    exit_code = 1 if ruled_out else 0

    if args.format == "json":
        payload = {
            "schema": SCHEMA,
            "input": args.input,
            "seed": args.seed,
            "tolerances": {name: getattr(args, name) for name in TOLERANCES},
            "tests": [
                {
                    "name": r.test,
                    "verdict": r.verdict,
                    "summary": r.summary,
                    "witness": _witness_json(r),
                    "details": {k: v for k, v in r.details.items() if _json_safe(v)},
                }
                for r in reports
            ],
            "exit_code": exit_code,
        }
        print(json.dumps(payload, indent=2))
    else:
        mark = {CONSISTENT: "PASS", RULED_OUT: "FAIL", INAPPLICABLE: "SKIP"}
        for r in reports:
            print(f"[{mark[r.verdict]}] {r.test}: {r.summary}")
        print(
            "verdict: "
            + ("selective influences ruled out" if ruled_out else "not refuted")
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
