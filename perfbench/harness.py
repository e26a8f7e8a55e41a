"""Set-up, closed measurement loop, verdict checks and metrics of one workload.

One client thread runs the items of a seeded pool in order, each starting
when the previous one has finished (a closed loop), until ``seconds`` have
passed and at least ``prefix`` items have run.  Counts are totals over the
first ``prefix`` items, so they repeat exactly for a seed; times are
measured over the whole run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

import spans as tr
import workloads as wl

SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, ".out")


@dataclass(frozen=True)
class Spec:
    pool: int  # distinct items built at set-up
    prefix: int  # items whose counts must repeat exactly
    warmup: int  # leading items run once during set-up
    tail: float  # percentile reported as latency_tail_ms
    repeat_keys: tuple[str, ...]


_LP_KEYS = ("feasibility.iterations", "feasibility.pivot_flops", "feasibility.matrix_cells")
#: The tail percentile (over pool items, see item_latencies) is fixed per
#: workload, so that runs stay comparable when the sample count changes: the
#: highest of p99, p95 and p90 with far more than ten executions above it in
#: a 36 s run (about 500, 400 and 16000 executions of 500, 120 and 250 items)
#: that falls inside one kind of item rather than between two.
SPECS = {
    "lp_criterion": Spec(768, 16, 2, 90.0, _LP_KEYS),
    "screen_battery": Spec(120, 20, 2, 95.0, (
        "distances.sequences", "cosphericity.subdesigns", "transforms.members",
    )),
    "cli_mixed": Spec(250, 60, 10, 99.0, _LP_KEYS),
}

#: Per-layer times: mean seconds per traced item inside the named spans.
TIME_METRICS = {
    "feasibility.solve_s": {"feasibility.solve"},
    "feasibility.build_s": {"feasibility.build"},
    "feasibility.fine_s": {"feasibility.fine"},
    "distances.test_s": {"distances.test"},
    "cosphericity.report_s": {"cosphericity.report"},
    "transforms.battery_s": {"transforms.battery"},
    "marginal.check_s": {"marginal.check"},
    "io.load_s": {"io.load"},
    "io.parse_s": {"io.parse"},
    "model.validate_s": {"model.validate"},
    "architectures.contrast_s": {"architectures.contrast", "architectures.classify"},
}
#: Per-layer counts: totals over the first ``prefix`` items.
COUNT_METRICS = (
    "feasibility.iterations", "feasibility.pivot_flops", "feasibility.matrix_cells",
    "distances.calls", "distances.sequences", "cosphericity.subdesigns",
    "transforms.members", "marginal.calls", "io.bytes_read", "cli.report_bytes",
)
#: Set-up times: median over the set-up repeats of the time in the spans.
SETUP_METRICS = {
    "model.generate_s": "model.generate",
    "transforms.generate_s": "transforms.generate",
    "architectures.compose_s": "architectures.compose",
}


class Case:
    """One workload: builds its items, runs one, checks them afterwards."""

    def __init__(self, name: str, seed: int, workdir: str, pool: int | None = None):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.spec = SPECS[name]
        self.pool = pool or self.spec.pool

    def build(self, tracer: tr.Tracer) -> list[wl.Item]:
        if self.name == "lp_criterion":
            with tracer.span("model.generate"):
                return wl.lp_items(self.seed, self.pool)
        if self.name == "screen_battery":
            return wl.screen_items(self.seed, self.pool, tracer=tracer)
        return wl.cli_items(self.seed, self.pool, self.workdir, tracer=tracer)

    def execute(self, item: wl.Item, tracer: tr.Tracer | None):
        """Run one item; returns (ok, counts, output to compare across repeats)."""
        if self.name == "lp_criterion":
            ok, counts = wl.run_lp(item)
            return ok, counts, None
        if self.name == "screen_battery":
            wrap = None if tracer is None else (lambda f: tracer.wrap(f, "transforms.member"))
            ok, counts = wl.run_screen(item, wrap)
            return ok, counts, None
        code, out = wl.run_cli(item)
        return code == item.expected["exit"], {"cli.report_bytes": len(out)}, out

    def oracle(self, items: list[wl.Item], executed: list[int], outputs: dict[int, str]) -> set[int]:
        """Pool indices of the items run whose verdict an independent check rejects."""
        if self.name == "lp_criterion":
            return wl.lp_oracle([items[i] for i in executed])
        if self.name == "cli_mixed":
            return {
                i for i, out in outputs.items()
                if not wl.cli_check(items[i], items[i].expected["exit"], out)
            }
        return set()


def item_latencies(item_time: dict[int, list], q: float) -> tuple[float, float, int, int]:
    """Median and nearest-rank percentile q over the pool items run, each
    item counted once at its mean time, with the number of items above the
    percentile and of their executions.  Every item recurs through the whole
    run, so its mean weighs the host's fast and slow spells alike, where a
    percentile of single samples jumps between them."""
    ranked = sorted((total / count, count) for total, count in item_time.values())
    rank = max(1, math.ceil(q * len(ranked) / 100.0))
    above = ranked[rank:]
    return (statistics.median(mean for mean, _ in ranked), ranked[rank - 1][0],
            len(above), sum(count for _, count in above))


def setup(case: Case) -> tuple[list[wl.Item], list[float], tr.Tracer]:
    """Build the pool and warm up, SETUP_REPEATS times; keep the last pool."""
    times, tracers = [], []
    items = []
    for _ in range(SETUP_REPEATS):
        tracer = tr.Tracer()
        t0 = perf_counter()
        shutil.rmtree(case.workdir, ignore_errors=True)
        os.makedirs(case.workdir)
        items = case.build(tracer)
        for item in items[: case.spec.warmup]:
            case.execute(item, None)
        times.append(perf_counter() - t0)
        tracers.append(tracer)
    return items, times, tracers


def measure(case: Case, items: list[wl.Item], seconds: float, tracer: tr.Tracer | None):
    """The closed loop.  With a tracer, every item runs twice in a row, once
    with the wrappers installed and once without, in alternating order."""
    n_pool = len(items)
    state = {
        "latencies": [], "traced": [], "executions": [], "item_time": {},
        "first_out": {}, "first_counts": {}, "prefix": {},
        "repeat_ok": True, "error": None,
    }
    keys = case.spec.repeat_keys
    pos = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        idx = pos % n_pool
        item = items[idx]
        modes = (False,) if tracer is None else ((True, False) if pos % 2 else (False, True))
        for traced in modes:
            saved = None
            if traced:
                tracer.item = pos
                first_span = len(tracer.spans)
                saved = tr.install(tracer)
                outer = tracer.begin("item")
            t0 = perf_counter()
            try:
                ok, counts, out = case.execute(item, tracer if traced else None)
            except Exception:  # one failed item must not stop the loop
                ok, counts, out = False, {}, None
                if state["error"] is None:
                    state["error"] = traceback.format_exc()
            t1 = perf_counter()
            if traced:
                tracer.end(outer)
                tr.uninstall(saved)
                counts = {**tr.attr_totals(tracer.spans[first_span:]), **counts}
                state["traced"].append(t1 - t0)
            else:
                state["latencies"].append(t1 - t0)
                total = state["item_time"].setdefault(idx, [0.0, 0])
                total[0] += t1 - t0
                total[1] += 1
            if out is not None:
                ok = ok and state["first_out"].setdefault(idx, out) == out
            seen = state["first_counts"].setdefault(idx, {})
            for key in keys:
                if key in counts:
                    if seen.setdefault(key, counts[key]) != counts[key]:
                        state["repeat_ok"] = False
            if pos < case.spec.prefix and (traced or tracer is None):
                state["prefix"][pos] = counts
            state["executions"].append((idx, ok))
        pos += 1
        if pos >= case.spec.prefix and perf_counter() >= deadline:
            break
    state["wall"] = perf_counter() - start
    state["positions"] = pos
    return state


def prefix_totals(state) -> dict[str, int]:
    totals: dict[str, int] = {}
    for counts in state["prefix"].values():
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def code_digest() -> str:
    """Digest of the library and benchmark sources: counts are compared only
    between runs of the same code."""
    digest = hashlib.sha256()
    for folder in (os.path.join(os.path.dirname(HERE), "src", "selinf"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def check_repeat(case: Case, totals: dict) -> list[str]:
    """Compare the exact-repeat counts with those an earlier run of the same
    code and seed stored; store them when none are stored yet.  Returns the
    names that differ."""
    path = os.path.join(
        OUT, "repeat",
        f"{case.name}-seed{case.seed}-pool{case.pool}-prefix{case.spec.prefix}-{code_digest()}.json",
    )
    current = {k: totals[k] for k in case.spec.repeat_keys if k in totals}
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}
    mismatches = [k for k in current if k in stored and stored[k] != current[k]]
    if not mismatches:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**stored, **current}, fh, sort_keys=True)
    return mismatches


def layer_metrics(case, state, tracer, setup_tracers) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    n = max(1, len(state["traced"]))
    out = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = (tr.outermost_time(spans, names) / n, "s")
    out["cli.self_s"] = (tr.self_time(spans, "cli.main") / n, "s")
    out["transforms.self_s"] = (
        tr.self_time(spans, "transforms.battery", {"transforms.member"}) / n, "s")
    totals = prefix_totals(state)
    units = {"feasibility.pivot_flops": "flop", "io.bytes_read": "B", "cli.report_bytes": "B"}
    for metric in COUNT_METRICS:
        out[metric] = (totals.get(metric, 0), units.get(metric, "count"))
    members = totals.get("transforms.members", 0)
    out["transforms.applicable_ratio"] = (
        totals.get("transforms.applicable", 0) / members if members else 0.0, "ratio")
    solve = [s for s in spans if s[tr.NAME] == "feasibility.solve"]
    flops = sum(s[tr.ATTRS]["feasibility.pivot_flops"] for s in solve)
    solve_s = sum(s[tr.END] - s[tr.START] for s in solve)
    out["feasibility.solve_gflops"] = (flops / solve_s / 1e9 if solve_s else 0.0, "GFLOP/s")
    biggest = max((s[tr.ATTRS]["feasibility.tableau_bytes"] for s in solve), default=0)
    out["feasibility.tableau_mb"] = (biggest / 1e6, "MB")
    for metric, name in SETUP_METRICS.items():
        per_repeat = [tr.outermost_time(t.spans, {name}) for t in setup_tracers]
        out[metric] = (statistics.median(per_repeat), "s")
    untraced = sum(state["latencies"])
    out["trace.overhead_ratio"] = (sum(state["traced"]) / untraced - 1.0 if untraced else 0.0, "ratio")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, pool: int | None = None) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    workdir = os.path.join(OUT, f"tmp-{name}-{os.getpid()}")
    case = Case(name, seed, workdir, pool)
    try:
        items, setup_times, setup_tracers = setup(case)
        # the pool lives for the whole run: keep it out of the collector's scans
        gc.collect()
        gc.freeze()
        tracer = tr.Tracer() if trace else None
        state = measure(case, items, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        executed = sorted({p % len(items) for p in range(state["positions"])})
        outputs = {i: state["first_out"][i] for i in executed if i in state["first_out"]}
        bad = case.oracle(items, executed, outputs)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    # every execution of an item the oracle rejects counts as failed
    attempted = len(state["executions"])
    failed = sum(1 for idx, ok in state["executions"] if not ok or idx in bad)
    totals = prefix_totals(state)
    mismatches = check_repeat(case, totals)
    samples = len(state["latencies"])
    p50, tail, items_above, runs_above = item_latencies(state["item_time"], case.spec.tail)
    result = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "oracle_rejected": sorted(bad),
        "repeat_ok": state["repeat_ok"] and not mismatches,
        "repeat_mismatches": mismatches,
        "error": state["error"],
        "counts": {k: totals[k] for k in case.spec.repeat_keys if k in totals},
        "tail_percentile": case.spec.tail,
        "items": len(state["item_time"]),
        "items_above": items_above,
        "samples_above": runs_above,
        "samples": samples,
        "end_to_end": {
            "throughput_items_per_s": (samples / state["wall"], "1/s"),
            "latency_p50_ms": (p50 * 1000.0, "ms"),
            "latency_tail_ms": (tail * 1000.0, "ms"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "failed_ratio": (failed / attempted, "ratio"),
        },
    }
    if tracer is not None:
        result["per_layer"] = layer_metrics(case, state, tracer, setup_tracers)
        tracer.dump(
            os.path.join(OUT, "traces", f"{name}-seed{seed}.jsonl"),
            {
                "workload": name, "seed": seed,
                "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
                "fields": ["name", "start", "end", "parent", "item", "attrs"],
            },
        )
    result["correct"] = failed == 0 and result["repeat_ok"]
    return result
