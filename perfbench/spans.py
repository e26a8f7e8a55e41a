"""In-memory spans recorded from the benchmark's side of each library call.

A span is ``[name, start, end, parent, item, attrs]``; ``parent`` is the
index of the enclosing span (-1 for none) and ``item`` the stream position
of the item being run.  Nothing is written until the run ends.

``install`` replaces library functions by timing wrappers in the module
namespaces they are called through, and ``uninstall`` puts the originals
back.  Only the traced run installs them.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, ITEM, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.item, None])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, note=None):
        """``fn`` recorded as span ``name``; ``note(result, args)`` adds counts."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if note is not None:
                self.spans[idx][ATTRS] = note(result, args)
            return result

        return traced

    def dump(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, item, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, item, attrs]) + "\n")


# ------------------------------------------------------------ patch points


def _solve_note(verdict, args):
    m, n = args[0].matrix.shape
    return {
        "feasibility.iterations": verdict.iterations,
        "feasibility.pivot_flops": verdict.iterations * 2 * m * (n + m + 1),
        "feasibility.tableau_bytes": m * (n + m + 1) * 8,
    }


def _build_note(fs, args):
    return {"feasibility.matrix_cells": int(fs.matrix.size)}


def _load_note(doc, args):
    return {"io.bytes_read": os.path.getsize(args[0])}


def _cosph_note(report, args):
    return {"cosphericity.subdesigns": len(report.details.get("results", ()))}


def _count(key):
    return lambda result, args: {key: 1}


#: (module, attribute, span name, note): every place the workloads or
#: ``selinf.cli`` reach a public entry point of a layer.
PATCH_POINTS = (
    ("cli", "main", "cli.main", None),
    ("cli", "check_marginal_selectivity", "marginal.check", _count("marginal.calls")),
    ("cli", "lp_report", "feasibility.lp_report", None),
    ("cli", "fine_inequality_check", "feasibility.fine", None),
    ("cli", "run_distance_test", "distances.test", _count("distances.calls")),
    ("cli", "cosphericity_report", "cosphericity.report", _cosph_note),
    ("cli", "validate_system", "model.validate", None),
    ("cli", "interaction_contrast", "architectures.contrast", None),
    ("cli", "classify_architecture", "architectures.classify", None),
    ("io", "load_document", "io.load", _load_note),
    ("io", "system_from_dict", "io.parse", None),
    ("io", "rt_from_dict", "io.parse", None),
    ("feasibility", "build_feasibility_system", "feasibility.build", _build_note),
    ("feasibility", "solve_feasibility", "feasibility.solve", _solve_note),
    ("feasibility", "validate_system", "model.validate", None),
    ("feasibility", "check_marginal_selectivity", "marginal.check", _count("marginal.calls")),
    ("distances", "check_marginal_selectivity", "marginal.check", _count("marginal.calls")),
    ("distances", "run_distance_test", "distances.test", _count("distances.calls")),
    ("marginal", "check_marginal_selectivity", "marginal.check", _count("marginal.calls")),
    ("cosphericity", "cosphericity_report", "cosphericity.report", _cosph_note),
    ("architectures", "interaction_contrast", "architectures.contrast", None),
    ("transforms", "run_battery", "transforms.battery", None),
)


def install(tracer: Tracer) -> list:
    """Wrap every patch point; returns what ``uninstall`` needs."""
    import importlib

    saved = []
    for mod_name, attr, name, note in PATCH_POINTS:
        module = importlib.import_module(f"selinf.{mod_name}")
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(original, name, note))
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


# ------------------------------------------------------------- aggregation


def outermost_time(spans: list[list], names: set[str]) -> float:
    """Total duration of spans named in ``names`` with no ancestor so named."""
    total = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += span[END] - span[START]
    return total


def self_time(spans: list[list], name: str, child_names=None) -> float:
    """Duration of spans ``name`` minus their direct children (optionally
    only the children named in ``child_names``)."""
    total = 0.0
    index = {}
    for i, span in enumerate(spans):
        if span[NAME] == name:
            total += span[END] - span[START]
            index[i] = True
    for span in spans:
        if span[PARENT] in index and (child_names is None or span[NAME] in child_names):
            total -= span[END] - span[START]
    return total


def attr_totals(spans: list[list]) -> dict[str, int]:
    """Sum of the span attributes, by name."""
    out: dict[str, int] = {}
    for span in spans:
        for key, value in (span[ATTRS] or {}).items():
            out[key] = out.get(key, 0) + value
    return out
