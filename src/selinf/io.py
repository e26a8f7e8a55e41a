"""JSON-shaped document format for systems, response times, and transforms.

Top-level keys: ``inputs`` (list of {name, levels}), ``outputs`` (list of
{name, values}, where each value is a bare label or {label, numeric}),
``treatments`` (list of {levels: {input name: level}, pmf: [{tuple, p}]}),
and optionally ``rt`` ({grid, cdfs: {"i,j": [...]}}).  Probabilities may be
decimal strings or numbers, and must be finite.  Tuples are matched against
declared labels, never guessed by position; JSON stringifies object keys, so
labels are also matched by their string form where JSON forces that.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .architectures import RtSystem
from .errors import UsageError
from .model import Design, InputSpec, JointPmf, OutputSpec, System
from .transforms import OutputTransform, TransformSpec, identity_transform


def _number(raw: Any, where: str, non_finite: str, what: str = "number") -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise UsageError(f"{where}: expected a number or decimal string, got {raw!r}")
    try:
        x = float(raw)
    except ValueError:
        raise UsageError(f"{where}: cannot parse {raw!r} as a {what}") from None
    if not math.isfinite(x):
        raise UsageError(f"{where}: {non_finite} {x!r}")
    return x


def _numbers(raw: Any, where: str, non_finite: str) -> list[float]:
    """The list ``raw`` as numbers; a bad entry i is reported at ``where[i]``."""
    values = _list(raw, where)
    try:
        return [_number(v, where, non_finite) for v in values]
    except UsageError:
        for i, v in enumerate(values):
            _number(v, f"{where}[{i}]", non_finite)
        raise


def _list(raw: Any, where: str) -> list:
    if not isinstance(raw, (list, tuple)):
        raise UsageError(f"{where}: expected a list, got {raw!r}")
    return raw


def _object(raw: Any, where: str) -> dict:
    if not isinstance(raw, dict):
        raise UsageError(f"{where}: expected an object, got {raw!r}")
    return raw


def _labels(raw: Any, where: str) -> tuple:
    """Declared labels: a list of JSON scalars (string, number, boolean or null)."""
    for j, item in enumerate(_list(raw, where)):
        if item is not None and not isinstance(item, (str, int, float)):
            raise UsageError(
                f"{where}[{j}]: expected a string, number, boolean or null, got {item!r}"
            )
    return tuple(raw)


def _spec(where: str, make, *args):
    """``make(*args)``, with its own UsageError reported at ``where``."""
    try:
        return make(*args)
    except UsageError as exc:
        raise UsageError(f"{where}: {exc}") from None


def _name(raw: Any, where: str) -> str:
    if not isinstance(raw, str):
        raise UsageError(f"{where}: expected a string, got {raw!r}")
    return raw


def resolve_label(candidates, raw, where: str):
    """The declared label that a raw JSON label names: the one equal to it
    (1 for 1.0 or true), else the one with its string form."""
    if raw in candidates:
        return candidates[candidates.index(raw)]
    by_str = [c for c in candidates if str(c) == str(raw)]
    if len(by_str) == 1:
        return by_str[0]
    raise UsageError(f"{where}: unknown label {raw!r} (declared: {list(candidates)})")


def _parse_output(entry: Any, where: str) -> OutputSpec:
    name = _name(_object(entry, where).get("name", ""), f"{where}.name")
    values, numeric = [], []
    for i, item in enumerate(_list(entry.get("values", []), f"{where}.values")):
        if isinstance(item, dict):
            if "label" not in item:
                raise UsageError(f"{where}.values[{i}]: missing 'label'")
            values.append(item["label"])
            numeric.append(
                _number(item["numeric"], f"{where}.values[{i}].numeric",
                        f"output {name!r}: non-finite payload")
                if "numeric" in item
                else None
            )
        else:
            values.append(item)
            numeric.append(None)
    payloads = tuple(numeric) if any(x is not None for x in numeric) else None
    return _spec(f"{where}.values", OutputSpec, name, _labels(values, f"{where}.values"), payloads)


def system_from_dict(doc: dict) -> System:
    """Parse and validate a system document; raises UsageError with the path."""
    if not isinstance(doc, dict):
        raise UsageError("document root must be an object")
    for key in ("inputs", "outputs", "treatments"):
        if key not in doc:
            raise UsageError(f"missing top-level key {key!r}")

    inputs = []
    for i, entry in enumerate(_list(doc["inputs"], "inputs")):
        where = f"inputs[{i}]"
        if "name" not in _object(entry, where) or "levels" not in entry:
            raise UsageError(f"{where}: need 'name' and 'levels'")
        name = _name(entry["name"], f"{where}.name")
        levels = _labels(entry["levels"], f"{where}.levels")
        inputs.append(_spec(f"{where}.levels", InputSpec, name, levels))
    outputs = [
        _parse_output(entry, f"outputs[{i}]")
        for i, entry in enumerate(_list(doc["outputs"], "outputs"))
    ]
    if len(inputs) != len(outputs):
        raise UsageError("inputs and outputs must have equal length (index-paired)")
    names = [spec.name for spec in inputs]

    treatments, distributions = [], {}
    for ti, entry in enumerate(_list(doc["treatments"], "treatments")):
        where = f"treatments[{ti}]"
        if "levels" not in _object(entry, where) or "pmf" not in entry:
            raise UsageError(f"{where}: need 'levels' and 'pmf'")
        levels = _object(entry["levels"], f"{where}.levels")
        if set(levels) != set(names):
            raise UsageError(
                f"{where}.levels: must assign every input ({names}), got {sorted(levels)}"
            )
        t = tuple(
            resolve_label(spec.levels, levels[spec.name], f"{where}.levels.{spec.name}")
            for spec in inputs
        )
        if t in distributions:
            first = treatments.index(t)
            raise UsageError(f"{where}.levels: same treatment as treatments[{first}]")
        table: dict[tuple, float] = {}
        for ci, cell in enumerate(_list(entry["pmf"], f"{where}.pmf")):
            cwhere = f"{where}.pmf[{ci}]"
            if "tuple" not in _object(cell, cwhere) or "p" not in cell:
                raise UsageError(f"{cwhere}: need 'tuple' and 'p'")
            if not isinstance(cell["tuple"], list) or len(cell["tuple"]) != len(outputs):
                raise UsageError(f"{cwhere}.tuple: expected a list of {len(outputs)} labels")
            key = tuple(
                resolve_label(out.values, raw, f"{cwhere}.tuple[{k}]")
                for k, (out, raw) in enumerate(zip(outputs, cell["tuple"]))
            )
            p = _number(cell["p"], f"{cwhere}.p", "non-finite probability", "probability")
            table[key] = table.get(key, 0.0) + p
        distributions[t] = JointPmf(len(outputs), table)
        treatments.append(t)

    design = _spec("treatments", Design, tuple(inputs), tuple(outputs), tuple(treatments))
    return System(design, distributions)


def system_to_dict(system: System) -> dict:
    """Serialize a system back to the document format (round-trip safe)."""
    design = system.design
    outputs = []
    for out in design.outputs:
        values = []
        for i, v in enumerate(out.values):
            if out.numeric is not None and out.numeric[i] is not None:
                values.append({"label": v, "numeric": out.numeric[i]})
            else:
                values.append({"label": v})
        outputs.append({"name": out.name, "values": values})
    treatments = []
    for t in design.treatments:
        pmf = system.pmf(t)
        treatments.append(
            {
                "levels": {spec.name: lev for spec, lev in zip(design.inputs, t)},
                "pmf": [
                    {"tuple": list(key), "p": mass}
                    for key, mass in sorted(pmf.items(), key=lambda kv: repr(kv[0]))
                ],
            }
        )
    return {
        "inputs": [
            {"name": spec.name, "levels": list(spec.levels)} for spec in design.inputs
        ],
        "outputs": outputs,
        "treatments": treatments,
    }


def rt_from_dict(doc: dict) -> RtSystem:
    """Parse the optional 'rt' block into an RtSystem."""
    if "grid" not in _object(doc, "rt") or "cdfs" not in doc:
        raise UsageError("rt: need 'grid' and 'cdfs'")
    cdfs, keys = {}, {}
    for key, values in _object(doc["cdfs"], "rt.cdfs").items():
        parts = [p.strip() for p in str(key).split(",")]
        if len(parts) != 2 or not all(p in ("1", "2") for p in parts):
            raise UsageError(f"rt.cdfs: key {key!r} must be 'i,j' with i,j in 1..2")
        treatment = (int(parts[0]), int(parts[1]))
        if treatment in keys:
            raise UsageError(f"rt.cdfs: keys {keys[treatment]!r} and {key!r} name one treatment")
        keys[treatment] = key
        cdfs[treatment] = _numbers(values, f"rt.cdfs[{key}]", f"cdf {treatment}: non-finite value")
    return RtSystem(_numbers(doc["grid"], "rt.grid", "grid has non-finite point"), cdfs)


def transforms_from_file(path: str, design: Design) -> list[TransformSpec]:
    """Parse a non-empty list of transform specs against a concrete design:
    each output's 'map' (every level) or 'maps' (per level), not both, must
    map every value at every level of its input, and a gap is reported at
    that key, naming the level and the value."""
    doc = load_document(path)
    if not isinstance(doc, list):
        raise UsageError("transforms file must contain a list of transform specs")
    if not doc:
        raise UsageError("transforms file lists no transform")
    by_name = {out.name: k for k, out in enumerate(design.outputs)}
    identity = identity_transform(design).outputs
    specs = []
    for si, entry in enumerate(doc):
        where = f"transforms[{si}]"
        per_output: dict[int, OutputTransform] = {}
        outputs = _list(_object(entry, where).get("outputs", []), f"{where}.outputs")
        for oi, oentry in enumerate(outputs):
            owhere = f"{where}.outputs[{oi}]"
            output = _object(oentry, owhere).get("output")
            if not isinstance(output, str) or output not in by_name:
                raise UsageError(f"{owhere}: unknown output {output!r}")
            k = by_name[output]
            if k in per_output:
                first = [e["output"] for e in outputs[:oi]].index(output)
                raise UsageError(
                    f"{owhere}: output {output!r} already mapped at {where}.outputs[{first}]"
                )
            source = design.outputs[k]
            if "values" not in oentry:
                raise UsageError(f"{owhere}: need 'values' (the target value set)")
            target = _parse_output(
                {"name": source.name, "values": oentry["values"]}, owhere
            )
            if "map" in oentry and "maps" in oentry:
                raise UsageError(f"{owhere}: give 'map' or 'maps', not both")
            key = "map" if "map" in oentry else "maps"
            raw_maps = (
                {None: oentry["map"]}
                if key == "map"
                else _object(oentry.get("maps", {}), f"{owhere}.maps")
            )
            if not raw_maps:
                raise UsageError(f"{owhere}: need 'map' or 'maps'")
            maps = {}
            for raw_level, mapping in raw_maps.items():
                level = (
                    None
                    if raw_level is None
                    else resolve_label(
                        design.inputs[k].levels, raw_level, f"{owhere}.maps"
                    )
                )
                maps[level] = {
                    resolve_label(source.values, old, f"{owhere}.{key}"): resolve_label(
                        target.values, new, f"{owhere}.{key}"
                    )
                    for old, new in _object(mapping, f"{owhere}.{key}").items()
                }
            per_output[k] = OutputTransform(target, maps)
            # every value mapped at every level of the input, as apply_transform requires
            _spec(f"{owhere}.{key}", per_output[k].images, source, design.inputs[k].levels)
        specs.append(
            TransformSpec(
                tuple(per_output.get(k, identity[k]) for k in range(design.n)),
                name=_name(entry.get("name", f"transform-{si}"), f"{where}.name"),
            )
        )
    return specs


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from None
