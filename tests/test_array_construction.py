"""Systems built as arrays from the start: ``generate_system`` and
``io.system_from_dict`` against the table walks they replace, bit for bit
and message for message; ``io.system_to_dict`` against the table-based
writer; and the no-copy path that arrays the library has just made take
into a ``System``, beside ``from_array``, which copies."""

import json

import numpy as np
import pytest

from fixtures import random_latent_setup, system_from_tables
from selinf import model
from selinf.cli import main
from selinf.errors import CapacityError, UsageError
from selinf.io import resolve_label, system_from_dict, system_to_dict
from selinf.model import (
    Design,
    InputSpec,
    JointPmf,
    LatentModel,
    OutputSpec,
    System,
    generate_system,
)
from selinf.transforms import OutputTransform, TransformSpec, apply_transform, generate_battery


def walk_generate(design, latent_model):
    """The pushforward as a walk over treatments, latent values and outputs,
    one ``JointPmf`` per treatment: the reference for ``generate_system``."""
    value_sets = [set(o.values) for o in design.outputs]
    distributions = {}
    for t in design.treatments:
        table = {}
        for (r,), mass in latent_model.latent.items():
            outcome = []
            for k, level in enumerate(t):
                value = latent_model.respond(k, level, r)
                if value not in value_sets[k]:
                    raise UsageError(
                        f"response table {k} maps ({level!r}, {r!r}) to {value!r}, "
                        f"outside output {design.outputs[k].name!r}"
                    )
                outcome.append(value)
            key = tuple(outcome)
            table[key] = table.get(key, 0.0) + mass
        distributions[t] = JointPmf(design.n, table)
    return System(design, distributions)


def table_to_dict(system):
    """The document of ``system`` written from its ``JointPmf`` tables:
    the reference for ``system_to_dict``."""
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
        "inputs": [{"name": spec.name, "levels": list(spec.levels)} for spec in design.inputs],
        "outputs": outputs,
        "treatments": treatments,
    }


def outcome(make):
    """The array bytes ``make()`` returns, or the type and text of what it raises."""
    try:
        return make().tobytes()
    except (UsageError, CapacityError) as exc:
        return type(exc), str(exc)


def both(design, latent_model):
    """(generate_system's outcome, the walk's outcome)."""
    return (
        outcome(lambda: generate_system(design, latent_model).array),
        outcome(lambda: walk_generate(design, latent_model).array),
    )


def with_unused_level(design):
    """``design`` with a level declared on its first input that no treatment uses."""
    first = design.inputs[0]
    inputs = (InputSpec(first.name, (*first.levels, "unused")), *design.inputs[1:])
    return Design(inputs, design.outputs, design.treatments)


def used(design, latent_model):
    """Every (output, level some treatment uses, latent value), sorted."""
    latents = latent_model.latent_values()
    return sorted(
        {(k, t[k], r) for t in design.treatments for k in range(design.n) for r in latents}
    )


def with_faults(latent_model, faults):
    """``latent_model`` with each (output, level, latent value) in ``faults``
    missing from its response table, or mapped outside its output."""
    responses = [dict(table) for table in latent_model.responses]
    for (k, level, r), missing in faults:
        if missing:
            del responses[k][(level, r)]
        else:
            responses[k][(level, r)] = "outside"
    return LatentModel(latent_model.latent, tuple(responses))


@pytest.mark.parametrize("seed", range(6))
def test_generated_arrays_match_the_walk_bit_for_bit(seed):
    rng = np.random.default_rng([seed, 61])
    kinds = {"crossed": 0, "uncrossed": 0, "single level": 0, "shared outcome": 0}
    for _ in range(40):
        design, latent_model = random_latent_setup(rng, max_latent=9, max_values=3)
        kinds["crossed" if design.is_fully_crossed() else "uncrossed"] += 1
        kinds["single level"] += any(len(spec.levels) == 1 for spec in design.inputs)
        for variant in (design, with_unused_level(design)):
            new = generate_system(variant, latent_model)
            ref = walk_generate(variant, latent_model)
            assert new.array.tobytes() == ref.array.tobytes()
            assert not new.array.flags.writeable and new.array.flags.c_contiguous
            cells = [pmf.table for pmf in ref.distributions.values()]
            kinds["shared outcome"] += sum(len(c) < len(latent_model.latent_values()) for c in cells)
            # the derived tables hold the walk's cells, in C order
            for t in variant.treatments:
                got = new.pmf(t).table
                assert got == ref.pmf(t).table
                positions = [
                    tuple(out.values.index(v) for out, v in zip(variant.outputs, key)) for key in got
                ]
                assert positions == sorted(positions)
    assert all(kinds.values()), kinds


@pytest.mark.parametrize("seed", range(4))
def test_a_faulty_response_table_raises_the_walks_first_fault(seed):
    rng = np.random.default_rng([seed, 62])
    for _ in range(30):
        design, latent_model = random_latent_setup(rng, max_latent=5)
        if rng.random() < 0.5:
            design = with_unused_level(design)
        places = used(design, latent_model)
        chosen = rng.choice(len(places), size=min(len(places), int(rng.integers(1, 4))), replace=False)
        faults = [(places[i], bool(rng.random() < 0.5)) for i in chosen]
        faulty = with_faults(latent_model, faults)
        new, ref = both(design, faulty)
        assert isinstance(ref, tuple) and ref[0] is UsageError
        assert new == ref


def test_a_declared_level_no_treatment_uses_needs_no_response():
    design = with_unused_level(
        Design(
            (InputSpec("x", (1, 2)),),
            (OutputSpec("A", ("a", "b")),),
            ((1,), (2,)),
        )
    )
    latent_model = LatentModel(
        JointPmf(1, {(0,): 0.25, (1,): 0.75}),
        ({(1, 0): "a", (1, 1): "b", (2, 0): "b", (2, 1): "b"},),
    )
    system = generate_system(design, latent_model)
    assert system.array.tolist() == [[0.25, 0.75], [0.0, 1.0]]
    assert both(design, latent_model)[0] == both(design, latent_model)[1]


def test_sums_are_clipped_and_overflows_named_as_the_walk_does():
    design = Design(
        (InputSpec("x", (1, 2, 3)), InputSpec("y", (1,))),
        (OutputSpec("A", (0, 1)), OutputSpec("B", ("u",))),
        ((1, 1), (2, 1), (3, 1)),
    )
    respond = (
        {(1, 0): 0, (1, 1): 1, (1, 2): 1, (2, 0): 0, (2, 1): 0, (2, 2): 1, (3, 0): 1, (3, 1): 0, (3, 2): 0},
        {(1, r): "u" for r in range(3)},
    )
    # latent values 1 and 2 share a cell at level 1, where they cancel to
    # within EPS_PROB below 0: clipped to 0
    cancel = LatentModel(JointPmf(1, {(0,): 1.0, (1,): 0.25, (2,): -0.25 - 1e-13}), respond)
    new, ref = both(design, cancel)
    assert new == ref
    assert generate_system(design, cancel).array[0, 1, 0] == 0.0
    # latent values 0 and 1 share a cell at level 2 only, where 1e308 + 1e308 overflows
    big = LatentModel(JointPmf(1, {(0,): 1e308, (1,): 1e308, (2,): 1.0}), respond)
    overflow = (UsageError, "non-finite mass inf at (0, 'u')")
    assert both(design, big) == (overflow, overflow)
    # the overflow in treatment 2 comes after a fault in treatment 1 or 2, before one in 3
    for fault, first in (((0, 1, 2), False), ((0, 2, 2), False), ((0, 3, 0), True)):
        new, ref = both(design, with_faults(big, [(fault, True)]))
        assert new == ref
        assert (new == overflow) is first


def test_the_capacity_check_comes_after_the_responses_and_keeps_its_text(monkeypatch):
    design, latent_model = random_latent_setup(np.random.default_rng(63), max_latent=4)
    monkeypatch.setattr(model, "ARRAY_BYTE_CAP", 8)
    new, ref = both(design, latent_model)
    assert new == ref and new[0] is CapacityError
    faulty = with_faults(latent_model, [(used(design, latent_model)[-1], True)])
    new, ref = both(design, faulty)
    assert new == ref and new[0] is UsageError


# ------------------------------------------------------------------ documents


def table_array(doc):
    """The array of a parsed document built through ``JointPmf`` tables,
    cells summed in document order: the reference for ``system_from_dict``."""
    design = system_from_dict(doc).design
    tables = {}
    for entry in doc["treatments"]:
        t = tuple(
            resolve_label(spec.levels, entry["levels"][spec.name], "") for spec in design.inputs
        )
        table = {}
        for cell in entry["pmf"]:
            key = tuple(
                resolve_label(out.values, raw, "") for out, raw in zip(design.outputs, cell["tuple"])
            )
            table[key] = table.get(key, 0.0) + float(cell["p"])
        tables[t] = table
    return system_from_tables(design, tables).array


def split_cells(doc, rng):
    """``doc`` with each cell's p split into one to three parts, every
    treatment's entries shuffled, and labels written by their string form."""
    doc = json.loads(json.dumps(doc))
    for entry in doc["treatments"]:
        cells = []
        for cell in entry["pmf"]:
            parts = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
            for part in parts:
                spelled = [str(x) if rng.random() < 0.5 else x for x in cell["tuple"]]
                cells.append({"tuple": spelled, "p": cell["p"] * float(part)})
        entry["pmf"] = [cells[i] for i in rng.permutation(len(cells))]
    return doc


def test_parsed_arrays_sum_duplicate_cells_in_document_order():
    rng = np.random.default_rng(64)
    for _ in range(25):
        system = generate_system(*random_latent_setup(rng, max_latent=6))
        doc = split_cells(system_to_dict(system), rng)
        parsed = system_from_dict(doc)
        assert parsed.array.tobytes() == table_array(doc).tobytes()
        assert not parsed.array.flags.writeable
        assert system_from_dict(system_to_dict(system)).array.tobytes() == system.array.tobytes()


def test_a_document_whose_cells_sum_past_the_float_range_exits_two(tmp_path, capsys):
    design = Design((InputSpec("x", (1,)),), (OutputSpec("A", ("a", "b")),), ((1,),))
    doc = system_to_dict(System.from_array(design, np.array([[0.5, 0.5]])))
    big = [{"tuple": ["a"], "p": 1e308}, {"tuple": ["b"], "p": 1e308}]
    # two large masses in two cells: no cell overflows, so parsing succeeds
    doc["treatments"][0]["pmf"] = big
    assert system_from_dict(doc).array.tolist() == [[1e308, 1e308]]
    doc["treatments"][0]["pmf"] = [*big, {"tuple": ["a"], "p": 1e308}]
    with pytest.raises(UsageError, match=r"^non-finite mass inf at \('a',\)$"):
        system_from_dict(doc)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main([str(path)]) == 2
    assert capsys.readouterr().err == "error: non-finite mass inf at ('a',)\n"


def test_a_parsed_document_over_the_byte_cap_raises_before_allocating(monkeypatch):
    doc = system_to_dict(generate_system(*random_latent_setup(np.random.default_rng(65))))
    monkeypatch.setattr(model, "ARRAY_BYTE_CAP", 8)
    with pytest.raises(CapacityError, match="^pmf array of shape .* needs over 8 bytes; "):
        system_from_dict(doc)


# ------------------------------------------------------------------ writing


def mixed_labels(design):
    """``design`` with every output's values relabelled by strings and
    numbers of several kinds, so that sorting by repr interleaves them."""
    labels = ["b", 10, "a", 2, "10", 1.5, "B", -1]
    outputs = tuple(
        OutputSpec(out.name, tuple(labels[(i + k) % len(labels)] for i in range(len(out.values))),
                   out.numeric)
        for k, out in enumerate(design.outputs)
    )
    return Design(design.inputs, outputs, design.treatments)


def relabelled_model(source, target, latent_model):
    """``latent_model`` with each response value renamed from ``source``'s
    output values to ``target``'s."""
    rename = [dict(zip(a.values, b.values)) for a, b in zip(source.outputs, target.outputs)]
    return LatentModel(
        latent_model.latent,
        tuple({key: m[v] for key, v in table.items()} for m, table in zip(rename, latent_model.responses)),
    )


def test_documents_are_byte_identical_to_the_table_writer():
    rng = np.random.default_rng(66)
    for i in range(30):
        design, latent_model = random_latent_setup(rng, max_latent=8)
        if i % 2:
            relabelled = mixed_labels(design)
            latent_model = relabelled_model(design, relabelled, latent_model)
            design = relabelled
        tables = walk_generate(design, latent_model)
        expected = json.dumps(table_to_dict(tables))
        assert json.dumps(system_to_dict(generate_system(design, latent_model))) == expected
        assert json.dumps(system_to_dict(tables)) == expected
        member = apply_transform(tables, generate_battery(design, 1, 0, seed=i)[0])
        assert json.dumps(system_to_dict(member)) == json.dumps(table_to_dict(member))


# ------------------------------------------------------------ the no-copy path


def test_from_array_copies_a_callers_array_and_leaves_it_writable():
    design, latent_model = random_latent_setup(np.random.default_rng(67))
    mine = np.array(generate_system(design, latent_model).array)
    mine.flat[0] = -0.5e-12  # a mass in (-EPS_PROB, 0), which the system clips
    before = mine.copy()
    for given in (mine, np.asfortranarray(mine)):
        system = System.from_array(design, given)
        assert given.flags.writeable and not np.shares_memory(given, system.array)
        assert not system.array.flags.writeable and system.array.flags.c_contiguous
        assert system.array.flat[0] == 0.0 and given.flat[0] == -0.5e-12
        assert np.array_equal(given, before)
        given[...] = 7.0
        assert system.array.max() <= 1.0


def test_pushed_members_keep_the_pushed_array_and_check_it_once():
    design = Design(
        (InputSpec("x", (1, 2)),),
        (OutputSpec("A", (0, 1, 2)),),
        ((1,), (2,)),
    )
    system = System.from_array(design, np.array([[0.25, 0.25, 0.5], [1e308, 1e308, 0.0]]))
    merge = TransformSpec((OutputTransform(OutputSpec("A", ("lo", "hi")), {None: {0: "lo", 1: "lo", 2: "hi"}}),))
    with pytest.raises(UsageError, match=r"^non-finite mass at treatment \(2,\)$"):
        apply_transform(system, merge)
    # the second pushed axis multiplies the first one's overflow by 0
    twice = Design((*design.inputs, InputSpec("y", (1,))), (*design.outputs, OutputSpec("B", (0, 1, 2))),
                   ((1, 1), (2, 1)))
    array = np.full((2, 3, 3), 1 / 9)
    array[1] = [[1e308, 0.0, 0.0], [1e308, 0.0, 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(UsageError, match=r"^non-finite mass at treatment \(2, 1\)$"):
        apply_transform(System.from_array(twice, array), TransformSpec(merge.outputs * 2))
    fine = System.from_array(design, np.array([[0.25, 0.25, 0.5], [0.5, -0.5 - 1e-13, 1.0]]))
    member = apply_transform(fine, merge)
    assert member.array.tolist() == [[0.5, 0.5], [0.0, 1.0]]
    assert not member.array.flags.writeable and member.array.flags.c_contiguous
    assert not np.shares_memory(member.array, fine.array)
