"""Seeded fuzz of the CLI's documents: any mutation exits 0, 1 or 2.

A mutation picks one node of a valid system, rt or transforms document and
replaces it with a JSON scalar, list or object, drops it from its object, or
repeats it in its list.  ``selinf.cli.main`` must answer with a verdict or a
usage error, never a traceback.
"""

import contextlib
import copy
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import d1_system
from selinf.cli import main
from selinf.io import system_to_dict

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(-2.0, 2.0)
    | st.sampled_from([float("nan"), float("inf"), 1e308, 10**400])
    | st.sampled_from(["", "1", "1,2", "A1", "l1", "x"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["", "1", "A1", "p", "tuple"]), inner, max_size=3),
    max_leaves=4,
)


def _documents():
    system = system_to_dict(d1_system())
    cdfs = {f"{i},{j}": [0.0, 0.5, 1.0] for i in (1, 2) for j in (1, 2)}
    values = [{"label": 1, "numeric": 1}, {"label": 2, "numeric": 2}]
    by_level = {"1": {"0": 2, "1": 1, "2": 1}, "2": {"0": 1, "1": 1, "2": 2}}
    outputs = [
        {"output": "A1", "values": values, "map": {"0": 2, "2": 1, "4": 1}},
        {"output": "A2", "values": values, "maps": by_level},
    ]
    transforms = [{"name": "grouping", "outputs": outputs}]
    return {
        "system": (system, []),
        "rt": ({"rt": {"grid": [0, 1, 2], "cdfs": cdfs}}, ["--tests", "contrast"]),
        "transforms": (transforms, ["--tests", "battery"]),
    }


DOCUMENTS = _documents()


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, (*path, key))


@st.composite
def mutated(draw):
    kind = draw(st.sampled_from(list(DOCUMENTS)))
    doc, args = DOCUMENTS[kind]
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return kind, draw(JSON), args
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["replace", "drop" if isinstance(parent, dict) else "repeat"]))
    if action == "replace":
        parent[key] = draw(JSON)
    elif action == "drop":
        del parent[key]
    else:
        parent.insert(key, copy.deepcopy(parent[key]))
    return kind, doc, args


# An emptied transforms list is a vacuous battery, which warns by design.
@pytest.mark.filterwarnings("ignore:empty transform battery")
@given(mutated())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_mutated_documents_exit_zero_one_or_two(case):
    kind, doc, args = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        path = f"{folder}/doc.json"
        if kind == "transforms":
            args = [*args, "--transforms", f"{folder}/transforms.json"]
            doc, transforms = DOCUMENTS["system"][0], doc
            with open(args[-1], "w", encoding="utf-8") as fh:
                json.dump(transforms, fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path, *args])
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error: ")
