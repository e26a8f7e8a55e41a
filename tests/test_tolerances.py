"""Every tolerance and byte cap is defined once, in ``selinf.tolerances``.

The values are pinned, and so are the CLI's ``--eps-*`` defaults and the
library's ``eps_*`` keyword defaults that read them.  A guard scans the
package's other modules for a tolerance written in place.
"""

import ast
import inspect
import io
import pathlib
import re
import tokenize

import selinf
from selinf import cli, tolerances

PINNED = {
    "EPS_PROB": 1e-9,
    "EPS_TEST": 1e-9,
    "EPS_COSPHERICAL": 1e-6,
    "EPS_LP": 1e-8,
    "PIVOT_TOL": 1e-10,
    "VAR_RTOL": 1e-9,
    "CDF_TOL": 1e-12,
    "ARRAY_BYTE_CAP": 2**30,
    "MARGIN_BYTE_CAP": 2**19,
    "TABLEAU_BYTE_CAP": 2**30,
}
GUARDED_NAME = re.compile(r"EPS_\w*|\w*_TOL|\w*_RTOL|\w*_CAP")
SCIENTIFIC = re.compile(r"[\d_.]*[eE][-+]?[\d_]+[jJ]?")


def offenders(source: str) -> list[tuple[int, str]]:
    """(line, text) of each scientific-notation number and each assignment
    to a tolerance-like name in ``source``."""
    found = [
        (tok.start[0], tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.NUMBER and SCIENTIFIC.fullmatch(tok.string)
    ]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        found += [
            (name.lineno, name.id)
            for target in targets
            for name in ast.walk(target)
            if isinstance(name, ast.Name) and GUARDED_NAME.fullmatch(name.id)
        ]
    return sorted(found)


def test_the_guard_sees_literals_and_assignments():
    source = 'X_TOL = 0.5\n"""1e-9"""\nlimit: int = 3\nEPS_Y: float = 2E3\nz = 0x1e5 + 1.5e-3j\n'
    assert offenders(source) == [(1, "X_TOL"), (4, "2E3"), (4, "EPS_Y"), (5, "1.5e-3j")]


def test_no_module_but_tolerances_defines_a_tolerance_or_cap():
    package = pathlib.Path(selinf.__file__).parent
    found = {
        path.name: offenders(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "tolerances.py"
    }
    assert len(found) >= 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_values_are_pinned():
    defined = {name: value for name, value in vars(tolerances).items() if name.isupper()}
    assert defined == PINNED
    assert all(type(defined[name]) is type(value) for name, value in PINNED.items())


def test_cli_defaults_are_the_tolerances():
    parser = cli.build_parser()
    assert cli.TOLERANCES == ("eps_prob", "eps_test", "eps_lp", "eps_cospherical")
    for name in cli.TOLERANCES:
        assert parser.get_default(name) == getattr(tolerances, name.upper())


def test_keyword_defaults_are_the_tolerances():
    expected = {"eps_prob": PINNED["EPS_PROB"], "eps_test": PINNED["EPS_TEST"],
                "eps_lp": PINNED["EPS_LP"], "eps": PINNED["EPS_TEST"]}
    cospherical = {"run_cosphericity", "cosphericity_report"}
    seen = set()
    functions = [(name, getattr(selinf, name)) for name in selinf.__all__]
    functions.append(("covers_support", selinf.RtSystem.covers_support))
    for name, fn in functions:
        if not inspect.isfunction(fn):
            continue
        for param in inspect.signature(fn).parameters.values():
            if param.name in expected:
                value = PINNED["EPS_COSPHERICAL"] if name in cospherical else expected[param.name]
                assert param.default == value, (name, param.name)
                seen.add(name)
    assert len(seen) == 12
