"""The library, the demos and the CLI run with numpy alone: scipy is made
unimportable before anything is imported.  Not collected by pytest; run from
the repository root as

    PYTHONPATH=src:tests python tests/numpy_only_checks.py

It exits non-zero with a message on the first check that fails.
"""
import contextlib, glob, io, json, os, runpy, subprocess, sys, tempfile
sys.modules["scipy"] = None
for demo in sorted(glob.glob("demos/*.py")):
    runpy.run_path(demo, run_name="__main__")
import numpy as np
from fixtures import (d1_system, feasible_binary_system, four_output_system,
                      random_marginally_selective_2x2)
from selinf import build_feasibility_system, solve_feasibility
from selinf.cli import main
from selinf.io import system_to_dict
# rng 14 mixes in enough PR box that the simplex stops early (at the
# row-cap floor, before its first pivot).
ruled_out = random_marginally_selective_2x2(np.random.default_rng(14))
verdict = solve_feasibility(build_feasibility_system(ruled_out))
if not verdict.bound < verdict.optimum:
    sys.exit(f"expected an early stop, got {verdict}")
with tempfile.TemporaryDirectory() as tmp:
    for system, expected in ((feasible_binary_system(), 0), (ruled_out, 1)):
        path = f"{tmp}/system.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(system_to_dict(system), fh)
        code = main([path])
        if code != expected:
            sys.exit(f"selinf exited {code}, expected {expected}")
    # A non-finite cdf entry is a usage error, never a verdict.
    cdf = [0.0, float("nan"), 1.0]
    doc = {"rt": {"grid": [0, 1, 2], "cdfs": {f"{i},{j}": cdf for i in (1, 2) for j in (1, 2)}}}
    with open(f"{tmp}/rt.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code = main([f"{tmp}/rt.json"])
    if code != 2:
        sys.exit(f"selinf exited {code} on a NaN cdf entry, expected 2")
    # A treatment whose masses sum past the float range is a usage error,
    # also with warnings as errors (pytest's filters do not reach a
    # subprocess): no numpy overflow warning may precede the message.
    overflow = {"inputs": [{"name": "x", "levels": [1, 2]}],
                "outputs": [{"name": "A", "values": ["a", "b"]}],
                "treatments": [{"levels": {"x": x}, "pmf": [{"tuple": [v], "p": p} for v in "ab"]}
                               for x, p in ((1, 0.5), (2, 1e308))]}
    with open(f"{tmp}/overflow.json", "w", encoding="utf-8") as fh:
        json.dump(overflow, fh)
    run = subprocess.run([sys.executable, "-W", "error", "-m", "selinf.cli", f"{tmp}/overflow.json"],
                         capture_output=True, text=True, check=False, timeout=120)
    if (run.returncode != 2 or "treatment (2,): mass sum inf != 1" not in run.stderr
            or "Traceback" in run.stderr):
        sys.exit(f"selinf -W error exited {run.returncode} on a mass sum past the float range, "
                 f"expected 2 and the mass-sum message:\n{run.stderr}")
    # A transform entry that maps one output twice is a usage error.
    with open(f"{tmp}/d1.json", "w", encoding="utf-8") as fh:
        json.dump(system_to_dict(d1_system()), fh)
    values = [{"label": 1, "numeric": 1}, {"label": 2, "numeric": 2}]
    maps = [("A1", {"0": 2, "2": 1, "4": 1}), ("A2", {"0": 2, "1": 1, "2": 1}),
            ("A2", {"0": 1, "1": 1, "2": 2})]
    battery = [{"outputs": [{"output": o, "values": values, "map": m} for o, m in maps]}]
    with open(f"{tmp}/battery.json", "w", encoding="utf-8") as fh:
        json.dump(battery, fh)
    code = main([f"{tmp}/d1.json", "--tests", "battery",
                 "--transforms", f"{tmp}/battery.json"])
    if code != 2:
        sys.exit(f"selinf exited {code} on a transform that maps A2 twice, expected 2")
    # A transforms file that lists no transform is a usage error.
    with open(f"{tmp}/empty.json", "w", encoding="utf-8") as fh:
        json.dump([], fh)
    code = main([f"{tmp}/d1.json", "--tests", "battery",
                 "--transforms", f"{tmp}/empty.json"])
    if code != 2:
        sys.exit(f"selinf exited {code} on an empty transforms file, expected 2")
    # A class metric skips the grouping members whose values it does
    # not partition; the battery still rules d1 out.
    code = main([f"{tmp}/d1.json", "--tests", "battery",
                 "--metric", "class:0|2,4;0|1,2"])
    if code != 1:
        sys.exit(f"selinf exited {code} on a class-metric battery, expected 1")
    # Sub-marginals, and the pair table that feeds the distance and
    # cosphericity screens, are sums in BLAS order: a report must not
    # depend on the BLAS thread count. four-pr mixes four.json at
    # weight 0.9 with a shifted PR box on outputs 1 and 2, so its
    # report carries a cosphericity witness with non-trivial rho.
    # pr-product passes the marginal test and fails a chain whose links
    # each have 4 realizers, so the distance test picks among realizers
    # tied up to rounding.
    sys.path.insert(0, "perfbench")
    from workloads import crossed_design, latent_system, pr_mixture, pr_product
    four = four_output_system()
    latent = latent_system(crossed_design((2, 2, 2, 2), (2, 2, 3, 3)), np.random.default_rng(5), 12)
    cli = ("import sys; sys.modules['scipy'] = None; from selinf.cli import main; "
           "sys.exit(main(sys.argv[1:]))")
    reports = {}
    for name, system in (("four", four), ("four-pr", pr_mixture(four, 0.9)),
                         ("pr-product", pr_product(latent))):
        with open(f"{tmp}/{name}.json", "w", encoding="utf-8") as fh:
            json.dump(system_to_dict(system), fh)
        runs = [
            subprocess.run(
                [sys.executable, "-c", cli, f"{tmp}/{name}.json",
                 "--tests", "marginal,distance,cosphericity,battery", "--format", "json"],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, check=False, timeout=120,
            )
            for threads in ("1", "2")
        ]
        if [r.returncode for r in runs] != [1, 1]:
            sys.exit(f"selinf exited {[r.returncode for r in runs]} on {name}.json, expected 1")
        if runs[0].stdout != runs[1].stdout:
            sys.exit(f"{name}.json reports differ between OPENBLAS_NUM_THREADS=1 and 2")
        reports[name] = {t["name"]: t for t in json.loads(runs[0].stdout)["tests"]}
    if reports["four-pr"]["cosphericity"]["witness"] is None:
        sys.exit("four-pr.json: expected a cosphericity witness")
    tests = reports["pr-product"]
    if tests["marginal"]["verdict"] != "consistent" or tests["distance"]["verdict"] != "ruled-out":
        sys.exit("pr-product.json: expected a marginal pass and a distance rule-out")
    # Designs equal up to labels share their design tables: a report
    # on d1 with its levels renamed to strings, declared in reverse
    # order, must carry the renamed labels, as a fresh process does.
    doc = system_to_dict(d1_system())
    rename = {1: "2", 2: "1"}
    for spec in doc["inputs"]:
        spec["levels"] = [rename[x] for x in spec["levels"]]
    for entry in doc["treatments"]:
        entry["levels"] = {k: rename[x] for k, x in entry["levels"].items()}
    with open(f"{tmp}/d1-renamed.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    for flags in ([], ["--format", "json"]):
        shared = []
        for name in ("d1.json", "d1-renamed.json"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main([f"{tmp}/{name}", *flags])
            shared.append((code, out.getvalue()))
        fresh = subprocess.run(
            [sys.executable, "-c", cli, f"{tmp}/d1-renamed.json", *flags],
            capture_output=True, text=True, check=False, timeout=120,
        )
        if shared[1] != (fresh.returncode, fresh.stdout):
            sys.exit(f"selinf {flags} on renamed d1 differs from a fresh process")
    # Reports must not depend on the hash seed, which orders sets and
    # dicts of string labels: d1 renamed as above, its values also
    # relabelled to strings, gives the same JSON under two seeds.
    for out in doc["outputs"]:
        for value in out["values"]:
            value["label"] = str(value["label"])
    for entry in doc["treatments"]:
        for cell in entry["pmf"]:
            cell["tuple"] = [str(x) for x in cell["tuple"]]
    with open(f"{tmp}/d1-strings.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    runs = [
        subprocess.run(
            [sys.executable, "-c", cli, f"{tmp}/d1-strings.json",
             "--tests", "marginal,lp,distance,cosphericity,battery", "--format", "json"],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, check=False, timeout=120,
        )
        for seed in ("0", "1")
    ]
    if [r.returncode for r in runs] != [1, 1]:
        sys.exit(f"selinf exited {[r.returncode for r in runs]} on d1-strings.json, expected 1")
    if runs[0].stdout != runs[1].stdout:
        sys.exit("d1-strings.json reports differ between PYTHONHASHSEED=0 and 1")
    # A generated system's document must not depend on the hash seed
    # either: a three-input design that is not fully crossed, with string
    # levels, values and latent values, written by system_to_dict in two
    # fresh processes.
    with open(f"{tmp}/generated.py", "w", encoding="utf-8") as fh:
        fh.write(
            "import itertools, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from selinf import Design, InputSpec, JointPmf, LatentModel, OutputSpec, generate_system\n"
            "from selinf.io import system_to_dict\n"
            "rng = np.random.default_rng(8)\n"
            "inputs = tuple(InputSpec(f'x{k}', tuple(f'l{i}' for i in range(m)))\n"
            "               for k, m in enumerate((2, 3, 2)))\n"
            "outputs = tuple(OutputSpec(f'A{k}', tuple(f'v{i}' for i in range(v)))\n"
            "                for k, v in enumerate((3, 2, 4)))\n"
            "treatments = list(itertools.product(*(spec.levels for spec in inputs)))[:-2]\n"
            "masses = rng.dirichlet(np.ones(7))\n"
            "latent = JointPmf(1, {(f'r{r}',): float(m) for r, m in enumerate(masses)})\n"
            "responses = tuple({(level, f'r{r}'): out.values[int(rng.integers(len(out.values)))]\n"
            "                   for level in spec.levels for r in range(7)}\n"
            "                  for spec, out in zip(inputs, outputs))\n"
            "system = generate_system(Design(inputs, outputs, treatments), LatentModel(latent, responses))\n"
            "print(json.dumps(system_to_dict(system)))\n"
        )
    runs = [
        subprocess.run(
            [sys.executable, f"{tmp}/generated.py"],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, check=False, timeout=120,
        )
        for seed in ("0", "1")
    ]
    if [r.returncode for r in runs] != [0, 0]:
        sys.exit(f"writing a generated system exited {[r.returncode for r in runs]}, expected 0")
    if runs[0].stdout != runs[1].stdout:
        sys.exit("a generated system's document differs between PYTHONHASHSEED=0 and 1")
