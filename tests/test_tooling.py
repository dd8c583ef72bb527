"""Checks on the program files themselves and smoke runs of the scripts."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import tameprod
from tameprod import cli

ROOT = Path(__file__).resolve().parent.parent


def test_no_assert_in_program_files():
    # python -O strips assert statements, so internal invariants raise
    # typed errors instead
    found = []
    paths = [*(ROOT / "src" / "tameprod").rglob("*.py"), *(ROOT / "scripts").glob("*.py")]
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, "assert statements in program files: " + ", ".join(found)


def test_every_error_type_is_raised():
    # an error type that nothing raises documents a fault the program cannot
    # report; a CalculusError subclass in errors.py must be raised in src/
    path = ROOT / "src" / "tameprod" / "errors.py"
    declared = {
        node.name
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.ClassDef) and node.name != "CalculusError"
    }
    raised = set()
    for path in (ROOT / "src" / "tameprod").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    unraised = sorted(declared - raised)
    assert not unraised, "error types never raised: " + ", ".join(unraised)


def test_oracle_is_independent():
    # lr_oracle cross-checks weyl_calculus and the invariant dimensions, so it
    # may import neither
    path = ROOT / "src" / "tameprod" / "lr_oracle.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{a.name}" for a in node.names]
    found = [n for n in imported if {"weyl_calculus", "invariants"} & set(n.split("."))]
    assert not found, "lr_oracle imports: " + ", ".join(found)


def test_caches_are_bounded():
    # an unbounded functools cache grows with every distinct query of a
    # long-lived process
    unbounded = []
    for info in pkgutil.iter_modules(tameprod.__path__):
        module = importlib.import_module(f"tameprod.{info.name}")
        owners = [module, *(c for _, c in inspect.getmembers(module, inspect.isclass))]
        for owner in owners:
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_info") and obj.cache_info().maxsize is None:
                    unbounded.append(f"{module.__name__}.{name}")
    assert not unbounded, "unbounded caches: " + ", ".join(unbounded)


def test_exports_resolve_once():
    # a name deleted from the package but left in __all__ breaks
    # `from tameprod import *`
    names = tameprod.__all__
    assert len(names) == len(set(names)), "names exported twice"
    missing = [n for n in names if not hasattr(tameprod, n)]
    assert not missing, "exported names missing from the package: " + ", ".join(missing)


def test_traced_names_resolve():
    # bench/spans.py times the layers by name; a name it lists that the
    # package no longer has would break tracing
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.LAYERS.items():
        module = importlib.import_module(f"tameprod.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(module, cls_name, None)
                found = isinstance(cls, type) and meth in vars(cls)
            else:
                found = callable(getattr(module, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert sum(map(len, spans.LAYERS.values())) == 56
    assert not missing, "traced names missing from the package: " + ", ".join(missing)
    # bench/run.py reads this cache on every traced round, and no library
    # code needs it, so nothing else would notice if it went
    compound = importlib.import_module("tameprod.weyl_calculus").compound_multiplier
    assert hasattr(compound, "cache_info") and hasattr(compound, "cache_clear")


def test_scripts_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*argv):
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )

    worked = run("scripts/worked_example.py")
    assert worked.returncode == 0, worked.stderr
    assert "dimension: 3" in worked.stdout
    assert "(showing 4 of 72 factor-state combinations)" in worked.stdout

    survey = run("scripts/stability_survey.py", "--seed", "1", "--cases", "2")
    assert survey.returncode == 0, survey.stderr
    assert "all stable spectra agree with the tableau oracle" in survey.stdout


def test_readme_cli_examples():
    # each "# -> ..." comment of README's CLI block, with its "#    ..."
    # continuation lines, is the stdout of the command it follows
    text = (ROOT / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "tameprod decompose" in b]
    examples = []
    for line in block.splitlines():
        if line.startswith("tameprod "):
            command, _, said = line.partition("# -> ")
            examples.append((shlex.split(command)[1:], [said.strip()] if said else []))
        elif line.startswith("# -> "):
            examples[-1][1].append(line.removeprefix("# -> ").strip())
        elif line.startswith("#    ") and examples and examples[-1][1]:
            examples[-1][1].append(line.removeprefix("#    ").strip())
    checked = [(argv, lines) for argv, lines in examples if lines]
    assert [argv[0] for argv, _ in checked] == ["decompose", "multiplicity", "stabilize"]
    for argv, lines in checked:
        out = StringIO()
        with redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines() == lines, argv


def load_record_bench():
    path = ROOT / "scripts" / "record_bench.py"
    spec = importlib.util.spec_from_file_location("record_bench", path)
    record_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record_bench)
    return record_bench


def test_record_bench_summary():
    record_bench = load_record_bench()
    runs = [
        {"correct": True, "attempted": 10, "failed": i // 4,
         "metrics": {"wall_s": {"value": x, "unit": "s"}}}
        for i, x in enumerate([5.0, 1.0, 4.0, 2.0, 3.0])
    ]
    out = record_bench.summary(runs)
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 50, 1)
    assert out["metrics"]["wall_s"] == {
        "unit": "s", "median": 3.0, "q1": 2.0, "q3": 4.0, "values": [5.0, 1.0, 4.0, 2.0, 3.0]
    }


def test_record_bench_layers(monkeypatch, tmp_path):
    # after the end-to-end runs, one traced run per workload and side, at the
    # first seed, whose per-layer metrics are recorded under "layers"
    record_bench = load_record_bench()
    calls = []

    def fake_run_once(root, workload, seed, seconds, trace=0):
        calls.append((root, workload, seed, trace))
        name = "lr_oracle.self_s" if trace else "wall_s"
        value = float(seed) if trace else 1.0 + seed
        return {"correct": True, "attempted": 4, "failed": 0,
                "metrics": {name: {"value": value, "unit": "s"}}}

    monkeypatch.setattr(record_bench, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    assert record_bench.main(["--runs", "2", "--baseline", str(tmp_path), "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    traced = [c for c in calls if c[3] == 1]
    assert sorted((w, root) for root, w, _, _ in traced) == sorted(
        (w, root) for w in workloads for root in (ROOT, tmp_path.resolve())
    )
    assert {seed for _, _, seed, _ in traced} == {1}
    assert calls[-len(traced):] == traced
    for side in ("change", "baseline"):
        for w in workloads:
            summary = record[side]["workloads"][w]
            assert summary["layers"] == {"lr_oracle.self_s": {"value": 1.0, "unit": "s"}}
            assert summary["metrics"]["wall_s"]["values"] == [2.0, 3.0]
