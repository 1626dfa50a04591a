"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/selftest.py -q
"""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import layertrace  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH_DIR.parent
NAMES = sorted(workloads.WORKLOADS)
PER_LAYER = run.declared_units()[1]


@pytest.mark.parametrize("name", NAMES)
def test_one_seed_gives_identical_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert workloads.inputs_digest(wl.generate(7)) == workloads.inputs_digest(wl.generate(7))


@pytest.mark.parametrize("name", NAMES)
def test_another_seed_gives_other_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert workloads.inputs_digest(wl.generate(7)) != workloads.inputs_digest(wl.generate(8))


@pytest.mark.parametrize("name", ["cli-edge", "junction-census"])
def test_one_seed_gives_identical_counts(name, monkeypatch):
    wl = workloads.WORKLOADS[name]()
    monkeypatch.setattr(wl, "n_trace", 2)
    cases = wl.generate(3)
    names = [n for n in PER_LAYER if n.startswith(f"{name}.")]
    first, runner, same_outputs = run.measure_traced(wl, cases, names)
    second, _, _ = run.measure_traced(wl, cases, names)
    assert same_outputs and runner.failed == 0
    counted = [n for n in names if PER_LAYER[n] in ("count", "bits")]
    assert any(first[n] for n in counted)
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def _with_junction_zero(cases):
    return next(c for c in cases
                if c.params["expect_zero"] and c.params["expect_zero"][0] != "vertex")


@pytest.mark.parametrize("name, pick, corrupt", [
    ("cli-edge", lambda cases: cases[0], lambda case: case.params.update(
        third_value=case.params["third_value"] + 1)),
    ("junction-census", _with_junction_zero, lambda case: case.params.update(
        expect_zero=("bottom", Fraction(1, 128)))),
    ("oracle-check", lambda cases: cases[0], lambda case: setattr(
        case, "triple", (case.triple[0] + 1, *case.triple[1:]))),
])
def test_corrupted_expected_value_is_counted_as_error(name, pick, corrupt):
    wl = workloads.WORKLOADS[name]()
    case = pick(wl.generate(5))
    runner = run.Runner()
    runner.run(wl.ops(case))
    assert runner.failed == 0
    corrupt(case)
    runner.run(wl.ops(case))
    assert runner.failed / runner.attempted > 0


def test_census_zero_hyperplanes_yield_their_zero():
    wl = workloads.JunctionCensus()
    cases = [c for c in wl.generate(11) if c.params["expect_zero"]][:20]
    runner = run.Runner()
    for case in cases:
        runner.run(wl.ops(case)[:2])
    assert runner.failed == 0


def test_traced_function_the_package_lacks_is_an_error(monkeypatch):
    monkeypatch.delattr(layertrace.sgharmonic.gasket, "eval_dyadic")
    tracer = layertrace.Tracer()
    with pytest.raises(LookupError), tracer.installed():
        pass


def test_declared_layer_never_called_is_an_error():
    with pytest.raises(LookupError):
        layertrace.Tracer().metrics("cli-edge", ["cli-edge.gasket.edge_profile.calls"], 1, 1)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-edge",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
