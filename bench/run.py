"""Benchmark of the sgharmonic package: one closed-loop client, one process.

    python3 bench/run.py --workload cli-edge --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it times operations for ``--seconds`` seconds and reports
the end-to-end metrics; with ``--trace 1`` it runs a fixed set of cases once
untraced and once traced and reports the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it are the same
figures for a reader.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
MIN_SAMPLES = 110  # so that at least ten samples lie beyond p90
MAX_LOOP_S = 120.0
# About the median time of reference_work() on the machine the bounds were
# set on (4.4 ms); every reported time is scaled to this speed.
REF_NOMINAL_S = 0.0045
PROBE_REFS = 10  # reference timings before and after each set-up probe
PROBE_TIMEOUT_S = 60



def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Name -> unit of the end-to-end and the per-layer metrics that
    ``BENCHMARK.json`` declares; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def import_package():
    """Import the package from this checkout's ``src``, nowhere else."""
    if not (SRC / "sgharmonic" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'sgharmonic'}; "
                 "run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sgharmonic
    import sgharmonic.cli  # noqa: F401  (the CLI is part of the package's set-up cost)
    if Path(sgharmonic.__file__).resolve().parent != SRC / "sgharmonic":
        sys.exit(f"error: imported sgharmonic from {sgharmonic.__file__}, not {SRC}")


class Runner:
    """Runs operations, checks each output, and keeps latencies and failures."""

    def __init__(self, tracer=None, keep_outputs=False):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.outputs: list[str] | None = [] if keep_outputs else None
        self.covered_s = 0.0  # time of recorded operations inside top-level spans

    def run(self, ops, record=True) -> None:
        """Run one case's operations in order; ``record`` keeps their latencies."""
        outs = {}
        for op in ops:
            self.attempted += 1
            if self.tracer:
                self.tracer.op = self.attempted
                self.tracer.active = True
                spanned = self.tracer.top_level_s
            start = perf_counter()
            try:
                result = op.call(outs)
                error = None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, exc
            elapsed = perf_counter() - start
            if self.tracer:
                self.tracer.active = False
                if record:
                    self.covered_s += self.tracer.top_level_s - spanned
            outs[op.name] = result
            if error is not None:
                print(f"operation {op.name} raised: {error!r}", file=sys.stderr)
            if not (error is None and self._check(op, result, outs)):
                self.failed += 1
            if record:
                self.latencies.append(elapsed)
                if self.outputs is not None:
                    self.outputs.append(repr(result))

    @staticmethod
    def _check(op, result, outs) -> bool:
        try:
            return bool(op.check(result, outs))
        except Exception:
            print(f"check of {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return False


def reference_work() -> Fraction:
    """A fixed piece of ``Fraction`` arithmetic and hashing that uses no
    package code: small rationals, kept in a dict, as the package's walks
    and its oracle use them."""
    x = Fraction(1, 3)
    seen = {}
    for i in range(300):
        x = (x * 7 + Fraction(1, 5)) / 3
        x = Fraction(x.numerator % 10**12, x.denominator % 10**12 + 1)
        seen[x] = i
    return x


def time_reference() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def setup_probe(workload: str, seed: int) -> dict:
    """Set up in this (fresh) process and time the cold oracle solves; both
    scaled to the reference speed measured around them."""
    reference_work()  # a fresh process runs it slower the first time
    refs = [time_reference() for _ in range(PROBE_REFS)]
    start = perf_counter()
    import_package()
    import workloads
    wl = workloads.WORKLOADS[workload]()
    cases = wl.generate(seed)
    setup_s = perf_counter() - start
    runner = Runner()
    runner.run(workloads.cold_solve_ops(cases[0]))
    refs += [time_reference() for _ in range(PROBE_REFS)]
    scale = REF_NOMINAL_S / statistics.median(refs)
    return {"setup_s": setup_s * scale, "cold_solve_s": sum(runner.latencies) * scale,
            "scale": scale, "attempted": runner.attempted, "failed": runner.failed,
            "inputs": workloads.inputs_digest(cases)}


def run_probe(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def percentile_ms(latencies: list[float], q: int) -> float:
    """q-th percentile (q in 10..90 by tens) in milliseconds."""
    return statistics.quantiles(latencies, n=10)[q // 10 - 1] * 1000


def measure(wl, cases, seed: int, seconds: float) -> tuple[dict, Runner, bool]:
    """Time operations for ``seconds`` (checks included), with one set-up
    probe at the start of each of SETUP_PROBES equal parts of the run.

    Before each case the reference is timed.  Each operation's latency is
    scaled by REF_NOMINAL_S over the median of the reference times taken
    before its case and before the cases on either side, so that it reads as
    at a fixed machine speed (see README.md)."""
    import workloads
    runner = Runner()
    if wl.name == "oracle-check":
        runner.run(workloads.cold_solve_ops(cases[0]), record=False)
    runner.run(wl.ops(cases[0]), record=False)  # warm-up, checked but not timed
    probes, refs, case_of = [], [], []
    cases_run = 0
    loop_s = 0.0
    while loop_s < MAX_LOOP_S:
        part = len(probes)
        if part < SETUP_PROBES and loop_s >= seconds * part / SETUP_PROBES:
            probes.append(run_probe(wl.name, seed))
            continue
        if part == SETUP_PROBES and loop_s >= seconds and len(runner.latencies) >= MIN_SAMPLES:
            break
        start = perf_counter()
        refs.append(time_reference())
        timed = len(runner.latencies)
        runner.run(wl.ops(cases[1 + cases_run % (len(cases) - 1)]))
        case_of += [cases_run] * (len(runner.latencies) - timed)
        loop_s += perf_counter() - start
        cases_run += 1
    # a narrow window: a wide one scales the cases near a change of speed
    # by the other speed, which widens the tail
    scale = [REF_NOMINAL_S / statistics.median(refs[max(0, c - 1):c + 2])
             for c in range(cases_run)]
    raw = runner.latencies
    lat = [t * scale[c] for t, c in zip(raw, case_of)]
    digest = workloads.inputs_digest(cases)
    same_inputs = all(p["inputs"] == digest for p in probes)
    runner.attempted += sum(p["attempted"] for p in probes)
    runner.failed += sum(p["failed"] for p in probes)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": percentile_ms(lat, 50),
        "op_p90_ms": percentile_ms(lat, 90),
        # a mean: a probe that spans a change of machine speed is scaled
        # wrongly either way, and a median of 9 jumps more than a mean
        "cold_solve_s": statistics.mean(p["cold_solve_s"] for p in probes),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    p90 = metrics["op_p90_ms"] / 1000
    print(f"workload {wl.name} seed {seed}: {len(lat)} timed operations over "
          f"{cases_run} cases, {sum(t > p90 for t in lat)} beyond p90; "
          f"{len(probes)} set-up probes; inputs repeat in probes: {same_inputs}")
    print(f"unscaled: ops_per_s {len(raw) / sum(raw):.6g}, op_p50_ms "
          f"{percentile_ms(raw, 50):.6g}, op_p90_ms {percentile_ms(raw, 90):.6g}; "
          f"scale per case: median {statistics.median(scale):.4f}, "
          f"range {min(scale):.4f}-{max(scale):.4f}")
    for key in ("setup_s", "cold_solve_s", "scale"):
        print(f"{key} per probe: " + " ".join(f"{p[key]:.4f}" for p in probes))
    if not same_inputs:
        print("error: a set-up probe generated different inputs", file=sys.stderr)
    return metrics, runner, same_inputs


def measure_traced(wl, cases, names: list[str]) -> tuple[dict, Runner, bool]:
    """Run the first ``n_trace`` cases untraced, then traced; report the
    declared per-layer metrics ``names`` of this workload."""
    import layertrace
    import workloads
    tracer = layertrace.Tracer()
    plain = Runner(keep_outputs=True)
    traced = Runner(tracer, keep_outputs=True)
    subset = cases[:wl.n_trace]
    if wl.name == "oracle-check":
        with tracer.installed():
            traced.run(workloads.cold_solve_ops(cases[0]), record=False)
    for case in subset:
        plain.run(wl.ops(case))
    with tracer.installed():
        for case in subset:
            traced.run(wl.ops(case))
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    same_outputs = plain.outputs == traced.outputs
    overhead = sum(traced.latencies) / sum(plain.latencies)
    metrics = tracer.metrics(wl.name, names, traced.covered_s / sum(traced.latencies),
                             overhead)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{wl.name}.jsonl"
    tracer.write_spans(spans_path)
    print(f"workload {wl.name}: {len(subset)} cases, {len(traced.latencies)} operations "
          f"traced, {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}; "
          f"traced outputs equal untraced: {same_outputs}")
    if not same_outputs:
        print("error: traced outputs differ from untraced outputs", file=sys.stderr)
    return metrics, traced, same_outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-edge", "junction-census", "oracle-check"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    import_package()
    import workloads
    end_to_end, per_layer = declared_units()
    if args.trace:
        # Every per-layer metric is reported by every traced run, so a traced
        # run covers each workload's fixed subset, whichever one is named.
        values, runner, consistent = {}, Runner(), True
        for make in workloads.WORKLOADS.values():
            wl = make()
            names = [n for n in per_layer if n.startswith(f"{wl.name}.")]
            wl_values, wl_runner, same_outputs = measure_traced(
                wl, wl.generate(args.seed), names)
            values.update(wl_values)
            runner.attempted += wl_runner.attempted
            runner.failed += wl_runner.failed
            consistent = consistent and same_outputs
        units = per_layer
    else:
        wl = workloads.WORKLOADS[args.workload]()
        values, runner, consistent = measure(wl, wl.generate(args.seed), args.seed,
                                             args.seconds)
        units = end_to_end
    if set(values) != set(units):
        sys.exit(f"error: measured metrics {sorted(values)} are not the declared "
                 f"metrics {sorted(units)}")
    for name, value in values.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:<56} {shown} {units[name]}")
    print(f"{'error_rate':<56} {runner.failed / runner.attempted:>16.6g} "
          f"({runner.failed} of {runner.attempted} operations)")
    print(json.dumps({
        "correct": consistent and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
