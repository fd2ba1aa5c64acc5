"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` sets the workload up several times, measures it for
``--seconds`` seconds of timed work and reports the end-to-end metrics,
host-scaled (see ``workloads.host_scale``).
``--trace 1`` instead runs one fixed unit of the workload untraced, then
again under the per-layer probe (``layers.py``), and reports the per-layer
metrics.  Both modes check the program's outputs; a failed check makes the
result ``correct: false`` and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print the same numbers under the workload's own names (``cells_per_s`` on
``grid_cold``, ``queries_per_s`` on ``serving``, ``clients_per_s`` on
``fleet``, ...) with their sample counts and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for RunCache directories, removed when the run ends.
WORKDIR = ROOT / ".perfbench-work"

#: In-process set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Fresh interpreters timing the program's import; their median is part of
#: ``setup_s``, so work moved to import time shows there too.
IMPORT_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "began = time.perf_counter(); import workloads; "
                "print(time.perf_counter() - began, workloads.steady_host_scale())")

#: End-to-end metric -> unit.  Every workload reports each of them; what an
#: operation is depends on the workload (see ``workloads.py``).
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid_cold", "serving", "fleet"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


#: Module-level memo dicts of the program, as (module, attribute).
MEMO_DICTS = (
    ("repro.population.rng", "_SAMPLER_CACHE"),
    ("repro.population.engine", "_POISON_MEMO"),
)


def clear_process_caches() -> None:
    """Empty the program's process-level memo caches.

    These persist across repeated runs in one process: every
    ``functools.lru_cache`` in a loaded ``repro`` module (the name caches
    of ``repro.dns.wire``) and the dicts in :data:`MEMO_DICTS` (hypergeometric
    sampler tables, and the fleet's population-wide resolver poison map per
    fleet seed).  Clearing them makes each set-up pay for filling them again.
    """
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)) and hasattr(
                        value, "cache_info"):
                    value.cache_clear()
    for module, attribute in MEMO_DICTS:
        memo = getattr(sys.modules.get(module), attribute, None)
        if memo is not None:
            memo.clear()


def import_seconds() -> tuple[float, float]:
    """Median import time of the program: (host-scaled, as measured)."""
    scaled, raw = [], []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120)
        seconds, scale = map(float, child.stdout.split())
        scaled.append(seconds * scale)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, outcome, setup_s: float) -> dict[str, tuple[float, str]]:
    values = {
        "ops_per_s": statistics.median(outcome.rates),
        "op_ms_p50": statistics.median(outcome.latencies_ms),
        "op_ms_tail": percentile(outcome.latencies_ms, workload.tail_percentile),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def print_end_to_end(workload, outcome, metrics, setup) -> None:
    """Each metric under the workload's own name, with the measured value."""
    rate, p50, tail = workload.own_names
    raw = outcome.raw_latencies_ms
    samples = f"{len(raw)} samples"
    own_names = {
        "ops_per_s": (rate, statistics.median(outcome.raw_rates),
                      f"median of {len(outcome.rates)} passes, {outcome.ops} in all"),
        "op_ms_p50": (p50, statistics.median(raw), samples),
        "op_ms_tail": (tail, percentile(raw, workload.tail_percentile), samples),
        "setup_s": ("setup_s", setup["raw"],
                    f"host-scaled: median import {setup['import']:.4f} s + median "
                    f"of {SETUP_REPEATS} set-ups {setup['setup']:.4f} s"),
        "peak_rss_mb": ("peak_rss_mb", metrics["peak_rss_mb"][0], "whole run"),
    }
    print(f"  {'metric':<20} {'host-scaled':>14} {'measured':>14}")
    for name, (value, unit) in metrics.items():
        own, measured, note = own_names[name]
        print(f"  {own:<20} {value:>14.4f} {measured:>14.4f} {unit:<4} {name} ({note})")


def listed_metrics(trace: int):
    """The metric names BENCHMARK.json lists for this mode, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> int:
    os.environ.pop("REPRO_TRACE", None)  # end-to-end runs stay uninstrumented
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Outcome, steady_host_scale

    workload = WORKLOADS[args.workload]
    workdir = WORKDIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    outcome = Outcome()
    try:
        import_s, raw_import_s = import_seconds()
        setup_times, raw_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            clear_process_caches()
            began = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            seconds = time.perf_counter() - began
            setup_times.append(seconds * steady_host_scale())
            raw_setup_times.append(seconds)
        setup = {"import": import_s, "setup": statistics.median(setup_times),
                 "raw": raw_import_s + statistics.median(raw_setup_times)}
        print(f"{workload.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        if args.trace:
            from layers import Probe

            _, untraced_s = workload.unit(state, None, outcome)
            cache_bytes = outcome.cache_bytes
            probe = Probe(SRC / "repro", HERE)
            ops, traced_s = workload.unit(state, probe, outcome)
            metrics = probe.report(ops, untraced_s, traced_s, cache_bytes)
            for name, (value, unit) in metrics.items():
                print(f"  {name:<36} {value:>14.4f} {unit}")
        else:
            workload.measure(state, args.seconds, outcome)
            metrics = end_to_end(workload, outcome, setup["import"] + setup["setup"])
            print_end_to_end(workload, outcome, metrics, setup)
        workload.finish(state, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it

    listed = listed_metrics(args.trace)
    if listed is not None:
        outcome.check("metrics match BENCHMARK.json", listed == set(metrics))
    print(f"  fail_ratio {outcome.failed / max(outcome.attempted, 1):.4f} "
          f"({outcome.failed} of {outcome.attempted} failed)")
    for name, passed in outcome.checks.items():
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}")
    correct = all(outcome.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
