"""E-scaleout: the matrix sweep-execution layer as a perf + determinism gate.

Three runs of the default 6-attack × 12-stack grid, plus one run of the
PR-2/PR-3 legacy sub-grid:

1. **shared** — all rows flattened into one task stream on a single shared
   pool at ``workers=4``;
2. **cold** — ``workers=1`` writing a fresh persistent run cache;
3. **warm** — the same sweep replayed entirely from that cache;
4. **legacy** — the pre-transport rows/columns only, whose digest must
   still equal the PR-2 baseline.

Gates:

* the three full-grid digests are byte-identical and equal to the pinned
  PR-4 value at seeds ``(1, 2)``, and the legacy sub-grid digest equals the
  pinned PR-2 baseline — neither the execution-layer refactors nor the
  encrypted-transport subsystem are visible in the output;
* the shared run really ran on one pool of ``WORKERS`` processes: not
  inline, no pool lost, never degraded to inline execution;
* warm ≥ 10× faster than cold (``SCALEOUT_MIN_CACHE_SPEEDUP``) — the cache
  actually makes re-runs incremental.

The measured numbers are also written to ``BENCH_matrix_scaleout.json``
(path override: ``SCALEOUT_JSON``) so CI can archive the run.  Reduced CI
form: fewer seeds via ``SCALEOUT_SEED_COUNT`` (digest pinning then only
applies when the grid is the pinned one).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import emit, usable_cpus

from repro.experiments import (
    LEGACY_ATTACKS,
    LEGACY_STACKS,
    RunCache,
    run_defense_matrix,
)

#: Digest of the PR-2/PR-3 grid (now the LEGACY_* sub-grid) at seeds (1, 2)
#: as first produced — pinned so neither the shared scheduler, the cache
#: replay path, the hot-path work, nor the encrypted-transport subsystem can
#: drift the earlier science.
PR2_BASELINE_DIGEST = "8fd76ec98cd658b56371cb3f35fb48bf040423c0b4b819d05a6b8377f4bbe0de"
#: Digest of the full default grid — legacy rows/columns plus the
#: ``downgrade`` row and the ``dot_strict``/``dot_opportunistic`` columns —
#: at seeds (1, 2), pinned at its introduction (PR 4).
PR4_FULL_DIGEST = "7ae32a72cca2adb6b2b62fbf2dd6cd30e97e0eb27a678b975502e7dda9c8d4b4"

SEEDS = tuple(range(1, int(os.environ.get("SCALEOUT_SEED_COUNT", "2")) + 1))
WORKERS = 4


def _timed(**kwargs):
    start = time.perf_counter()
    matrix = run_defense_matrix(seeds=SEEDS, **kwargs)
    return matrix, time.perf_counter() - start


def run_quartet(cache_dir):
    shared, shared_s = _timed(workers=WORKERS)
    cold, cold_s = _timed(workers=1, cache=RunCache(cache_dir))
    warm, warm_s = _timed(workers=1, cache=RunCache(cache_dir))
    legacy, legacy_s = _timed(attacks=LEGACY_ATTACKS, stacks=LEGACY_STACKS,
                              workers=WORKERS)
    return {
        "shared": (shared, shared_s),
        "cold": (cold, cold_s),
        "warm": (warm, warm_s),
        "legacy": (legacy, legacy_s),
    }


def test_matrix_scaleout_gates(benchmark, tmp_path):
    runs = benchmark.pedantic(run_quartet, args=(tmp_path / "run-cache",),
                              rounds=1, iterations=1)
    timings = {name: seconds for name, (_, seconds) in runs.items()}
    digests = {name: matrix.digest() for name, (matrix, _) in runs.items()}
    legacy_digest = digests.pop("legacy")
    cache_speedup = timings["cold"] / max(timings["warm"], 1e-9)
    shared_stats = runs["shared"][0].sweep_stats
    warm_stats = runs["warm"][0].sweep_stats
    cpus = usable_cpus()
    min_cache = float(os.environ.get("SCALEOUT_MIN_CACHE_SPEEDUP", "10.0"))
    pinnable = SEEDS == (1, 2)

    report = {
        "seeds": list(SEEDS),
        "workers": WORKERS,
        "usable_cpus": cpus,
        "timings_seconds": {name: round(seconds, 4) for name, seconds in timings.items()},
        "shared_pool": {"workers": shared_stats.workers,
                        "executed_inline": shared_stats.executed_inline,
                        "pool_losses": shared_stats.pool_losses,
                        "degraded_to_inline": shared_stats.degraded_to_inline},
        "cache_speedup": round(cache_speedup, 3),
        "warm_cache": {"hits": warm_stats.cache_hits, "executed": warm_stats.executed},
        "digest": digests["shared"],
        "legacy_digest": legacy_digest,
        "pr2_baseline_digest": PR2_BASELINE_DIGEST if pinnable else None,
        "pr4_full_digest": PR4_FULL_DIGEST if pinnable else None,
        "digests_identical": len(set(digests.values())) == 1,
    }
    json_path = os.environ.get("SCALEOUT_JSON", "BENCH_matrix_scaleout.json")
    with Path(json_path).open("w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    emit("E-scaleout — shared scheduler + persistent run cache on the "
         f"6-attack × 12-stack grid, seeds={list(SEEDS)}", [
             f"shared pool   (workers={WORKERS}): {timings['shared']:.2f}s "
             f"on {cpus} usable CPUs ({shared_stats.pool_losses} pool losses)",
             f"cold cache    (workers=1): {timings['cold']:.2f}s",
             f"warm cache    (workers=1): {timings['warm']:.3f}s "
             f"(speedup {cache_speedup:.1f}x, "
             f"{warm_stats.cache_hits} hits / {warm_stats.executed} executed)",
             f"legacy sub-grid (workers={WORKERS}): {timings['legacy']:.2f}s",
             f"digests identical: {report['digests_identical']}",
             f"PR-2 legacy digest match: "
             f"{legacy_digest == PR2_BASELINE_DIGEST if pinnable else 'n/a'}",
             f"PR-4 full-grid digest match: "
             f"{digests['shared'] == PR4_FULL_DIGEST if pinnable else 'n/a'}",
             f"report: {json_path}",
         ])

    # Gate (c): the refactor is invisible in the output — in particular the
    # shared pool's digest equals the workers=1 cold run's.
    assert len(set(digests.values())) == 1, f"digests diverged: {digests}"
    assert digests["shared"] == digests["cold"]
    if pinnable:
        assert legacy_digest == PR2_BASELINE_DIGEST, (
            "legacy-grid digest drifted from the PR-2 baseline: "
            f"{legacy_digest} != {PR2_BASELINE_DIGEST}")
        assert digests["shared"] == PR4_FULL_DIGEST, (
            "full-grid digest drifted from its PR-4 pin: "
            f"{digests['shared']} != {PR4_FULL_DIGEST}")
    # Gate (a): warm replay computed nothing and is an order of magnitude
    # faster than the cold run.
    assert warm_stats.executed == 0
    assert warm_stats.cache_hits == warm_stats.tasks_total
    assert cache_speedup >= min_cache, (
        f"expected warm-cache re-run >= {min_cache}x faster than cold, "
        f"got {cache_speedup:.2f}x")
    # Gate (b): the shared run executed on one healthy pool of WORKERS.
    assert shared_stats.workers == WORKERS
    assert not shared_stats.executed_inline
    assert shared_stats.pool_losses == 0
    assert not shared_stats.degraded_to_inline
