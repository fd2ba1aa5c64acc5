"""The three benchmark workloads: ``grid_cold``, ``serving`` and ``fleet``.

Every workload is a closed loop with one caller, run inline
(``workers=1``).  Each exposes the same four steps to ``run.py``:

``setup(seed, workdir)``
    Derive the inputs from the workload seed and fill the process-level
    memo caches with a small warm-up; returns the state ``measure`` uses.
``measure(state, seconds, outcome)``
    Repeat the workload's unit of work until ``seconds`` of timed work
    have accumulated, recording per-operation latencies, per-pass rates,
    failures and output checks into ``outcome``.
``unit(state, probe, outcome)``
    One fixed amount of the same work for the traced run; returns the
    operations done and the wall seconds they took.  ``probe`` is ``None``
    on the untraced baseline and a :class:`layers.Probe` on the traced
    repetition.
``finish(state, outcome)``
    Checks that need a pass of their own, outside the timed region.

The program only ever sees inputs generated from the workload seed.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.mitigations import section5_from_matrix
from repro.defenses.transport import EncryptedTransport
from repro.dns.records import RecordType
from repro.experiments import (
    DEFAULT_ATTACKS,
    RunCache,
    SweepScheduler,
    TestbedConfig,
    build_testbed,
    run_defense_matrix,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scheduler import SweepError
from repro.obs import capture
from repro.population.scenario import combine_cohort_metrics, population_specs

#: Digest of the full default grid at seeds (1, 2), pinned since the
#: encrypted-transport rows and columns were added.
PINNED_GRID_SEEDS = (1, 2)
PINNED_GRID_DIGEST = "7ae32a72cca2adb6b2b62fbf2dd6cd30e97e0eb27a678b975502e7dda9c8d4b4"


#: Host-speed calibration.  A shared host's speed drifts with its
#: neighbours' load (±30% over minutes on the 2-vCPU VM of the recorded
#: trajectory), and the drift moves every workload at once.
#: So each timed operation (a grid cell, a fleet cohort, a serving query)
#: is followed by this fixed pure-Python loop, and its wall time is scaled
#: by ``CALIBRATION_REFERENCE_S`` over the loop's time: the metrics read as
#: on a host where the full loop takes exactly 1 ms.  The raw times are
#: printed beside them.
CALIBRATION_LOOP = 10_000
CALIBRATION_REFERENCE_S = 0.001


def host_scale(loop: int = CALIBRATION_LOOP) -> float:
    """Reference over measured time of ``loop`` calibration steps (< 1 when slow)."""
    began = time.perf_counter()
    total = 0
    for i in range(loop):
        total += i * i % 7
    elapsed = time.perf_counter() - began
    return CALIBRATION_REFERENCE_S * loop / CALIBRATION_LOOP / elapsed


def steady_host_scale() -> float:
    """Median of five calibrations, for one-off timings such as set-up."""
    return statistics.median(host_scale() for _ in range(5))


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: Throughput of each timed pass (grid pass, serving round, fleet pass),
    #: host-scaled, and as measured.
    rates: list[float] = field(default_factory=list)
    raw_rates: list[float] = field(default_factory=list)
    #: Every operation of the timed passes in milliseconds, host-scaled, and
    #: as measured.
    latencies_ms: list[float] = field(default_factory=list)
    raw_latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Operations counted in ``rates`` (cells, queries or clients).
    ops: int = 0
    #: Bytes the last grid pass left in its RunCache directory.
    cache_bytes: int = 0
    checks: dict[str, bool] = field(default_factory=dict)

    def add_pass(self, raw_ms: list[float], scales: list[float], ops: int) -> float:
        """Record one timed pass; returns its measured seconds."""
        scaled = [ms * scale for ms, scale in zip(raw_ms, scales)]
        self.latencies_ms.extend(scaled)
        self.raw_latencies_ms.extend(raw_ms)
        self.rates.append(ops * 1000.0 / sum(scaled))
        self.raw_rates.append(ops * 1000.0 / sum(raw_ms))
        self.ops += ops
        return sum(raw_ms) / 1000.0

    def check(self, name: str, passed: bool) -> None:
        """Record a named output check; a check that ever fails stays failed."""
        self.checks[name] = self.checks.get(name, True) and bool(passed)


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _active(probe):
    return nullcontext() if probe is None else probe.active()


class _ProgressClock:
    """``on_progress`` observer turning per-task callbacks into latencies.

    With ``calibrate``, each task is followed by a host-speed calibration,
    which the next task's time leaves out.
    """

    def __init__(self, probe=None, calibrate: bool = False) -> None:
        self.probe = probe
        self.calibrate = calibrate
        #: Milliseconds from the previous callback to this one: one per task.
        self.raw_ms: list[float] = []
        self.scales: list[float] = []
        self.last = time.perf_counter()

    def __call__(self, done: int, total: int) -> None:
        self.raw_ms.append((time.perf_counter() - self.last) * 1000.0)
        if self.calibrate:
            self.scales.append(host_scale())
        if self.probe is not None:
            self.probe.next_operation()
        self.last = time.perf_counter()


# -- grid_cold -----------------------------------------------------------------

class GridCold:
    """The full default attack × defense matrix, cold, into a fresh RunCache."""

    name = "grid_cold"
    tail_percentile = 95
    #: This workload's own names for ops_per_s, op_ms_p50 and op_ms_tail.
    own_names = ("cells_per_s", "cell_ms_p50", "cell_ms_p95")
    #: Seeds per pass: 2 seeds × 72 cells = 144 tasks, about 2 s.
    seeds_per_pass = 2

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        warm_seed = _draw_seed(rng)
        # One classic-stack cell of every attack row touches every scenario
        # module and fills the codec's name caches.
        for attack in DEFAULT_ATTACKS:
            run_scenario(attack.scenario, warm_seed, {**attack.params, "defenses": ()})
        return {"rng": rng, "workdir": workdir, "passes": 0,
                "unit_seeds": self._next_seeds(random.Random(f"{self.name}:{seed}:unit"))}

    def _next_seeds(self, rng: random.Random) -> tuple[int, ...]:
        return tuple(sorted(_draw_seed(rng) for _ in range(self.seeds_per_pass)))

    def _grid_pass(self, state, seeds, outcome: Outcome, clock: _ProgressClock,
                   probe=None):
        """One cold matrix pass plus its checks; returns (elapsed, cells)."""
        state["passes"] += 1
        cache_dir = state["workdir"] / f"grid-{state['passes']}"
        with _active(probe):
            started = time.perf_counter()
            clock.last = started
            try:
                matrix = run_defense_matrix(seeds=seeds, workers=1,
                                            cache=RunCache(cache_dir), on_progress=clock,
                                            collect_metrics=probe is not None)
                stats = matrix.sweep_stats
            except SweepError as exc:
                matrix, stats = None, exc.stats
                outcome.failed += len(exc.failures)
            elapsed = time.perf_counter() - started
        outcome.attempted += stats.tasks_total
        outcome.cache_bytes = sum(path.stat().st_size for path in cache_dir.iterdir())
        if probe is not None:
            probe.record_sweep(stats)
        if matrix is not None:  # a failed cell is counted, not checked
            warm = run_defense_matrix(seeds=seeds, workers=1, cache=RunCache(cache_dir))
            outcome.check("cold digest equals warm replay",
                          warm.digest() == matrix.digest()
                          and warm.sweep_stats.executed == 0)
            outcome.check("section5_from_matrix rows agree",
                          all(row.verdict_agrees and row.fraction_agrees
                              for row in section5_from_matrix(matrix)))
        shutil.rmtree(cache_dir, ignore_errors=True)
        state["last_matrix"] = matrix
        return elapsed, stats.tasks_total

    def measure(self, state, seconds: float, outcome: Outcome) -> None:
        timed = 0.0
        while timed < seconds:
            clock = _ProgressClock(calibrate=True)
            self._grid_pass(state, self._next_seeds(state["rng"]), outcome, clock)
            timed += outcome.add_pass(clock.raw_ms, clock.scales, len(clock.raw_ms))

    def unit(self, state, probe, outcome: Outcome) -> tuple[int, float]:
        elapsed, cells = self._grid_pass(state, state["unit_seeds"], outcome,
                                         _ProgressClock(probe), probe)
        return cells, elapsed

    def finish(self, state, outcome: Outcome) -> None:
        self._grid_pass(state, PINNED_GRID_SEEDS, outcome, _ProgressClock())
        matrix = state["last_matrix"]
        outcome.check("pinned digest at seeds (1, 2)",
                      matrix is not None and matrix.digest() == PINNED_GRID_DIGEST)


# -- serving -------------------------------------------------------------------

#: The transports of the serving-throughput benchmark.  Queries are 10 s
#: apart: the pooled config's idle timeout outlives the gap, the 0-RTT
#: config's does not, so every 0-RTT query resumes from its session ticket.
SERVING_TRANSPORTS = {
    "udp": (),
    "dot_cold": ("encrypted_transport",),
    "dot_reused": (EncryptedTransport(reuse_connections=True, idle_timeout=60.0),),
    "dot_0rtt": (EncryptedTransport(zero_rtt=True, idle_timeout=5.0),),
}
#: A records per upstream answer: the zone's usual size and a large one.
SERVING_RECORD_COUNTS = (4, 30)
QUERY_SPACING = 10.0
ANSWER_WINDOW = 9.0
ZONE = "pool.ntp.org"


@dataclass
class _World:
    transport: str
    records: int
    testbed: object
    queries: int = 0


class Serving:
    """Cache-missing pool.ntp.org lookups round-robin over eight testbeds."""

    name = "serving"
    tail_percentile = 99
    own_names = ("queries_per_s", "query_ms_p50", "query_ms_p99")
    #: Rounds (one query per world) in the traced unit: 1200 queries.
    unit_rounds = 150

    def _build_worlds(self, world_seeds) -> list[_World]:
        worlds = []
        for (transport, records), world_seed in zip(self._layout(), world_seeds):
            testbed = build_testbed(TestbedConfig(
                seed=world_seed, benign_server_count=50, records_per_response=records,
                defenses=SERVING_TRANSPORTS[transport], with_attacker=False))
            worlds.append(_World(transport, records, testbed))
        return worlds

    @staticmethod
    def _layout():
        return [(transport, records) for transport in SERVING_TRANSPORTS
                for records in SERVING_RECORD_COUNTS]

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        world_seeds = [_draw_seed(rng) for _ in self._layout()]
        worlds = self._build_worlds(world_seeds)
        for world in worlds:  # warm-up query: first handshake, codec caches
            self._query(world)
        return {"worlds": worlds, "world_seeds": world_seeds}

    @staticmethod
    def _query(world: _World) -> bool:
        testbed = world.testbed
        at = world.queries * QUERY_SPACING
        world.queries += 1
        testbed.simulator.schedule_at(at, lambda: testbed.resolver.trigger_lookup(ZONE))
        testbed.simulator.run(until=at + ANSWER_WINDOW)
        entry = testbed.resolver.cache.peek(ZONE, RecordType.A)
        return entry is not None and entry.inserted_at >= at

    def _round(self, worlds, outcome: Outcome, probe=None,
               calibrate: bool = False) -> tuple[list[float], list[float]]:
        """One query per world; returns each query's milliseconds and, with
        ``calibrate``, the host scale measured after each query."""
        raw_ms, scales = [], []
        for world in worlds:
            began = time.perf_counter()
            answered = self._query(world)
            raw_ms.append((time.perf_counter() - began) * 1000.0)
            outcome.attempted += 1
            outcome.failed += not answered
            if calibrate:
                # A quarter loop: the full one would take as long as a query.
                scales.append(host_scale(CALIBRATION_LOOP // 4))
            if probe is not None:
                probe.next_operation()
        return raw_ms, scales

    def measure(self, state, seconds: float, outcome: Outcome) -> None:
        worlds = state["worlds"]
        timed = 0.0
        while timed < seconds:
            raw_ms, scales = self._round(worlds, outcome, calibrate=True)
            # The round's mean scale: one short loop is too noisy alone.
            scale = statistics.mean(scales)
            timed += outcome.add_pass(raw_ms, [scale] * len(raw_ms), len(raw_ms))
        self._check_pools(worlds, outcome)

    def unit(self, state, probe, outcome: Outcome) -> tuple[int, float]:
        # Simulators adopt the observability facade current at their
        # construction, so the traced worlds are built inside the capture.
        with (nullcontext() if probe is None else capture(trace=False)) as ob, \
                _active(probe):
            started = time.perf_counter()
            worlds = self._build_worlds(state["world_seeds"])
            for _ in range(self.unit_rounds):
                self._round(worlds, outcome, probe)
            elapsed = time.perf_counter() - started
        if probe is not None:
            probe.record_metrics(ob.metrics.snapshot())
        self._check_pools(worlds, outcome)
        return self.unit_rounds * len(worlds), elapsed

    @staticmethod
    def _check_pools(worlds, outcome: Outcome) -> None:
        """Pool counters are exact: one open plus N-1 reuses, N-1 resumptions."""
        for world in worlds:
            upstream = world.testbed.resolver.upstream_transport
            counters = (getattr(upstream, "connections_opened", 0),
                        getattr(upstream, "connections_reused", 0),
                        getattr(upstream, "zero_rtt_queries", 0))
            n = world.queries
            expected = {"udp": (0, 0, 0), "dot_cold": (0, 0, 0),
                        "dot_reused": (1, n - 1, 0),
                        "dot_0rtt": (n, 0, n - 1)}[world.transport]
            outcome.check(f"pool counters exact ({world.transport}, "
                          f"{world.records} records)", counters == expected)

    def finish(self, state, outcome: Outcome) -> None:
        pass


# -- fleet ---------------------------------------------------------------------

#: Twelve equal cohorts.  The first cohort of a sweep also builds the
#: population-wide resolver poison map and takes about five times as long
#: as the others, so p95 falls inside that slow twelfth rather than on the
#: edge between the two groups.
FLEET_CLIENTS = 1_200_000
FLEET_COHORTS = 12
FLEET_PARAMS = {
    "resolvers": 1024,
    "stagger_window": 86400.0,
    "update_rounds": 5,
    "backend": "numpy",
}


class Fleet:
    """``population_sweep`` over 1.2 × 10^6 clients in twelve cohorts (numpy)."""

    name = "fleet"
    tail_percentile = 95
    #: Latencies are per cohort: a single client has no wall time of its own.
    own_names = ("clients_per_s", "cohort_ms_p50", "cohort_ms_p95")
    #: Warm-up fleet: small, but it needs the same sampler tables.
    warmup_clients = 50_000

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        warmup = population_specs(clients=self.warmup_clients,
                                  cohort_size=self.warmup_clients // FLEET_COHORTS,
                                  seeds=(_draw_seed(rng),), base_params=FLEET_PARAMS)
        SweepScheduler(workers=1).run_specs(warmup)
        return {"rng": rng, "unit_seed": _draw_seed(random.Random(f"{self.name}:{seed}:unit"))}

    def _fleet_pass(self, fleet_seed: int, outcome: Outcome, clock: _ProgressClock,
                    probe=None) -> float:
        specs = population_specs(clients=FLEET_CLIENTS,
                                 cohort_size=FLEET_CLIENTS // FLEET_COHORTS,
                                 seeds=(fleet_seed,), base_params=FLEET_PARAMS)
        scheduler = SweepScheduler(workers=1, on_progress=clock,
                                   collect_metrics=probe is not None)
        with _active(probe):
            started = time.perf_counter()
            clock.last = started
            try:
                (result,), stats = scheduler.run_specs(specs)
            except SweepError as exc:
                result, stats = None, exc.stats
                outcome.failed += len(exc.failures)
            elapsed = time.perf_counter() - started
        outcome.attempted += stats.tasks_total
        if probe is not None:
            probe.record_sweep(stats)
        if result is not None:
            fleet = combine_cohort_metrics(record.metrics for record in result.records)
            outcome.check("fleet histogram sums to the client count",
                          sum(fleet["poison_histogram"]) == FLEET_CLIENTS
                          and fleet["clients"] == FLEET_CLIENTS)
        return elapsed

    def measure(self, state, seconds: float, outcome: Outcome) -> None:
        timed = 0.0
        while timed < seconds:
            clock = _ProgressClock(calibrate=True)
            self._fleet_pass(_draw_seed(state["rng"]), outcome, clock)
            timed += outcome.add_pass(clock.raw_ms, clock.scales, FLEET_CLIENTS)

    def unit(self, state, probe, outcome: Outcome) -> tuple[int, float]:
        elapsed = self._fleet_pass(state["unit_seed"], outcome, _ProgressClock(probe), probe)
        return FLEET_CLIENTS, elapsed

    def finish(self, state, outcome: Outcome) -> None:
        pass


WORKLOADS = {workload.name: workload for workload in (GridCold(), Serving(), Fleet())}
