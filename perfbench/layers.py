"""Per-layer attribution for the traced run.

The traced run repeats one fixed unit of a workload under a :class:`Probe`:

* a stdlib ``cProfile`` pass whose self time is folded by module path into
  the layer buckets below — every profiled function lands in exactly one
  bucket, so the buckets sum to the profile's total self time;
* call counts for the codec, address and reassembly entry points, read
  from the same profile;
* wrappers, installed only while the probe is active, around
  ``TestbedBuilder.build`` (what ``build_testbed`` runs), ``RunCache.put``
  and ``DNSMessage.decode``;
* the program's own work counters, read from its metrics registry
  through ``collect_metrics=True`` (sweeps) or a metrics-only capture.

Nothing here runs during the untraced runs that give the end-to-end
numbers.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from repro.dns.message import DNSMessage
from repro.dns.records import ResourceRecord
from repro.experiments.cache import RunCache
from repro.experiments.testbed import TestbedBuilder
from repro.netsim import addresses
from repro.netsim.fragmentation import ReassemblyBuffer
from repro.obs import MetricsSnapshot

#: Module (relative to the ``repro`` package) -> layer, where a package
#: holds more than one layer.
LAYER_OF_MODULE = {
    "__init__.py": "core",
    "dns/wire.py": "dns.codec",
    "dns/records.py": "dns.codec",
    "dns/message.py": "dns.codec",
    "dns/resolver.py": "dns.resolver",
    "dns/cache.py": "dns.resolver",
    "dns/nameserver.py": "dns.nameserver",
    "dns/transport.py": "dns.transport",
    "netsim/addresses.py": "netsim.addresses",
    "netsim/fragmentation.py": "netsim.fragmentation",
    "netsim/simulator.py": "netsim.simulator",
    "netsim/transport.py": "netsim.transport",
    "experiments/testbed.py": "experiments.testbed",
    "experiments/cache.py": "experiments.cache",
    # Record canonicalisation: what RunCache.put and the digests serialise.
    "experiments/results.py": "experiments.cache",
    "population/rng.py": "population.rng",
}
#: Package -> layer for every module not named above.
LAYER_OF_PACKAGE = {
    "dns": "dns.resolver",
    "netsim": "netsim.network",
    "ntp": "ntp",
    "core": "core",
    "defenses": "defenses",
    "attacks": "attacks",
    # The sweep execution path: scheduler, runner, registry, matrix, adapters.
    "experiments": "experiments.scheduler",
    "population": "population.engine",
    "obs": "obs",
    "faults": "faults",
    "analysis": "analysis",
    "measurement": "analysis",
    "campaign": "analysis",
}
#: Every bucket, in report order.  ``external`` is the standard library,
#: builtins, numpy and dataclass-generated methods (which cProfile files
#: under ``<string>``); ``perfbench`` is this benchmark's own code;
#: ``repro.other`` catches a package added after this table was written.
LAYERS = (
    "dns.codec", "dns.resolver", "dns.nameserver", "dns.transport",
    "netsim.addresses", "netsim.network", "netsim.fragmentation",
    "netsim.simulator", "netsim.transport", "ntp", "core", "defenses",
    "attacks", "experiments.testbed", "experiments.scheduler",
    "experiments.cache", "population.engine", "population.rng", "obs",
    "faults", "analysis", "repro.other", "perfbench", "external",
)


def _code_key(function) -> tuple[str, int, str]:
    code = function.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


#: Call counts read from the profile: metric -> functions whose calls add up.
COUNTED_CALLS = {
    "dns.codec.decode_calls": (DNSMessage.decode.__func__,),
    "dns.codec.encode_calls": (DNSMessage.encode,),
    "dns.codec.rr_decode_calls": (ResourceRecord.decode.__func__,),
    "dns.codec.rr_encode_calls": (ResourceRecord.encode,),
    "netsim.addresses.conversions": (addresses.ip_to_int, addresses.int_to_ip),
    "netsim.fragmentation.fragments": (ReassemblyBuffer.add_fragment,),
}

#: Registry counters reported as they are: metric -> counter name.
REGISTRY_COUNTERS = {
    "netsim.simulator.events": "sim.events_executed",
    "netsim.simulator.events_cancelled": "sim.events_cancelled",
    "netsim.network.packets_sent": "net.packets_sent",
    "netsim.network.packets_dropped": "net.packets_dropped",
    "dns.pool.connections_reused": "dns.pool.connections_reused",
    "dns.pool.zero_rtt_queries": "dns.pool.zero_rtt_queries",
    "population.clients_simulated": "fleet.clients_simulated",
}


class Probe:
    """Profiles and counts one traced unit of work."""

    def __init__(self, repro_dir: Path, bench_dir: Path) -> None:
        self.repro_dir = repro_dir
        self.bench_dir = bench_dir
        self.profile = cProfile.Profile()
        self.metrics = MetricsSnapshot()
        self.build_s = 0.0
        self.put_s = 0.0
        self.wait_s = 0.0
        self.decodes = 0
        self.repeated_decodes = 0
        self.repeated_in_unit = 0
        self._seen: set[bytes] = set()
        self._seen_in_unit: set[bytes] = set()

    # -- instrumentation -------------------------------------------------------
    @contextmanager
    def active(self):
        """Profile and wrap the program for the duration of the block."""
        probe = self
        build = TestbedBuilder.build
        put = RunCache.put
        decode = DNSMessage.__dict__["decode"]
        decode_function = decode.__func__

        def timed_build(builder, *args, **kwargs):
            began = time.perf_counter()
            try:
                return build(builder, *args, **kwargs)
            finally:
                probe.build_s += time.perf_counter() - began

        def timed_put(cache, *args, **kwargs):
            began = time.perf_counter()
            try:
                return put(cache, *args, **kwargs)
            finally:
                probe.put_s += time.perf_counter() - began

        def counted_decode(cls, data):
            payload = bytes(data)
            probe.decodes += 1
            if payload in probe._seen:
                probe.repeated_decodes += 1
            else:
                probe._seen.add(payload)
            if payload in probe._seen_in_unit:
                probe.repeated_in_unit += 1
            else:
                probe._seen_in_unit.add(payload)
            return decode_function(cls, data)

        TestbedBuilder.build = timed_build
        RunCache.put = timed_put
        DNSMessage.decode = classmethod(counted_decode)
        self.profile.enable()
        try:
            yield self
        finally:
            self.profile.disable()
            TestbedBuilder.build = build
            RunCache.put = put
            DNSMessage.decode = decode

    def next_operation(self) -> None:
        """A cell or query ended: decode repeats are counted within one."""
        self._seen = set()

    def record_sweep(self, stats) -> None:
        """Fold a traced sweep's scheduler wait and registry counters."""
        self.wait_s += stats.elapsed_seconds - stats.task_seconds_total
        if stats.metrics is not None:
            self.record_metrics(stats.metrics)

    def record_metrics(self, snapshot: MetricsSnapshot) -> None:
        self.metrics = self.metrics.merge(snapshot)

    # -- folding ---------------------------------------------------------------
    def layer_of(self, filename: str) -> str:
        path = Path(filename)
        if path.is_relative_to(self.repro_dir):
            module = path.relative_to(self.repro_dir).as_posix()
            if module in LAYER_OF_MODULE:
                return LAYER_OF_MODULE[module]
            return LAYER_OF_PACKAGE.get(module.split("/")[0], "repro.other")
        if path.is_relative_to(self.bench_dir):
            return "perfbench"
        return "external"

    def report(self, ops: int, untraced_s: float, traced_s: float,
               cache_bytes: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric: name -> (value, unit)."""
        stats = pstats.Stats(self.profile).stats
        self_s = dict.fromkeys(LAYERS, 0.0)
        for (filename, _, _), (_, _, own, _, _) in stats.items():
            self_s[self.layer_of(filename)] += own
        metrics: dict[str, tuple[float, str]] = {
            f"{layer}.self_s": (seconds, "s") for layer, seconds in self_s.items()}
        metrics["profile.total_self_s"] = (sum(self_s.values()), "s")
        for name, functions in COUNTED_CALLS.items():
            calls = sum(stats.get(_code_key(f), (0, 0))[1] for f in functions)
            metrics[name] = (calls, "count")
        decodes = max(self.decodes, 1)
        metrics["dns.codec.decode_repeat_ratio"] = (self.repeated_decodes / decodes, "ratio")
        # The same share across the whole unit, as a process-wide memo sees it.
        metrics["dns.codec.decode_repeat_ratio_unit"] = (
            self.repeated_in_unit / decodes, "ratio")
        counters = self.metrics
        for name, counter in REGISTRY_COUNTERS.items():
            metrics[name] = (counters.counter_total(counter), "count")
        metrics["netsim.transport.handshakes"] = (
            counters.counter("tcp.connections_established", side="client"), "count")
        accepted = counters.counter_total("dns.responses_accepted")
        answered = (accepted + counters.counter_total("dns.responses_rejected")
                    + counters.counter_total("dns.responses_unmatched"))
        metrics["dns.resolver.accept_ratio"] = (
            accepted / answered if answered else 0.0, "ratio")
        metrics["experiments.testbed.build_s"] = (self.build_s, "s")
        metrics["experiments.cache.put_s"] = (self.put_s, "s")
        metrics["experiments.cache.bytes_written"] = (cache_bytes, "B")
        metrics["experiments.scheduler.wait_s"] = (self.wait_s, "s")
        metrics["trace.ops"] = (ops, "count")
        metrics["trace.untraced_s"] = (untraced_s, "s")
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        return metrics
