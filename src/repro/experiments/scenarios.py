"""Registry adapters exposing the attack scenarios as named experiments.

Each attack adapter is a :class:`~repro.experiments.registry.ConfigScenario`:
it names its scenario's config dataclass, the fields exposed as parameters
and its opt-in fields, and flattens the outcome into a metrics dict.  The
defaults live on the dataclasses alone.  Conventions shared by all adapters
so sweeps aggregate uniformly:

* ``attack_succeeded`` — the scenario's headline success criterion (bool);
* ``achieved_shift`` — the clock error reached on the victim, where the
  scenario has a time-shifting phase (seconds);
* ``defenses`` — every attack scenario accepts a tuple of defense registry
  names (see :mod:`repro.defenses`) stacked onto the victim, and reports
  ``defense_rejections`` (defense name -> rejected responses/samples);
* ``faults`` — every attack scenario accepts an opt-in fault-plan spec (see
  :mod:`repro.faults`).  Opt-in names have no default, so a fault-free
  sweep's resolved params — its digests and cache keys — never mention it.

The non-attack scenarios (``dns_measurement``, ``transport_overhead``) have
no config dataclass and keep literal default dicts.  Importing this module
registers the adapters; the registry does so lazily on first lookup.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from typing import Any

from ..attacks.baseline_scenario import BaselineAttackConfig, TraditionalClientAttackScenario
from ..attacks.bgp_hijack import BGPHijackConfig, BGPHijackScenario
from ..attacks.chronos_pool_attack import ChronosPoolAttackScenario, PoolAttackConfig
from ..attacks.downgrade import DowngradeConfig, DowngradeScenario
from ..attacks.frag_poisoning import FragPoisoningConfig, FragPoisoningScenario
from ..defenses.stack import DefenseStack
from .registry import ConfigScenario, merge_params, register_scenario


def defense_rejections(*stacks: DefenseStack) -> dict[str, int]:
    """Combined per-defense rejection counts across the given stacks.

    The resolver counts its own (response-side) rejections while the testbed
    stack counts pool-admission and NTP-sample vetoes; summing the two gives
    the full picture of *which* defense blocked an attack.
    """
    total: Counter = Counter()
    for stack in stacks:
        total.update(stack.rejections)
    return dict(sorted(total.items()))


@register_scenario
class ChronosPoolAttackExperiment(ConfigScenario):
    """Figure 1 end to end: poison the pool generation, then shift the clock."""

    name = "chronos_pool_attack"
    description = ("DNS poisoning of Chronos' 24-query pool generation "
                   "followed by the time-shifting phase (§IV)")
    config_class = PoolAttackConfig
    nested = ("pool_policy",)
    params = ("poison_at_query", "benign_server_count", "attacker_record_count",
              "malicious_ttl", "hijack_duration", "dedupe",
              "max_addresses_per_response", "max_accepted_ttl", "run_time_shift",
              "target_shift", "update_rounds", "defenses")

    def measure(self, config: PoolAttackConfig,
                params: Mapping[str, Any]) -> dict[str, Any]:
        scenario = ChronosPoolAttackScenario(config)
        pool = scenario.run_pool_generation()
        metrics: dict[str, Any] = {
            "defense_rejections": defense_rejections(scenario.resolver.defenses,
                                                     scenario.testbed.defenses),
            "attack_succeeded": pool.attack_succeeded,
            "attacker_fraction": pool.attacker_fraction,
            "benign": pool.composition.benign,
            "malicious": pool.composition.malicious,
            "pool_size": pool.pool.size,
            "cache_hits": pool.cache_hits_during_generation,
            "poisoned_queries": list(pool.poisoned_queries),
        }
        if config.run_time_shift:
            shift = scenario.run_time_shift()
            metrics.update(
                achieved_shift=shift.achieved_error,
                shift_achieved=shift.shift_achieved,
                updates_run=shift.updates_run,
                panic_rounds=shift.panic_rounds,
            )
        return metrics


@register_scenario
class TraditionalClientAttackExperiment(ConfigScenario):
    """The baseline comparison: poison a plain NTP client's one DNS lookup."""

    name = "traditional_client_attack"
    description = ("DNS poisoning of a traditional NTP client's start-up "
                   "resolution followed by time shifting (E6/E9 baseline)")
    config_class = BaselineAttackConfig
    params = ("poison_startup_lookup", "benign_server_count", "attacker_record_count",
              "malicious_ttl", "max_servers", "target_shift", "poll_rounds", "defenses")

    def measure(self, config: BaselineAttackConfig,
                params: Mapping[str, Any]) -> dict[str, Any]:
        scenario = TraditionalClientAttackScenario(config)
        result = scenario.run()
        return {
            "attack_succeeded": result.attack_succeeded,
            "defense_rejections": defense_rejections(scenario.resolver.defenses,
                                                     scenario.testbed.defenses),
            "achieved_shift": result.achieved_error,
            "servers_used": len(result.servers_used),
            "malicious_servers_used": result.malicious_servers_used,
            "polls_run": result.polls_run,
        }


@register_scenario
class BGPHijackExperiment(ConfigScenario):
    """The prefix-hijack poisoning vector on its own (§II)."""

    name = "bgp_hijack"
    description = ("cache poisoning of the victim resolver via a BGP "
                   "more-specific hijack of the nameserver prefix (§II)")
    config_class = BGPHijackConfig
    params = ("benign_server_count", "attacker_record_count", "malicious_ttl",
              "hijack_start", "hijack_duration", "lookup_time", "defenses")

    def measure(self, config: BGPHijackConfig,
                params: Mapping[str, Any]) -> dict[str, Any]:
        scenario = BGPHijackScenario(config)
        result = scenario.run()
        return {
            "attack_succeeded": result.attack_succeeded,
            "defense_rejections": defense_rejections(scenario.resolver.defenses),
            "cache_poisoned": result.cache_poisoned,
            "malicious_records_cached": result.malicious_records_cached,
            "cached_ttl": result.cached_ttl,
            "legitimate_queries_answered": result.legitimate_queries_answered,
            "hijacked_queries_answered": result.hijacked_queries_answered,
        }


@register_scenario
class FragPoisoningExperiment(ConfigScenario):
    """The defragmentation-cache injection poisoning vector (§II.A)."""

    name = "frag_poisoning"
    description = ("cache poisoning via spoofed trailing IPv4 fragments "
                   "spliced into the nameserver's fragmented response (§II.A)")
    config_class = FragPoisoningConfig
    params = ("benign_server_count", "records_per_response", "nameserver_min_mtu",
              "accept_fragments", "checksum_oracle", "ipid_window", "starting_ipid",
              "attacker_record_count", "malicious_ttl", "defenses")
    # trigger_count/trigger_interval opt into the sustained-load profile
    # (the ``sustained_load`` matrix row); leaving them out keeps the
    # classic single-race run — and its pinned digests — untouched.
    opt_in = ("faults", "trigger_count", "trigger_interval")

    def measure(self, config: FragPoisoningConfig,
                params: Mapping[str, Any]) -> dict[str, Any]:
        scenario = FragPoisoningScenario(config)
        result = scenario.run()
        metrics = {
            "attack_succeeded": result.attack_succeeded,
            "defense_rejections": defense_rejections(scenario.resolver.defenses),
            "cache_poisoned": result.cache_poisoned,
            "planted_fragments": result.planted_fragments,
            "poisoned_records_cached": result.poisoned_records_cached,
            "records_cached": result.records_cached,
        }
        if "trigger_count" in params:
            limiter = scenario.nameserver.rate_limiter
            metrics.update({
                "races_run": result.races_run,
                "races_poisoned": result.races_poisoned,
                "rrl_dropped": limiter.responses_dropped if limiter else 0,
                "rrl_slipped": limiter.responses_slipped if limiter else 0,
            })
        return metrics


@register_scenario
class DowngradeAttackExperiment(ConfigScenario):
    """The encrypted-transport downgrade vector: force plaintext, then poison."""

    name = "downgrade"
    description = ("SYN-flood downgrade of opportunistic encrypted DNS "
                   "followed by the classic fragmentation poisoning race")
    config_class = DowngradeConfig
    params = ("benign_server_count", "records_per_response", "nameserver_min_mtu",
              "syns_per_port", "flood_bursts", "flood_interval", "lookup_time",
              "ipid_window", "checksum_oracle", "attacker_record_count",
              "malicious_ttl", "defenses")

    def measure(self, config: DowngradeConfig,
                params: Mapping[str, Any]) -> dict[str, Any]:
        scenario = DowngradeScenario(config)
        result = scenario.run()
        return {
            "attack_succeeded": result.attack_succeeded,
            "defense_rejections": defense_rejections(scenario.resolver.defenses),
            "cache_poisoned": result.cache_poisoned,
            "downgraded": result.downgraded,
            "encrypted_failures": result.encrypted_failures,
            "syns_sent": result.syns_sent,
            "syns_dropped": result.syns_dropped,
            "planted_fragments": result.planted_fragments,
            "poisoned_records_cached": result.poisoned_records_cached,
        }


@register_scenario
class DNSMeasurementExperiment:
    """The §II DNS ecosystem study (E4) as a registry experiment.

    Not an attack: one run generates a synthetic nameserver + resolver
    population for the given seed, executes the probe/classify pipeline and
    returns the published marginals — so sweeping the study across seeds
    through the scheduler yields confidence intervals on every fraction.
    """

    name = "dns_measurement"
    description = ("the §II companion measurement: nameserver fragmentation/"
                   "DNSSEC and resolver fragment-acceptance statistics (E4)")

    def default_params(self) -> dict[str, Any]:
        return {
            "nameserver_total": 30,
            "nameserver_fragmenting": 16,
            "resolver_total": 5000,
            "pair_sample": 200,
        }

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        # Imported here: the measurement layer is independent of the attack
        # scenarios this module otherwise wires up.
        from ..analysis.poisoning_vectors import vulnerable_pair_fraction
        from ..measurement.nameserver_study import run_nameserver_study
        from ..measurement.population import (
            generate_nameserver_population,
            generate_resolver_population,
        )
        from ..measurement.resolver_study import run_resolver_study

        p = merge_params(self.default_params(), params)
        nameservers = generate_nameserver_population(
            seed=seed, total=p["nameserver_total"],
            fragmenting=p["nameserver_fragmenting"])
        resolvers = generate_resolver_population(seed=seed, total=p["resolver_total"])
        ns_report = run_nameserver_study(nameservers)
        resolver_report = run_resolver_study(resolvers)
        return {
            "nameservers_fragmenting_without_dnssec": ns_report.fragmenting_without_dnssec,
            "nameservers_fragmenting": ns_report.fragmenting,
            "nameservers_dnssec": ns_report.dnssec_enabled,
            "accept_any_fraction": resolver_report.accept_any_fraction,
            "accept_minimum_fraction": resolver_report.accept_minimum_fraction,
            "triggerable_fraction": resolver_report.triggerable_fraction,
            "trigger_methods": dict(sorted(resolver_report.by_trigger_method.items())),
            "vulnerable_pair_fraction": vulnerable_pair_fraction(
                nameservers, resolvers[: p["pair_sample"]]),
        }


#: Transport label -> testbed overrides for the overhead measurement.
#: ``tcp`` forces truncation so every lookup retries over the stream path;
#: the encrypted transports are provisioned by their defense.
TRANSPORT_PROFILES: dict[str, dict[str, Any]] = {
    "udp": {},
    "tcp": {"udp_limit": 512},
    "dot": {"defenses": ("encrypted_transport",)},
    "doh": {"defenses": ("encrypted_transport_doh",)},
}


@register_scenario
class TransportOverheadExperiment:
    """Per-transport time-to-answer of cache-missing pool lookups.

    Not an attack: the measurement behind the report's transport-overhead
    curve.  Each run builds an attacker-free world, schedules ``queries``
    cache-bypassing lookups ten simulated seconds apart and measures the
    simulated time from trigger to cache insertion — making the protocol's
    round trips visible (UDP one RTT; TCP one handshake more; DoT/DoH one
    TLS hello exchange on top).  Purely simulated-time figures, so the
    metrics are deterministic per ``(seed, params)`` and safe to digest.
    """

    name = "transport_overhead"
    description = ("time-to-answer of cache-missing lookups per DNS "
                   "transport (udp/tcp/dot/doh handshake overhead)")

    def default_params(self) -> dict[str, Any]:
        return {
            "transport": "udp",
            "queries": 5,
            "benign_server_count": 50,
            "records_per_response": 30,
        }

    def run(self, seed: int, params: Mapping[str, Any]) -> dict[str, Any]:
        from ..dns.records import RecordType
        from .testbed import TestbedConfig, build_testbed

        p = merge_params(self.default_params(), params)
        transport = p["transport"]
        try:
            overrides = TRANSPORT_PROFILES[transport]
        except KeyError:
            raise ValueError(f"unknown transport {transport!r}; one of "
                             f"{sorted(TRANSPORT_PROFILES)}") from None
        config = TestbedConfig(
            seed=seed,
            benign_server_count=p["benign_server_count"],
            records_per_response=p["records_per_response"],
            nameserver_udp_payload_limit=overrides.get("udp_limit"),
            nameserver_transports=("tcp",) if transport == "tcp" else (),
            defenses=overrides.get("defenses", ()),
            with_attacker=False,
        )
        testbed = build_testbed(config)
        answer_times: list[float] = []
        unanswered = 0
        for index in range(p["queries"]):
            at = index * 10.0
            # trigger_lookup bypasses the cache, so every query reaches the
            # nameserver; inserted_at >= at proves *this* query was answered
            # (peek would happily serve the previous query's entry).
            testbed.simulator.schedule_at(
                at, lambda: testbed.resolver.trigger_lookup("pool.ntp.org"))
            testbed.simulator.run(until=at + 9.0)
            entry = testbed.resolver.cache.peek("pool.ntp.org", RecordType.A)
            if entry is not None and entry.inserted_at >= at:
                answer_times.append(entry.inserted_at - at)
            else:
                unanswered += 1
        mean = (sum(answer_times) / len(answer_times)) if answer_times else 0.0
        return {
            "transport": transport,
            "queries": p["queries"],
            "unanswered": unanswered,
            "mean_time_to_answer": mean,
            "max_time_to_answer": max(answer_times, default=0.0),
            # RTT multiples strip the latency constant out of the figure.
            "round_trips": mean / (2 * config.latency) if mean else 0.0,
        }
