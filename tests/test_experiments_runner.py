"""Tests for the unified experiment engine: testbed, registry, runner, results.

The two contracts the engine guarantees:

* **determinism** — a sweep is a pure function of its spec; a parallel run is
  bit-for-bit identical to a sequential one, and to the concatenation of the
  corresponding single-seed runs;
* **uniformity** — every attack scenario is runnable by name with a flat
  config dict, and unknown parameters are rejected rather than ignored.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.attacks import (
    BaselineAttackConfig,
    BGPHijackConfig,
    DowngradeConfig,
    FragPoisoningConfig,
    PoolAttackConfig,
)
from repro.core.pool_generation import PoolGenerationPolicy
from repro.experiments import (
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    RunRecord,
    TestbedConfig,
    available_scenarios,
    build_testbed,
    get_scenario,
    merge_params,
    run_scenario,
    wilson_interval,
)
from repro.experiments.registry import optional_params

ALL_SCENARIOS = {"chronos_pool_attack", "traditional_client_attack",
                 "bgp_hijack", "frag_poisoning"}

#: Cheap parameters so packet-level sweeps stay fast in the tier-1 suite.
FAST_POOL_PARAMS = {"benign_server_count": 30, "run_time_shift": False}

#: Per-scenario overrides that keep a single smoke run cheap.
CHEAP_PARAMS = {
    "chronos_pool_attack": FAST_POOL_PARAMS,
    "traditional_client_attack": {"benign_server_count": 10, "poll_rounds": 2},
    "bgp_hijack": {"benign_server_count": 10},
    "frag_poisoning": {"benign_server_count": 40},
}


# -- registry ---------------------------------------------------------------------

def test_registry_lists_all_four_attack_scenarios():
    scenarios = available_scenarios()
    assert ALL_SCENARIOS <= set(scenarios)
    assert all(description for description in scenarios.values())


def test_registry_lookup_and_config_roundtrip():
    """Every scenario's full default config round-trips through merge_params."""
    for name in ALL_SCENARIOS:
        scenario = get_scenario(name)
        assert scenario.name == name
        defaults = scenario.default_params()
        assert merge_params(defaults, {}) == defaults
        assert merge_params(defaults, dict(defaults)) == defaults


#: Each attack scenario's config dataclass(es): the one parameter schema.
ATTACK_SCHEMAS = {
    "chronos_pool_attack": (PoolAttackConfig, PoolGenerationPolicy),
    "traditional_client_attack": (BaselineAttackConfig,),
    "bgp_hijack": (BGPHijackConfig,),
    "frag_poisoning": (FragPoisoningConfig,),
    "downgrade": (DowngradeConfig,),
}


@pytest.mark.parametrize("name", sorted(ATTACK_SCHEMAS))
def test_registry_defaults_agree_with_config_dataclasses(name):
    """Building the dataclass directly runs the same attack as the registry."""
    field_defaults = {}
    for config_class in reversed(ATTACK_SCHEMAS[name]):
        field_defaults.update((f.name, f.default)
                              for f in dataclasses.fields(config_class))
    defaults = get_scenario(name).default_params()
    for key, value in defaults.items():
        assert key in field_defaults, f"{name}.{key} is not a config field"
        assert repr(value) == repr(field_defaults[key]), f"{name}.{key}"
    config_class = ATTACK_SCHEMAS[name][0]
    assert get_scenario(name).build_config(7, defaults) == config_class(seed=7)


def test_pool_attack_config_defaults_match_the_registry():
    config = PoolAttackConfig()
    assert (config.poison_at_query, config.update_rounds, config.target_shift) == (3, 5, 600.0)


@pytest.mark.parametrize("name", sorted(available_scenarios()))
@pytest.mark.parametrize("field", ["latency", "zone"])
def test_unexposed_config_fields_are_rejected(name, field):
    scenario = get_scenario(name)
    with pytest.raises(ValueError, match="unknown scenario parameter"):
        merge_params(scenario.default_params(), {field: None},
                     optional=optional_params(scenario))


def test_registry_rejects_unknown_scenario_and_parameter():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("no_such_attack")
    with pytest.raises(ValueError, match="unknown scenario parameter"):
        run_scenario("bgp_hijack", 1, {"no_such_knob": 1})


def test_every_scenario_runs_by_name_with_a_config_dict():
    for name in sorted(ALL_SCENARIOS):
        metrics = run_scenario(name, 2, CHEAP_PARAMS[name])
        assert isinstance(metrics["attack_succeeded"], bool)


# -- runner determinism ------------------------------------------------------------

def test_parallel_two_seed_sweep_matches_sequential_bit_for_bit():
    kwargs = {"seeds": (3, 4), "base_params": FAST_POOL_PARAMS}
    sequential = ExperimentRunner("chronos_pool_attack", workers=1, **kwargs).run()
    parallel = ExperimentRunner("chronos_pool_attack", workers=2, **kwargs).run()
    assert sequential.records == parallel.records
    assert sequential.digest() == parallel.digest()
    assert sequential.to_json() == parallel.to_json()


def test_parallel_sweep_equals_two_single_seed_runs():
    singles = [
        ExperimentRunner("chronos_pool_attack", seeds=(seed,),
                         base_params=FAST_POOL_PARAMS).run()
        for seed in (3, 4)
    ]
    swept = ExperimentRunner("chronos_pool_attack", seeds=(3, 4),
                             base_params=FAST_POOL_PARAMS, workers=2).run()
    assert swept.records == singles[0].records + singles[1].records


def test_same_spec_runs_are_reproducible():
    """Regression for the randomness audit: nothing outside the seeded RNGs."""
    spec = ExperimentSpec(scenario="traditional_client_attack", seeds=(5, 6, 7))
    first = ExperimentRunner(spec=spec).run()
    second = ExperimentRunner(spec=spec).run()
    assert first.digest() == second.digest()


def test_records_carry_fully_resolved_params():
    result = ExperimentRunner("bgp_hijack", seeds=(1,),
                              base_params={"hijack_duration": 10.0}).run()
    record = result.records[0]
    assert record.params["hijack_duration"] == 10.0
    # Defaults are materialised into the record, not left implicit.
    assert set(get_scenario("bgp_hijack").default_params()) <= set(record.params)


# -- grid expansion ----------------------------------------------------------------

def test_grid_expands_cartesian_in_declaration_order():
    spec = ExperimentSpec(scenario="chronos_pool_attack", seeds=(1, 2),
                          grid={"poison_at_query": [1, 3], "malicious_ttl": [300]})
    tasks = spec.tasks()
    assert len(tasks) == 4
    assert [(params["poison_at_query"], seed) for _, seed, params in tasks] == \
        [(1, 1), (1, 2), (3, 1), (3, 2)]


def test_param_sets_and_grid_are_mutually_exclusive():
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="bgp_hijack", seeds=(1,),
                       grid={"lookup_time": [1.0]},
                       param_sets=({"lookup_time": 2.0},))


def test_grid_grouping_by_parameter():
    result = ExperimentRunner(
        "bgp_hijack", seeds=(1, 2),
        grid={"hijack_duration": [0.0, 30.0]},
        base_params={"benign_server_count": 10},
    ).run()
    groups = result.group_by("hijack_duration")
    assert list(groups) == [(0.0,), (30.0,)]
    # No hijack window -> the benign lookup cannot be poisoned.
    assert groups[(0.0,)].success_rate() == 0.0
    assert groups[(30.0,)].success_rate() == 1.0


# -- aggregates --------------------------------------------------------------------

def _synthetic_result() -> ExperimentResult:
    records = [
        RunRecord(scenario="s", seed=seed, params={},
                  metrics={"attack_succeeded": seed % 2 == 0,
                           "achieved_shift": float(seed)})
        for seed in range(1, 5)
    ]
    return ExperimentResult(scenario="s", records=records)


def test_success_rate_mean_median_aggregates():
    result = _synthetic_result()
    assert result.success_rate() == 0.5
    assert result.mean("achieved_shift") == 2.5
    assert result.median("achieved_shift") == 2.5
    interval = result.mean_interval("achieved_shift")
    assert interval.low < 2.5 < interval.high


def test_wilson_interval_properties():
    all_success = wilson_interval(10, 10)
    assert all_success.high == 1.0 and all_success.low > 0.6
    none = wilson_interval(0, 10)
    assert none.low == 0.0 and none.high < 0.4
    half = wilson_interval(5, 10)
    assert half.low < 0.5 < half.high
    wider = wilson_interval(5, 10, confidence=0.99)
    assert wider.width > half.width
    with pytest.raises(ValueError):
        wilson_interval(3, 0)


# -- testbed builder ---------------------------------------------------------------

def test_testbed_builder_is_deterministic():
    first = build_testbed(TestbedConfig(seed=9, benign_server_count=12))
    second = build_testbed(TestbedConfig(seed=9, benign_server_count=12))
    assert [s.address for s in first.benign_servers] == \
        [s.address for s in second.benign_servers]
    assert [s.clock.error for s in first.benign_servers] == \
        [s.clock.error for s in second.benign_servers]
    other_seed = build_testbed(TestbedConfig(seed=10, benign_server_count=12))
    assert [s.clock.error for s in first.benign_servers] != \
        [s.clock.error for s in other_seed.benign_servers]


def test_testbed_attacker_and_hijacker_are_optional():
    bare = build_testbed(TestbedConfig(seed=1, benign_server_count=5,
                                       with_attacker=False))
    assert bare.attacker is None and bare.hijacker is None
    no_hijack = build_testbed(TestbedConfig(seed=1, benign_server_count=5,
                                            with_hijacker=False))
    assert no_hijack.attacker is not None and no_hijack.hijacker is None


def test_testbed_victim_factory_attaches_victim():
    seen = {}

    def factory(testbed):
        seen["resolver"] = testbed.resolver
        return "victim-sentinel"

    testbed = build_testbed(TestbedConfig(seed=1, benign_server_count=5),
                            victim_factory=factory)
    assert testbed.victim == "victim-sentinel"
    assert seen["resolver"] is testbed.resolver
