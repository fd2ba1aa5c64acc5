"""End-to-end tests of the paper's attack scenarios (E1, E2, E6, E9)."""

from __future__ import annotations

import pytest

from repro.attacks.baseline_scenario import BaselineAttackConfig, TraditionalClientAttackScenario
from repro.attacks.chronos_pool_attack import (
    ChronosPoolAttackScenario,
    PoolAttackConfig,
    analytic_pool_composition,
    minimum_queries_for_attacker_majority,
)
from repro.attacks.ntp_shift import OfflineShiftModel, chronos_round_offset, ntpd_round_offset
from repro.core.pool_generation import PoolGenerationPolicy


# -- the closed-form arithmetic of §IV ------------------------------------------------------

def test_analytic_composition_no_attack():
    composition = analytic_pool_composition(None)
    assert composition.benign == 96
    assert composition.malicious == 0


def test_analytic_composition_figure1_numbers():
    composition = analytic_pool_composition(12)
    assert composition.benign == 4 * 11 == 44
    assert composition.malicious == 89
    assert composition.attacker_has_two_thirds


def test_analytic_composition_query_13_fails():
    composition = analytic_pool_composition(13)
    assert composition.benign == 48
    assert not composition.attacker_has_two_thirds


def test_crossover_is_query_12():
    assert minimum_queries_for_attacker_majority() == 12


def test_analytic_composition_poisoning_first_query_is_best_case():
    composition = analytic_pool_composition(1)
    assert composition.benign == 0
    assert composition.malicious == 89
    assert composition.malicious_fraction == 1.0


def test_analytic_composition_low_ttl_lets_benign_servers_return():
    short_ttl = analytic_pool_composition(1, malicious_ttl=3600)
    long_ttl = analytic_pool_composition(1, malicious_ttl=2 * 86400)
    assert short_ttl.benign > long_ttl.benign
    assert not short_ttl.attacker_has_two_thirds


def test_analytic_composition_fewer_attacker_records():
    # Poisoning late with only 4 attacker records cannot reach two-thirds
    # against the benign servers accumulated before the poisoning.
    capped = analytic_pool_composition(12, attacker_records=4)
    assert capped.malicious == 4
    assert capped.benign == 44
    assert not capped.attacker_has_two_thirds


def test_analytic_composition_rejects_bad_index():
    with pytest.raises(ValueError):
        analytic_pool_composition(0)


# -- the packet-level Chronos pool attack ---------------------------------------------------

def run_scenario(poison_at_query, seed=5, **config_kwargs):
    config = PoolAttackConfig(seed=seed, poison_at_query=poison_at_query, **config_kwargs)
    scenario = ChronosPoolAttackScenario(config)
    return scenario, scenario.run_pool_generation()


def test_no_attack_pool_is_benign_and_near_96():
    _, result = run_scenario(None)
    assert result.composition.malicious == 0
    # 24 responses x 4 addresses = 96, minus duplicates from the zone rotation.
    assert 60 <= result.pool.size <= 96
    assert not result.attack_succeeded


def test_poisoning_at_query_1_floods_pool():
    _, result = run_scenario(1)
    assert result.composition.malicious == 89
    assert result.composition.benign == 0
    assert result.attack_succeeded
    assert result.poisoned_queries[0] == 1


def test_poisoning_at_query_3_matches_figure1_shape():
    _, result = run_scenario(3)
    assert result.composition.malicious == 89
    assert result.composition.benign <= 8  # 2 benign responses, possibly deduped
    assert result.attack_succeeded
    # Subsequent queries are served from the poisoned cache entry.
    assert result.cache_hits_during_generation >= 20


def test_poisoning_at_query_12_still_succeeds():
    """The paper's crossover claim, on the wire: a success at query 12 still
    leaves the attacker with at least two-thirds of the (de-duplicated) pool."""
    _, result = run_scenario(12, benign_server_count=400)
    assert result.composition.malicious == 89
    assert result.composition.benign <= 44
    assert result.attack_succeeded


def test_poisoning_at_query_13_adds_too_many_benign_servers_analytically():
    """Past the crossover the paper's address arithmetic no longer yields a
    two-thirds majority (the packet-level run may still squeak past it when
    de-duplication removes a few benign addresses, which only strengthens
    the attack — the conservative bound is the analytic one)."""
    composition = analytic_pool_composition(13)
    assert composition.benign == 48
    assert not composition.attacker_has_two_thirds
    _, result = run_scenario(13, benign_server_count=400)
    assert result.composition.malicious == 89
    assert result.composition.benign <= 48


def test_poison_index_out_of_range_rejected():
    scenario = ChronosPoolAttackScenario(PoolAttackConfig(poison_at_query=30))
    with pytest.raises(ValueError):
        scenario.run_pool_generation()


def test_max_records_mitigation_alone_still_leaves_attacker_majority():
    """The record cap limits the flood to 4 addresses, but the poisoned
    entry's >24 h TTL still starves every later query from cache, so the
    tiny pool remains attacker-dominated — the cap alone is insufficient."""
    policy = PoolGenerationPolicy(max_addresses_per_response=4)
    _, result = run_scenario(1, pool_policy=policy)
    assert result.composition.malicious <= 4
    assert result.composition.benign == 0
    assert result.attack_succeeded


def test_both_mitigations_block_single_poisoning():
    policy = PoolGenerationPolicy(max_addresses_per_response=4, max_accepted_ttl=3600)
    _, result = run_scenario(1, pool_policy=policy)
    assert result.composition.malicious == 0
    assert not result.attack_succeeded


def test_ttl_mitigation_blocks_single_poisoning():
    policy = PoolGenerationPolicy(max_accepted_ttl=3600)
    _, result = run_scenario(1, pool_policy=policy)
    assert result.composition.malicious == 0
    assert not result.attack_succeeded


def test_full_day_hijack_defeats_both_mitigations():
    """The §V residual attack: mitigations do not help against a 24 h hijack."""
    policy = PoolGenerationPolicy(max_addresses_per_response=4, max_accepted_ttl=3600)
    config = PoolAttackConfig(seed=5, poison_at_query=1, pool_policy=policy,
                              hijack_duration=24 * 3600.0 + 1200.0, malicious_ttl=300)
    scenario = ChronosPoolAttackScenario(config)
    result = scenario.run_pool_generation()
    assert result.composition.benign == 0
    assert result.attack_succeeded


def test_time_shift_requires_pool_generation_first():
    scenario = ChronosPoolAttackScenario(PoolAttackConfig())
    with pytest.raises(RuntimeError):
        scenario.run_time_shift()


def test_time_shift_succeeds_after_successful_pool_attack():
    scenario, result = run_scenario(2, target_shift=600.0, update_rounds=6)
    assert result.attack_succeeded
    shift = scenario.run_time_shift()
    assert shift.shift_achieved
    assert abs(shift.achieved_error - 600.0) < 10.0


def test_time_shift_fails_without_pool_attack():
    scenario, result = run_scenario(None, target_shift=600.0, update_rounds=4)
    shift = scenario.run_time_shift()
    assert not shift.shift_achieved
    assert abs(shift.achieved_error) < 1.0


def test_small_shift_on_benign_pool_also_filtered():
    scenario, _ = run_scenario(None, seed=8, target_shift=0.05, update_rounds=4)
    shift = scenario.run_time_shift()
    # 89 attacker servers exist but none are in the pool, so nothing moves.
    assert abs(shift.achieved_error) < 0.02


# -- the baseline (traditional client) scenario -----------------------------------------------

def test_baseline_poisoned_client_follows_attacker():
    scenario = TraditionalClientAttackScenario(BaselineAttackConfig(seed=6, target_shift=600.0))
    result = scenario.run()
    assert result.malicious_servers_used == len(result.servers_used) == 4
    assert result.attack_succeeded


def test_baseline_unpoisoned_client_keeps_correct_time():
    scenario = TraditionalClientAttackScenario(
        BaselineAttackConfig(seed=6, poison_startup_lookup=False, target_shift=600.0))
    result = scenario.run()
    assert result.malicious_servers_used == 0
    assert not result.attack_succeeded
    assert abs(result.achieved_error) < 0.1


# -- offline single-round shift models ---------------------------------------------------------

def test_offline_chronos_round_needs_two_thirds():
    minority = OfflineShiftModel(sample_size=15, malicious_samples=5, shift=10.0)
    majority = OfflineShiftModel(sample_size=15, malicious_samples=10, shift=10.0)
    assert abs(chronos_round_offset(minority) or 0.0) < 0.01
    assert chronos_round_offset(majority) == pytest.approx(10.0)


def test_offline_ntpd_round_falls_to_simple_majority():
    majority = OfflineShiftModel(sample_size=4, malicious_samples=3, shift=10.0)
    offset = ntpd_round_offset(majority)
    assert offset is not None and offset > 5.0


def test_offline_ntpd_round_resists_minority():
    minority = OfflineShiftModel(sample_size=4, malicious_samples=1, shift=10.0)
    offset = ntpd_round_offset(minority)
    assert offset is not None and abs(offset) < 0.1
