"""Cross-module integration tests: the paper's narrative, start to finish."""

from __future__ import annotations

from repro.attacks import (
    BaselineAttackConfig,
    ChronosPoolAttackScenario,
    PoolAttackConfig,
    TraditionalClientAttackScenario,
    analytic_pool_composition,
)
from repro.core.pool_generation import PoolGenerationPolicy
from repro.core.security_analysis import cumulative_shift_bound, shift_attack_bound
from repro.core.selection import ChronosConfig


def test_paper_narrative_end_to_end():
    """The complete story of the paper in one test.

    1. Chronos without an attacker keeps good time on a ~96-server pool.
    2. The same client whose pool generation was poisoned at an early query
       ends up with a two-thirds-malicious pool (Figure 1).
    3. The attacker's servers then shift the victim clock by ten minutes —
       something the analysis says a MitM without the DNS attack would need
       years to achieve.
    """
    benign = ChronosPoolAttackScenario(PoolAttackConfig(
        seed=31, poison_at_query=None, target_shift=600.0, update_rounds=5))
    benign_pool = benign.run_pool_generation()
    benign_shift = benign.run_time_shift()
    assert benign_pool.composition.malicious == 0
    assert abs(benign_shift.achieved_error) < 0.1

    attacked = ChronosPoolAttackScenario(PoolAttackConfig(
        seed=31, poison_at_query=2, target_shift=600.0, update_rounds=6))
    attacked_pool = attacked.run_pool_generation()
    attacked_shift = attacked.run_time_shift()
    assert attacked_pool.attack_succeeded
    assert attacked_pool.composition.malicious == 89
    assert attacked_shift.shift_achieved

    # The analytical bound agrees with what the simulation just demonstrated.
    composition = attacked_pool.composition
    bound = shift_attack_bound(composition.total, composition.malicious, 15)
    assert bound.per_round_probability > 0.3
    pre_attack_bound = cumulative_shift_bound(96, 31)
    assert pre_attack_bound.expected_years > 1.0


def test_dns_attack_easier_against_chronos_than_plain_ntp():
    """E6 in executable form: a single poisoning anywhere in the first 12
    queries defeats Chronos, whereas the traditional client only exposes a
    single query — and both end in full control once poisoned."""
    opportunities = [k for k in range(1, 25)
                     if analytic_pool_composition(k).attacker_has_two_thirds]
    assert opportunities == list(range(1, 13))

    baseline = TraditionalClientAttackScenario(BaselineAttackConfig(seed=32, target_shift=600.0))
    baseline_result = baseline.run()
    assert baseline_result.attack_succeeded

    chronos = ChronosPoolAttackScenario(PoolAttackConfig(seed=32, poison_at_query=12,
                                                         benign_server_count=400))
    pool = chronos.run_pool_generation()
    assert pool.attack_succeeded


def test_mitigated_chronos_survives_single_poisoning_but_not_full_hijack():
    """E8 in executable form."""
    mitigated = PoolGenerationPolicy(max_addresses_per_response=4, max_accepted_ttl=3600)
    single = ChronosPoolAttackScenario(PoolAttackConfig(seed=33, poison_at_query=1,
                                                        pool_policy=mitigated))
    single_result = single.run_pool_generation()
    assert not single_result.attack_succeeded

    full = ChronosPoolAttackScenario(PoolAttackConfig(seed=33, poison_at_query=1,
                                                      pool_policy=mitigated,
                                                      hijack_duration=24 * 3600.0 + 1200.0,
                                                      malicious_ttl=300))
    full_result = full.run_pool_generation()
    assert full_result.attack_succeeded
    assert full_result.composition.benign == 0


def test_chronos_panic_mode_is_controlled_after_pool_attack():
    """§III/§IV interplay: with 2/3 of the pool the attacker controls panic
    mode too, so the large shift lands even though the per-round checks fire."""
    scenario = ChronosPoolAttackScenario(
        PoolAttackConfig(seed=34, poison_at_query=1,
                         chronos=ChronosConfig(max_retries=1),
                         target_shift=3600.0, update_rounds=6))
    pool = scenario.run_pool_generation()
    assert pool.attack_succeeded
    shift = scenario.run_time_shift()
    assert shift.shift_achieved
    assert shift.panic_rounds >= 1


def test_determinism_same_seed_same_outcome():
    results = []
    for _ in range(2):
        scenario = ChronosPoolAttackScenario(PoolAttackConfig(seed=77, poison_at_query=5))
        result = scenario.run_pool_generation()
        results.append((result.composition.benign, result.composition.malicious,
                        tuple(result.pool.servers)))
    assert results[0] == results[1]


def test_different_seeds_change_benign_rotation_but_not_the_conclusion():
    compositions = []
    for seed in (1, 2, 3):
        scenario = ChronosPoolAttackScenario(PoolAttackConfig(seed=seed, poison_at_query=6))
        compositions.append(scenario.run_pool_generation().composition)
    assert all(c.attacker_has_two_thirds for c in compositions)
    assert len({c.benign for c in compositions}) >= 1
