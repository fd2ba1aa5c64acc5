"""E6: the headline comparison — the DNS route makes Chronos the easier target."""

from __future__ import annotations

from conftest import emit

from repro.analysis.effort import (
    DNSAttackComparisonRow,
    dns_attack_comparison,
    end_to_end_success_table,
)
from repro.attacks import (
    BaselineAttackConfig,
    ChronosPoolAttackScenario,
    PoolAttackConfig,
    TraditionalClientAttackScenario,
)


def run_comparison():
    comparison = dns_attack_comparison()
    success = end_to_end_success_table()
    baseline = TraditionalClientAttackScenario(
        BaselineAttackConfig(seed=13, target_shift=600.0)).run()
    chronos_scenario = ChronosPoolAttackScenario(PoolAttackConfig(
        seed=13, poison_at_query=4, target_shift=600.0, update_rounds=5))
    chronos_pool = chronos_scenario.run_pool_generation()
    chronos_shift = chronos_scenario.run_time_shift()
    return comparison, success, baseline, chronos_pool, chronos_shift


def test_effort_comparison(benchmark):
    comparison, success, baseline, chronos_pool, chronos_shift = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1)
    lines = [DNSAttackComparisonRow.header()]
    lines += [row.formatted() for row in comparison]
    lines.append("")
    lines.append("per-race success rate -> overall DNS-stage success probability")
    lines.extend(f"  p={row['per_query_success']:.2f}:  traditional "
                 f"{row['traditional_overall']:.3f}   chronos {row['chronos_overall']:.3f}"
                 for row in success)
    lines.append("")
    lines.append(f"end-to-end, poisoned traditional client: shift achieved = "
                 f"{baseline.attack_succeeded} (err {baseline.achieved_error:.1f} s)")
    lines.append(f"end-to-end, poisoned Chronos client:     shift achieved = "
                 f"{chronos_shift.shift_achieved} (err {chronos_shift.achieved_error:.1f} s, "
                 f"pool {chronos_pool.composition.benign}/{chronos_pool.composition.malicious})")
    emit("E6 — attack-surface and effort comparison, plain NTP vs Chronos", lines)
    assert all(row["chronos_overall"] >= row["traditional_overall"] for row in success)
    assert baseline.attack_succeeded and chronos_shift.shift_achieved
