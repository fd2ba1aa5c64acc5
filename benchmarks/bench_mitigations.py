"""E8: the §V mitigations and the residual 24-hour-hijack attack.

The packet-level table is an explicit ``param_sets`` sweep through the
sweep scheduler (one ``chronos_pool_attack`` run per mitigation case).
"""

from __future__ import annotations

from conftest import emit

from repro.analysis.mitigations import (
    MitigationRow,
    analytic_mitigation_table,
    simulated_mitigation_table,
)


def run_tables():
    return analytic_mitigation_table(), simulated_mitigation_table(seed=3)


def test_mitigations(benchmark):
    analytic, simulated = benchmark.pedantic(run_tables, rounds=1, iterations=1)
    lines = [MitigationRow.header()]
    lines += [row.formatted() for row in analytic]
    lines.append("-- packet-level --")
    lines += [row.formatted() for row in simulated]
    lines.append("(paper §V: cap records per reply and discard high TTLs; the DNS "
                 "dependency itself remains — a 24 h hijack still wins)")
    emit("E8 — mitigation evaluation and residual attack", lines)

    analytic_by = {row.scenario: row for row in analytic}
    simulated_by = {row.scenario: row for row in simulated}
    assert not analytic_by["both mitigations (single poisoning)"].attacker_has_two_thirds
    assert analytic_by["both mitigations, 24h DNS hijack (residual)"].attacker_has_two_thirds
    assert not simulated_by["both mitigations (single poisoning)"].attacker_has_two_thirds
    assert simulated_by["both mitigations, 24h DNS hijack (residual)"].attacker_has_two_thirds
