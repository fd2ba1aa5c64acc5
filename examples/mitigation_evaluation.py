#!/usr/bin/env python3
"""Evaluate the §V mitigations and the residual 24-hour-hijack attack (E8).

The paper recommends two changes to Chronos' pool generation — accept at most
4 addresses from a single DNS response, and discard responses with high TTL
values — while noting that the DNS dependency itself remains exploitable by
an attacker who keeps the victim's DNS hijacked for the full 24-hour window.

This example prints the closed-form evaluation and then re-runs the
packet-level scenario with each mitigation enabled; the packet-level table is
an explicit ``param_sets`` sweep through the sweep scheduler (see
:data:`repro.analysis.mitigations.MITIGATION_CASES`).

Run with:  python examples/mitigation_evaluation.py [--simulate] [--workers N]
"""

from __future__ import annotations

import sys

from repro.analysis import MitigationRow, analytic_mitigation_table, simulated_mitigation_table


def main(simulate: bool = False, workers: int = 1) -> None:
    print("== Closed-form mitigation evaluation (single poisoning at query 1) ==")
    print(MitigationRow.header())
    for row in analytic_mitigation_table():
        print(row.formatted())

    if simulate:
        print(f"\n== Packet-level mitigation evaluation (workers={workers}) ==")
        print(MitigationRow.header())
        for row in simulated_mitigation_table(workers=workers):
            print(row.formatted())
    else:
        print("\n(pass --simulate to also run the packet-level evaluation)")


if __name__ == "__main__":
    argv = sys.argv[1:]
    worker_count = 1
    if "--workers" in argv:
        try:
            worker_count = int(argv[argv.index("--workers") + 1])
        except (IndexError, ValueError):
            sys.exit("usage: mitigation_evaluation.py [--simulate] [--workers N]")
    main(simulate="--simulate" in argv, workers=worker_count)
