"""Analytical security bounds for Chronos (and their collapse under the DNS attack).

The NDSS'18 Chronos paper argues that a man-in-the-middle attacker who
controls fewer than a third of the servers in the pool needs *years to
decades* of continuous effort before a single update round samples enough
attacker-controlled servers to let it shift the victim's clock — the DSN
paper quotes the headline "20 years of effort to shift time by 100 ms"
(§III).  This module reproduces that style of bound from first principles:

* the per-round probability that at least ``threshold`` of the ``m`` sampled
  servers are attacker-controlled is an exact hypergeometric tail (sampling
  without replacement from the pool);
* rounds are independent Bernoulli trials, so the expected number of rounds
  to the first success is ``1/p`` and the expected calendar time is
  ``poll_interval / p``.

The same functions, evaluated at the post-attack pool composition produced
by the DNS poisoning (attacker fraction ≥ 2/3), show the expected effort
collapsing to a single round — the quantitative core of the paper's claim
that the DNS route makes attacking Chronos easier than attacking plain NTP.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0


class AnalysisError(ValueError):
    """Raised for inconsistent analysis parameters."""


def hypergeometric_pmf(population: int, successes: int, draws: int, observed: int) -> float:
    """P[X = observed] for a hypergeometric(population, successes, draws) variable."""
    if population < 0 or successes < 0 or draws < 0:
        raise AnalysisError("population, successes and draws must be non-negative")
    if successes > population or draws > population:
        raise AnalysisError("successes and draws cannot exceed the population")
    if observed < 0 or observed > draws or observed > successes:
        return 0.0
    if draws - observed > population - successes:
        return 0.0
    return (
        math.comb(successes, observed)
        * math.comb(population - successes, draws - observed)
        / math.comb(population, draws)
    )


def hypergeometric_tail(population: int, successes: int, draws: int, at_least: int) -> float:
    """P[X >= at_least] for a hypergeometric variable."""
    at_least = max(at_least, 0)
    upper = min(draws, successes)
    if at_least > upper:
        return 0.0
    return sum(hypergeometric_pmf(population, successes, draws, k)
               for k in range(at_least, upper + 1))


def attack_threshold(sample_size: int) -> int:
    """Samples the attacker must control to dictate the trimmed average.

    With ``d = m // 3`` trimmed from each end, ``m - d`` attacker samples
    guarantee every survivor is attacker-controlled (the NDSS'18 two-thirds
    condition).
    """
    return sample_size - sample_size // 3


@dataclass(frozen=True)
class ShiftAttackBound:
    """The security bound for one configuration."""

    pool_size: int
    malicious_servers: int
    sample_size: int
    threshold: int
    per_round_probability: float
    poll_interval: float

    @property
    def malicious_fraction(self) -> float:
        return self.malicious_servers / self.pool_size if self.pool_size else 0.0

    @property
    def expected_rounds_to_success(self) -> float:
        if self.per_round_probability <= 0.0:
            return math.inf
        return 1.0 / self.per_round_probability

    @property
    def expected_seconds_to_success(self) -> float:
        return self.expected_rounds_to_success * self.poll_interval

    @property
    def expected_years_to_success(self) -> float:
        return self.expected_seconds_to_success / SECONDS_PER_YEAR

    def probability_within(self, duration_seconds: float) -> float:
        """Probability of at least one successful round within ``duration_seconds``."""
        if self.per_round_probability <= 0.0:
            return 0.0
        rounds = max(int(duration_seconds // self.poll_interval), 0)
        return 1.0 - (1.0 - self.per_round_probability) ** rounds


def shift_attack_bound(pool_size: int, malicious_servers: int, sample_size: int,
                       poll_interval: float = 900.0,
                       threshold: Optional[int] = None) -> ShiftAttackBound:
    """Compute the Chronos shift-attack bound for a pool composition.

    Parameters mirror the Chronos analysis: ``pool_size`` servers of which
    ``malicious_servers`` are attacker-controlled, ``sample_size`` drawn per
    update round, one round every ``poll_interval`` seconds.
    """
    if malicious_servers > pool_size:
        raise AnalysisError("malicious_servers cannot exceed pool_size")
    if sample_size > pool_size:
        sample_size = pool_size
    if threshold is None:
        threshold = attack_threshold(sample_size)
    probability = hypergeometric_tail(pool_size, malicious_servers, sample_size, threshold)
    return ShiftAttackBound(
        pool_size=pool_size,
        malicious_servers=malicious_servers,
        sample_size=sample_size,
        threshold=threshold,
        per_round_probability=probability,
        poll_interval=poll_interval,
    )


def years_of_effort(pool_size: int, malicious_servers: int, sample_size: int = 15,
                    poll_interval: float = 900.0) -> float:
    """Convenience wrapper returning the expected years to a successful shift."""
    return shift_attack_bound(pool_size, malicious_servers, sample_size,
                              poll_interval).expected_years_to_success


def sweep_malicious_fraction(pool_size: int, sample_size: int,
                             fractions: Sequence[float],
                             poll_interval: float = 900.0) -> list[ShiftAttackBound]:
    """Evaluate the bound across attacker pool fractions (for E3/E6 plots)."""
    bounds = []
    for fraction in fractions:
        malicious = min(pool_size, int(round(fraction * pool_size)))
        bounds.append(shift_attack_bound(pool_size, malicious, sample_size, poll_interval))
    return bounds


def panic_mode_controlled(pool_size: int, malicious_servers: int) -> bool:
    """Whether the attacker controls panic mode's trimmed average.

    Panic mode queries the whole pool and trims a third at each end, so the
    attacker needs at least two-thirds of the pool — which is precisely the
    composition the DNS attack produces.
    """
    if pool_size == 0:
        return False
    return malicious_servers >= pool_size - pool_size // 3


@dataclass(frozen=True)
class CumulativeShiftBound:
    """Effort to accumulate a *target* shift, not just win one round.

    Chronos caps how far a single accepted update may move the clock (the
    surviving average must stay within the ``err``-derived bound of the local
    clock), so an attacker below the pool two-thirds mark must win many
    *consecutive* sampling rounds to accumulate a large shift — the source of
    the "20 years of effort for 100 ms" style claims quoted in §III.  An
    attacker that owns two-thirds of the *pool* instead controls panic mode
    and every regular round, so the same target falls in a handful of rounds.
    """

    target_shift: float
    per_round_shift: float
    rounds_required: int
    per_round_probability: float
    consecutive_success_probability: float
    poll_interval: float
    panic_controlled: bool

    @property
    def expected_seconds(self) -> float:
        if self.panic_controlled:
            # The attacker controls both regular rounds and panic mode; the
            # shift lands as fast as the required rounds can run.
            return self.rounds_required * self.poll_interval
        p = self.per_round_probability
        k = self.rounds_required
        if p <= 0.0:
            return math.inf
        if p >= 1.0:
            return k * self.poll_interval
        block_probability = p ** k
        # Expected number of trials until k consecutive successes of a
        # Bernoulli(p) process (standard renewal argument).
        expected_rounds = (1.0 - block_probability) / (block_probability * (1.0 - p))
        return expected_rounds * self.poll_interval

    @property
    def expected_years(self) -> float:
        return self.expected_seconds / SECONDS_PER_YEAR


def cumulative_shift_bound(pool_size: int, malicious_servers: int, sample_size: int = 15,
                           target_shift: float = 0.1, per_round_shift: float = 0.025,
                           poll_interval: float = 900.0) -> CumulativeShiftBound:
    """Expected effort for the attacker to shift the clock by ``target_shift``.

    ``per_round_shift`` is the largest offset a single accepted Chronos update
    can introduce without tripping the local-agreement check (on the order of
    the per-sample error bound ``err``).
    """
    if target_shift <= 0 or per_round_shift <= 0:
        raise AnalysisError("target_shift and per_round_shift must be positive")
    rounds_required = max(1, math.ceil(target_shift / per_round_shift))
    single = shift_attack_bound(pool_size, malicious_servers, sample_size, poll_interval)
    probability = single.per_round_probability
    return CumulativeShiftBound(
        target_shift=target_shift,
        per_round_shift=per_round_shift,
        rounds_required=rounds_required,
        per_round_probability=probability,
        consecutive_success_probability=probability ** rounds_required,
        poll_interval=poll_interval,
        panic_controlled=panic_mode_controlled(pool_size, malicious_servers),
    )


def mitm_reference_bound(pool_size: int = 500, sample_size: int = 15,
                         poll_interval: float = 900.0,
                         malicious_fraction: float = 1.0 / 3.0 - 1e-9) -> ShiftAttackBound:
    """The "strong MitM needs decades" reference configuration from §III.

    The strongest attacker Chronos claims to tolerate controls just under a
    third of the pool; this helper evaluates the bound there.
    """
    malicious = int(pool_size * malicious_fraction)
    return shift_attack_bound(pool_size, malicious, sample_size, poll_interval)
