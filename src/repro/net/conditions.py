"""Network condition database.

The paper drives its testbed emulation from a database of network conditions
measured against 5000 popular Web servers in 2010-2011 (Section VII-A2): the
average RTT per server (Fig. 4), the RTT standard deviation (Fig. 10), and the
packet-loss rate (Fig. 11). We cannot rerun those measurements, so this module
generates a synthetic database from parametric distributions whose CDFs match
the published figures: RTTs are log-normal with almost all mass below 0.8 s,
RTT jitter is log-normal with a median around 10 ms, and loss rates are a
mixture of a near-lossless majority and a heavier-tailed minority.

Each emulated condition is an independent draw of (average RTT, RTT standard
deviation, loss rate), exactly how the paper configures netem for each
training run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Number of servers the paper measured to build its condition database.
PAPER_DATABASE_SIZE = 5000


@dataclass(frozen=True)
class NetworkCondition:
    """One emulated Internet path between the prober and a server."""

    average_rtt: float
    rtt_std: float
    loss_rate: float

    def __post_init__(self) -> None:
        if self.average_rtt <= 0:
            raise ValueError("average RTT must be positive")
        if self.rtt_std < 0:
            raise ValueError("RTT standard deviation must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss rate must lie in [0, 1)")

    @classmethod
    def ideal(cls) -> "NetworkCondition":
        """A loss-free, jitter-free path (the paper's local-testbed Fig. 3 runs)."""
        return cls(average_rtt=0.04, rtt_std=0.0, loss_rate=0.0)


@dataclass
class ConditionDatabase:
    """Synthetic stand-in for the paper's measured network-condition database."""

    average_rtts: np.ndarray
    rtt_stds: np.ndarray
    loss_rates: np.ndarray

    def __post_init__(self) -> None:
        if len(self.average_rtts) == 0:
            raise ValueError("condition database must not be empty")

    def __len__(self) -> int:
        return len(self.average_rtts)

    def sample(self, rng: np.random.Generator) -> NetworkCondition:
        """Draw one condition (independent draws per dimension, as the paper does)."""
        return NetworkCondition(
            average_rtt=float(rng.choice(self.average_rtts)),
            rtt_std=float(rng.choice(self.rtt_stds)),
            loss_rate=float(rng.choice(self.loss_rates)),
        )


def default_condition_database(size: int = PAPER_DATABASE_SIZE,
                               seed: int = 2010) -> ConditionDatabase:
    """Build the synthetic condition database.

    Shape targets taken from the paper's figures:

    * Fig. 4 -- RTT CDF: median on the order of 100 ms, about 95 % of servers
      below 400 ms and essentially all below 0.8 s (the fact that justifies
      the 1.0 s emulated RTT).
    * Fig. 10 -- RTT standard deviation: median around 10 ms with a tail to a
      few hundred milliseconds.
    * Fig. 11 -- packet-loss rate: most paths nearly lossless, a minority with
      losses up to several percent.
    """
    if size <= 0:
        raise ValueError("database size must be positive")
    rng = np.random.default_rng(seed)

    average_rtts = rng.lognormal(mean=np.log(0.095), sigma=0.75, size=size)
    average_rtts = np.clip(average_rtts, 0.005, 0.79)

    rtt_stds = rng.lognormal(mean=np.log(0.010), sigma=1.0, size=size)
    rtt_stds = np.clip(rtt_stds, 0.0002, 0.25)

    # Loss: ~55 % of paths essentially lossless, the rest exponential-tailed.
    lossless = rng.uniform(0.0, 0.001, size=size)
    lossy = np.clip(rng.exponential(scale=0.012, size=size), 0.0, 0.12)
    is_lossy = rng.random(size) < 0.45
    loss_rates = np.where(is_lossy, lossy, lossless)

    return ConditionDatabase(average_rtts=average_rtts, rtt_stds=rtt_stds,
                             loss_rates=loss_rates)


# ---------------------------------------------------------------- presets
def _high_bdp_database(size: int, seed: int) -> ConditionDatabase:
    """Long-fat-network paths: large RTTs, little jitter, almost no loss."""
    rng = np.random.default_rng(seed)
    average_rtts = np.clip(
        rng.lognormal(mean=np.log(0.45), sigma=0.25, size=size), 0.20, 0.79)
    rtt_stds = np.clip(
        rng.lognormal(mean=np.log(0.006), sigma=0.8, size=size), 0.0002, 0.05)
    loss_rates = np.clip(rng.exponential(scale=0.0008, size=size), 0.0, 0.01)
    return ConditionDatabase(average_rtts=average_rtts, rtt_stds=rtt_stds,
                             loss_rates=loss_rates)


def _lossy_wireless_database(size: int, seed: int) -> ConditionDatabase:
    """Wireless-like paths: moderate RTTs, heavy jitter, frequent loss."""
    rng = np.random.default_rng(seed)
    average_rtts = np.clip(
        rng.lognormal(mean=np.log(0.12), sigma=0.55, size=size), 0.02, 0.79)
    rtt_stds = np.clip(
        rng.lognormal(mean=np.log(0.035), sigma=0.9, size=size), 0.002, 0.25)
    # ~85 % of paths see real loss, with a tail to several percent.
    lossless = rng.uniform(0.0, 0.002, size=size)
    lossy = np.clip(rng.exponential(scale=0.030, size=size), 0.001, 0.15)
    loss_rates = np.where(rng.random(size) < 0.85, lossy, lossless)
    return ConditionDatabase(average_rtts=average_rtts, rtt_stds=rtt_stds,
                             loss_rates=loss_rates)


def _bufferbloat_database(size: int, seed: int) -> ConditionDatabase:
    """Queue-dominated paths: inflated RTTs with huge jitter, little loss
    (deep buffers absorb packets instead of dropping them)."""
    rng = np.random.default_rng(seed)
    average_rtts = np.clip(
        rng.lognormal(mean=np.log(0.28), sigma=0.45, size=size), 0.05, 0.79)
    rtt_stds = np.clip(
        rng.lognormal(mean=np.log(0.080), sigma=0.7, size=size), 0.010, 0.25)
    loss_rates = np.clip(rng.exponential(scale=0.0015, size=size), 0.0, 0.02)
    return ConditionDatabase(average_rtts=average_rtts, rtt_stds=rtt_stds,
                             loss_rates=loss_rates)


def _cellular_trace_database(size: int, seed: int) -> ConditionDatabase:
    """Paths resampled from the packaged cellular link trace (scenario layer)."""
    # Imported lazily: the scenario layer builds on this module.
    from repro.scenarios.tracefile import cellular_condition_database

    return cellular_condition_database(size=size, seed=seed)


#: Named condition-database presets selectable from the census CLI
#: (``--conditions``); ``"paper"`` is the Figs. 4/10/11 reproduction.
CONDITION_DB_PRESETS: dict[str, Callable[[int, int], ConditionDatabase]] = {
    "paper": default_condition_database,
    "high-bdp": _high_bdp_database,
    "lossy-wireless": _lossy_wireless_database,
    "bufferbloat": _bufferbloat_database,
    "cellular-trace": _cellular_trace_database,
}


def condition_database_preset(name: str, size: int = PAPER_DATABASE_SIZE,
                              seed: int = 2010) -> ConditionDatabase:
    """Build a named condition database.

    Args:
        name: One of :data:`CONDITION_DB_PRESETS` (``"paper"``,
            ``"high-bdp"``, ``"lossy-wireless"``, ``"bufferbloat"``,
            ``"cellular-trace"``).
        size: Number of emulated paths to draw.
        seed: Seed of the parametric draws (deterministic per preset).

    Returns:
        The generated :class:`ConditionDatabase`.

    Raises:
        ValueError: If the preset name is unknown; the message lists every
            valid name.
    """
    if size <= 0:
        raise ValueError("database size must be positive")
    try:
        builder = CONDITION_DB_PRESETS[name]
    except KeyError:
        valid = ", ".join(sorted(CONDITION_DB_PRESETS))
        raise ValueError(f"unknown condition-database preset {name!r}; "
                         f"valid names: {valid}") from None
    return builder(size, seed)
