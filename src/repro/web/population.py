"""The synthetic Internet: a population of Web servers for the census.

The paper measures 63 124 popular Web servers. We cannot, so the census runs
against a synthetic population whose observable properties are drawn from the
distributions the paper itself reports:

* geography (Section VII-B1) and server software shares (Apache / IIS / nginx
  / LiteSpeed / other);
* deployed TCP algorithm conditioned on the operating system family, chosen so
  the identified mix lands in the neighbourhood of Table IV (BIC/CUBIC
  plurality, CTCP-a ahead of CTCP-b, RENO a small minority, a few percent of
  non-default algorithms such as HTCP);
* a TCP proxy in front of a fraction of IIS servers (the paper's explanation
  for IIS servers identified with Linux algorithms);
* minimum accepted MSS (Table II), pipelining limits (Fig. 6), page sizes
  (Fig. 7) and network conditions (Figs. 4, 10, 11);
* the stack behaviours and quirks behind invalid and special-case traces.

Every draw is independent given the configuration, so a 3 000-server sample
has the same expected shares as the full 63 124-server population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.conditions import (
    ConditionDatabase,
    NetworkCondition,
    default_condition_database,
)
from repro.web.content import SiteGenerator
from repro.web.server import ServerProfile, WebServer

#: Size of the paper's census.
PAPER_CENSUS_SIZE = 63_124

#: Geography shares (Section VII-B1).
REGION_SHARES: dict[str, float] = {
    "africa": 0.0054,
    "asia": 0.2146,
    "australia": 0.0083,
    "europe": 0.4328,
    "north-america": 0.3192,
    "south-america": 0.0197,
}

#: Server software shares (Section VII-B1).
SOFTWARE_SHARES: dict[str, float] = {
    "apache": 0.7020,
    "iis": 0.1113,
    "nginx": 0.1285,
    "litespeed": 0.0136,
    "other": 0.0446,
}

#: Minimum MSS acceptance shares (Table II's shape: most servers accept
#: 100 B, a non-trivial fraction requires more).
MIN_MSS_SHARES: dict[int, float] = {
    100: 0.82,
    300: 0.08,
    536: 0.07,
    1460: 0.03,
}

#: Ground-truth TCP algorithm mix for Windows servers (IIS).
WINDOWS_ALGORITHM_SHARES: dict[str, float] = {
    "ctcp-a": 0.52,
    "ctcp-b": 0.16,
    "reno": 0.32,
}

#: Ground-truth TCP algorithm mix for Linux-family servers.
LINUX_ALGORITHM_SHARES: dict[str, float] = {
    "bic": 0.245,
    "cubic-a": 0.115,
    "cubic-b": 0.175,
    "reno": 0.095,
    "htcp": 0.060,
    "hstcp": 0.022,
    "illinois": 0.018,
    "stcp": 0.012,
    "vegas": 0.010,
    "veno": 0.014,
    "westwood": 0.018,
    "yeah": 0.016,
    # The remaining mass models hosts whose stack CAAI cannot name; they are
    # spread over the defaults to keep the draw well-defined.
    "cubic-b-extra": 0.20,
}


@dataclass(frozen=True)
class ServerRecord:
    """One server of the synthetic Internet, ready to be probed."""

    server: WebServer
    condition: NetworkCondition

    @property
    def profile(self) -> ServerProfile:
        return self.server.profile


@dataclass
class PopulationConfig:
    """Tunable knobs of the synthetic population."""

    size: int = 3000
    seed: int = 2011
    #: Fraction of IIS servers fronted by a Linux TCP proxy (Section VII-B1
    #: reports about 15 % of IIS servers identified with non-Windows stacks).
    iis_proxy_fraction: float = 0.15
    #: Fraction of Linux servers with F-RTO enabled.
    frto_fraction: float = 0.25
    #: Fraction of servers caching the slow start threshold across connections.
    ssthresh_caching_fraction: float = 0.20
    #: Quirk probabilities (the census' special and invalid cases).
    no_timeout_response_fraction: float = 0.03
    post_timeout_stall_fraction: float = 0.02
    freeze_in_avoidance_fraction: float = 0.015
    approaching_fraction: float = 0.015
    bounded_window_fraction: float = 0.03
    #: Pipelining limit distribution (Fig. 6): share accepting exactly one
    #: request, share accepting two or three, the rest accept many.
    single_request_fraction: float = 0.47
    few_requests_fraction: float = 0.13
    #: Crawl budget of the page-searching tool.
    crawler_page_budget: int = 120


@dataclass
class ServerPopulation:
    """Generator and container for the synthetic server population."""

    config: PopulationConfig = field(default_factory=PopulationConfig)
    condition_database: ConditionDatabase | None = None
    site_generator: SiteGenerator = field(default_factory=SiteGenerator)
    records: list[ServerRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.condition_database is None:
            self.condition_database = default_condition_database()

    # ------------------------------------------------------------------ API
    def generate(self) -> list[ServerRecord]:
        """Generate the population (idempotent: regenerates from the seed)."""
        rng = np.random.default_rng(self.config.seed)
        self.records = [self._generate_record(rng, index)
                        for index in range(self.config.size)]
        return self.records

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -------------------------------------------------------------- internals
    def _generate_record(self, rng: np.random.Generator, index: int) -> ServerRecord:
        assert self.condition_database is not None
        software = _draw(rng, SOFTWARE_SHARES)
        region = _draw(rng, REGION_SHARES)
        operating_system = "windows" if software == "iis" else "linux"
        algorithm, proxy_algorithm = self._draw_algorithm(rng, software, operating_system)
        site = self.site_generator.generate(rng, site_index=index)
        profile = ServerProfile(
            server_id=f"server-{index:06d}",
            software=software,
            operating_system=operating_system,
            region=region,
            tcp_algorithm=algorithm,
            proxy_algorithm=proxy_algorithm,
            minimum_mss=_draw(rng, MIN_MSS_SHARES),
            max_pipelined_requests=self._draw_pipelining_limit(rng),
            initial_window=int(rng.choice((2, 3, 4, 10), p=(0.25, 0.35, 0.25, 0.15))),
            send_buffer_packets=self._draw_send_buffer(rng),
            use_frto=(operating_system == "linux"
                      and rng.random() < self.config.frto_fraction),
            ssthresh_caching=rng.random() < self.config.ssthresh_caching_fraction,
            responds_to_timeout=rng.random() >= self.config.no_timeout_response_fraction,
            post_timeout_stall=rng.random() < self.config.post_timeout_stall_fraction,
            freeze_in_avoidance=rng.random() < self.config.freeze_in_avoidance_fraction,
            approach_ceiling=self._draw_approach_ceiling(rng),
        )
        server = WebServer(profile, site)
        condition = self.condition_database.sample(rng)
        return ServerRecord(server=server, condition=condition)

    def _draw_algorithm(self, rng: np.random.Generator, software: str,
                        operating_system: str) -> tuple[str, str | None]:
        if operating_system == "windows":
            algorithm = _draw(rng, WINDOWS_ALGORITHM_SHARES)
            proxy = None
            if rng.random() < self.config.iis_proxy_fraction:
                proxy = _draw(rng, {"cubic-b": 0.5, "bic": 0.3, "reno": 0.2})
            return algorithm, proxy
        algorithm = _draw(rng, LINUX_ALGORITHM_SHARES)
        if algorithm == "cubic-b-extra":
            algorithm = "cubic-b"
        return algorithm, None

    def _draw_pipelining_limit(self, rng: np.random.Generator) -> int:
        roll = rng.random()
        if roll < self.config.single_request_fraction:
            return 1
        if roll < self.config.single_request_fraction + self.config.few_requests_fraction:
            return int(rng.integers(2, 4))
        return int(rng.integers(4, 25))

    def _draw_send_buffer(self, rng: np.random.Generator) -> float | None:
        if rng.random() >= self.config.bounded_window_fraction:
            return None
        # Bounded by the send buffer somewhere between 0.7x and 1.6x of the
        # largest w_timeout, so the bound is visible in a 512-packet probe.
        return float(rng.uniform(350, 820))

    def _draw_approach_ceiling(self, rng: np.random.Generator) -> float | None:
        if rng.random() >= self.config.approaching_fraction:
            return None
        return float(rng.uniform(480, 560))

    # ------------------------------------------------------------- summaries
    def software_shares(self) -> dict[str, float]:
        return _shares(record.profile.software for record in self.records)

    def region_shares(self) -> dict[str, float]:
        return _shares(record.profile.region for record in self.records)

    def minimum_mss_shares(self) -> dict[int, float]:
        return _shares(record.profile.minimum_mss for record in self.records)

    def algorithm_shares(self) -> dict[str, float]:
        """Ground-truth deployment shares (what a perfect census would report)."""
        return _shares(record.profile.effective_algorithm() for record in self.records)


def _draw(rng: np.random.Generator, shares: dict) -> object:
    keys = list(shares.keys())
    weights = np.array([shares[key] for key in keys], dtype=float)
    weights = weights / weights.sum()
    return keys[int(rng.choice(len(keys), p=weights))]


def _shares(values) -> dict:
    counts: dict = {}
    total = 0
    for value in values:
        counts[value] = counts.get(value, 0) + 1
        total += 1
    if total == 0:
        return {}
    return {key: count / total for key, count in sorted(counts.items(), key=lambda kv: str(kv[0]))}
