"""DCTCP on CAAI's unmarked paths: RENO under another name, bit for bit."""

import numpy as np
import pytest

from repro.core.gather import GatherConfig, TraceGatherer
from repro.net.conditions import NetworkCondition
from repro.tcp.algorithms.dctcp import Dctcp
from repro.tcp.algorithms.reno import Reno
from tests.conftest import QUIRK_CONFIGS, make_synthetic_server
from tests.tcp.algo_harness import make_state, measured_beta, run_avoidance

LOSSY = NetworkCondition(average_rtt=0.2, rtt_std=0.0, loss_rate=0.02)

#: (label, condition, sender kwargs) of the probes DCTCP and RENO must share.
PROBES = [
    ("ideal", NetworkCondition.ideal(), dict()),
    ("lossy", LOSSY, dict()),
    ("frto", NetworkCondition.ideal(), dict(use_frto=True)),
    ("frto-lossy", LOSSY, dict(use_frto=True)),
    *((label, LOSSY, quirk) for label, quirk in QUIRK_CONFIGS),
]


class TestRenoEquivalenceWithoutEcn:
    def test_growth_matches_reno_bit_for_bit(self):
        dctcp_state = make_state(cwnd=40.0, ssthresh=20.0)
        reno_state = make_state(cwnd=40.0, ssthresh=20.0)
        dctcp_run = run_avoidance(Dctcp(), dctcp_state, rounds=30, rtt=1.0)
        reno_run = run_avoidance(Reno(), reno_state, rounds=30, rtt=1.0)
        assert dctcp_run == reno_run  # exact float equality

    def test_loss_beta_matches_reno_when_unmarked(self):
        # RFC 8257's cut with no mark ever seen (alpha = 1.0) is halving.
        assert measured_beta(Dctcp(), 100.0) == pytest.approx(
            measured_beta(Reno(), 100.0))

    @pytest.mark.parametrize("w_timeout", [64, 512])
    @pytest.mark.parametrize("label,condition,sender_kwargs", PROBES,
                             ids=[probe[0] for probe in PROBES])
    def test_probe_equals_reno(self, label, condition, sender_kwargs,
                               w_timeout):
        """Both environments' traces and the probe stream's end state."""
        def probe(algorithm):
            rng = np.random.default_rng(41)
            gathered = TraceGatherer(GatherConfig(
                w_timeout=w_timeout, mss=100)).gather_probe(
                    make_synthetic_server(algorithm, **sender_kwargs),
                    condition, rng)
            return list(gathered.traces()), rng.bit_generator.state

        assert probe("dctcp") == probe("reno")
