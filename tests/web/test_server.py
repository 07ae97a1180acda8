"""Tests for the Web-server model."""

import math

import pytest

from repro.web.content import WebPage, WebSite
from repro.web.server import ServerProfile, WebServer


def make_site(page_size=500_000):
    pages = {
        "/index.html": WebPage(path="/index.html", size=20_000, links=("/big.bin",)),
        "/big.bin": WebPage(path="/big.bin", size=page_size),
        "/moved.html": WebPage(path="/moved.html", size=0, redirect_to="/big.bin"),
    }
    return WebSite(pages=pages)


def make_server(**profile_kwargs):
    profile_kwargs.setdefault("server_id", "test-server")
    profile = ServerProfile(**profile_kwargs)
    return WebServer(profile, make_site(), probe_path="/big.bin")


class TestAvailability:
    def test_available_bytes_scale_with_pipelining(self):
        single = make_server(max_pipelined_requests=1)
        many = make_server(max_pipelined_requests=10)
        assert many.available_bytes() == pytest.approx(10 * single.available_bytes(), rel=0.01)

    def test_available_bytes_capped_by_caai_pipeline_depth(self):
        server = make_server(max_pipelined_requests=100)
        assert server.available_bytes(pipelined=12) <= 12 * (500_000 + 200)


class TestProbeableProtocol:
    def test_mss_policy(self):
        server = make_server(minimum_mss=536)
        assert not server.accepts_mss(100)
        assert server.accepts_mss(536)
        assert server.open_connection(100, 0.0, 10_000) is None

    def test_open_connection_loads_data(self):
        server = make_server(tcp_algorithm="cubic-b")
        sender = server.open_connection(100, 0.0, 10_000_000)
        assert sender is not None
        assert sender.bytes_available <= server.available_bytes()
        assert sender.bytes_available > 0

    def test_proxy_overrides_algorithm(self):
        server = make_server(tcp_algorithm="ctcp-a", proxy_algorithm="cubic-b")
        sender = server.open_connection(100, 0.0, 10_000)
        assert sender.algorithm.name == "cubic-b"
        assert server.profile.effective_algorithm() == "cubic-b"

    def test_quirks_propagate_to_sender_config(self):
        server = make_server(post_timeout_stall=True, use_frto=True,
                             send_buffer_packets=50.0)
        sender = server.open_connection(100, 0.0, 10_000)
        assert sender.config.post_timeout_stall
        assert sender.config.use_frto
        assert sender.config.send_buffer_packets == 50.0
        assert server.uses_frto()


class TestSsthreshCaching:
    def test_cache_reused_within_ttl(self):
        server = make_server(ssthresh_caching=True, ssthresh_cache_ttl=300.0)
        first = server.open_connection(100, 0.0, 10_000_000)
        first.state.ssthresh = 123.0           # as if a probe had run
        second = server.open_connection(100, 100.0, 10_000_000)
        assert second.state.ssthresh == 123.0

    def test_cache_expires_after_ttl(self):
        server = make_server(ssthresh_caching=True, ssthresh_cache_ttl=300.0)
        first = server.open_connection(100, 0.0, 10_000_000)
        first.state.ssthresh = 123.0
        second = server.open_connection(100, 1000.0, 10_000_000)
        assert math.isinf(second.state.ssthresh)

    def test_no_caching_by_default(self):
        server = make_server()
        first = server.open_connection(100, 0.0, 10_000_000)
        first.state.ssthresh = 123.0
        second = server.open_connection(100, 10.0, 10_000_000)
        assert math.isinf(second.state.ssthresh)
