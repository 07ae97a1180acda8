"""Web-server model.

A :class:`WebServer` is what a CAAI probe talks to: it negotiates the MSS,
accepts a limited number of pipelined HTTP requests, serves page bytes over a
:class:`~repro.tcp.connection.TcpSender` driven by its configured congestion
avoidance algorithm, and exhibits the stack behaviours and quirks the paper
has to cope with (F-RTO, slow start threshold caching, TCP proxies in front of
IIS servers, send-buffer limits, servers that ignore the emulated timeout or
stall after it).

The class implements the :class:`repro.core.gather.ProbeableServer` protocol,
so the same trace gatherer that builds training sets can probe it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tcp.connection import SenderConfig, TcpSender
from repro.tcp.options import negotiate_mss
from repro.tcp.registry import create_algorithm
from repro.web.content import WebSite
from repro.web.http import DEFAULT_PIPELINE_DEPTH, HttpResponse


@dataclass
class ServerProfile:
    """Static description of a Web server's software, stack and quirks."""

    server_id: str
    software: str = "apache"                 # apache / iis / nginx / litespeed / other
    operating_system: str = "linux"          # linux / windows
    region: str = "north-america"
    tcp_algorithm: str = "cubic-b"
    #: TCP algorithm used by a proxy in front of the server (None = no proxy).
    proxy_algorithm: str | None = None
    minimum_mss: int = 100
    #: Maximum number of pipelined HTTP requests served on one connection.
    max_pipelined_requests: int = DEFAULT_PIPELINE_DEPTH
    initial_window: int = 3
    #: Send-buffer limit in packets (None = unlimited); a finite value yields
    #: the "Bounded Window" special case.
    send_buffer_packets: float | None = None
    use_frto: bool = False
    ssthresh_caching: bool = False
    ssthresh_cache_ttl: float = 300.0
    #: Quirks behind the paper's invalid and special-case traces.
    responds_to_timeout: bool = True
    post_timeout_stall: bool = False
    freeze_in_avoidance: bool = False
    approach_ceiling: float | None = None

    def effective_algorithm(self) -> str:
        """The algorithm CAAI actually observes (the proxy's, if present)."""
        return self.proxy_algorithm or self.tcp_algorithm


class WebServer:
    """A probeable Web server backed by a synthetic site."""

    def __init__(self, profile: ServerProfile, site: WebSite,
                 probe_path: str | None = None):
        self.profile = profile
        self.site = site
        #: Path CAAI requests; the census sets this to the crawler's best find.
        self.probe_path = probe_path or site.default_path
        self._cached_ssthresh: float | None = None
        self._cache_time: float | None = None
        self._last_sender: TcpSender | None = None
        self.connections_opened = 0

    # ------------------------------------------------------------- HTTP side
    def accepted_request_count(self, pipelined: int) -> int:
        """How many of ``pipelined`` identical requests this server serves."""
        return max(0, min(pipelined, self.profile.max_pipelined_requests))

    def available_bytes(self, pipelined: int = DEFAULT_PIPELINE_DEPTH,
                        path: str | None = None) -> int:
        """Bytes of response data a probe can pull with ``pipelined`` requests."""
        page = self.site.page(path or self.probe_path)
        if page is None:
            return 0
        if page.redirect_to:
            target = self.site.page(page.redirect_to)
            page = target if target is not None else page
        responses = self.accepted_request_count(pipelined)
        per_response = HttpResponse(status=200, body_size=page.size,
                                    path=page.path).total_size()
        return responses * per_response

    # ------------------------------------------ ProbeableServer protocol ----
    def accepts_mss(self, mss: int) -> bool:
        return negotiate_mss(mss, self.profile.minimum_mss) is not None

    def uses_frto(self) -> bool:
        return self.profile.use_frto

    def open_connection(self, mss: int, now: float, requested_bytes: int) -> TcpSender | None:
        """Open a TCP connection for a CAAI probe and load the response data."""
        negotiated = negotiate_mss(mss, self.profile.minimum_mss)
        if negotiated is None:
            return None
        self._refresh_ssthresh_cache(now)
        config = SenderConfig(
            mss=mss,
            initial_window=self.profile.initial_window,
            initial_ssthresh=self._initial_ssthresh(now),
            send_buffer_packets=self.profile.send_buffer_packets,
            use_frto=self.profile.use_frto,
            responds_to_timeout=self.profile.responds_to_timeout,
            post_timeout_stall=self.profile.post_timeout_stall,
            freeze_in_avoidance=self.profile.freeze_in_avoidance,
            approach_ceiling=self.profile.approach_ceiling,
        )
        algorithm = create_algorithm(self.profile.effective_algorithm())
        sender = TcpSender(algorithm, config)
        available = min(requested_bytes, self.available_bytes())
        if available <= 0:
            return None
        sender.enqueue_bytes(available)
        self._last_sender = sender
        self._cache_time = now
        self.connections_opened += 1
        return sender

    def restart(self) -> None:
        """Drop all in-memory TCP state, as a server reboot would.

        Used by the fault-injection layer's ``server_restart`` fault: the
        cached slow start threshold, its timestamp and the live sender are
        all lost, so the next probe connection starts from a cold stack
        (``connections_opened`` survives — it counts lifetime connections).
        """
        self._cached_ssthresh = None
        self._cache_time = None
        self._last_sender = None

    # ------------------------------------------------------------- internals
    def _initial_ssthresh(self, now: float) -> float:
        if not self.profile.ssthresh_caching or self._cached_ssthresh is None:
            return float("inf")
        assert self._cache_time is not None
        if now - self._cache_time > self.profile.ssthresh_cache_ttl:
            return float("inf")
        return self._cached_ssthresh

    def _refresh_ssthresh_cache(self, now: float) -> None:
        """Snapshot the previous connection's ssthresh (TCP metrics caching)."""
        if not self.profile.ssthresh_caching or self._last_sender is None:
            return
        ssthresh = self._last_sender.state.ssthresh
        if ssthresh != float("inf"):
            self._cached_ssthresh = ssthresh
