"""Minimal HTTP/1.1 response model.

CAAI keeps a TCP connection alive by pipelining the same HTTP request up to
twelve times (Section IV-E). The model here is deliberately small: responses
are metadata-only (no actual payload bytes are materialised), and only their
size matters, because it shapes how much data a probe can pull.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of times CAAI repeats its HTTP request by default (Section IV-E).
DEFAULT_PIPELINE_DEPTH = 12


@dataclass(frozen=True)
class HttpResponse:
    """A single HTTP response (metadata only)."""

    status: int
    body_size: int
    path: str
    redirect_to: str | None = None

    def __post_init__(self) -> None:
        if self.body_size < 0:
            raise ValueError("body size must be non-negative")
        if self.status == 301 and not self.redirect_to:
            raise ValueError("redirects must carry a target")

    def total_size(self) -> int:
        """Body plus an approximate header size."""
        return self.body_size + 180
