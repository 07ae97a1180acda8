"""TCP option handling relevant to CAAI.

CAAI controls two options in its SYN (Section IV-C of the paper): the maximum
segment size, which it lowers so that large windows (in packets) are reachable
with little data, and window scaling, which it uses to advertise a one
gigabyte receive window so that the receive window never limits the server
(``SenderConfig.receive_window_bytes``, ``65_535 << 14``). Only the MSS
side needs code here.
"""

from __future__ import annotations

#: MSS values CAAI tries, in the increasing order used by the paper
#: (Section IV-B, "Values of mss").
CAAI_MSS_LADDER: tuple[int, ...] = (100, 300, 536, 1460)


def negotiate_mss(requested_mss: int, server_minimum_mss: int,
                  server_maximum_mss: int = 1460) -> int | None:
    """Apply a server's MSS acceptance policy to the MSS requested by CAAI.

    The paper (Table II) observed that most Web servers accept an MSS as low
    as 100 bytes but a non-trivial fraction only accept larger values. We
    model a server by the minimum MSS it is willing to use. A request below
    that minimum is rejected (``None``), mirroring the behaviour that forces
    CAAI to climb its MSS ladder.
    """
    if requested_mss <= 0:
        raise ValueError("requested MSS must be positive")
    if requested_mss < server_minimum_mss:
        return None
    return min(requested_mss, server_maximum_mss)
