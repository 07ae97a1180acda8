"""DCTCP (Alizadeh et al., SIGCOMM 2010), as an unmarked path shows it.

DCTCP (RFC 8257) grows like RENO and cuts its window in proportion to
``alpha``, an EWMA of the fraction of ECN-marked packets per window. CAAI's
probe marks no packet, so ``alpha`` keeps its initial value of 1.0 and the
cut ``cwnd * (1 - alpha / 2)`` is RENO's halving: a probed DCTCP server is a
RENO server. The class is therefore RENO under its own name and label, and
RFC 8257's proportional cut is not modelled.
"""

from __future__ import annotations

from repro.tcp.algorithms.reno import Reno


class Dctcp(Reno):
    """DCTCP on a path that marks nothing: RENO growth and halving."""

    name = "dctcp"
    label = "DCTCP"
