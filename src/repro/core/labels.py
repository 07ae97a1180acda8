"""Label conventions used by the CAAI classifier and the census.

The paper cannot distinguish RENO, CTCP-a and CTCP-b when the probe only
reaches a ``w_timeout`` of 64 or 128 packets, because Compound TCP is designed
to behave exactly like RENO at small windows (Section VII-A2). Probes with a
small ``w_timeout`` therefore carry the merged label ``rc-small``; probes with
a large ``w_timeout`` keep the individual labels, reported by the paper as
"RENO-big", "CTCP-a-big" and "CTCP-b-big".
"""

from __future__ import annotations

#: The merged small-window class.
RC_SMALL = "rc-small"
#: Label used when the random forest's confidence falls below the threshold.
UNSURE = "unsure"

#: Algorithms affected by the small-window merge.
RC_MERGED_ALGORITHMS: tuple[str, ...] = ("reno", "ctcp-a", "ctcp-b")
#: ``w_timeout`` values at which the merge applies (Section VII-A2).
SMALL_W_TIMEOUTS: tuple[int, ...] = (64, 128)
#: ``w_timeout`` values at which RENO and the CTCP versions stay separable.
BIG_W_TIMEOUTS: tuple[int, ...] = (256, 512)

#: Post-2011 families outside the paper's catalogue (mirrors
#: ``repro.tcp.registry.MODERN_ALGORITHMS``, re-declared here so the label
#: layer stays import-light). The ``modern_families`` experiment appends them
#: to :data:`~repro.tcp.registry.IDENTIFIABLE_ALGORITHMS` for the extended
#: 17-class classifier; the paper-faithful experiments never see them.
MODERN_ALGORITHMS: tuple[str, ...] = ("bbr", "dctcp", "learned")
#: Presentation names for the modern families (``.upper()`` would mangle
#: the learned-CC hook's name).
MODERN_LABELS: dict[str, str] = {
    "bbr": "BBR",
    "dctcp": "DCTCP",
    "learned": "Learned-CC",
}


def extended_identifiable(identifiable: tuple[str, ...]) -> tuple[str, ...]:
    """The classifier's class set extended with the modern families.

    Args:
        identifiable: The paper's identifiable set (usually
            ``IDENTIFIABLE_ALGORITHMS``).

    Returns:
        ``identifiable`` with :data:`MODERN_ALGORITHMS` appended (order
        preserved, no duplicates).
    """
    return identifiable + tuple(
        name for name in MODERN_ALGORITHMS if name not in identifiable)


def training_label(algorithm: str, w_timeout: int) -> str:
    """The class label of a training vector for ``algorithm`` at ``w_timeout``."""
    if algorithm in RC_MERGED_ALGORITHMS and w_timeout in SMALL_W_TIMEOUTS:
        return RC_SMALL
    return algorithm


def presentation_label(label: str, w_timeout: int | None = None) -> str:
    """Human-readable label used in census tables (the paper's "-big" suffix)."""
    if label in RC_MERGED_ALGORITHMS:
        return f"{label.upper()}-big"
    if label == RC_SMALL:
        return "RC-small"
    if label == UNSURE:
        return "Unsure TCP"
    if label in MODERN_LABELS:
        return MODERN_LABELS[label]
    return label.upper()
