"""Centralised, validated parsing of the ``REPRO_*`` environment knobs.

The batched ACK engine ships an escape hatch as an environment variable
(``REPRO_ACK_BATCH``). Historically each engine knob was parsed by its own
module with slightly different rules, so one knob's ``false`` left its
engine *on* while another's turned it off. This module is the single
parser for boolean knobs: one vocabulary and a loud :class:`EnvKnobError`
for anything unrecognised instead of a silent coercion.

The full knob table lives in ``docs/CONFIGURATION.md``.
"""

from __future__ import annotations

import os

#: Spellings accepted as boolean values (case-insensitive, whitespace-trimmed).
TRUE_VALUES = ("1", "true", "on", "yes")
FALSE_VALUES = ("0", "false", "off", "no")


class EnvKnobError(ValueError):
    """An environment knob is set to a value this code cannot interpret."""


def env_flag(name: str, default: bool = True) -> bool:
    """Read a boolean ``REPRO_*`` knob, rejecting unrecognised values loudly.

    Args:
        name: The environment variable name.
        default: Value used when the variable is unset or empty.

    Returns:
        ``True``/``False`` for the spellings in :data:`TRUE_VALUES` /
        :data:`FALSE_VALUES` (case-insensitive).

    Raises:
        EnvKnobError: If the variable is set to anything else — a typo like
            ``fales`` must not silently keep (or drop) a fast path.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip().lower()
    if value in TRUE_VALUES:
        return True
    if value in FALSE_VALUES:
        return False
    raise EnvKnobError(
        f"{name}={raw!r} is not a recognised boolean; use one of "
        f"{'/'.join(TRUE_VALUES)} or {'/'.join(FALSE_VALUES)} (or unset it "
        f"for the default {default})")
