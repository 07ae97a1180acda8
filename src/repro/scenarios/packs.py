"""Scenario packs: named adversarial probing regimes.

A :class:`ScenarioPack` bundles a condition-database preset with optional
middlebox and evasion configurations into one named, picklable unit the
census (``--scenario-pack``), the training-set builder and the robustness
experiment all consume. The registry ships five packs:

* ``paper-baseline`` — the unmodified paper setup (wraps nothing; selecting
  it is byte-identical to selecting no pack at all);
* ``cellular-trace`` — conditions resampled from the packaged cellular link
  trace (time-varying bandwidth/delay/loss), path otherwise clean;
* ``policed`` — a token-bucket ACK policer on the return path;
* ``ack-manipulated`` — an ACK-thinning + ACK-stretching middlebox;
* ``evasive`` — servers that randomize ssthresh, jitter their window growth
  and delay their timers to dodge fingerprinting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scenarios.evasion import EvasionConfig, EvasiveServer
from repro.scenarios.middlebox import MiddleboxConfig, MiddleboxServer


@dataclass(frozen=True)
class ScenarioPack:
    """One named adversarial probing regime."""

    name: str
    description: str
    #: Condition-database preset the pack probes under (``--conditions``).
    condition_preset: str = "paper"
    #: ACK-path middlebox chain; ``None`` leaves the path clean.
    middlebox: MiddleboxConfig | None = None
    #: Evasive-server behaviour; ``None`` leaves servers honest.
    evasion: EvasionConfig | None = None
    #: Root seed of the perturbation streams (never the probe streams).
    seed: int = 0

    def wraps_servers(self) -> bool:
        """Whether this pack changes server behaviour at all.

        Returns:
            ``True`` when a non-neutral middlebox or evasion config is
            present; ``False`` means :meth:`wrap_server` is the identity.
        """
        if self.middlebox is not None and not self.middlebox.is_neutral():
            return True
        if self.evasion is not None and not self.evasion.is_neutral():
            return True
        return False

    def wrap_server(self, server, server_id: str):
        """Apply the pack's wrappers to one server.

        Servers are wrapped evasion-innermost (the server misbehaves, then
        the middlebox mangles its ACK path). A pack with nothing to apply
        returns ``server`` unchanged, keeping byte-for-byte parity with a
        pack-free run.

        Args:
            server: The server to wrap (``WebServer``/``SyntheticServer``).
            server_id: Stable identifier used to derive perturbation
                streams.

        Returns:
            The wrapped server, or ``server`` itself for baseline packs.
        """
        wrapped = server
        if self.evasion is not None and not self.evasion.is_neutral():
            wrapped = EvasiveServer(wrapped, self.evasion,
                                    pack_seed=self.seed, server_id=server_id)
        if self.middlebox is not None and not self.middlebox.is_neutral():
            wrapped = MiddleboxServer(wrapped, self.middlebox)
        return wrapped


#: The shipped scenario packs, keyed by name.
SCENARIO_PACKS: dict[str, ScenarioPack] = {
    pack.name: pack for pack in (
        ScenarioPack(
            name="paper-baseline",
            description="The paper's own setup: static condition database, "
                        "clean path, honest servers.",
        ),
        ScenarioPack(
            name="cellular-trace",
            description="Conditions resampled from the packaged cellular "
                        "link trace (time-varying bandwidth/delay/loss).",
            condition_preset="cellular-trace",
        ),
        ScenarioPack(
            name="policed",
            description="A token-bucket policer rate-limits the ACK return "
                        "path; large rounds lose their tails.",
            middlebox=MiddleboxConfig(policer_capacity=192,
                                      policer_rate=220.0),
            seed=1,
        ),
        ScenarioPack(
            name="ack-manipulated",
            description="An accelerator middlebox thins the ACK stream to "
                        "every 4th ACK and stretches delivery by 50 ms.",
            middlebox=MiddleboxConfig(thin_every=4, stretch_seconds=0.05),
            seed=2,
        ),
        ScenarioPack(
            name="evasive",
            description="Servers randomize ssthresh, jitter window growth "
                        "and delay timers to dodge fingerprinting.",
            evasion=EvasionConfig(ssthresh_range=(24.0, 192.0),
                                  growth_jitter=0.25,
                                  growth_holdback=0.3,
                                  timer_delay=0.2),
            seed=3,
        ),
    )
}


def scenario_pack_by_name(name: str) -> ScenarioPack:
    """Look up a scenario pack by name.

    Args:
        name: One of :data:`SCENARIO_PACKS` (``"paper-baseline"``,
            ``"cellular-trace"``, ``"policed"``, ``"ack-manipulated"``,
            ``"evasive"``).

    Returns:
        The matching :class:`ScenarioPack`.

    Raises:
        ValueError: If the name is unknown; the message lists every valid
            pack name.
    """
    try:
        return SCENARIO_PACKS[name]
    except KeyError:
        valid = ", ".join(sorted(SCENARIO_PACKS))
        raise ValueError(f"unknown scenario pack {name!r}; "
                         f"valid names: {valid}") from None
