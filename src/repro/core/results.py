"""Census result containers and aggregation (the structure of Table IV).

Table IV of the paper reports, per ``w_timeout`` column and overall, the
percentage of Web servers identified as each TCP algorithm, the special-case
categories, and the "unsure" bucket; Section VII-B2 additionally reports the
fraction of servers for which no valid trace could be gathered and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.labels import presentation_label
from repro.core.special_cases import SpecialCase, special_case_label
from repro.core.trace import InvalidReason

#: Per-server outcome taxonomy (docs/ROBUSTNESS.md): what the census can say
#: about a server once its probe budget is spent.
STATUS_IDENTIFIED = "identified"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_UNREACHABLE = "unreachable"
STATUS_INVALID_TRACE = "invalid_trace"

#: Invalid reasons meaning the server could not be measured at all (as
#: opposed to measured-but-unusable traces).
_UNREACHABLE_REASONS = frozenset({
    InvalidReason.CONNECTION_FAILED,
    InvalidReason.PROBE_TIMEOUT,
    InvalidReason.CONNECTION_RESET,
    InvalidReason.WORKER_FAILED,
})


@dataclass
class ServerOutcome:
    """The census outcome for one server."""

    server_id: str
    valid: bool
    w_timeout: int | None = None
    mss: int | None = None
    category: str | None = None          # algorithm label, special case, or "unsure"
    confidence: float | None = None
    invalid_reason: InvalidReason | None = None
    special_case: SpecialCase | None = None
    true_algorithm: str | None = None    # ground truth (available only in simulation)
    software: str | None = None
    region: str | None = None
    #: Probe attempts spent on this server (1 = first try succeeded).
    attempts: int = 1
    #: Total backoff the retry loop slept for, in simulated seconds.
    backoff_total: float = 0.0
    #: Injected-fault events observed while probing, as ``(kind, attempt)``.
    fault_events: tuple = ()

    @property
    def status(self) -> str:
        """The outcome-taxonomy bucket this server landed in.

        Returns:
            ``identified`` (valid, confidently classified),
            ``inconclusive`` (valid but unsure), ``unreachable`` (never
            measured: connection/deadline/worker failures), or
            ``invalid_trace`` (measured, trace unusable).
        """
        if self.valid:
            if self.category == "unsure":
                return STATUS_INCONCLUSIVE
            return STATUS_IDENTIFIED
        if self.invalid_reason in _UNREACHABLE_REASONS:
            return STATUS_UNREACHABLE
        return STATUS_INVALID_TRACE

    # -------------------------------------------------------- serialization
    def to_json_dict(self) -> dict:
        """Plain-JSON representation used by the checkpoint layer.

        Floats round-trip exactly (``json`` serialises them with ``repr``),
        so an outcome written to a checkpoint and read back compares equal to
        the in-memory original — the property the resume parity guarantee
        rests on.

        Resilience accounting (``attempts``, ``backoff_total``,
        ``fault_events``, ``status``) is serialised only when it deviates
        from the no-fault defaults, so a census run without a fault plan
        writes byte-identical checkpoints to versions that predate the
        fault-injection layer.

        Returns:
            A dict of JSON-native values; enum fields are stored by value.
        """
        data = {
            "server_id": self.server_id,
            "valid": self.valid,
            "w_timeout": self.w_timeout,
            "mss": self.mss,
            "category": self.category,
            "confidence": self.confidence,
            "invalid_reason": (self.invalid_reason.value
                               if self.invalid_reason is not None else None),
            "special_case": (self.special_case.value
                             if self.special_case is not None else None),
            "true_algorithm": self.true_algorithm,
            "software": self.software,
            "region": self.region,
        }
        if self.attempts != 1 or self.backoff_total or self.fault_events:
            data["attempts"] = self.attempts
            data["backoff_total"] = self.backoff_total
            data["fault_events"] = [list(event) for event in self.fault_events]
            data["status"] = self.status
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ServerOutcome":
        """Rebuild an outcome from :meth:`to_json_dict` output.

        Args:
            data: A dict previously produced by :meth:`to_json_dict`.

        Returns:
            A :class:`ServerOutcome` equal to the one that was serialised.
        """
        invalid_reason = data.get("invalid_reason")
        special_case = data.get("special_case")
        return cls(
            server_id=data["server_id"],
            valid=data["valid"],
            w_timeout=data.get("w_timeout"),
            mss=data.get("mss"),
            category=data.get("category"),
            confidence=data.get("confidence"),
            invalid_reason=(InvalidReason(invalid_reason)
                            if invalid_reason is not None else None),
            special_case=(SpecialCase(special_case)
                          if special_case is not None else None),
            true_algorithm=data.get("true_algorithm"),
            software=data.get("software"),
            region=data.get("region"),
            attempts=data.get("attempts", 1),
            backoff_total=data.get("backoff_total", 0.0),
            fault_events=tuple(tuple(event)
                               for event in data.get("fault_events", ())),
        )


@dataclass
class CensusReport:
    """Aggregated census results."""

    outcomes: list[ServerOutcome] = field(default_factory=list)

    def add(self, outcome: ServerOutcome) -> None:
        self.outcomes.append(outcome)

    # ------------------------------------------------------------- totals
    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def valid_outcomes(self) -> list[ServerOutcome]:
        return [outcome for outcome in self.outcomes if outcome.valid]

    @property
    def invalid_outcomes(self) -> list[ServerOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.valid]

    def valid_fraction(self) -> float:
        if not self.outcomes:
            return 0.0
        return len(self.valid_outcomes) / len(self.outcomes)

    # -------------------------------------------------------- Table IV view
    def w_timeout_values(self) -> list[int]:
        values = sorted({outcome.w_timeout for outcome in self.valid_outcomes
                         if outcome.w_timeout is not None}, reverse=True)
        return values

    def w_timeout_shares(self) -> dict[int, float]:
        """Fraction of valid servers whose probe succeeded at each w_timeout."""
        valid = self.valid_outcomes
        if not valid:
            return {}
        shares: dict[int, float] = {}
        for w_timeout in self.w_timeout_values():
            count = sum(1 for outcome in valid if outcome.w_timeout == w_timeout)
            shares[w_timeout] = count / len(valid)
        return shares

    def category_percentages(self, w_timeout: int | None = None) -> dict[str, float]:
        """Percentage of valid servers per category (one Table IV column).

        ``w_timeout=None`` gives the overall column; otherwise only servers
        whose probe succeeded at that ``w_timeout`` are counted, as in the
        paper's per-column breakdown (percentages are still relative to all
        valid servers, so the columns of Table IV sum to the column share).
        """
        valid = self.valid_outcomes
        if not valid:
            return {}
        counts: dict[str, int] = {}
        for outcome in valid:
            if w_timeout is not None and outcome.w_timeout != w_timeout:
                continue
            category = outcome.category or "unsure"
            counts[category] = counts.get(category, 0) + 1
        return {category: 100.0 * count / len(valid)
                for category, count in sorted(counts.items())}

    # ------------------------------------------------ resilience accounting
    def status_counts(self) -> dict[str, int]:
        """Servers per outcome-taxonomy bucket (docs/ROBUSTNESS.md).

        Returns:
            Counts keyed by ``identified`` / ``inconclusive`` /
            ``unreachable`` / ``invalid_trace``, sorted by key.
        """
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return dict(sorted(counts.items()))

    def retry_total(self) -> int:
        """Total extra probe attempts the census spent on retries.

        Returns:
            The sum of ``attempts - 1`` over all outcomes (0 when nothing
            was retried).
        """
        return sum(outcome.attempts - 1 for outcome in self.outcomes)

    def has_fault_accounting(self) -> bool:
        """Whether any outcome carries retry or fault-event accounting.

        Returns:
            ``True`` if at least one server was retried or observed an
            injected fault; reports from fault-free runs return ``False``
            (and serialise exactly as before the fault layer existed).
        """
        return any(outcome.attempts != 1 or outcome.fault_events
                   for outcome in self.outcomes)

    def resilience_summary(self) -> dict:
        """One-look summary of how flaky the census run was.

        Returns:
            A dict with ``status_counts``, ``retry_total`` and
            ``fault_events`` (total injected-fault observations).
        """
        return {
            "status_counts": self.status_counts(),
            "retry_total": self.retry_total(),
            "fault_events": sum(len(outcome.fault_events)
                                for outcome in self.outcomes),
        }

    def invalid_reason_shares(self) -> dict[str, float]:
        invalid = self.invalid_outcomes
        if not invalid:
            return {}
        counts: dict[str, int] = {}
        for outcome in invalid:
            reason = outcome.invalid_reason.value if outcome.invalid_reason else "unknown"
            counts[reason] = counts.get(reason, 0) + 1
        return {reason: count / len(invalid) for reason, count in sorted(counts.items())}

    # ---------------------------------------------------------- conclusions
    def reno_share_bounds(self) -> tuple[float, float]:
        """Lower and upper bound on the RENO share among valid servers.

        The paper reports a range because RC-small probes cannot separate
        RENO from CTCP: the lower bound counts only RENO-big, the upper bound
        adds the whole RC-small bucket.
        """
        percentages = self.category_percentages()
        reno_big = percentages.get("reno", 0.0)
        rc_small = percentages.get("rc-small", 0.0)
        return reno_big, reno_big + rc_small

    def bic_cubic_share(self) -> float:
        percentages = self.category_percentages()
        return sum(percentages.get(name, 0.0) for name in ("bic", "cubic-a", "cubic-b"))

    def ctcp_share(self) -> float:
        percentages = self.category_percentages()
        return sum(percentages.get(name, 0.0) for name in ("ctcp-a", "ctcp-b"))

    def accuracy_against_ground_truth(self) -> float:
        """Fraction of classified servers whose label matches the ground truth.

        Only meaningful in simulation, where the deployed algorithm is known.
        Servers that land in special-case, unsure or RC-small buckets are
        excluded, mirroring how the paper could only validate on its testbed.
        """
        comparable = [outcome for outcome in self.valid_outcomes
                      if outcome.true_algorithm and outcome.category
                      and outcome.category not in ("unsure", "rc-small")
                      and outcome.special_case is None]
        if not comparable:
            return 0.0
        correct = sum(1 for outcome in comparable
                      if outcome.category == outcome.true_algorithm)
        return correct / len(comparable)

    # ------------------------------------------------------------- rendering
    def table_rows(self) -> list[tuple[str, dict[int, float], float]]:
        """Rows of Table IV: (label, per-w_timeout percentages, overall)."""
        rows = []
        w_values = self.w_timeout_values()
        overall = self.category_percentages()
        per_w = {w: self.category_percentages(w) for w in w_values}
        for category in sorted(overall, key=lambda c: -overall[c]):
            label = _category_presentation(category)
            row = {w: per_w[w].get(category, 0.0) for w in w_values}
            rows.append((label, row, overall[category]))
        return rows


def _category_presentation(category: str) -> str:
    for case in SpecialCase:
        if category == case.value:
            return special_case_label(case)
    return presentation_label(category)
