"""The one stable JSON schema for census reports.

Before the serving layer, ``python -m repro.census --json`` emitted an
ad-hoc payload whose shape drifted with the report object. This module is
the single source of truth instead: the CLI's ``--json`` files are built
here, carry an explicit ``schema`` envelope (name + version), and are
pinned by snapshot tests. Consumers dispatch on the envelope; any
incompatible change bumps the version.

Census report payload (``caai-census-report`` v1), keys always present and
sorted when serialised:

* ``schema`` — ``{"name": "caai-census-report", "version": 1}``;
* ``servers`` — total population size;
* ``valid_count`` / ``valid_fraction`` — servers with a usable trace;
* ``category_percentages`` — Table IV overall column (percent of valid);
* ``invalid_reason_shares`` — fraction of invalid servers per reason;
* ``status_counts`` — outcome-taxonomy buckets (always included, unlike the
  legacy payload which omitted them for fault-free runs);
* ``retry_total`` — extra probe attempts spent on retries;
* ``resilience`` — :meth:`~repro.core.results.CensusReport.resilience_summary`
  when any outcome carries fault accounting, else ``None``;
* ``source`` — free-form provenance (e.g. ``{"artifact": ..., "checkpoint":
  ...}``), ``None`` when not supplied;
* ``outcomes`` — per-server dicts, exactly
  :meth:`~repro.core.results.ServerOutcome.to_json_dict` (the checkpoint
  wire format, so report files and shard files agree byte-for-byte on every
  outcome).
"""

from __future__ import annotations

from repro.core.results import CensusReport

#: Envelope name/version of census report payloads.
CENSUS_REPORT_SCHEMA = {"name": "caai-census-report", "version": 1}


def census_report_payload(report: CensusReport, *,
                          source: dict | None = None) -> dict:
    """Build the stable JSON payload for a census report.

    Args:
        report: The aggregated census report.
        source: Optional provenance dict (artifact path and fingerprint,
            checkpoint directory, ...), stored verbatim under ``source``.

    Returns:
        A JSON-native dict with every documented key present (see module
        docstring); serialise with ``sort_keys=True`` for stable bytes.
    """
    return {
        "schema": dict(CENSUS_REPORT_SCHEMA),
        "servers": len(report),
        "valid_count": len(report.valid_outcomes),
        "valid_fraction": report.valid_fraction(),
        "category_percentages": report.category_percentages(),
        "invalid_reason_shares": report.invalid_reason_shares(),
        "status_counts": report.status_counts(),
        "retry_total": report.retry_total(),
        "resilience": (report.resilience_summary()
                       if report.has_fault_accounting() else None),
        "source": source,
        "outcomes": [outcome.to_json_dict() for outcome in report.outcomes],
    }
