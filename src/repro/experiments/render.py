"""The report renderer: artifacts in, ``docs/RESULTS.md`` out.

The renderer never computes anything — it loads the selected experiments'
cached artifacts (validating their fingerprints, so stale artifacts fail
loudly instead of rendering silently wrong numbers), hands each payload to
the experiment's own ``render`` function, and assembles the sections into
one Markdown document with a table of contents and, where the paper
publishes headline numbers, a reproduction-vs-paper delta table.

The output is deterministic: payloads are deterministic (seeded), the
renderer adds no timestamps or timings, and section order is registry
order. Rendering twice from the same artifacts produces byte-identical
documents — the property the ``report-smoke`` CI job asserts.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis.tables import format_markdown_table
from repro.experiments.profiles import ScaleProfile
from repro.experiments.registry import (
    Experiment,
    code_fingerprint,
    experiment_fingerprint,
    select_experiments,
)
from repro.experiments.store import ArtifactStore
from repro.store import write_atomic

_SLUG_STRIP = re.compile(r"[^a-z0-9 -]")


def _slug(title: str) -> str:
    """GitHub-style anchor slug of a section heading."""
    slug = _SLUG_STRIP.sub("", title.lower())
    return slug.strip().replace(" ", "-")


def _format_number(value: float) -> str:
    """Compact numeric formatting for the delta tables."""
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def _delta_table(experiment: Experiment, metrics: dict) -> str:
    """Reproduction-vs-paper table for an experiment's headline numbers."""
    rows = []
    for key in experiment.paper_values:
        paper = float(experiment.paper_values[key])
        ours = metrics.get(key)
        if ours is None:
            rows.append([key, _format_number(paper), "missing", "-"])
            continue
        ours = float(ours)
        rows.append([key, _format_number(paper), _format_number(ours),
                     f"{ours - paper:+.3g}"])
    return format_markdown_table(
        ["Metric", "Paper", "This run", "Delta"], rows)


def render_markdown(store: ArtifactStore, profile: ScaleProfile,
                    names: list[str] | None = None,
                    experiments: list[Experiment] | None = None) -> str:
    """Assemble the reproduction report from cached artifacts.

    Args:
        store: The artifact store to read from.
        profile: The scale profile the artifacts were computed at; every
            artifact's fingerprint is validated against it.
        names: Experiment names to include, or ``None`` for every
            registered experiment (registry order either way).
        experiments: Explicit experiment list (tests); defaults to the
            registry.

    Returns:
        The full Markdown document, ending in a newline.

    Raises:
        repro.experiments.store.ArtifactError: If any selected artifact is
            missing, corrupt, or stale with respect to the current
            configuration/code fingerprint.
        ValueError: If a name is unknown.
    """
    selected = select_experiments(names, experiments)

    profile_rows = [
        ["training conditions per (algorithm, w_timeout) pair",
         str(profile.training_conditions_per_pair)],
        ["census population size", str(profile.census_size)],
        ["condition database size", str(profile.condition_database_size)],
        ["census forest size (trees)", str(profile.forest_trees)],
        ["cross-validation folds", str(profile.cross_validation_folds)],
    ]
    parts = [
        "# Reproduction results",
        f"Every figure and table of the paper, regenerated at the "
        f"**`{profile.name}`** scale profile by the experiment registry "
        f"(`src/repro/experiments/`).",
        "> Generated by `python -m repro.report render` — do not edit by "
        "hand. Re-running `python -m repro.report run --profile "
        f"{profile.name}` is a no-op while the cached artifacts' "
        "fingerprints match; see "
        "[docs/EXPERIMENTS.md](EXPERIMENTS.md) for the workflow.",
        "**Profile parameters**\n\n"
        + format_markdown_table(["Parameter", "Value"], profile_rows),
        "## Contents",
        "\n".join(f"- [{experiment.title}](#{_slug(experiment.title)})"
                  for experiment in selected),
    ]
    code = code_fingerprint()
    for experiment in selected:
        payload = store.load(experiment.name,
                             experiment_fingerprint(experiment, profile, code))
        parts.append(f"## {experiment.title}")
        parts.append(experiment.description)
        parts.append(experiment.render(payload))
        if experiment.paper_values:
            parts.append("**Comparison with the paper's published numbers**"
                         "\n\n" + _delta_table(experiment,
                                               payload.get("metrics", {})))
    return "\n\n".join(parts) + "\n"


def render_to_file(store: ArtifactStore, profile: ScaleProfile,
                   output: str | Path,
                   names: list[str] | None = None,
                   experiments: list[Experiment] | None = None) -> Path:
    """Render the report and write it to ``output``.

    Args:
        store: The artifact store to read from.
        profile: The scale profile the artifacts were computed at.
        output: Destination Markdown file (parent directories are created).
        names: Experiment names to include, or ``None`` for all.
        experiments: Explicit experiment list (tests).

    Returns:
        The written path (replaced atomically, so a crash never leaves a
        torn report).
    """
    output = Path(output)
    text = render_markdown(store, profile, names=names, experiments=experiments)
    output.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(output, text.encode("utf-8"))
    return output
