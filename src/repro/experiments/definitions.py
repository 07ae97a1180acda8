"""The registry entries: one experiment per paper figure/table.

Each entry's ``compute`` function produces a JSON-serialisable payload (the
artifact cached by :mod:`repro.experiments.store`) and its ``render``
function turns that payload into the Markdown section the report renderer
assembles into ``docs/RESULTS.md``. The benchmark scripts under
``benchmarks/`` are thin wrappers over these same entries, so a benchmark
run and a report run compute identical numbers at the same seed.

Seeds that are independent of the scale profile (the Fig. 3 / Fig. 8 /
Figs. 13-18 trace gathering) are hard-coded here with the values the
benchmark harness has always used; everything profile-dependent draws its
sizes and seeds from the :class:`~repro.experiments.profiles.ScaleProfile`.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cdf import EmpiricalCdf
from repro.analysis.figures import ascii_series
from repro.analysis.tables import format_markdown_table
from repro.core.environments import ENVIRONMENT_A
from repro.core.features import FeatureExtractor
from repro.core.gather import GatherConfig, SyntheticServer, TraceGatherer
from repro.core.prober import packet_level_trace
from repro.core.special_cases import detect_special_case
from repro.core.trace import InvalidReason
from repro.experiments.registry import Experiment, ExperimentContext, register
from repro.ml.dataset import LabeledDataset
from repro.ml.decision_tree import DecisionTreeClassifier
from repro.ml.knn import KNearestNeighborsClassifier
from repro.ml.naive_bayes import GaussianNaiveBayesClassifier
from repro.ml.random_forest import RandomForestClassifier
from repro.ml.validation import cross_validate
from repro.net.conditions import NetworkCondition
from repro.tcp.connection import SenderConfig
from repro.tcp.registry import IDENTIFIABLE_ALGORITHMS, algorithm_catalog
from repro.web.crawler import PageSearchTool

# Trace-gathering seeds shared with the historic benchmark scripts; changing
# them changes every window-trace artifact, so they are module constants
# (and thereby part of the code fingerprint).
FIG3_SEED = 1
FIG13_18_SEED = 5


def _fenced(text: str) -> str:
    """Wrap preformatted text in a Markdown code fence."""
    return f"```\n{text}\n```"


# =========================================================== Table I
def compute_table1(context: ExperimentContext) -> dict:
    """Reproduce Table I: the TCP algorithm catalogue per OS family.

    Args:
        context: The run context (unused; the catalogue is static).

    Returns:
        The payload with one row per algorithm.
    """
    rows = []
    for entry in algorithm_catalog():
        rows.append({
            "label": entry.label,
            "windows_family": entry.windows_family,
            "linux_family": entry.linux_family,
            "default_in": list(entry.default_in),
        })
    return {"rows": rows, "metrics": {"n_algorithms": float(len(rows))}}


def render_table1(payload: dict) -> str:
    """Render the Table I catalogue as Markdown.

    Args:
        payload: The :func:`compute_table1` payload.

    Returns:
        The Markdown section body.
    """
    rows = [[row["label"],
             "yes" if row["windows_family"] else "-",
             "yes" if row["linux_family"] else "-",
             ", ".join(row["default_in"]) or "-"]
            for row in payload["rows"]]
    return format_markdown_table(
        ["Algorithm", "Windows family", "Linux family", "Default in"], rows)


# ============================================================= Fig. 3
def gather_fig3_traces():
    """Gather the Fig. 3 window traces (all 14 algorithms + panel (o)).

    Returns:
        ``(traces, small)``: per-algorithm probes at ``w_timeout = 512`` and
        the panel (o) probes (RENO and both CTCP versions) at
        ``w_timeout = 64``, gathered on one shared random stream exactly as
        the historic benchmark did.
    """
    rng = np.random.default_rng(FIG3_SEED)
    condition = NetworkCondition.ideal()
    traces = {}
    gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))
    for algorithm in IDENTIFIABLE_ALGORITHMS:
        server = SyntheticServer(algorithm,
                                 lambda mss: SenderConfig(mss=mss, initial_window=3))
        traces[algorithm] = gatherer.gather_probe(server, condition, rng)
    # Panel (o): RENO and the CTCP versions at w_timeout = 64.
    small_gatherer = TraceGatherer(GatherConfig(w_timeout=64, mss=100))
    small = {}
    for algorithm in ("reno", "ctcp-a", "ctcp-b"):
        server = SyntheticServer(algorithm,
                                 lambda mss: SenderConfig(mss=mss, initial_window=3))
        small[algorithm] = small_gatherer.gather_probe(server, condition, rng)
    return traces, small


def compute_fig3(context: ExperimentContext) -> dict:
    """Reproduce Fig. 3: per-algorithm window traces in environment A.

    Args:
        context: The run context (the traces are profile-independent).

    Returns:
        The payload with per-algorithm window series, feature vectors, the
        panel (o) traces and the minimum pairwise feature distance.
    """
    traces, small = gather_fig3_traces()
    extractor = FeatureExtractor()
    series = {}
    vectors = {}
    for algorithm, probe in traces.items():
        series[algorithm] = [float(w) for w in
                             probe.trace_a.pre_timeout + probe.trace_a.post_timeout]
        if probe.usable_for_features:
            vectors[algorithm] = [float(v) for v in
                                  extractor.extract(probe).as_array()]
    names = list(vectors)
    min_distance = float("inf")
    closest = ["", ""]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            distance = float(np.linalg.norm(np.array(vectors[a]) - np.array(vectors[b])))
            if distance < min_distance:
                min_distance = distance
                closest = [a, b]
    panel_o = {algorithm: [float(w) for w in probe.trace_a.post_timeout]
               for algorithm, probe in small.items()}
    return {
        "series_env_a": series,
        "feature_vectors": vectors,
        "panel_o_post_timeout": panel_o,
        "closest_pair": closest,
        "metrics": {
            "algorithms_traced": float(len(series)),
            "min_pairwise_feature_distance": min_distance,
        },
    }


def render_fig3(payload: dict) -> str:
    """Render the Fig. 3 window traces as ASCII charts.

    Args:
        payload: The :func:`compute_fig3` payload.

    Returns:
        The Markdown section body.
    """
    charts = []
    for algorithm, windows in payload["series_env_a"].items():
        charts.append(ascii_series(windows, label=f"({algorithm}) env A"))
    parts = [_fenced("\n\n".join(charts)),
             "Panel (o): RENO and both CTCP versions coincide at "
             "`w_timeout = 64` (post-timeout windows):",
             _fenced("\n".join(
                 f"{algorithm:8s} {[round(w) for w in windows]}"
                 for algorithm, windows in payload["panel_o_post_timeout"].items())),
             f"Closest pair in feature space: "
             f"`{payload['closest_pair'][0]}` / `{payload['closest_pair'][1]}` "
             f"(distance "
             f"{payload['metrics']['min_pairwise_feature_distance']:.3f})."]
    return "\n\n".join(parts)


# ==================================================== Figs. 4, 10, 11
# The historic print grid: np.arange(0.05, 0.85, 0.05), i.e. 0.05 .. 0.80
# inclusive — the 0.80 s row is the threshold the paper's headline rests on.
FIG4_RTT_POINTS = [round(0.05 * i, 2) for i in range(1, 17)]
FIG10_STD_POINTS = [0.005, 0.01, 0.02, 0.05, 0.1, 0.25]
FIG11_LOSS_POINTS = [0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1]


def compute_fig4_10_11(context: ExperimentContext) -> dict:
    """Reproduce Figs. 4/10/11: the measured network-condition CDFs.

    Args:
        context: The run context; uses the shared condition database.

    Returns:
        The payload with each CDF sampled on its historic print grid.
    """
    database = context.pool.condition_database()
    rtt = EmpiricalCdf.from_samples(database.average_rtts)
    std = EmpiricalCdf.from_samples(database.rtt_stds)
    loss = EmpiricalCdf.from_samples(database.loss_rates)

    def grid(cdf: EmpiricalCdf, points: list[float]) -> list[list[float]]:
        return [[float(p), float(f)] for p, f in
                zip(points, cdf.evaluated_at(np.asarray(points, dtype=float)))]

    return {
        "fig4_rtt_cdf": grid(rtt, FIG4_RTT_POINTS),
        "fig10_rtt_std_cdf": grid(std, FIG10_STD_POINTS),
        "fig11_loss_cdf": grid(loss, FIG11_LOSS_POINTS),
        "metrics": {
            "rtt_fraction_below_0.8s": float(rtt.fraction_below(0.8)),
            "rtt_fraction_below_0.4s": float(rtt.fraction_below(0.4)),
            "rtt_std_median_s": float(std.median()),
            "loss_rate_median": float(loss.median()),
            "loss_fraction_below_0.12": float(loss.fraction_below(0.12)),
        },
    }


def render_fig4_10_11(payload: dict) -> str:
    """Render the three condition CDFs as Markdown tables.

    Args:
        payload: The :func:`compute_fig4_10_11` payload.

    Returns:
        The Markdown section body.
    """
    parts = []
    specs = [
        ("Fig. 4 — CDF of server RTTs",
         "fig4_rtt_cdf", lambda v: f"{v:4.2f} s"),
        ("Fig. 10 — CDF of RTT standard deviations",
         "fig10_rtt_std_cdf", lambda v: f"{1000 * v:.1f} ms"),
        ("Fig. 11 — CDF of packet-loss rates",
         "fig11_loss_cdf", lambda v: f"{100 * v:.2f} %"),
    ]
    for title, key, fmt in specs:
        rows = [[fmt(value), f"{100 * fraction:.1f}"]
                for value, fraction in payload[key]]
        parts.append(f"**{title}**\n\n"
                     + format_markdown_table(["Value ≤", "Cumulative %"], rows))
    return "\n\n".join(parts)


# ======================================================== Figs. 6, 7
FIG6_PIPELINING_LIMITS = [1, 2, 3, 5, 8, 12, 24]
FIG7_PAGE_SIZES = [10_000, 30_000, 100_000, 300_000, 1_000_000, 5_000_000]


def compute_fig6_7(context: ExperimentContext) -> dict:
    """Reproduce Figs. 6/7: pipelining limits and page-size CDFs.

    Args:
        context: The run context; uses the shared census population.

    Returns:
        The payload with both CDF grids and the >100 kB shares.
    """
    population = context.pool.population()
    pipelining = EmpiricalCdf.from_samples(
        [record.profile.max_pipelined_requests for record in population.records])
    crawler = PageSearchTool()
    defaults, found = [], []
    for record in population.records:
        result = crawler.search(record.server.site)
        defaults.append(result.default_size)
        found.append(result.best_size)
    default_cdf = EmpiricalCdf.from_samples(defaults)
    found_cdf = EmpiricalCdf.from_samples(found)
    return {
        "fig6_pipelining_cdf": [[limit, float(pipelining.fraction_below(limit))]
                                for limit in FIG6_PIPELINING_LIMITS],
        "fig7_page_size_cdf": [[size,
                                float(default_cdf.fraction_below(size)),
                                float(found_cdf.fraction_below(size))]
                               for size in FIG7_PAGE_SIZES],
        "metrics": {
            "pipelining_limit_1_share": float(pipelining.fraction_below(1)),
            "pipelining_limit_3_share": float(pipelining.fraction_below(3)),
            "default_pages_above_100kb": 1.0 - float(default_cdf.fraction_below(100_000)),
            "longest_pages_above_100kb": 1.0 - float(found_cdf.fraction_below(100_000)),
        },
    }


def render_fig6_7(payload: dict) -> str:
    """Render the pipelining and page-size CDFs as Markdown tables.

    Args:
        payload: The :func:`compute_fig6_7` payload.

    Returns:
        The Markdown section body.
    """
    fig6_rows = [[f"≤ {limit}", f"{100 * share:.1f}"]
                 for limit, share in payload["fig6_pipelining_cdf"]]
    fig7_rows = [[f"≤ {size // 1000} kB", f"{100 * d:.1f}", f"{100 * f:.1f}"]
                 for size, d, f in payload["fig7_page_size_cdf"]]
    return "\n\n".join([
        "**Fig. 6 — CDF of accepted repeated (pipelined) HTTP requests**",
        format_markdown_table(["Requests", "% of servers"], fig6_rows),
        "**Fig. 7 — CDF of page sizes (default page vs longest page found)**",
        format_markdown_table(["Page size", "Default %", "Longest found %"],
                              fig7_rows),
    ])


# ============================================================= Fig. 8
def compute_fig8(context: ExperimentContext) -> dict:
    """Reproduce Fig. 8: the anatomy of one valid packet-level trace.

    Args:
        context: The run context (the probe is profile-independent).

    Returns:
        The payload with the annotated trace and its extracted features.
    """
    trace = packet_level_trace("cubic-b", ENVIRONMENT_A, w_timeout=256,
                               initial_window=3)
    features = FeatureExtractor().extract_trace(trace)
    return {
        "pre_timeout": [float(w) for w in trace.pre_timeout],
        "post_timeout": [float(w) for w in trace.post_timeout],
        "w_loss": float(trace.w_loss),
        "w_timeout": int(trace.w_timeout),
        "features": {
            "boundary_round": features.boundary_round,
            "beta": float(features.beta),
            "growth_1": float(features.growth_1),
            "growth_2": float(features.growth_2),
        },
        "metrics": {
            "post_timeout_rounds": float(len(trace.post_timeout)),
            "first_post_timeout_window": float(trace.post_timeout[0]),
            "beta": float(features.beta),
        },
    }


def render_fig8(payload: dict) -> str:
    """Render the valid-trace anatomy (ASCII chart plus the features).

    Args:
        payload: The :func:`compute_fig8` payload.

    Returns:
        The Markdown section body.
    """
    windows = payload["pre_timeout"] + payload["post_timeout"]
    features = payload["features"]
    lines = [
        f"pre-timeout  (w_0 .. w_t):    {[round(w) for w in payload['pre_timeout']]}",
        f"post-timeout (w_t+1 .. w_n):  {[round(w) for w in payload['post_timeout']]}",
        "",
        ascii_series(windows, label="full trace (packet-level probe, CUBIC)"),
        "",
        f"w_t = {payload['w_loss']:.0f}, boundary round = {features['boundary_round']}, "
        f"beta = {features['beta']:.2f}, g1 = {features['growth_1']:.1f}, "
        f"g2 = {features['growth_2']:.1f}",
    ]
    return _fenced("\n".join(lines))


# ============================================================ Table II
def compute_table2(context: ExperimentContext) -> dict:
    """Reproduce Table II: minimum segment sizes accepted by the servers.

    Args:
        context: The run context; uses the shared census population.

    Returns:
        The payload with the per-MSS shares.
    """
    shares = context.pool.population().minimum_mss_shares()
    ordered = {str(mss): float(share) for mss, share in sorted(shares.items())}
    above_100 = sum(share for mss, share in shares.items() if mss > 100)
    return {
        "mss_shares": ordered,
        "metrics": {
            "mss_100_share": float(shares.get(100, 0.0)),
            "mss_above_100_share": float(above_100),
        },
    }


def render_table2(payload: dict) -> str:
    """Render the minimum-MSS shares as Markdown.

    Args:
        payload: The :func:`compute_table2` payload.

    Returns:
        The Markdown section body.
    """
    rows = [[f"{mss} B", f"{100 * share:.2f}"]
            for mss, share in payload["mss_shares"].items()]
    return format_markdown_table(["Minimum MSS", "% of servers"], rows)


# ============================================================= Fig. 12
FIG12_TREE_COUNTS = (5, 10, 20, 40, 80)
FIG12_SUBSPACE_SIZES = (1, 2, 4, 6)


def compute_fig12(context: ExperimentContext) -> dict:
    """Reproduce Fig. 12: CV accuracy versus the forest parameters.

    Args:
        context: The run context; uses the shared training set.

    Returns:
        The payload with the (K, m) accuracy grid.
    """
    dataset = context.pool.training_set()
    folds = context.profile.cross_validation_folds
    grid: dict[str, dict[str, float]] = {}
    for m in FIG12_SUBSPACE_SIZES:
        row: dict[str, float] = {}
        for k in FIG12_TREE_COUNTS:
            outcome = cross_validate(
                dataset,
                lambda k=k, m=m: RandomForestClassifier(n_trees=k, max_features=m,
                                                        seed=1),
                n_folds=folds, seed=2)
            row[f"K={k}"] = float(outcome.accuracy)
        grid[f"m={m}"] = row
    accuracies = [value for row in grid.values() for value in row.values()]
    return {
        "accuracy_grid": grid,
        "tree_counts": list(FIG12_TREE_COUNTS),
        "subspace_sizes": list(FIG12_SUBSPACE_SIZES),
        "metrics": {
            "best_accuracy": float(max(accuracies)),
            "selected_accuracy": grid["m=4"]["K=80"],
        },
    }


def render_fig12(payload: dict) -> str:
    """Render the forest-parameter sweep as a Markdown grid.

    Args:
        payload: The :func:`compute_fig12` payload.

    Returns:
        The Markdown section body.
    """
    headers = ["subspace \\ trees"] + [f"K={k}" for k in payload["tree_counts"]]
    rows = []
    for m in payload["subspace_sizes"]:
        row = payload["accuracy_grid"][f"m={m}"]
        rows.append([f"m={m}"] + [f"{100 * row[f'K={k}']:.1f}"
                                  for k in payload["tree_counts"]])
    return ("Cross-validation accuracy (%) per (number of trees K, "
            "per-node subspace size m); the paper selects K=80, m=4.\n\n"
            + format_markdown_table(headers, rows))


# ============================================================ Table III
def compute_table3(context: ExperimentContext) -> dict:
    """Reproduce Table III: the cross-validation confusion matrix.

    Args:
        context: The run context; uses the shared training set.

    Returns:
        The payload with row percentages, per-class and overall accuracy.
    """
    profile = context.profile
    dataset = context.pool.training_set()
    result = cross_validate(
        dataset,
        lambda: RandomForestClassifier(n_trees=profile.forest_trees,
                                       max_features=4, seed=1),
        n_folds=profile.cross_validation_folds, seed=1,
        description="random forest (paper parameters)")
    matrix = result.confusion
    percentages = matrix.row_percentages()
    return {
        "labels": list(matrix.labels),
        "row_percentages": [[float(v) for v in row] for row in percentages],
        "per_class_accuracy": {label: float(value) for label, value in
                               sorted(matrix.per_class_accuracy().items())},
        "metrics": {"overall_accuracy": float(result.accuracy)},
    }


def render_table3(payload: dict) -> str:
    """Render the confusion matrix as Markdown.

    Args:
        payload: The :func:`compute_table3` payload.

    Returns:
        The Markdown section body.
    """
    labels = payload["labels"]
    headers = ["true \\ predicted"] + labels
    rows = []
    for label, row in zip(labels, payload["row_percentages"]):
        rows.append([label] + [f"{value:.1f}" for value in row])
    accuracy = payload["metrics"]["overall_accuracy"]
    return (f"Row percentages; overall cross-validation accuracy "
            f"**{100 * accuracy:.2f}%** (paper: 96.98%).\n\n"
            + format_markdown_table(headers, rows))


# ===================================================== Section VI ablation
def compute_ablation(context: ExperimentContext) -> dict:
    """Reproduce the Section VI model-selection study plus an A-only ablation.

    Args:
        context: The run context; uses the shared training set.

    Returns:
        The payload with per-classifier CV accuracies.
    """
    profile = context.profile
    dataset = context.pool.training_set()
    factories = {
        "random forest": lambda: RandomForestClassifier(
            n_trees=profile.forest_trees, max_features=4, seed=1),
        "decision tree": lambda: DecisionTreeClassifier(),
        "k-NN (k=5)": lambda: KNearestNeighborsClassifier(k=5),
        "naive Bayes": lambda: GaussianNaiveBayesClassifier(),
    }
    accuracies = {}
    for name, factory in factories.items():
        result = cross_validate(dataset, factory,
                                n_folds=profile.cross_validation_folds, seed=3)
        accuracies[name] = float(result.accuracy)
    # Environment ablation: keep only the environment-A features, mimicking a
    # single-environment CAAI.
    a_only = LabeledDataset(dataset.features[:, :3], dataset.labels)
    ablation = cross_validate(
        a_only, lambda: RandomForestClassifier(n_trees=profile.forest_trees,
                                               max_features=2, seed=1),
        n_folds=profile.cross_validation_folds, seed=3)
    accuracies["random forest (environment A only)"] = float(ablation.accuracy)
    return {
        "accuracies": accuracies,
        "metrics": {
            "random_forest_accuracy": accuracies["random forest"],
            "environment_a_only_accuracy":
                accuracies["random forest (environment A only)"],
        },
    }


def render_ablation(payload: dict) -> str:
    """Render the classifier comparison as Markdown.

    Args:
        payload: The :func:`compute_ablation` payload.

    Returns:
        The Markdown section body.
    """
    rows = [[name, f"{100 * accuracy:.2f}"]
            for name, accuracy in sorted(payload["accuracies"].items(),
                                         key=lambda kv: -kv[1])]
    return format_markdown_table(["Classifier", "CV accuracy (%)"], rows)


# ============================================================ Table IV
def compute_table4(context: ExperimentContext) -> dict:
    """Reproduce Table IV: the census identification results.

    Args:
        context: The run context; uses the shared census report.

    Returns:
        The payload with the per-``w_timeout`` identification table and the
        paper's headline shares.
    """
    report = context.pool.census_report()
    w_values = report.w_timeout_values()
    rows = [{"label": label,
             "per_w": {str(w): float(per_w.get(w, 0.0)) for w in w_values},
             "overall": float(overall)}
            for label, per_w, overall in report.table_rows()]
    reno_low, reno_high = report.reno_share_bounds()
    percentages = report.category_percentages()
    return {
        "w_timeout_values": [int(w) for w in w_values],
        "rows": rows,
        "category_percentages": {category: float(pct)
                                 for category, pct in percentages.items()},
        "w_timeout_shares": {str(w): float(s)
                             for w, s in report.w_timeout_shares().items()},
        "invalid_reason_shares": {reason: float(share) for reason, share in
                                  report.invalid_reason_shares().items()},
        "servers_probed": len(report),
        "metrics": {
            "valid_fraction": float(report.valid_fraction()),
            "reno_share_lower_bound": float(reno_low),
            "reno_share_upper_bound": float(reno_high),
            "bic_cubic_share": float(report.bic_cubic_share()),
            "ctcp_share": float(report.ctcp_share()),
            "unsure_share": float(percentages.get("unsure", 0.0)),
            "ground_truth_accuracy":
                float(report.accuracy_against_ground_truth()),
        },
    }


def render_table4(payload: dict) -> str:
    """Render the census identification table as Markdown.

    Args:
        payload: The :func:`compute_table4` payload.

    Returns:
        The Markdown section body.
    """
    w_values = payload["w_timeout_values"]
    headers = ["Category"] + [f"w={w}" for w in w_values] + ["Overall %"]
    rows = []
    for row in payload["rows"]:
        rows.append([row["label"]]
                    + [f"{row['per_w'][str(w)]:.2f}" for w in w_values]
                    + [f"{row['overall']:.2f}"])
    metrics = payload["metrics"]
    summary = [
        f"Servers probed: {payload['servers_probed']}; valid traces "
        f"{100 * metrics['valid_fraction']:.1f}% (paper: 47% of 63124).",
        f"RENO share bounds {metrics['reno_share_lower_bound']:.2f}% .. "
        f"{metrics['reno_share_upper_bound']:.2f}%; BIC+CUBIC "
        f"{metrics['bic_cubic_share']:.2f}%; CTCP {metrics['ctcp_share']:.2f}%; "
        f"ground-truth agreement of confident identifications "
        f"{100 * metrics['ground_truth_accuracy']:.1f}%.",
    ]
    return (format_markdown_table(headers, rows)
            + "\n\n" + "\n".join(summary))


# =========================================================== Section VII-B1
def compute_sec7(context: ExperimentContext) -> dict:
    """Reproduce Section VII-B1: geography, software mix, valid/invalid split.

    Args:
        context: The run context; uses the shared population and census
            report.

    Returns:
        The payload with the software/region shares and invalid reasons.
    """
    population = context.pool.population()
    report = context.pool.census_report()
    software = {name: float(share)
                for name, share in sorted(population.software_shares().items(),
                                          key=lambda kv: -kv[1])}
    regions = {name: float(share)
               for name, share in sorted(population.region_shares().items(),
                                         key=lambda kv: -kv[1])}
    return {
        "software_shares": software,
        "region_shares": regions,
        "invalid_reason_shares": {reason: float(share) for reason, share in
                                  report.invalid_reason_shares().items()},
        "metrics": {
            "valid_fraction": float(report.valid_fraction()),
            "apache_share": float(software.get("apache", 0.0)),
        },
    }


def render_sec7(payload: dict) -> str:
    """Render the server-information summaries as Markdown.

    Args:
        payload: The :func:`compute_sec7` payload.

    Returns:
        The Markdown section body.
    """
    software_rows = [[name, f"{100 * share:.1f}"]
                     for name, share in payload["software_shares"].items()]
    region_rows = [[name, f"{100 * share:.1f}"]
                   for name, share in payload["region_shares"].items()]
    invalid_rows = [[reason, f"{100 * share:.1f}"]
                    for reason, share in payload["invalid_reason_shares"].items()]
    return "\n\n".join([
        "**Server software**",
        format_markdown_table(["Software", "% of servers"], software_rows),
        "**Geography**",
        format_markdown_table(["Region", "% of servers"], region_rows),
        "**Why traces were invalid**",
        format_markdown_table(["Reason", "% of invalid servers"], invalid_rows),
    ])


# ======================================================== Figs. 13-18
def gather_fig13_18_cases():
    """Gather the invalid/special-case traces of Figs. 13-17.

    Returns:
        A dict of named probes, gathered on one shared random stream
        exactly as the historic benchmark did.
    """
    rng = np.random.default_rng(FIG13_18_SEED)
    condition = NetworkCondition.ideal()
    gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))

    def server(**kwargs):
        return SyntheticServer(
            "cubic-b", lambda mss: SenderConfig(mss=mss, initial_window=3, **kwargs))

    cases = {}
    # Fig. 13: data-limited server whose window never exceeds w_timeout.
    limited = SyntheticServer("cubic-b",
                              lambda mss: SenderConfig(mss=mss, initial_window=3),
                              available_bytes=30_000)
    cases["fig13_no_timeout"] = gatherer.gather_probe(limited, condition, rng)
    # Fig. 14: window stuck at one packet after the timeout.
    cases["fig14_remaining_at_1"] = gatherer.gather_probe(
        server(post_timeout_stall=True), condition, rng)
    # Fig. 15: window frozen in congestion avoidance.
    cases["fig15_nonincreasing"] = gatherer.gather_probe(
        server(freeze_in_avoidance=True), condition, rng)
    # Fig. 16: window creeping towards the pre-timeout window.
    cases["fig16_approaching"] = gatherer.gather_probe(
        server(approach_ceiling=1000.0), condition, rng)
    # Fig. 17: window bounded by the send buffer above w_timeout.
    cases["fig17_bounded"] = gatherer.gather_probe(
        server(send_buffer_packets=640.0), condition, rng)
    return cases


def compute_fig13_18(context: ExperimentContext) -> dict:
    """Reproduce Figs. 13-18: invalid, special-case and unsure traces.

    Args:
        context: The run context (the traces are profile-independent).

    Returns:
        The payload with each case's window series and its detected
        invalid reason or special-case category.
    """
    cases = {}
    for name, probe in gather_fig13_18_cases().items():
        entry = {
            "windows": [float(w) for w in probe.trace_a.all_windows()],
            "valid": bool(probe.trace_a.is_valid),
            "invalid_reason": None,
            "special_case": None,
        }
        if probe.trace_a.is_valid:
            special = detect_special_case(probe)
            entry["special_case"] = special.value if special is not None else None
        elif probe.trace_a.invalid_reason is not None:
            entry["invalid_reason"] = probe.trace_a.invalid_reason.value
        cases[name] = entry
    detected = sum(1 for entry in cases.values()
                   if entry["special_case"] or entry["invalid_reason"])
    return {"cases": cases,
            "metrics": {"cases_detected": float(detected),
                        "cases_total": float(len(cases))}}


def render_fig13_18(payload: dict) -> str:
    """Render the special-case traces as ASCII charts with their verdicts.

    Args:
        payload: The :func:`compute_fig13_18` payload.

    Returns:
        The Markdown section body.
    """
    parts = []
    for name, entry in payload["cases"].items():
        verdict = (f"detected special case: {entry['special_case']}"
                   if entry["special_case"] else
                   f"invalid reason: {entry['invalid_reason']}"
                   if entry["invalid_reason"] else "no category detected")
        parts.append(ascii_series(entry["windows"], label=name)
                     + f"\n  -> {verdict}")
    return _fenced("\n\n".join(parts))


# ================================================= Scenario robustness
#: Pack evaluation order of the robustness experiment (baseline first, so
#: every later row has its reference deltas).
SCENARIO_PACK_ORDER = ("paper-baseline", "cellular-trace", "policed",
                       "ack-manipulated", "evasive")


def _scenario_conditions(pack, profile):
    """One pack's condition database at the profile's size and seed."""
    from repro.net.conditions import condition_database_preset

    return condition_database_preset(
        pack.condition_preset, size=profile.condition_database_size,
        seed=profile.condition_seed)


def _scenario_population(conditions, profile):
    """A fresh population over one pack's condition database.

    Web servers are stateful across probes (ssthresh caches, connection
    counters), so every census needs its own population objects; equal
    seeds make the records bit-identical to the shared pool's whenever the
    condition preset matches.
    """
    from repro.web.population import PopulationConfig, ServerPopulation

    population = ServerPopulation(
        PopulationConfig(size=profile.census_size,
                         seed=profile.population_seed),
        condition_database=conditions)
    population.generate()
    return population


def _scenario_census(pack, conditions, classifier, context):
    """Run one census under ``pack`` with the given classifier."""
    from repro.core.census import CensusConfig, CensusRunner

    runner = CensusRunner(
        classifier,
        CensusConfig(seed=context.profile.census_seed,
                     scenario_pack=pack.name),
        executor=context.executor)
    return runner.run(_scenario_population(conditions, context.profile))


def _scenario_metrics(report) -> dict:
    """The headline numbers one scenario census contributes."""
    percentages = report.category_percentages()
    return {
        "accuracy": float(report.accuracy_against_ground_truth()),
        "valid_fraction": float(report.valid_fraction()),
        "unsure_share": float(percentages.get("unsure", 0.0)),
        "category_percentages": {category: float(pct)
                                 for category, pct in percentages.items()},
    }


def compute_robustness_scenarios(context: ExperimentContext) -> dict:
    """Evaluate the classifier under every adversarial scenario pack.

    The ``paper-baseline`` row reuses the shared census report and
    classifier verbatim (by construction byte-identical to Table IV's).
    Every other pack is probed twice over a fresh equal-seed population:
    once with the stock (paper-trained) classifier and once with a
    classifier retrained under the pack's own conditions and wrappers.

    Args:
        context: The run context; uses the shared classifier and census
            report for the baseline row.

    Returns:
        The payload with per-pack accuracy metrics and the per-category
        confusion deltas against the baseline.
    """
    from repro.core.classifier import CaaiClassifier
    from repro.core.training import TrainingSetBuilder
    from repro.scenarios import scenario_pack_by_name

    profile = context.profile
    baseline_report = context.pool.census_report()
    baseline = _scenario_metrics(baseline_report)
    packs: dict[str, dict] = {}
    for name in SCENARIO_PACK_ORDER:
        pack = scenario_pack_by_name(name)
        if name == "paper-baseline":
            stock = dict(baseline)
            retrained = dict(baseline)
        else:
            conditions = _scenario_conditions(pack, profile)
            stock = _scenario_metrics(_scenario_census(
                pack, conditions, context.pool.classifier(), context))
            builder = TrainingSetBuilder(
                conditions_per_pair=profile.training_conditions_per_pair,
                seed=profile.training_seed,
                condition_database=conditions,
                server_wrapper=pack.wrap_server if pack.wraps_servers()
                else None)
            classifier = CaaiClassifier(n_trees=profile.forest_trees,
                                        seed=profile.forest_seed)
            classifier.train(builder.build_dataset(executor=context.executor))
            retrained = _scenario_metrics(
                _scenario_census(pack, conditions, classifier, context))
        categories = retrained.pop("category_percentages")
        stock.pop("category_percentages")
        deltas = {
            category: float(categories.get(category, 0.0)
                            - baseline["category_percentages"].get(category,
                                                                   0.0))
            for category in sorted(set(categories)
                                   | set(baseline["category_percentages"]))}
        packs[name] = {
            "description": pack.description,
            "condition_preset": pack.condition_preset,
            "wraps_servers": pack.wraps_servers(),
            "stock": stock,
            "retrained": retrained,
            "category_percentages": categories,
            "confusion_delta": deltas,
        }
    adversarial = [entry["retrained"]["accuracy"]
                   for name, entry in packs.items()
                   if name != "paper-baseline"]
    return {
        "packs": packs,
        "baseline_categories": baseline["category_percentages"],
        "metrics": {
            "baseline_accuracy": baseline["accuracy"],
            "worst_pack_accuracy": float(min(adversarial)),
            "mean_pack_accuracy": float(np.mean(adversarial)),
        },
    }


def render_robustness_scenarios(payload: dict) -> str:
    """Render the scenario-robustness section as Markdown.

    Args:
        payload: The :func:`compute_robustness_scenarios` payload.

    Returns:
        The Markdown section body: the per-pack accuracy table followed by
        the confusion-delta table against the paper baseline.
    """
    accuracy_rows = []
    for name, entry in payload["packs"].items():
        accuracy_rows.append([
            name,
            f"{100 * entry['stock']['accuracy']:.1f}",
            f"{100 * entry['retrained']['accuracy']:.1f}",
            f"{100 * entry['retrained']['valid_fraction']:.1f}",
            f"{entry['retrained']['unsure_share']:.1f}",
        ])
    accuracy_table = format_markdown_table(
        ["Pack", "Accuracy stock (%)", "Accuracy retrained (%)",
         "Valid (%)", "Unsure (%)"], accuracy_rows)

    pack_names = [name for name in payload["packs"]]
    categories = sorted({category
                         for entry in payload["packs"].values()
                         for category in entry["confusion_delta"]})
    delta_rows = []
    for category in categories:
        row = [category]
        for name in pack_names:
            delta = payload["packs"][name]["confusion_delta"].get(category, 0.0)
            row.append(f"{delta:+.2f}")
        delta_rows.append(row)
    delta_table = format_markdown_table(["Category"] + pack_names, delta_rows)

    metrics = payload["metrics"]
    summary = (
        f"Confident-identification accuracy: "
        f"{100 * metrics['baseline_accuracy']:.1f}% at baseline, "
        f"{100 * metrics['worst_pack_accuracy']:.1f}% under the hardest "
        f"pack ({100 * metrics['mean_pack_accuracy']:.1f}% mean across "
        f"adversarial packs), each after retraining under the pack's own "
        f"conditions. Deltas are percentage points of the identified-"
        f"category mix versus the paper baseline.")
    return (accuracy_table + "\n\nConfusion delta vs paper baseline "
            "(percentage points):\n\n" + delta_table + "\n\n" + summary)


# ================================================= Modern families
#: Seed of the mixed classic+modern census probe stream (independent of the
#: paper census so neither can perturb the other).
MODERN_CENSUS_SEED = 23
#: Seed of the clean-path probes feeding the candidate-feature diagnostics.
MODERN_FEATURES_SEED = 29
#: Reference classic families shown next to the modern ones in the
#: candidate-feature table.
MODERN_FEATURE_REFERENCES = ("reno", "cubic-b", "vegas")


def compute_modern_families(context: ExperimentContext) -> dict:
    """Extend the classifier to the post-2011 families (BBR, DCTCP, learned).

    Retrains the random forest over the paper's 14 identifiable algorithms
    plus :data:`~repro.tcp.registry.MODERN_ALGORITHMS`, cross-validates the
    extended 17-class problem, runs a Table IV-style census over a synthetic
    population mixing classic and modern families, and reports the candidate
    features (pacing-rate signature, RTT-gradient response) that separate
    the modern families from the classic ones.

    Args:
        context: The run context; uses the shared condition database.

    Returns:
        The payload with the extended confusion matrix, the mixed census
        table and the candidate-feature diagnostics.
    """
    from repro.core.classifier import CaaiClassifier
    from repro.core.features import pacing_rate_signature, rtt_gradient_response
    from repro.core.gather import probe_with_w_timeout_ladder
    from repro.core.labels import extended_identifiable, presentation_label
    from repro.core.training import TrainingSetBuilder
    from repro.tcp.registry import MODERN_ALGORITHMS

    profile = context.profile
    families = extended_identifiable(IDENTIFIABLE_ALGORITHMS)
    database = context.pool.condition_database()

    # -- extended training set + cross-validated confusion matrix
    builder = TrainingSetBuilder(
        conditions_per_pair=profile.training_conditions_per_pair,
        algorithms=families, seed=profile.training_seed,
        condition_database=database)
    dataset = builder.build_dataset(executor=context.executor)
    result = cross_validate(
        dataset,
        lambda: RandomForestClassifier(n_trees=profile.forest_trees,
                                       max_features=4, seed=1),
        n_folds=profile.cross_validation_folds, seed=1,
        description="random forest (classic + modern families)")
    matrix = result.confusion
    per_class = matrix.per_class_accuracy()
    modern_accuracies = [float(per_class[name]) for name in MODERN_ALGORITHMS
                         if name in per_class]

    # -- Table IV-style census over a mixed classic+modern population
    classifier = CaaiClassifier(n_trees=profile.forest_trees,
                                seed=profile.forest_seed).train(dataset)
    rng = np.random.default_rng(MODERN_CENSUS_SEED)
    per_family = max(2, profile.census_size // len(families))
    census_rows = []
    correct = probed = usable = 0
    for family in families:
        tally: dict[str, int] = {}
        family_usable = 0
        for _ in range(per_family):
            condition = database.sample(rng)
            server = SyntheticServer(
                family, lambda mss: SenderConfig(mss=mss, initial_window=3))
            probe = probe_with_w_timeout_ladder(server, condition, rng, mss=100)
            probed += 1
            if not probe.usable_for_features:
                continue
            family_usable += 1
            usable += 1
            identified = classifier.classify_probe(probe).reported_label
            tally[identified] = tally.get(identified, 0) + 1
            if identified == family:
                correct += 1
        census_rows.append({
            "family": family,
            "modern": family in MODERN_ALGORITHMS,
            "probed": per_family,
            "usable": family_usable,
            "identified_as": {label: count for label, count in
                              sorted(tally.items(), key=lambda kv: -kv[1])},
        })

    # -- candidate features on clean-path probes
    feature_rng = np.random.default_rng(MODERN_FEATURES_SEED)
    gatherer = TraceGatherer(GatherConfig(w_timeout=512, mss=100))
    candidates = {}
    for family in tuple(MODERN_ALGORITHMS) + MODERN_FEATURE_REFERENCES:
        server = SyntheticServer(
            family, lambda mss: SenderConfig(mss=mss, initial_window=3))
        probe = gatherer.gather_probe(server, NetworkCondition.ideal(),
                                      feature_rng)
        if not probe.usable_for_features:
            candidates[family] = {"pacing_rate_signature": None,
                                  "rtt_gradient_response": None}
            continue
        candidates[family] = {
            "pacing_rate_signature": float(pacing_rate_signature(probe.trace_a)),
            "rtt_gradient_response": float(rtt_gradient_response(probe)),
        }

    return {
        "families": list(families),
        "modern_families": list(MODERN_ALGORITHMS),
        "labels": list(matrix.labels),
        "row_percentages": [[float(v) for v in row]
                            for row in matrix.row_percentages()],
        "per_class_accuracy": {label: float(value) for label, value in
                               sorted(per_class.items())},
        "presentation_labels": {name: presentation_label(name)
                                for name in families},
        "census_rows": census_rows,
        "candidate_features": candidates,
        "metrics": {
            "n_families": float(len(families)),
            "extended_cv_accuracy": float(result.accuracy),
            "modern_mean_cv_accuracy":
                float(np.mean(modern_accuracies)) if modern_accuracies else 0.0,
            "census_identification_accuracy":
                float(correct / usable) if usable else 0.0,
            "census_usable_fraction":
                float(usable / probed) if probed else 0.0,
        },
    }


def render_modern_families(payload: dict) -> str:
    """Render the modern-families section as Markdown.

    Args:
        payload: The :func:`compute_modern_families` payload.

    Returns:
        The Markdown section body: the extended confusion matrix, the mixed
        census table and the candidate-feature diagnostics.
    """
    labels = payload["labels"]
    headers = ["true \\ predicted"] + labels
    matrix_rows = []
    for label, row in zip(labels, payload["row_percentages"]):
        matrix_rows.append([label] + [f"{value:.1f}" for value in row])
    metrics = payload["metrics"]
    confusion = (
        f"Extended confusion matrix over "
        f"{int(metrics['n_families'])} families (row percentages); overall "
        f"cross-validation accuracy **{100 * metrics['extended_cv_accuracy']:.2f}%**, "
        f"mean accuracy on the modern families "
        f"{100 * metrics['modern_mean_cv_accuracy']:.2f}%.\n\n"
        + format_markdown_table(headers, matrix_rows))

    census_rows = []
    for row in payload["census_rows"]:
        top = ", ".join(f"{label} ({count})" for label, count in
                        list(row["identified_as"].items())[:3]) or "-"
        census_rows.append([
            payload["presentation_labels"].get(row["family"], row["family"]),
            "modern" if row["modern"] else "classic",
            str(row["probed"]), str(row["usable"]), top,
        ])
    census = (
        "Mixed classic+modern census (equal per-family draws from the "
        "measured condition database, probed down the `w_timeout` ladder); "
        f"identification accuracy on usable probes "
        f"**{100 * metrics['census_identification_accuracy']:.1f}%** at "
        f"{100 * metrics['census_usable_fraction']:.1f}% usable.\n\n"
        + format_markdown_table(
            ["Family", "Era", "Probed", "Usable", "Identified as (top 3)"],
            census_rows))

    feature_rows = []
    for family, values in payload["candidate_features"].items():
        pacing = values["pacing_rate_signature"]
        gradient = values["rtt_gradient_response"]
        feature_rows.append([
            payload["presentation_labels"].get(family, family),
            "-" if pacing is None else f"{pacing:.3f}",
            "-" if gradient is None else f"{gradient:.3f}",
        ])
    features = (
        "Candidate features (not in the paper's 7-element vector): the "
        "pacing-rate signature is the post-boundary window-ratio spread "
        "(BBR's gain cycle oscillates where AIMD growth decays smoothly); "
        "the RTT-gradient response is environment B's relative growth "
        "shortfall (delay-reactive senders back off under B's RTT step).\n\n"
        + format_markdown_table(
            ["Family", "Pacing-rate signature", "RTT-gradient response"],
            feature_rows))

    return "\n\n".join([confusion, census, features])


# ---------------------------------------------------------------- registry
register(Experiment(
    name="table1", kind="table",
    title="Table I — TCP algorithms per OS family",
    description="The catalogue of congestion avoidance algorithms shipped "
                "by the Windows and Linux families, with the OS versions "
                "each one is the default of.",
    compute=compute_table1, render=render_table1))

register(Experiment(
    name="fig3", kind="figure",
    title="Figure 3 — window traces of all 14 algorithms",
    description="Per-RTT congestion-window traces in environment A at "
                "`w_timeout = 512` for every identifiable algorithm, plus "
                "panel (o): RENO and both CTCP versions coincide at "
                "`w_timeout = 64`. Every pair of algorithms must stay "
                "distinguishable in feature space.",
    compute=compute_fig3, render=render_fig3,
    config={"seed": FIG3_SEED, "w_timeout": 512, "panel_o_w_timeout": 64}))

register(Experiment(
    name="fig4_10_11", kind="figure",
    title="Figures 4, 10, 11 — measured network-condition CDFs",
    description="CDFs of the condition database's average RTTs, RTT "
                "standard deviations and packet-loss rates; the paper "
                "relies on essentially all RTTs staying below 0.8 s to "
                "justify the 1.0 s emulated RTT.",
    compute=compute_fig4_10_11, render=render_fig4_10_11,
    shared_resources=("condition_database",),
    paper_values={"rtt_fraction_below_0.8s": 0.99}))

register(Experiment(
    name="fig6_7", kind="figure",
    title="Figures 6, 7 — Web-server pipelining limits and page sizes",
    description="CDF of the maximum number of repeated (pipelined) HTTP "
                "requests each server accepts, and of default-page sizes "
                "versus the longest page the page-searching tool finds.",
    compute=compute_fig6_7, render=render_fig6_7,
    shared_resources=("population",),
    paper_values={"pipelining_limit_1_share": 0.47,
                  "pipelining_limit_3_share": 0.60,
                  "default_pages_above_100kb": 0.12,
                  "longest_pages_above_100kb": 0.48}))

register(Experiment(
    name="fig8", kind="figure",
    title="Figure 8 — anatomy of a valid trace",
    description="One packet-level probe (the faithful Fig. 5 mechanism) of "
                "a CUBIC server: the slow start up to the emulated timeout, "
                "the window right before it (w_t), and the 18 post-timeout "
                "rounds the features are extracted from.",
    compute=compute_fig8, render=render_fig8,
    config={"algorithm": "cubic-b", "w_timeout": 256, "initial_window": 3},
    paper_values={"post_timeout_rounds": 18.0}))

register(Experiment(
    name="table2", kind="table",
    title="Table II — minimum segment sizes",
    description="The smallest MSS each probed Web server accepts from "
                "CAAI's negotiation ladder.",
    compute=compute_table2, render=render_table2,
    shared_resources=("population",)))

register(Experiment(
    name="fig12", kind="figure",
    title="Figure 12 — accuracy vs random-forest parameters",
    description="Cross-validation accuracy swept over the number of trees "
                "K and the per-node feature subspace size m; accuracy "
                "saturates around K = 80 and m = 4 works well, so the "
                "paper fixes K = 80, m = 4.",
    compute=compute_fig12, render=render_fig12,
    shared_resources=("training_set",),
    config={"tree_counts": list(FIG12_TREE_COUNTS),
            "subspace_sizes": list(FIG12_SUBSPACE_SIZES)}))

register(Experiment(
    name="table3", kind="table",
    title="Table III — cross-validation confusion matrix",
    description="Per-algorithm identification accuracy of the training "
                "vectors under stratified cross validation with the "
                "selected forest parameters.",
    compute=compute_table3, render=render_table3,
    shared_resources=("training_set",),
    paper_values={"overall_accuracy": 0.9698}))

register(Experiment(
    name="ablation", kind="section",
    title="Section VI — classifier choice and environment ablation",
    description="The paper's model-selection study (random forest vs "
                "decision tree vs k-NN vs naive Bayes) plus an ablation "
                "that drops the environment-B features.",
    compute=compute_ablation, render=render_ablation,
    shared_resources=("training_set",)))

register(Experiment(
    name="table4", kind="table",
    title="Table IV — census identification results",
    description="The Internet census: percentage of Web servers identified "
                "as each TCP algorithm (per w_timeout column and overall), "
                "the special-case categories and the unsure bucket.",
    compute=compute_table4, render=render_table4,
    shared_resources=("classifier", "population", "census_report"),
    paper_values={"valid_fraction": 0.47,
                  "bic_cubic_share": 46.92,
                  "reno_share_lower_bound": 3.31,
                  "unsure_share": 4.3}))

register(Experiment(
    name="sec7", kind="section",
    title="Section VII-B1 — server information",
    description="Geography and server-software mix of the census "
                "population, the valid/invalid split, and why invalid "
                "traces could not be gathered.",
    compute=compute_sec7, render=render_sec7,
    shared_resources=("population", "census_report"),
    paper_values={"valid_fraction": 0.47}))

register(Experiment(
    name="fig13_18", kind="figure",
    title="Figures 13-18 — invalid and special-case traces",
    description="Regenerated examples of the census's special trace "
                "categories: no timeout reached, Remaining at 1 Packet, "
                "Nonincreasing Window, Approaching w_t and Bounded Window.",
    compute=compute_fig13_18, render=render_fig13_18,
    config={"seed": FIG13_18_SEED, "w_timeout": 512}))

register(Experiment(
    name="modern_families", kind="section",
    title="Modern families — BBR, DCTCP and a learned-CC hook",
    description="CAAI extended past the paper's 2011 catalogue: the random "
                "forest retrained over the 14 identifiable algorithms plus "
                "BBR v1, DCTCP and the table-driven learned-CC policy, the "
                "17-class confusion matrix, a census over a mixed "
                "classic+modern population, and the candidate features "
                "(pacing-rate signature, RTT-gradient response) that "
                "separate the modern families.",
    compute=compute_modern_families, render=render_modern_families,
    shared_resources=("condition_database",),
    config={"census_seed": MODERN_CENSUS_SEED,
            "features_seed": MODERN_FEATURES_SEED}))

register(Experiment(
    name="robustness_scenarios", kind="section",
    title="Scenario packs — classifier robustness under adversity",
    description="Census accuracy under each adversarial scenario pack "
                "(trace-driven cellular conditions, ACK policing and "
                "manipulation, evasive servers), with the stock classifier "
                "and one retrained under the pack's own conditions, plus "
                "the per-category confusion delta against the paper "
                "baseline.",
    compute=compute_robustness_scenarios,
    render=render_robustness_scenarios,
    shared_resources=("classifier", "population", "census_report"),
    config={"packs": list(SCENARIO_PACK_ORDER)}))
