"""The per-experiment registry: one runner per paper figure/table.

Every entry takes a universe (plus optional knobs), reproduces the
corresponding figure's data, and returns an :class:`ExperimentResult`
holding the rendered table plus the headline numbers recorded in
EXPERIMENTS.md.  The ``benchmarks/`` tree wires these runners to concrete
scenarios under pytest-benchmark.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.business import (
    BusinessVariant,
    business_type_heatmap,
    dominant_category,
    it_involvement_share,
)
from repro.analysis.cidr import (
    V4_GROUPS_TUNED,
    V6_GROUPS_TUNED,
    cidr_size_heatmap,
    modal_combination,
)
from repro.analysis.dataset_stats import dataset_evolution
from repro.analysis.domain_bins import diagonal_share, domain_count_heatmap
from repro.analysis.dynamics import analyze_dynamics
from repro.analysis.hgcdn import hgcdn_distribution, hgcdn_heatmap
from repro.analysis.organizations import split_by_organization, unique_prefix_counts
from repro.analysis.pipeline import detect_at, paper_offsets, tuned_at
from repro.analysis.rov import at_least_one_valid_share, pair_rov_shares, rov_timeline
from repro.analysis.timeline import org_split_timeline, sibling_count_timeline
from repro.atlas.groundtruth import evaluate_coverage
from repro.atlas.probes import VantageKind, generate_vantage_points
from repro.core.detection import BestMatchMode, detect_siblings
from repro.core.longitudinal import ChangeClass, classify_changes
from repro.core.sensitivity import cell_at, sweep_thresholds
from repro.core.sptuner import (
    DEFAULT_CONFIG,
    ROUTABLE_CONFIG,
    LsConfig,
    SpTunerLS,
    SpTunerMS,
    TunerConfig,
)
from repro.dates import REFERENCE_DATE, snapshot_dates
from repro.reporting.containers import EcdfSeries, Heatmap, ecdf
from repro.reporting.tables import (
    format_ecdf_summary,
    format_heatmap,
    format_stacked_area,
    format_timeseries,
)
from repro.rpki.builder import repository_from_universe
from repro.rpki.pair_status import PairRovStatus
from repro.scan.analysis import portscan_overlap, responsive_share, scan_heatmap
from repro.scan.zmap import PortScanner
from repro.synth.universe import Universe


@dataclass
class ExperimentResult:
    """One reproduced figure: rendered text plus headline numbers."""

    experiment_id: str
    title: str
    text: str
    key_values: dict[str, float] = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        return [f"{key} = {value:.4g}" for key, value in self.key_values.items()]


Runner = Callable[..., ExperimentResult]
EXPERIMENTS: dict[str, Runner] = {}


def experiment(experiment_id: str) -> Callable[[Runner], Runner]:
    def register(runner: Runner) -> Runner:
        EXPERIMENTS[experiment_id] = runner
        return runner
    return register


def run_experiment(experiment_id: str, universe: Universe, **kwargs) -> ExperimentResult:
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return runner(universe, **kwargs)


def _siblings_for_case(universe: Universe, case: str):
    """Shared case selector for experiments with default/tuned variants:
    ``default`` (BGP-announced), ``routable`` (/24-/48), ``deep`` (/28-/96).
    """
    if case == "default":
        return detect_at(universe, REFERENCE_DATE)
    if case == "routable":
        return tuned_at(universe, REFERENCE_DATE, ROUTABLE_CONFIG)
    if case == "deep":
        return tuned_at(universe, REFERENCE_DATE, DEFAULT_CONFIG)
    raise ValueError(f"unknown case {case!r}; use default/routable/deep")


def _sampled_snapshot_dates(every: int = 4) -> list[datetime.date]:
    """Every *every*-th of the 49 study snapshots (keeps benches fast),
    always including the first and last."""
    dates = snapshot_dates()
    sampled = dates[::every]
    if dates[-1] not in sampled:
        sampled.append(dates[-1])
    return sampled


# ---------------------------------------------------------------------------
# Section 2 / datasets
# ---------------------------------------------------------------------------


@experiment("fig01")
def fig01_dataset_evolution(universe: Universe, every: int = 4) -> ExperimentResult:
    dates = _sampled_snapshot_dates(every)
    series = dataset_evolution(universe, dates)
    return ExperimentResult(
        "fig01",
        "Figure 1: domains and dual-stack domains over time",
        format_timeseries(series, precision=1),
        {
            "total_domains_start": series.first("total_domains"),
            "total_domains_end": series.last("total_domains"),
            "ds_share_start_pct": series.first("ds_share_pct"),
            "ds_share_end_pct": series.last("ds_share_pct"),
        },
    )


# ---------------------------------------------------------------------------
# Section 3 / methodology
# ---------------------------------------------------------------------------


@experiment("fig02")
def fig02_metric_comparison(universe: Universe) -> ExperimentResult:
    snapshot = universe.snapshot_at(REFERENCE_DATE)
    annotator = universe.annotator_at(REFERENCE_DATE)
    lines: list[EcdfSeries] = []
    shares: dict[str, float] = {}
    for metric in ("jaccard", "dice", "overlap"):
        siblings = detect_siblings(snapshot, annotator, metric=metric)
        line = ecdf(metric, siblings.similarities())
        lines.append(line)
        shares[f"{metric}_share_at_1"] = line.share_equal(1.0)
    return ExperimentResult(
        "fig02",
        "Figure 2: Jaccard vs Dice vs overlap coefficient",
        format_ecdf_summary(lines),
        shares,
    )


@experiment("fig04")
def fig04_sensitivity_heatmap(
    universe: Universe,
    v4_thresholds: tuple[int, ...] = (16, 20, 24, 28),
    v6_thresholds: tuple[int, ...] = (32, 48, 64, 96),
) -> ExperimentResult:
    siblings, index = detect_at(universe, REFERENCE_DATE)
    cells = sweep_thresholds(siblings, index, v4_thresholds, v6_thresholds)
    heatmap = Heatmap(
        title="Figure 4: SP-Tuner mean Jaccard (std) per threshold pair",
        row_labels=[f"/{t}" for t in v6_thresholds],
        column_labels=[f"/{t}" for t in v4_thresholds],
        cells=[
            [cell_at(cells, v4, v6).mean for v4 in v4_thresholds]
            for v6 in v6_thresholds
        ],
        secondary=[
            [cell_at(cells, v4, v6).std for v4 in v4_thresholds]
            for v6 in v6_thresholds
        ],
    )
    loosest = cell_at(cells, v4_thresholds[0], v6_thresholds[0])
    tightest = cell_at(cells, v4_thresholds[-1], v6_thresholds[-1])
    return ExperimentResult(
        "fig04",
        heatmap.title,
        format_heatmap(heatmap, precision=3),
        {
            "mean_at_loosest": loosest.mean,
            "mean_at_tightest": tightest.mean,
            "std_at_loosest": loosest.std,
            "std_at_tightest": tightest.std,
        },
    )


@experiment("fig05")
def fig05_sptuner_ecdf(universe: Universe) -> ExperimentResult:
    siblings, index = detect_at(universe, REFERENCE_DATE)
    routable = SpTunerMS(index, ROUTABLE_CONFIG).tune_all(siblings)
    deep = SpTunerMS(index, DEFAULT_CONFIG).tune_all(siblings)
    lines = [
        ecdf("Default (BGP-announced)", siblings.similarities()),
        ecdf("SP-Tuner (/24,/48)", routable.similarities()),
        ecdf("SP-Tuner (/28,/96)", deep.similarities()),
    ]
    return ExperimentResult(
        "fig05",
        "Figure 5: Jaccard ECDF, default vs SP-Tuner",
        format_ecdf_summary(lines),
        {
            "default_perfect_share": siblings.perfect_match_share,
            "routable_perfect_share": routable.perfect_match_share,
            "deep_perfect_share": deep.perfect_match_share,
        },
    )


@experiment("fig06")
def fig06_portscan_overlap(universe: Universe) -> ExperimentResult:
    tuned, _ = tuned_at(universe, REFERENCE_DATE)
    inventory = universe.host_inventory(REFERENCE_DATE)
    scanner = PortScanner(inventory, seed=universe.config.seed)
    observations = scanner.scan_inventory()
    results = portscan_overlap(tuned, observations)
    matrix = scan_heatmap(results)
    labels = [f"{low/10:.1f}-{(low+1)/10:.1f}" for low in range(10)]
    heatmap = Heatmap(
        title="Figure 6: DNS Jaccard (cols) vs port-scan Jaccard (rows), % of pairs",
        row_labels=list(reversed(labels)),
        column_labels=labels,
        cells=list(reversed(matrix)),
    )
    return ExperimentResult(
        "fig06",
        heatmap.title,
        format_heatmap(heatmap),
        {
            "responsive_share": responsive_share(results),
            "both_high_pct": matrix[9][9],
        },
    )


@experiment("fig07")
def fig07_dynamics(universe: Universe) -> ExperimentResult:
    report = analyze_dynamics(universe, REFERENCE_DATE, months=13)
    lines = ["Visibility frequency histogram (share of DS domains):"]
    for frequency in range(1, 14):
        lines.append(
            f"  {frequency:2d} snapshots: {report.visibility_share(frequency):6.1%}"
        )
    lines.append("")
    lines.append("Same prefix vs day 0 (v4%, v6%, both%):")
    for label, values in report.same_prefix.items():
        lines.append(f"  {label:<9} {values[0]:6.1f} {values[1]:6.1f} {values[2]:6.1f}")
    lines.append("Same address vs day 0 (v4%, v6%, both%):")
    for label, values in report.same_address.items():
        lines.append(f"  {label:<9} {values[0]:6.1f} {values[1]:6.1f} {values[2]:6.1f}")
    return ExperimentResult(
        "fig07",
        "Figure 7: DS-domain visibility and prefix/address stability",
        "\n".join(lines),
        {
            "consistent_share": report.visibility_share(13),
            "oneshot_share": report.visibility_share(1),
            "same_prefix_year_pct": report.same_prefix["Year -1"][2],
            "same_address_year_pct": report.same_address["Year -1"][2],
        },
    )


# ---------------------------------------------------------------------------
# Section 4 / analyses
# ---------------------------------------------------------------------------


@experiment("fig08")
def fig08_domain_bins(universe: Universe, case: str = "deep") -> ExperimentResult:
    """deep → Figure 8; default → Figure 33; routable → Figure 34."""
    siblings, _ = _siblings_for_case(universe, case)
    heatmap = domain_count_heatmap(siblings)
    return ExperimentResult(
        "fig08",
        heatmap.title,
        format_heatmap(heatmap),
        {
            "single_domain_pct": heatmap.cell("1", "1"),
            "small_2_5_pct": heatmap.cell("2-5", "2-5"),
            "diagonal_share": diagonal_share(heatmap),
        },
    )


@experiment("fig09")
def fig09_sibling_counts(universe: Universe) -> ExperimentResult:
    offsets = paper_offsets(REFERENCE_DATE)
    series = sibling_count_timeline(universe, [date for _, date in offsets])
    text = format_timeseries(series, precision=0)
    labels = "  ".join(label for label, _ in offsets)
    return ExperimentResult(
        "fig09",
        "Figure 9: sibling pair counts over time",
        f"offsets: {labels}\n{text}",
        {
            "pairs_year_minus_4": series.first("pairs"),
            "pairs_day_0": series.last("pairs"),
            "growth_factor": (
                series.last("pairs") / series.first("pairs")
                if series.first("pairs")
                else 0.0
            ),
        },
    )


@experiment("fig10")
def fig10_change_classes(universe: Universe, tuned: bool = False) -> ExperimentResult:
    offsets = dict(paper_offsets(REFERENCE_DATE))
    old_date = offsets["Year -4"]
    if tuned:
        old_set, _ = tuned_at(universe, old_date)
        new_set, _ = tuned_at(universe, REFERENCE_DATE)
    else:
        old_set, _ = detect_at(universe, old_date)
        new_set, _ = detect_at(universe, REFERENCE_DATE)
    report = classify_changes(old_set, new_set)
    lines = [
        ecdf("New", [pair.similarity for pair in report.new]),
        ecdf("Unchanged", [pair.similarity for pair in report.unchanged]),
        ecdf("Changed (Current)", report.changed_current_similarities()),
        ecdf("Changed (Old)", report.changed_old_similarities()),
    ]
    return ExperimentResult(
        "fig10",
        "Figure 10: Jaccard by change class (4-year lookback)",
        format_ecdf_summary(lines),
        {
            "new_share": report.share(ChangeClass.NEW),
            "unchanged_share": report.share(ChangeClass.UNCHANGED),
            "changed_share": report.share(ChangeClass.CHANGED),
            "new_perfect_share": lines[0].share_equal(1.0),
            "unchanged_perfect_share": lines[1].share_equal(1.0),
        },
    )


@experiment("fig11")
def fig11_default_ecdf_over_time(universe: Universe) -> ExperimentResult:
    lines = []
    perfect = {}
    for label, date in paper_offsets(REFERENCE_DATE):
        siblings, _ = detect_at(universe, date)
        line = ecdf(label, siblings.similarities())
        lines.append(line)
        perfect[f"perfect_{label.replace(' ', '_').replace('-', 'm')}"] = (
            line.share_equal(1.0)
        )
    return ExperimentResult(
        "fig11",
        "Figure 11: default-case Jaccard ECDF per snapshot",
        format_ecdf_summary(lines),
        perfect,
    )


@experiment("fig12")
def fig12_tuned_ecdf_over_time(
    universe: Universe, config: TunerConfig = DEFAULT_CONFIG
) -> ExperimentResult:
    lines = []
    perfect = {}
    for label, date in paper_offsets(REFERENCE_DATE):
        tuned, _ = tuned_at(universe, date, config)
        line = ecdf(label, tuned.similarities())
        lines.append(line)
        perfect[f"perfect_{label.replace(' ', '_').replace('-', 'm')}"] = (
            line.share_equal(1.0)
        )
    return ExperimentResult(
        "fig12",
        "Figure 12: SP-Tuner Jaccard ECDF per snapshot",
        format_ecdf_summary(lines),
        perfect,
    )


@experiment("fig13")
def fig13_cidr_sizes(universe: Universe, case: str = "default") -> ExperimentResult:
    """default → Figure 13; routable → Figure 35; deep → Figure 36."""
    siblings, _ = _siblings_for_case(universe, case)
    if case == "deep":
        heatmap = cidr_size_heatmap(
            siblings,
            V4_GROUPS_TUNED,
            V6_GROUPS_TUNED,
            title="Figure 36: CIDR sizes after SP-Tuner /28-/96 (%)",
        )
        expected_modal = ("28", "96")
    elif case == "routable":
        heatmap = cidr_size_heatmap(
            siblings, title="Figure 35: CIDR sizes after SP-Tuner /24-/48 (%)"
        )
        expected_modal = ("24", "48")
    else:
        heatmap = cidr_size_heatmap(siblings)
        expected_modal = ("24", "48")
    row, column, share = modal_combination(heatmap)
    return ExperimentResult(
        "fig13",
        heatmap.title,
        format_heatmap(heatmap),
        {
            "modal_share_pct": share,
            "modal_is_24_48": float((column, row) == expected_modal),
        },
    )


@experiment("fig14")
def fig14_org_counts(
    universe: Universe, every: int = 6, case: str = "default"
) -> ExperimentResult:
    """default → Figures 14/29; routable → Figure 30."""
    dates = _sampled_snapshot_dates(every)
    series = org_split_timeline(universe, dates, case=case)
    siblings, _ = _siblings_for_case(universe, case)
    unique_v4, unique_v6 = unique_prefix_counts(siblings)
    total = series.last("same_org_pairs") + series.last("diff_org_pairs")
    return ExperimentResult(
        "fig14",
        "Figure 14: same/different organization pairs over time",
        format_timeseries(series, precision=2),
        {
            "same_org_share_end": (
                series.last("same_org_pairs") / total if total else 0.0
            ),
            "unique_v4_prefixes": float(unique_v4),
            "unique_v6_prefixes": float(unique_v6),
        },
    )


@experiment("fig15")
def fig15_org_median_jaccard(
    universe: Universe, every: int = 6, case: str = "default"
) -> ExperimentResult:
    """default → Figures 15/31; routable → Figure 32."""
    dates = _sampled_snapshot_dates(every)
    series = org_split_timeline(universe, dates, case=case)
    return ExperimentResult(
        "fig15",
        "Figure 15: median Jaccard by organization split",
        format_timeseries(series, precision=3),
        {
            "same_org_median_end": series.last("same_org_median_jaccard"),
            "diff_org_median_end": series.last("diff_org_median_jaccard"),
        },
    )


@experiment("fig16")
def fig16_business_types(
    universe: Universe,
    variant: BusinessVariant = BusinessVariant.PAIRS_EXCLUDING_SAME_ASN,
) -> ExperimentResult:
    siblings, _ = detect_at(universe, REFERENCE_DATE)
    heatmap = business_type_heatmap(universe, siblings, REFERENCE_DATE, variant)
    row, column, count = dominant_category(heatmap)
    return ExperimentResult(
        "fig16",
        heatmap.title,
        format_heatmap(heatmap, precision=0),
        {
            "dominant_count": count,
            "dominant_is_it_it": float(row == "IT" and column == "IT"),
            "it_involvement_share": it_involvement_share(heatmap),
        },
    )


@experiment("fig17")
def fig17_hgcdn(
    universe: Universe, min_pairs: int = 5, case: str = "deep"
) -> ExperimentResult:
    """deep → Figures 17/25; default → Figure 23; routable → Figure 24."""
    siblings, _ = _siblings_for_case(universe, case)
    distribution = hgcdn_distribution(universe, siblings, REFERENCE_DATE)
    heatmap = hgcdn_heatmap(distribution, min_pairs=min_pairs)
    named = [org for org in distribution.rows if org != "non-CDN-HG"]
    key_values: dict[str, float] = {
        "hgcdn_orgs_with_pairs": float(len(named)),
        "non_cdn_hg_high_share": distribution.high_similarity_share("non-CDN-HG"),
    }
    for org in ("Amazon", "Cloudflare", "Akamai", "Google"):
        if org in distribution.rows:
            key_values[f"{org.lower()}_high_share"] = (
                distribution.high_similarity_share(org)
            )
    return ExperimentResult(
        "fig17", heatmap.title, format_heatmap(heatmap), key_values
    )


@experiment("fig18")
def fig18_rov_status(universe: Universe, every: int = 6) -> ExperimentResult:
    repository = repository_from_universe(universe)
    dates = _sampled_snapshot_dates(every)
    area = rov_timeline(universe, repository, dates)
    siblings, _ = detect_at(universe, REFERENCE_DATE)
    shares_end = pair_rov_shares(universe, siblings, repository, REFERENCE_DATE)
    early_siblings, _ = detect_at(universe, dates[0])
    shares_start = pair_rov_shares(universe, early_siblings, repository, dates[0])
    return ExperimentResult(
        "fig18",
        area.title,
        format_stacked_area(area),
        {
            "at_least_one_valid_start_pct": at_least_one_valid_share(shares_start),
            "at_least_one_valid_end_pct": at_least_one_valid_share(shares_end),
            "both_notfound_end_pct": shares_end[PairRovStatus.BOTH_NOTFOUND],
        },
    )


# ---------------------------------------------------------------------------
# Appendix + validation experiments
# ---------------------------------------------------------------------------


@experiment("fig22")
def fig22_sptuner_ls(universe: Universe) -> ExperimentResult:
    siblings, index = detect_at(universe, REFERENCE_DATE)
    rib = universe.rib_at(REFERENCE_DATE)
    bounded = SpTunerLS(index, rib, LsConfig()).tune_all(siblings)
    unbounded = SpTunerLS(index, rib, LsConfig(unbounded=True)).tune_all(siblings)
    lines = [
        ecdf("Default", siblings.similarities()),
        ecdf("SP-Tuner-LS (with thresh.)", bounded.similarities()),
        ecdf("SP-Tuner-LS (without thresh.)", unbounded.similarities()),
    ]
    return ExperimentResult(
        "fig22",
        "Figure 22: SP-Tuner-LS (less specific) has no effect",
        format_ecdf_summary(lines),
        {
            "default_mean": lines[0].mean,
            "bounded_mean": lines[1].mean,
            "unbounded_mean": lines[2].mean,
        },
    )


@experiment("sec35")
def sec35_ground_truth(universe: Universe) -> ExperimentResult:
    siblings, _ = detect_at(universe, REFERENCE_DATE)
    probes = generate_vantage_points(
        universe, universe.config.n_probes, VantageKind.ATLAS_PROBE
    )
    vpses = generate_vantage_points(
        universe, universe.config.n_vpses, VantageKind.VPS
    )
    probe_report = evaluate_coverage(probes, siblings)
    vps_report = evaluate_coverage(vpses, siblings)

    # Synthetic bonus: detection quality vs recorded ground truth.
    truth = universe.ground_truth_deployments(REFERENCE_DATE)
    detected_v4 = siblings.unique_v4_prefixes()
    recalled = sum(
        1
        for deployment in truth
        if any(p.overlaps(deployment.v4_block) for p in detected_v4)
    )
    lines = [
        f"Atlas-like probes: {probe_report.total}",
        f"  fully covered:    {probe_report.fully_covered} ({probe_report.fully_covered_share:.1%})",
        f"  partially covered:{probe_report.partially_covered} ({probe_report.partially_covered_share:.1%})",
        f"  not covered:      {probe_report.not_covered} ({probe_report.not_covered_share:.1%})",
        f"  best-match share among fully covered: {probe_report.best_match_share:.2%}",
        f"VPSes: {vps_report.total}, fully covered {vps_report.fully_covered}, "
        f"best-match {vps_report.in_best_match_pair}",
        f"Ground-truth deployments recalled by a detected v4 prefix: "
        f"{recalled}/{len(truth)}",
    ]
    return ExperimentResult(
        "sec35",
        "Section 3.5: vantage-point ground truth",
        "\n".join(lines),
        {
            "fully_covered_share": probe_report.fully_covered_share,
            "partially_covered_share": probe_report.partially_covered_share,
            "not_covered_share": probe_report.not_covered_share,
            "best_match_share": probe_report.best_match_share,
            "deployment_recall": recalled / len(truth) if truth else 0.0,
        },
    )


@experiment("sec42")
def sec42_headline(universe: Universe) -> ExperimentResult:
    siblings, index = detect_at(universe, REFERENCE_DATE)
    split = split_by_organization(universe, siblings, REFERENCE_DATE)
    unique_v4, unique_v6 = unique_prefix_counts(siblings)
    snapshot = universe.snapshot_at(REFERENCE_DATE)
    total = split.same_count + split.different_count
    lines = [
        f"dual-stack domains: {snapshot.dual_stack_count}",
        f"usable DS domains (after annotation): {index.domain_count}",
        f"unique IPv4 prefixes: {unique_v4}",
        f"unique IPv6 prefixes: {unique_v6}",
        f"sibling pairs: {len(siblings)}",
        f"same-organization pairs: {split.same_count} "
        f"({split.same_count / total:.1%} of resolved)",
        f"monitoring cross-product pairs: {universe.monitoring_pair_count()}",
    ]
    return ExperimentResult(
        "sec42",
        "Section 4 headline statistics",
        "\n".join(lines),
        {
            "sibling_pairs": float(len(siblings)),
            "unique_v4_prefixes": float(unique_v4),
            "unique_v6_prefixes": float(unique_v6),
            "same_org_share": split.same_count / total if total else 0.0,
            "v4_more_than_v6": float(unique_v4 > unique_v6),
        },
    )


@experiment("quality")
def quality_vs_ground_truth(universe: Universe) -> ExperimentResult:
    """Detection quality against the recorded ground truth (a capability
    the synthetic substrate adds over the original study)."""
    from repro.core.quality import evaluate_quality

    siblings, _ = detect_at(universe, REFERENCE_DATE)
    quality = evaluate_quality(universe, siblings, REFERENCE_DATE)
    lines = [
        f"detectable deployments: {quality.detectable_deployments}",
        f"recalled:               {quality.recalled_deployments} "
        f"({quality.recall:.1%})",
        f"undetectable (no visible DS domain): {quality.undetectable_deployments}",
        f"pairs explained by ground truth: {quality.explained_pairs}/"
        f"{quality.total_pairs} ({quality.precision_proxy:.1%})",
    ]
    return ExperimentResult(
        "quality",
        "Detection quality vs recorded ground truth",
        "\n".join(lines),
        {
            "recall": quality.recall,
            "precision_proxy": quality.precision_proxy,
        },
    )


@experiment("setpairs")
def setpairs_future_work(universe: Universe) -> ExperimentResult:
    """Section 6 future work: sibling prefix *set* pairs."""
    from repro.core.setpairs import build_set_pairs, summarize_set_pairs
    from repro.core.substrate import get_substrate

    # One engine, so set-pair scoring reuses detection's columnar state.
    engine = get_substrate()
    siblings, index = detect_at(universe, REFERENCE_DATE, substrate=engine)
    set_pairs = build_set_pairs(siblings, index, substrate=engine)
    summary = summarize_set_pairs(siblings, set_pairs)
    fragmented = [sp for sp in set_pairs if sp.is_fragmented]
    lines = [
        f"pairs: {summary.pair_count}  ->  set pairs: {summary.set_pair_count} "
        f"({summary.fragmented_count} fragmented)",
        f"perfect share: {summary.pair_perfect_share:.1%} (pairs) -> "
        f"{summary.set_perfect_share:.1%} (sets)",
        f"mean Jaccard:  {summary.pair_mean:.3f} (pairs) -> "
        f"{summary.set_mean:.3f} (sets)",
        "",
        "Largest fragmented set pairs (v4 set size x v6 set size, J):",
    ]
    for set_pair in fragmented[:6]:
        lines.append(
            f"  {len(set_pair.v4_prefixes)} x {len(set_pair.v6_prefixes)}  "
            f"J={set_pair.similarity:.2f}  domains={len(set_pair.shared_domains)}"
        )
    return ExperimentResult(
        "setpairs",
        "Future work: sibling prefix set pairs",
        "\n".join(lines),
        {
            "pair_perfect_share": summary.pair_perfect_share,
            "set_perfect_share": summary.set_perfect_share,
            "pair_mean": summary.pair_mean,
            "set_mean": summary.set_mean,
            "fragmented_count": float(summary.fragmented_count),
        },
    )


@experiment("inputs")
def inputs_alternative_signals(universe: Universe) -> ExperimentResult:
    """Section 6: the methodology on MX and rDNS inputs."""
    from repro.core.inputs import (
        compare_inputs,
        index_from_domains,
        index_from_mx,
        index_from_rdns,
        siblings_from_index,
    )

    annotator = universe.annotator_at(REFERENCE_DATE)
    domain_siblings = siblings_from_index(
        index_from_domains(universe.snapshot_at(REFERENCE_DATE), annotator)
    )
    mx_siblings = siblings_from_index(
        index_from_mx(
            universe.zone_at(REFERENCE_DATE),
            universe.queried_names_at(REFERENCE_DATE),
            annotator,
            REFERENCE_DATE,
        )
    )
    rdns_siblings = siblings_from_index(
        index_from_rdns(
            universe.rdns_inventory(REFERENCE_DATE), annotator, REFERENCE_DATE
        )
    )
    mx_agreement = compare_inputs("mx", mx_siblings, "domains", domain_siblings)
    rdns_agreement = compare_inputs(
        "rdns", rdns_siblings, "domains", domain_siblings
    )
    lines = [
        f"domains: {len(domain_siblings)} pairs "
        f"(perfect {domain_siblings.perfect_match_share:.1%})",
        f"mx:      {len(mx_siblings)} pairs "
        f"(perfect {mx_siblings.perfect_match_share:.1%}); "
        f"{mx_agreement.compatibility_share:.1%} confirmed by domains",
        f"rdns:    {len(rdns_siblings)} pairs "
        f"(perfect {rdns_siblings.perfect_match_share:.1%}); "
        f"{rdns_agreement.compatibility_share:.1%} confirmed by domains",
    ]
    return ExperimentResult(
        "inputs",
        "Section 6: alternative input signals (MX, rDNS)",
        "\n".join(lines),
        {
            "domain_pairs": float(len(domain_siblings)),
            "mx_pairs": float(len(mx_siblings)),
            "rdns_pairs": float(len(rdns_siblings)),
            "mx_compatibility": mx_agreement.compatibility_share,
            "rdns_compatibility": rdns_agreement.compatibility_share,
        },
    )


@experiment("ablation_bestmatch")
def ablation_bestmatch(universe: Universe) -> ExperimentResult:
    snapshot = universe.snapshot_at(REFERENCE_DATE)
    annotator = universe.annotator_at(REFERENCE_DATE)
    lines = []
    key_values = {}
    for mode in BestMatchMode:
        siblings = detect_siblings(snapshot, annotator, mode=mode)
        lines.append(
            f"{mode.value:<8} pairs={len(siblings):6d} "
            f"perfect={siblings.perfect_match_share:.1%}"
        )
        key_values[f"pairs_{mode.value}"] = float(len(siblings))
    return ExperimentResult(
        "ablation_bestmatch",
        "Ablation: best-match selection rule",
        "\n".join(lines),
        key_values,
    )


@experiment("ablation_branches")
def ablation_branches(universe: Universe) -> ExperimentResult:
    siblings, index = detect_at(universe, REFERENCE_DATE)
    with_branches = SpTunerMS(index, DEFAULT_CONFIG).tune_all(siblings)
    without = SpTunerMS(
        index, TunerConfig(track_branches=False)
    ).tune_all(siblings)
    domains = lambda s: {d for pair in s for d in pair.shared_domains}
    kept = domains(with_branches)
    lost = kept - domains(without)
    lines = [
        f"pairs with branch tracking:    {len(with_branches)}",
        f"pairs without branch tracking: {len(without)}",
        f"domains covered with branches: {len(kept)}",
        f"domains lost without branches: {len(lost)}",
    ]
    return ExperimentResult(
        "ablation_branches",
        "Ablation: SP-Tuner UpdateBranches step",
        "\n".join(lines),
        {
            "domains_lost_without_branches": float(len(lost)),
            "pairs_with": float(len(with_branches)),
            "pairs_without": float(len(without)),
        },
    )
