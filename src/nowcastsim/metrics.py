"""Weighted distributional statistics: equivalised incomes, deciles, Gini,
and the benefits/taxes/expenses redistribution decomposition.

Analysis is person-weighted: each person carries their household's survey
weight and the household's equivalised income (modified OECD scale).
As every person of a household has its income, `summarize` takes each mean
and Gini over households weighted by their persons' summed weight (the
grouped-data Gini, Lerman & Yitzhaki 1989): in exact arithmetic, the person
figures. Deciles stay per person, ranked by the stable argsort of the
persons' adjusted incomes.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

INCOME_DEFINITIONS = ("market", "gross", "disposable", "adjusted")

# Modified OECD scale weights: first adult / additional adult (14+) / child (<14)
FIRST_ADULT = 1.0
EXTRA_ADULT = 0.5
CHILD = 0.3


class MetricsError(ValueError):
    pass


def equivalence_scale(adults_14plus, children_under14):
    """Modified OECD scale: 1 + 0.5 per additional 14+ member + 0.3 per
    under-14 child. Positive even for an (unusual) all-child household."""
    a = np.asarray(adults_14plus, dtype=np.float64)
    c = np.asarray(children_under14, dtype=np.float64)
    if np.any(a + c <= 0):
        raise MetricsError("equivalence scale undefined for an empty household")
    return FIRST_ADULT + EXTRA_ADULT * (a - 1.0) + CHILD * c


def weighted_gini(values, weights) -> float:
    """Weighted Gini coefficient.

    Definition: sum_i sum_j w_i w_j |x_i - x_j| / (2 W^2 mu). Computed in
    the sorted O(n log n) form

        G = sum_i w_i x_i (2 c_i - w_i - W) / (W^2 mu)

    with c_i the inclusive cumulative weight in ascending-x order, which
    equals the double sum (tie order does not matter).
    """
    x = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.size == 0:
        raise MetricsError("gini of an empty vector")
    if x.shape != w.shape:
        raise MetricsError("values and weights differ in length")
    if np.any(w <= 0):
        raise MetricsError("weights must be positive")
    if np.all(x == x[0]):
        return 0.0
    total = float(np.sum(w))
    terms = np.multiply(w, x)
    mean = float(np.sum(terms)) / total
    if mean == 0.0:
        raise MetricsError("gini undefined: zero mean with nonzero dispersion")
    order = np.argsort(x)
    # sum(ws * xs * (2 cum - ws - W)), term by term as written, in place
    ws = w[order]
    cum = np.cumsum(ws)
    cum *= 2.0
    cum -= ws
    cum -= total
    np.take(x, order, out=terms, mode="clip")  # "raise" would gather into a hidden copy
    terms *= ws
    terms *= cum
    return float(np.sum(terms)) / (total * total * mean)


def weighted_quantile_groups(order, weights, n_groups: int) -> np.ndarray:
    """Assign each unit to one of n_groups weighted-equal groups (1-based).

    `order` lists the units in ranking order (ascending, ties broken as the
    caller ranks them). The group boundary is a cumulative-weight cut at
    k/n of total weight, and the unit spanning a boundary goes to the lower
    group.
    """
    w = np.asarray(weights, dtype=np.float64)
    cum = np.cumsum(w[order])
    total = cum[-1]
    g_sorted = np.ceil(cum * n_groups / total - 1e-9).astype(np.int64)
    g_sorted = np.clip(g_sorted, 1, n_groups)
    groups = np.empty(w.size, dtype=np.int64)
    groups[order] = g_sorted
    return groups


def decile_means(values_by_definition: dict, weights, deciles) -> dict:
    """Per-decile weighted means of each income definition.

    `deciles` (1..10 per unit) are grouped once from a fixed ranking (the
    baseline equivalised adjusted disposable income), so a shock moves
    people's incomes but not their decile membership. An empty decile's
    mean is NaN.
    """
    w = np.asarray(weights, dtype=np.float64)
    weight_sums = np.bincount(deciles, weights=w, minlength=11)[1:]
    return {name: np.divide(np.bincount(deciles, weights=np.asarray(v, dtype=np.float64) * w,
                                        minlength=11)[1:], weight_sums,
                            out=np.full(10, np.nan), where=weight_sums > 0)
            for name, v in values_by_definition.items()}


def redistribution_decomposition(
    gini_market: float, gini_gross: float, gini_disposable: float, gini_adjusted: float
) -> tuple[float, float, float]:
    """Split the market-to-adjusted Gini change into instrument contributions.

    benefits = G_gross - G_market, taxes = G_disposable - G_gross,
    expenses = G_adjusted - G_disposable; the three always telescope to
    G_adjusted - G_market.
    """
    benefits = gini_gross - gini_market
    taxes = gini_disposable - gini_gross
    expenses = gini_adjusted - gini_disposable
    return benefits, taxes, expenses


@dataclass
class DistributionSummary:
    """Per-wave distributional statistics over the four income definitions."""

    label: str
    means: dict = field(default_factory=dict)        # definition -> EUR/month per AE
    gini: dict = field(default_factory=dict)         # definition -> Gini
    decile_means: dict = field(default_factory=dict)  # definition -> 10-vector
    deciles: np.ndarray = None                       # each person's decile, 1..10


def summarize(label: str, hh_equivalized: dict, hh_row, weights, deciles=None, hw=None,
              known=None):
    """Build a DistributionSummary from household-level equivalised
    incomes, each carried by the household's persons (`hh_row` maps person
    rows to household rows; every household has one), and the fixed deciles
    (see decile_means); with none given, persons are ranked into deciles by
    this adjusted income, ties by row. Means and Ginis are taken over
    households weighted by their persons' summed weight, `hw` (computed
    here when not given). `known` maps a definition to the (mean, Gini,
    decile means) of an earlier summary of the same incomes under the same
    deciles; those are taken as they are, not computed again."""
    w = np.asarray(weights, dtype=np.float64)
    if hw is None:
        hw = np.bincount(hh_row, weights=w, minlength=len(hh_equivalized["adjusted"]))
    if deciles is None:
        deciles = weighted_quantile_groups(
            np.argsort(hh_equivalized["adjusted"][hh_row], kind="stable"), w, 10)
    stats = dict(known or {})
    todo = [name for name in INCOME_DEFINITIONS if name not in stats]
    table = decile_means({name: hh_equivalized[name][hh_row] for name in todo}, w, deciles)
    for name in todo:
        values = hh_equivalized[name]
        stats[name] = (float(np.sum(values * hw) / np.sum(hw)), weighted_gini(values, hw),
                       table[name])
    means, gini, table = ({name: stats[name][k] for name in INCOME_DEFINITIONS}
                          for k in range(3))
    return DistributionSummary(label=label, means=means, gini=gini, decile_means=table,
                               deciles=deciles)


DEFINITION_LABELS = {
    "market": "Market Income", "gross": "Gross Income",
    "disposable": "Disposable Income", "adjusted": "Adjusted Disposable Income",
}


def _fmt(values, places: int = 2) -> list:
    return [f"{value:.{places}f}" for value in values]


def write_summary_tables(out_dir, summaries) -> None:
    """Emit the four fixed-shape CSV tables plus one file per wave:
    means per definition x wave, Gini with a change block, the
    redistribution decomposition, and per-decile means. Formatting is
    fixed-width decimal so output is byte-stable."""
    defs = INCOME_DEFINITIONS
    names = [DEFINITION_LABELS[d] for d in defs]

    def write(name, header, rows):
        with open(os.path.join(out_dir, name), "w", newline="", encoding="utf-8") as fh:
            for row in [header, *rows]:
                fh.write(",".join(str(tok) for tok in row) + "\n")

    def ginis(s):
        return [s.gini[d] for d in defs]

    def decile_rows(s):
        return [_fmt(s.decile_means[k][d] for k in defs) for d in range(10)]

    write("average_income.csv", ["Income Definition"] + [s.label for s in summaries],
          [[DEFINITION_LABELS[d]] + _fmt(s.means[d] for s in summaries) for d in defs])
    base = ginis(summaries[0])
    write("gini.csv", ["Wave"] + names,
          [[s.label] + _fmt(ginis(s), 6) for s in summaries]
          + [[f"change:{s.label}"] + _fmt((g - g0 for g, g0 in zip(ginis(s), base)), 6)
             for s in summaries[1:]])
    write("redistribution.csv", ["Wave", "Benefits", "Taxes", "Work Expenses and Housing Costs"],
          [[s.label] + _fmt(redistribution_decomposition(*ginis(s)), 6) for s in summaries])
    write("decile_means.csv", ["Wave", "Decile"] + names,
          [[s.label, d + 1] + row for s in summaries for d, row in enumerate(decile_rows(s))])
    for s in summaries:
        write(f"summary_{s.label}.csv", ["Statistic"] + names,
              [["mean"] + _fmt(s.means[d] for d in defs), ["gini"] + _fmt(ginis(s), 6)]
              + [[f"decile_{d + 1}"] + row for d, row in enumerate(decile_rows(s))])
