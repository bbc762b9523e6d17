"""Weighted distributional statistics: equivalised incomes, deciles, Gini,
and the benefits/taxes/expenses redistribution decomposition.

Analysis is person-weighted: each person carries their household's survey
weight and the household's equivalised income (modified OECD scale).
As every person of a household has its income, `summarize` reads household
arrays only: means and Ginis over households weighted by their persons'
summed weight (the grouped-data Gini, Lerman & Yitzhaki 1989), decile means
over the (household, decile) pairs of `decile_groups`; in exact arithmetic,
the person figures.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

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
    if np.any(adults_14plus + children_under14 <= 0):
        raise MetricsError("equivalence scale undefined for an empty household")
    return FIRST_ADULT + EXTRA_ADULT * (adults_14plus - 1.0) + CHILD * children_under14


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
    cum = np.cumsum(weights[order])
    total = cum[-1]
    g_sorted = np.ceil(cum * n_groups / total - 1e-9).astype(np.int64)
    g_sorted = np.clip(g_sorted, 1, n_groups)
    groups = np.empty(weights.size, dtype=np.int64)
    groups[order] = g_sorted
    return groups


def decile_groups(hh_row, weights, deciles):
    """The (household, decile) pairs of persons in households `hh_row`,
    with `weights` and `deciles` (1..10): a household can straddle a decile
    boundary. Returns the pairs' household rows, deciles and summed person
    weights, in household order, and the 10 deciles' summed weights."""
    pair_weight = np.bincount(hh_row * 10 + deciles - 1, weights=weights)
    pairs = np.flatnonzero(pair_weight)
    return (pairs // 10, pairs % 10 + 1, pair_weight[pairs],
            np.bincount(deciles, weights=weights, minlength=11)[1:])


def decile_means(values, groups) -> np.ndarray:
    """Weighted means of household-level `values` per decile of `groups`
    (see decile_groups), ranked once, so a shock moves incomes but not
    decile membership. An empty decile's mean is NaN."""
    hh, decile, pair_weight, weight_sums = groups
    sums = np.bincount(decile, weights=values[hh] * pair_weight, minlength=11)[1:]
    return np.divide(sums, weight_sums, out=np.full(10, np.nan), where=weight_sums > 0)


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
    means: dict         # definition -> EUR/month per AE
    gini: dict          # definition -> Gini
    decile_means: dict  # definition -> 10-vector


def summarize(values, hw, groups) -> tuple:
    """The weighted mean, Gini and decile means of household-level
    `values`: each household weighs `hw`, its persons' summed weight, and
    `groups` are its (household, decile) pairs (see decile_groups)."""
    return (float(np.sum(values * hw) / np.sum(hw)), weighted_gini(values, hw),
            decile_means(values, groups))


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
