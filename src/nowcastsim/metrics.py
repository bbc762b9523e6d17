"""Weighted distributional statistics: equivalised incomes, deciles, Gini,
and the benefits/taxes/expenses redistribution decomposition.

Analysis is person-weighted: each person carries their household's survey
weight and the household's equivalised income (modified OECD scale).
As every person of a household has its income, `summarize` takes each mean
and Gini over households weighted by their persons' summed weight (the
grouped-data Gini, Lerman & Yitzhaki 1989): in exact arithmetic, the person
figures. Deciles stay per person, ranked by `household_order`.
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


def weighted_gini(values, weights, order=None) -> float:
    """Weighted Gini coefficient.

    Definition: sum_i sum_j w_i w_j |x_i - x_j| / (2 W^2 mu). Computed in
    the sorted O(n log n) form

        G = sum_i w_i x_i (2 c_i - w_i - W) / (W^2 mu)

    with c_i the inclusive cumulative weight in ascending-x order, which
    equals the double sum (tie order does not matter); `order` is any
    ascending argsort of the values when the caller has it.
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
    order = np.argsort(x, kind="stable") if order is None else order
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


def household_order(hh_values, hh_row) -> np.ndarray:
    """`np.argsort(hh_values[hh_row], kind="stable")`, formed by dense-ranking
    the household values and then sorting integer keys rank << b | row, b
    the bits of the largest row."""
    v = np.asarray(hh_values, dtype=np.float64)
    by_value = np.argsort(v)
    rank = np.empty(v.size, dtype=np.int64)
    rank[by_value] = np.cumsum(np.r_[True, v[by_value[1:]] != v[by_value[:-1]]])
    n = len(hh_row)
    b = (n - 1).bit_length()
    key = rank[hh_row]
    key <<= b
    key |= np.arange(n)
    key.sort()
    key &= (1 << b) - 1
    return key


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
    decomposition: tuple = (0.0, 0.0, 0.0)           # (benefits, taxes, expenses)
    deciles: np.ndarray = None                       # each person's decile, 1..10


def summarize(label: str, hh_equivalized: dict, hh_row, weights, deciles=None):
    """Build a DistributionSummary from household-level equivalised
    incomes, each carried by the household's persons (`hh_row` maps person
    rows to household rows; every household has one), and the fixed deciles
    (see decile_means); with none given, persons are ranked into deciles by
    this adjusted income, ties by row. Means and Ginis are taken over
    households weighted by their persons' summed weight."""
    w = np.asarray(weights, dtype=np.float64)
    hw = np.bincount(hh_row, weights=w, minlength=len(hh_equivalized["adjusted"]))
    means = {name: float(np.sum(hh_equivalized[name] * hw) / np.sum(hw))
             for name in INCOME_DEFINITIONS}
    gini = {name: weighted_gini(hh_equivalized[name], hw, np.argsort(hh_equivalized[name]))
            for name in INCOME_DEFINITIONS}
    if deciles is None:
        deciles = weighted_quantile_groups(
            household_order(hh_equivalized["adjusted"], hh_row), w, 10)
    decile_table = decile_means({name: v[hh_row] for name, v in hh_equivalized.items()},
                                w, deciles)
    decomposition = redistribution_decomposition(
        gini["market"], gini["gross"], gini["disposable"], gini["adjusted"]
    )
    return DistributionSummary(
        label=label, means=means, gini=gini, decile_means=decile_table,
        decomposition=decomposition, deciles=deciles,
    )


DEFINITION_LABELS = {
    "market": "Market Income", "gross": "Gross Income",
    "disposable": "Disposable Income", "adjusted": "Adjusted Disposable Income",
}


def _fmt(value: float, places: int = 2) -> str:
    return f"{value:.{places}f}"


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(tok) for tok in row) + "\n")


def write_summary_tables(out_dir, summaries) -> None:
    """Emit the four fixed-shape CSV tables plus one file per wave:
    means per definition x wave, Gini with a change block, the
    redistribution decomposition, and per-decile means. Formatting is
    fixed-width decimal so output is byte-stable."""
    labels = [s.label for s in summaries]
    defs = INCOME_DEFINITIONS
    _write_csv(
        os.path.join(out_dir, "average_income.csv"),
        ["Income Definition"] + labels,
        [[DEFINITION_LABELS[d]] + [_fmt(s.means[d]) for s in summaries] for d in defs],
    )
    base = summaries[0]
    gini_rows = [[s.label] + [_fmt(s.gini[d], 6) for d in defs] for s in summaries]
    gini_rows += [
        [f"change:{s.label}"] + [_fmt(s.gini[d] - base.gini[d], 6) for d in defs]
        for s in summaries[1:]
    ]
    _write_csv(
        os.path.join(out_dir, "gini.csv"),
        ["Wave"] + [DEFINITION_LABELS[d] for d in defs],
        gini_rows,
    )
    _write_csv(
        os.path.join(out_dir, "redistribution.csv"),
        ["Wave", "Benefits", "Taxes", "Work Expenses and Housing Costs"],
        [[s.label] + [_fmt(x, 6) for x in s.decomposition] for s in summaries],
    )
    decile_rows = []
    for s in summaries:
        for d in range(10):
            decile_rows.append([s.label, d + 1]
                               + [_fmt(s.decile_means[k][d]) for k in defs])
    _write_csv(
        os.path.join(out_dir, "decile_means.csv"),
        ["Wave", "Decile"] + [DEFINITION_LABELS[d] for d in defs],
        decile_rows,
    )
    for s in summaries:
        rows = [["mean"] + [_fmt(s.means[d]) for d in defs],
                ["gini"] + [_fmt(s.gini[d], 6) for d in defs]]
        for d in range(10):
            rows.append([f"decile_{d + 1}"] + [_fmt(s.decile_means[k][d]) for k in defs])
        _write_csv(
            os.path.join(out_dir, f"summary_{s.label}.csv"),
            ["Statistic"] + [DEFINITION_LABELS[d] for d in defs],
            rows,
        )
