"""Housing, work-related and capital adjustments to disposable income:
commuting costs, childcare costs, mortgage deferral, and equity losses.

Commuting uses the two transport-mode logits (public / private) evaluated
on industry group, region, occupation, age band and education dummies;
public transport wins when both fire. Weekly household costs come from the
per-worker-count cost table, with the count capped at its last column.

Childcare is a three-stage pipeline: a participation logit with a draw
anchored to the observed user flag, an expenditure regression with the
residual recovered from observed spending (none for users without an
observation), and a cell-mean calibration of users' costs to the
family-type x income-decile grid.

Capital losses apply a participation gate at the holdings-grid rate
(anchored to observed capital income) and a per-holder value change of
holding x index factor.

Categories are integer codes into their label tuples: `family_type` gives
a code into `FAMILY_TYPES` (-1 for no children), `age_band` one into
`AGE_BANDS`. The childcare grid is keyed by (family-type code, decile); each
holdings grid is an array indexed by [age-band code, quintile - 1].

The reference tables are read by `files.csv_rows`, keyed by sector, worker
count, family type x decile and age band x quintile; a row with an unknown
key fails with its `<file>:<line>`. The sector groups must list every
sector, the commuting table every count 1..3, the childcare grid all 30
cells and each holdings grid all 25.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import align_continuous
from .files import csv_rows, finite, money_cents
from .igm import anchored_draws, linear_predict, logit_prob
from .money import cents
from .population import SECTORS, TENURES
from .rng import keyed_uniform

MODE_NONE, MODE_PUBLIC, MODE_PRIVATE = 0, 1, 2

FAMILY_TYPES = ("lone_parent", "two_adults_1_3_children", "other_with_children")


class ExpenseError(ValueError):
    pass


# -- commuting ---------------------------------------------------------------

@dataclass(frozen=True)
class CommuteCostTable:
    """Weekly cost in cents by number of commuters (index 0..3, 3 = 3+)."""

    motor_fuels_cents: tuple
    public_transport_cents: tuple


def load_commute_costs(path) -> CommuteCostTable:
    """Weekly costs for 1, 2 and 3+ commuters: one row for each count."""
    mf = [0, 0, 0, 0]
    pt = [0, 0, 0, 0]
    columns = {"workers": int, "motor_fuels_eur": money_cents,
               "public_transport_eur": money_cents, "total_eur": money_cents}
    for where, rec in csv_rows(path, columns, ExpenseError, ("workers",), ((1,), (2,), (3,))):
        n = rec["workers"]
        if n not in (1, 2, 3):
            raise ExpenseError(f"{where}: workers column must be 1, 2 or 3")
        mf[n] = rec["motor_fuels_eur"]
        pt[n] = rec["public_transport_eur"]
        total = rec["total_eur"]
        if abs(total - mf[n] - pt[n]) > 1:  # components must add up to the total
            raise ExpenseError(f"{where}: total {total} != {mf[n]} + {pt[n]} within a cent")
    return CommuteCostTable(motor_fuels_cents=tuple(mf), public_transport_cents=tuple(pt))


def load_sector_groups(path) -> dict:
    """Each sector's transport-model industry group: one of
    `TRANSPORT_GROUPS` or `reference`, one row for every sector."""
    groups = {}
    for where, rec in csv_rows(path, {"sector": str, "transport_group": str}, ExpenseError,
                               ("sector",), [(sector,) for sector in SECTORS]):
        sector, group = rec["sector"], rec["transport_group"]
        if sector not in SECTORS:
            raise ExpenseError(f"{where}: unknown sector {sector!r}")
        if group not in TRANSPORT_GROUPS and group != "reference":
            raise ExpenseError(f"{where}: unknown transport group {group!r}")
        groups[sector] = group
    return groups


# The industry-group covariates of the transport-mode logits; the group
# `reference`, and no industry, is the reference category.
TRANSPORT_GROUPS = ("ind_manufacturing_utilities", "ind_construction", "ind_commerce",
                    "ind_transport_comms", "ind_public_admin", "ind_education_health",
                    "ind_other")
# Occupations 1..8 and the age bins from 20; occupation 9 and ages under 20
# are the reference categories.
OCCUPATIONS = range(1, 9)
AGE_BINS = ((20, 24), (25, 29), (30, 34), (35, 39), (40, 44), (45, 49),
            (50, 54), (55, 59), (60, 64), (65, 69), (70, 74))
# The names `transport_covariates` supplies, in its order.
TRANSPORT_COVARIATES = (*TRANSPORT_GROUPS, "region_bmw", *(f"occ_{occ}" for occ in OCCUPATIONS),
                        *(f"age_{lo}_{hi}" for lo, hi in AGE_BINS), "age_75p", "university")


def transport_covariates(group, region_bmw, occupation, age, university) -> dict:
    """Dummy covariates for the transport-mode logits, as bool arrays (the
    logit index reads each as float64 0/1), keyed `TRANSPORT_COVARIATES`.

    `group` holds per person the code of the industry-group covariate in
    `TRANSPORT_GROUPS` (any other code is the reference group). `region_bmw`
    and `university` are 0/1 dummies, passed through.
    """
    cov = {name: group == code for code, name in enumerate(TRANSPORT_GROUPS)}
    cov["region_bmw"] = region_bmw
    for occ in OCCUPATIONS:
        cov[f"occ_{occ}"] = occupation == occ
    for lo, hi in AGE_BINS:
        cov[f"age_{lo}_{hi}"] = (age >= lo) & (age <= hi)
    cov["age_75p"] = age >= 75
    cov["university"] = university
    return cov


def assign_commute_modes(models, sector_groups, is_worker, sector_idx, region_bmw,
                         occupation, age, university, person_ids, seed: int) -> np.ndarray:
    """Commute mode per person, as int8: 1 public, 2 private, 0 none. `sector_idx`
    indexes `SECTORS`, -1 for no industry.

    Both logits are evaluated; the draws are keyed per person so modes stay
    fixed across scenarios. Public transport wins when both fire;
    non-workers always get none.
    """
    codes = {name: code for code, name in enumerate(TRANSPORT_GROUPS)}
    reference = len(TRANSPORT_GROUPS)
    group = np.array([codes.get(sector_groups.get(s), reference) for s in SECTORS]
                     + [reference], dtype=np.int8)[sector_idx]
    cov = transport_covariates(group, region_bmw, occupation, age, university)
    p_public = logit_prob(models["transport_public"], cov)
    p_private = logit_prob(models["transport_private"], cov)
    u_public = keyed_uniform(seed, "transport_public", person_ids)
    u_private = keyed_uniform(seed, "transport_private", person_ids)
    modes = np.full(person_ids.shape, MODE_NONE, dtype=np.int8)
    modes[is_worker & (u_public < p_public)] = MODE_PUBLIC
    private = is_worker & (modes == MODE_NONE) & (u_private < p_private)
    modes[private] = MODE_PRIVATE
    return modes


def commuting_cost_cents(table: CommuteCostTable, n_private, n_public):
    """Weekly household commuting cost (int64) for the active commuter mix:
    the counts of private and public commuters per household."""
    if np.any(n_private < 0) or np.any(n_public < 0):
        raise ExpenseError("commuter counts must be >= 0")
    return (np.array(table.motor_fuels_cents, dtype=np.int64)[np.minimum(n_private, 3)]
            + np.array(table.public_transport_cents, dtype=np.int64)[np.minimum(n_public, 3)])


# -- childcare ---------------------------------------------------------------

@dataclass(frozen=True)
class ChildcareCostGrid:
    """Weekly cost cells in cents by (family-type code, income decile)."""

    cells: dict


def load_childcare_grid(path) -> ChildcareCostGrid:
    cells = {}
    columns = {"family_type": str, "decile": int, "cost_eur_week": money_cents}
    for where, rec in csv_rows(path, columns, ExpenseError, ("family_type", "decile"),
                               [(ftype, d) for ftype in FAMILY_TYPES for d in range(1, 11)]):
        ftype, decile = rec["family_type"], rec["decile"]
        if ftype not in FAMILY_TYPES:
            raise ExpenseError(f"{where}: unknown family type {ftype!r}")
        if not 1 <= decile <= 10:
            raise ExpenseError(f"{where}: decile {decile} outside 1..10")
        cells[FAMILY_TYPES.index(ftype), decile] = rec["cost_eur_week"]
    return ChildcareCostGrid(cells=cells)


def family_type(n_adults, n_children_under14) -> np.ndarray:
    """Each household's code into `FAMILY_TYPES`, -1 for no children;
    adults counted from 18."""
    return np.select([n_children_under14 <= 0, n_adults <= 1,
                      (n_adults == 2) & (n_children_under14 <= 3)], [-1, 0, 1], default=2)


# The covariates of the childcare participation logit and spend regression.
CHILDCARE_COVARIATES = ("n_children_0_4", "n_children", "equiv_income_week",
                        "equiv_income_week_sq", "two_workers_or_working_lone_parent")


def childcare_costs_cents(models, grid: ChildcareCostGrid, household_ids, weights,
                          family_types, deciles, n_children_0_4, n_children_under14,
                          equiv_disposable_week_eur, two_workers_flag, observed_user,
                          observed_spend_eur, seed: int) -> np.ndarray:
    """Baseline weekly childcare cost in cents per household.

    Participation replays the observed user flag through an anchored draw
    at the participation-logit probability; user-level costs start from the
    expenditure regression plus, for users with an observation, the residual
    recovered from it, then users' costs in each populated family-type x
    decile cell are mean-calibrated to the cost grid.
    """
    cov = dict(zip(CHILDCARE_COVARIATES, (n_children_0_4, n_children_under14,
                                          equiv_disposable_week_eur,
                                          equiv_disposable_week_eur ** 2, two_workers_flag)))

    p = logit_prob(models["childcare_has"], cov)
    u = anchored_draws(p, observed_user, seed, "childcare_has", household_ids)
    users = (u < p) & (family_types >= 0)

    prediction = linear_predict(models["childcare_spend"], cov)
    # prediction + (observed - prediction) is not always bit-equal to observed
    eps_recovered = observed_spend_eur - prediction
    level = np.where(users & observed_user, prediction + eps_recovered, prediction)
    level = np.maximum(level, 0.0)
    level[~users] = 0.0

    for (ftype, decile), target_cents in grid.cells.items():
        cell = users & (family_types == ftype) & (deciles == decile)
        if not np.any(cell):
            continue
        target = target_cents / 100.0
        current = float(np.sum(level[cell] * weights[cell]) / np.sum(weights[cell]))
        if current == 0.0:
            level[cell] = target
        else:
            level[cell] = align_continuous(level[cell], weights[cell], target)
    return cents(level)


# -- housing -----------------------------------------------------------------

TENURE_CODES = {tenure: code for code, tenure in enumerate(TENURES)}


def housing_cost_cents(tenure_code, mortgage_cents, rent_cents) -> np.ndarray:
    """Monthly housing cost with nothing deferred: rent for renters, the
    mortgage payment for mortgage holders, nothing for outright owners.
    `deferred_housing_cents` applies a wave's deferrals to it."""
    cost = np.where(tenure_code == TENURE_CODES["renter"], rent_cents, 0)
    return np.where(tenure_code == TENURE_CODES["mortgage"], mortgage_cents, cost)


def deferred_housing_cents(housing_cents, rows) -> np.ndarray:
    """`housing_cents`, the cost with nothing deferred, once the mortgage
    holders at `rows` defer and so pay nothing; itself when `rows` is empty."""
    if not rows.size:
        return housing_cents
    cost = housing_cents.copy()
    cost[rows] = 0
    return cost


# -- capital losses ----------------------------------------------------------

@dataclass(frozen=True)
class CapitalHoldingsGrid:
    """Participation rate and per-holder share value in cents, each a
    (len(AGE_BANDS), 5) array indexed by [age-band code, quintile - 1]."""

    participation: np.ndarray
    value_cents: np.ndarray


def load_holdings_grid(participation_path, values_path) -> CapitalHoldingsGrid:
    def cells(path, column, parse, valid, message):
        grid = np.zeros((len(AGE_BANDS), 5))
        columns = {"age_band": str, "quintile": int, column: parse}
        for where, rec in csv_rows(path, columns, ExpenseError, ("age_band", "quintile"),
                                   [(band, q) for band in AGE_BANDS for q in range(1, 6)]):
            band, quintile = rec["age_band"], rec["quintile"]
            if band not in AGE_BANDS:
                raise ExpenseError(f"{where}: age_band {band!r} is not one of "
                                   f"{', '.join(AGE_BANDS)}")
            if not 1 <= quintile <= 5:
                raise ExpenseError(f"{where}: quintile {quintile} outside 1..5")
            if not valid(rec[column]):
                raise ExpenseError(f"{where}: {message}")
            grid[AGE_BANDS.index(band), quintile - 1] = rec[column]
        return grid

    participation = cells(participation_path, "participation", finite,
                          lambda rate: 0.0 <= rate <= 1.0, "rate outside [0, 1]")
    values = cells(values_path, "value_eur_thousand", lambda text: money_cents(text, 1000.0),
                   lambda v: v >= 0, "negative holding value")
    # cents under 2**53 are whole float64 values
    return CapitalHoldingsGrid(participation=participation, value_cents=values.astype(np.int64))


# Holding-grid age bands, labelled by decade: <35, 35-44, 45-54, 55-64, 65+.
AGE_BANDS = ("30", "40", "50", "60", "70")


def age_band(age) -> np.ndarray:
    """Each age's int8 code into the holding-grid bands `AGE_BANDS`."""
    return np.searchsorted((35, 45, 55, 65), age, side="right").astype(np.int8)


def capital_participants(grid: CapitalHoldingsGrid, bands, quintiles, observed_holder,
                         person_ids, seed: int) -> np.ndarray:
    """Participation gate: anchored draw at the grid rate against the
    observed holder state (capital income present). `bands` are codes into
    `AGE_BANDS`, `quintiles` run 1..5."""
    rates = np.clip(grid.participation[bands, quintiles - 1], 1e-9, 1.0 - 1e-9)
    u = anchored_draws(rates, observed_holder, seed, "shareholding", person_ids)
    return u < rates


def capital_value_change_cents(grid: CapitalHoldingsGrid, bands, quintiles,
                               participant, index_change_factor: float) -> np.ndarray:
    """Signed change in share value per person: holding x index factor for
    participants, 0 otherwise. Negative when markets fall."""
    out = np.zeros(participant.shape, dtype=np.int64)
    holding = grid.value_cents[bands[participant], quintiles[participant] - 1]
    # np.rint rounds half to even, as round() does on a float
    out[participant] = np.rint(holding * index_change_factor)
    return out
