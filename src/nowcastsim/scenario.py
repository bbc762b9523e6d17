"""Scenario orchestration: nowcast the base population, apply each wave's
labour-market shock and policy state, and produce counterfactual income
distributions.

Per wave, in a fixed order so a person holds at most one pandemic state:

  (a) job losses aligned per sector to the pandemic-payment recipient
      stocks (rescaled from national counts by the population's sector
      worker weight over the national reference employment), restricted to
      workers aged 18-66; losers get the earnings-banded pandemic rate, or
      ordinary unemployment benefit when the instrument is switched off
  (b) sickness-benefit cases aligned per age band among remaining workers
      (in-work cases only; out-of-work cases carry no income change)
  (c) wage-subsidised employees aligned per sector among the remainder;
      their pay is recomposed as subsidy plus an employer top-up share of
      the shortfall, and stays in taxable market income
  (d) home-working flags for non-essential, home-capable remaining workers
  (e) mortgage deferrals aligned among mortgage holders (uniform odds)
  (f) capital value changes for share holders at the wave's index factor
  (g) taxes and benefits evaluated; market / gross / disposable / adjusted
      income emitted per household in integer cents

Ranking alignment keys never include the wave date for persistent states
(job loss, subsidy, deferral), so recipient sets are nested as targets
move, and build_baseline ranks each of their pools once per run; sickness
draws are keyed per wave, so CEIB is ranked per wave. All draws are keyed by
unit id, making results independent of iteration order and thread count.

Waves that share a date share every result their switches agree on:
run_scenario runs each date's waves as one unit with one dict, dropped when
the unit ends, in which apply_wave keeps each step's result under the date,
the step's name and the switches that `STEP_SWITCHES`, the one declaration
of this rule, names for it. Those arrays are read-only and are the same
objects in every wave whose switches agree; a wave that defers nobody
holds the baseline's housing cost itself, and one that moves nobody its
market income, taxes and benefits. Adjusted income and the person arrays
are each wave's own. Each distinct cents array is equivalised and
summarized once, over households and (household, decile) pairs. Dates,
not waves, run in parallel at `threads` > 1, each thread taking the next.

Age bands are computed as integer codes into `CASE_AGE_BANDS` (sickness
cases, employment rates) and `expenses.AGE_BANDS` (holdings); the control
totals keep the band labels of the control file, which also name each CEIB
stratum's draw stream `ceib:<band>:<date>`.
"""
from __future__ import annotations

import datetime as dt
import itertools
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import expenses, igm, metrics, taxben
from .calibration import (AlignmentError, align_by_score, align_continuous, score_order,
                          take_by_score)
from .files import csv_rows, finite, key_values
from .money import annual_to_monthly, apply_rate, cents, round_div, weekly_to_monthly
from .population import (EDUCATIONS, REGIONS, SECTORS, WORK_STATUSES, WORKER_CODES,
                         Population, Table)
from .rng import anchored_uniform, keyed_uniform, logistic_noise

CASE_AGE_BANDS = ("0", "1-4", "5-14", "15-24", "25-34", "35-44", "45-54", "55-64", "65+")
NATIONAL_KEYS = ("population_total", "mortgage_count")  # plus sector_employment:<sector>


class ScenarioError(ValueError):
    pass


class ControlError(ValueError):
    pass


def case_age_band(age) -> np.ndarray:
    """Each age's int8 code into `CASE_AGE_BANDS`: the number of later bands
    starting at or below it (a comparison per band beats a binary search)."""
    age = np.asarray(age)
    code = np.zeros(age.shape, dtype=np.int8)
    for start in (1, 5, 15, 25, 35, 45, 55, 65):
        code += age >= start
    return code


# -- control totals ------------------------------------------------------------


@dataclass
class ControlTotals:
    """External aggregates in force at one wave date."""

    date: dt.date
    pup_by_sector: dict = field(default_factory=dict)
    ceib_cases: dict = field(default_factory=dict)  # (band, in_work) -> count
    subsidy_by_sector: dict = field(default_factory=dict)
    deferral_count: float = 0.0
    index_change_factor: float = 0.0
    employment_rate_by_age: dict = field(default_factory=dict)
    wage_index: float = 1.0


@dataclass
class ControlSeries:
    """All dated control rows of one file, resolvable per wave date."""

    pup: dict = field(default_factory=dict)
    ceib_sector: dict = field(default_factory=dict)
    ceib_cases: dict = field(default_factory=dict)
    subsidy: dict = field(default_factory=dict)
    deferrals: list = field(default_factory=list)  # [(date, count)] ascending
    index_factor: dict = field(default_factory=dict)
    employment_rate: dict = field(default_factory=dict)
    wage_index: dict = field(default_factory=dict)

    def deferrals_at(self, date: dt.date) -> float:
        """Piecewise-linear interpolation of the deferral request series."""
        points = self.deferrals
        if not points:
            return 0.0
        if date <= points[0][0]:
            return float(points[0][1]) if date == points[0][0] else 0.0
        if date >= points[-1][0]:
            return float(points[-1][1])
        for (d0, v0), (d1, v1) in zip(points, points[1:]):
            if date <= d1:  # the first segment reaching date; d0 < date
                frac = (date - d0).days / (d1 - d0).days
                return v0 + frac * (v1 - v0)

    def at(self, date: dt.date) -> ControlTotals:
        return ControlTotals(
            date=date,
            pup_by_sector=self.pup.get(date, {}),
            ceib_cases=self.ceib_cases.get(date, {}),
            subsidy_by_sector=self.subsidy.get(date, {}),
            deferral_count=self.deferrals_at(date),
            index_change_factor=self.index_factor.get(date, 0.0),
            employment_rate_by_age=self.employment_rate.get(date, {}),
            wage_index=self.wage_index.get(date, 1.0),
        )


def load_control_totals(path) -> ControlSeries:
    """Load (stratum_key, date, target) rows, one per key and date."""
    series = ControlSeries()
    for where, rec in csv_rows(path, {"stratum_key": str, "date": dt.date.fromisoformat,
                                      "target": finite}, ControlError, ("stratum_key", "date")):
        key, date, target = rec["stratum_key"], rec["date"], rec["target"]
        if target < 0 and not key == "index_change_factor":
            raise ControlError(f"{where}: negative target for {key!r}")
        head, _, rest = key.partition(":")
        if head in ("pup", "ceib", "subsidy"):
            if rest not in SECTORS:
                raise ControlError(f"{where}: unknown sector {rest!r}")
            table = {"pup": series.pup, "ceib": series.ceib_sector,
                     "subsidy": series.subsidy}[head]
            table.setdefault(date, {})[rest] = target
        elif head == "ceib_cases":
            status, _, band = rest.partition(":")
            if status not in ("in_work", "out_of_work") or band not in CASE_AGE_BANDS:
                raise ControlError(f"{where}: bad case stratum {key!r}")
            series.ceib_cases.setdefault(date, {})[(band, status == "in_work")] = target
        elif head == "mortgage_deferrals":
            series.deferrals.append((date, target))
        elif head == "index_change_factor":
            series.index_factor[date] = target
        elif head == "employment_rate":
            if rest not in CASE_AGE_BANDS:
                raise ControlError(f"{where}: unknown age band {rest!r}")
            if not 0.0 <= target <= 1.0:
                raise ControlError(f"{where}: employment rate outside [0, 1]")
            series.employment_rate.setdefault(date, {})[rest] = target
        elif head == "wage_index":
            series.wage_index[date] = target
        else:
            raise ControlError(f"{where}: unknown stratum_key {key!r}")
    series.deferrals.sort()
    return series


def load_national_reference(path) -> dict:
    ref = {"sector_employment": {}}
    required = [(key,) for key in NATIONAL_KEYS] + [(f"sector_employment:{s}",) for s in SECTORS]
    for where, rec in csv_rows(path, {"key": str, "value": finite}, ControlError, ("key",),
                               required):
        key, value = rec["key"], rec["value"]
        if key.startswith("sector_employment:"):
            sector = key.split(":", 1)[1]
            if sector not in SECTORS:
                raise ControlError(f"{where}: unknown sector {sector!r}")
            ref["sector_employment"][sector] = value
        elif key in NATIONAL_KEYS:
            ref[key] = value
        else:
            raise ControlError(f"{where}: unknown key {key!r}")
        if value <= 0:  # each divides national totals to rescale them to the population
            raise ControlError(f"{where}: {key} must be > 0")
    return ref


# -- scenario file ---------------------------------------------------------------


@dataclass(frozen=True)
class WavePoint:
    """One time point: a date plus the instrument switches in force."""

    label: str
    date: dt.date
    pup_on: bool = False
    ceib_on: bool = False
    subsidy: str = "none"  # none | twss | ewss | auto
    childcare_support: bool = False
    deferrals_on: bool = False
    capital_on: bool = False
    home_working_on: bool = False

    @property
    def subsidy_scheme(self) -> str:
        """The scheme the wave pays: `auto` is twss before the EWSS handover, ewss from it."""
        if self.subsidy == "auto":
            return "twss" if self.date < taxben.EWSS_HANDOVER else "ewss"
        return self.subsidy


@dataclass
class Scenario:
    waves: list
    controls_path: str
    seed: int = 0
    employer_topup: float = 0.30
    capital_booking: str = "amortized"  # amortized (/12) or once


def _share(text) -> float:
    share = float(text)
    if not 0.0 <= share <= 1.0:  # also rejects nan
        raise ValueError(text)
    return share


LABEL_FORBIDDEN = ',"/\\'  # a label is a CSV cell and part of a file name
ON_OFF = {"on": True, "off": False}
SUBSIDIES = {name: name for name in ("none", "twss", "ewss", "auto")}
# key -> (the Scenario or WavePoint field it sets, its parser, what it must be)
SCENARIO_KEYS = {
    "controls": ("controls_path", str, "a file name"),
    "seed": ("seed", int, "an integer"),
    "employer_topup": ("employer_topup", _share, "a number in [0, 1]"),
    "capital_booking": ("capital_booking", {"amortized": "amortized", "once": "once"}.__getitem__,
                        "amortized or once"),
}
WAVE_KEYS = {
    "date": ("date", dt.date.fromisoformat, "an ISO date"),
    "subsidy": ("subsidy", lambda text: SUBSIDIES[text.lower()], "none, twss, ewss or auto"),
    **{key: (name, lambda text: ON_OFF[text.lower()], "on or off") for key, name in (
        ("pup", "pup_on"), ("ceib", "ceib_on"), ("childcare_support", "childcare_support"),
        ("deferrals", "deferrals_on"), ("capital_losses", "capital_on"),
        ("home_working", "home_working_on"))},
}


def parse_scenario(path) -> Scenario:
    """Read a `scenario.cfg` through `files.key_values`: a `[scenario]`
    section and one `[wave:<label>]` section per wave, each holding the
    `key = value` lines of `SCENARIO_KEYS` or `WAVE_KEYS`. Values are taken
    as written (`%` is literal) and checked on their line, so a repeated key
    or section, an unknown key or section, a key before the first section
    and a bad value each fail with `<file basename>:<line>`, as does a wave
    label that is empty, holds one of `LABEL_FORBIDDEN` or starts with
    `change:`. A relative `controls` is resolved against the file's
    directory."""
    name = os.path.basename(path)
    sections = {}  # section name -> (where its header is, {field: value})
    for where, section, key, value in key_values(path, ScenarioError):
        if key is None:
            if section in sections:
                raise ScenarioError(f"{where}: [{section}] is given twice")
            if section != "scenario" and not section.startswith("wave:"):
                raise ScenarioError(f"{where}: unknown section [{section}]")
            if section == "wave:" or any(c in section for c in LABEL_FORBIDDEN):
                raise ScenarioError(f"{where}: [{section}] a wave label must be non-empty "
                                    f"and hold none of {' '.join(LABEL_FORBIDDEN)}")
            if section.startswith("wave:change:"):
                raise ScenarioError(f"{where}: [{section}] a wave label must not start with "
                                    "'change:', which marks the change rows of gini.csv")
            sections[section] = (where, {})
            continue
        if section is None:
            raise ScenarioError(f"{where}: a line before the first [section]")
        known = SCENARIO_KEYS if section == "scenario" else WAVE_KEYS
        if key not in known:
            raise ScenarioError(f"{where}: [{section}] {key} is not a known key")
        field_name, parse, expected = known[key]
        fields = sections[section][1]
        if field_name in fields:
            raise ScenarioError(f"{where}: [{section}] {key} is given twice")
        try:
            fields[field_name] = parse(value)
        except (KeyError, ValueError):
            raise ScenarioError(f"{where}: [{section}] {key} must be {expected}, "
                                f"got {value!r}") from None
    if "scenario" not in sections:
        raise ScenarioError(f"{name}: missing [scenario] section")
    where, main = sections.pop("scenario")
    if not main.get("controls_path"):
        raise ScenarioError(f"{where}: [scenario] needs a controls file reference")
    main["controls_path"] = os.path.join(os.path.dirname(os.path.abspath(path)),
                                         main["controls_path"])
    waves = []
    for section, (where, fields) in sections.items():
        if "date" not in fields:
            raise ScenarioError(f"{where}: [{section}] needs a date")
        waves.append(WavePoint(label=section.split(":", 1)[1], **fields))
    if not waves:
        raise ScenarioError(f"{name}: no [wave:...] sections")
    waves.sort(key=lambda w: w.date)
    return Scenario(waves=waves, **main)


def control_gaps(plan: Scenario, series: ControlSeries) -> list:
    """One message per wave that switches an instrument on while the
    controls have no rows for it at the wave's date, which makes that
    instrument a null shock (deferrals are interpolated, so never missing);
    then one per date whose ceib:<sector> rows and in-work ceib_cases rows,
    two margins of the same sickness cases, differ by more than one case;
    then one per date of employment_rate or wage_index rows other than the
    first wave's, the only date the nowcast reads them at."""
    name = os.path.basename(plan.controls_path)
    first = plan.waves[0].date
    in_work = {date: sum(count for (_, working), count in cases.items() if working)
               for date, cases in series.ceib_cases.items()}
    return [f"wave {w.label} switches {instrument} on, but {name} has no {key} rows at {w.date}"
            for w in plan.waves
            for on, rows, instrument, key in (
                (w.pup_on, series.pup, "pup", "pup:<sector>"),
                (w.ceib_on, series.ceib_cases, "ceib", "ceib_cases"),
                (w.subsidy != "none", series.subsidy, "subsidy", "subsidy:<sector>"),
                (w.capital_on, series.index_factor, "capital_losses", "index_change_factor"))
            if on and w.date not in rows] + [
        f"{name}: the ceib:<sector> rows at {date} sum to {sum(by_sector.values()):g} cases, "
        f"the in-work ceib_cases rows to {in_work.get(date, 0.0):g}"
        for date, by_sector in sorted(series.ceib_sector.items())
        if abs(sum(by_sector.values()) - in_work.get(date, 0.0)) > 1.0] + [
        f"{name}: the {key} rows at {date} are never read; the nowcast reads them only "
        f"at the first wave's date, {first}"
        for key, rows in (("employment_rate:<band>", series.employment_rate),
                          ("wage_index", series.wage_index))
        for date in sorted(rows) if date != first]


def schedule_faults(plan: Scenario, schedules: taxben.PolicySchedules, name: str) -> list:
    """One `<name>: [wave:<label>] <PolicyError>` message per instrument a
    wave switches on whose schedule is not in force at the wave's date; the
    date rules are those of the taxben calls apply_wave makes, here on no
    persons."""
    nobody = np.zeros(0, dtype=np.int64)
    faults = []
    for w in plan.waves:
        for on, rate in ((w.pup_on or w.ceib_on, taxben.pup_rate_cents),
                         (w.subsidy_scheme == "twss", taxben.twss_subsidy_cents),
                         (w.subsidy_scheme == "ewss", taxben.ewss_subsidy_cents)):
            if not on:
                continue
            try:
                rate(schedules, nobody, w.date)
            except taxben.PolicyError as exc:
                faults.append(f"{name}: [wave:{w.label}] {exc}")
    return faults


# -- reference data bundle -------------------------------------------------------


@dataclass
class DataTables:
    models: dict
    sector_groups: dict
    commute: expenses.CommuteCostTable
    childcare_grid: expenses.ChildcareCostGrid
    holdings: expenses.CapitalHoldingsGrid
    national: dict


# The coefficient models the engine evaluates: (kind, the covariates it supplies).
ENGINE_MODELS = {"transport_public": ("logit", expenses.TRANSPORT_COVARIATES),
                 "transport_private": ("logit", expenses.TRANSPORT_COVARIATES),
                 "childcare_has": ("logit", expenses.CHILDCARE_COVARIATES),
                 "childcare_spend": ("linear", expenses.CHILDCARE_COVARIATES)}


def load_data_tables(data_dir) -> DataTables:
    join = lambda name: os.path.join(data_dir, name)
    return DataTables(
        models=igm.load_coefficients(join("coefficients.csv"), ENGINE_MODELS),
        sector_groups=expenses.load_sector_groups(join("sector_groups.csv")),
        commute=expenses.load_commute_costs(join("commuting_costs.csv")),
        childcare_grid=expenses.load_childcare_grid(join("childcare_cost_grid.csv")),
        holdings=expenses.load_holdings_grid(
            join("shareholding_participation.csv"), join("shareholding_values.csv")
        ),
        national=load_national_reference(join("national_reference.csv")),
    )


# -- baseline nowcast ------------------------------------------------------------


CALIBRATED_COLUMNS = ("industry", "occupation", "work_status", "employment_income",
                      "self_employment_income")


def nowcast_baseline(persons: Table, weight, controls: ControlTotals, seed: int) -> dict:
    """The columns of `persons`, in ascending person id order, that
    calibrating to the baseline control totals changes, as new arrays by
    name; `weight` is each person's weight and `persons` is not modified.
    Employment rates change all of `CALIBRATED_COLUMNS`, a wage index other
    than 1 alone changes `employment_income`, and other controls change none.

    Employment is aligned per age band to the target rates with scores
    built from anchored uniforms, so targets equal to the observed rates
    leave the population untouched and shifted targets flip the loosest
    attachments first. Employee earnings are then uprated to the wage
    index.
    """
    changed = {}
    p = persons
    employee = p.work_status == WORK_STATUSES.index("employee")
    if controls.employment_rate_by_age:
        changed = {name: getattr(persons, name).copy() for name in CALIBRATED_COLUMNS}
        p = Table(**(vars(persons) | changed))
        bands = case_age_band(p.age)
        med = _weighted_median(p.employment_income[employee], weight[employee])
        worker = np.isin(p.work_status, WORKER_CODES)
        counts = np.bincount(p.industry[worker], minlength=len(SECTORS)).astype(np.float64)
        shares = np.cumsum(np.where(counts > 0, counts, 1e-9))
        for band, rate in sorted(controls.employment_rate_by_age.items()):
            idx = np.flatnonzero((bands == CASE_AGE_BANDS.index(band)) & (p.age >= 16))
            if not idx.size:
                continue
            w, observed, pids = weight[idx], worker[idx], p.person_id[idx]
            p0 = float(np.sum(w[observed]) / np.sum(w))
            p0 = min(max(p0, 1e-9), 1.0 - 1e-9)
            u = anchored_uniform(p0, observed, keyed_uniform(seed, "employment", pids))
            chosen = align_by_score(pids, -u, w, rate * float(np.sum(w)))
            selected = np.zeros(idx.size, dtype=bool)
            selected[np.searchsorted(pids, chosen)] = True  # pids ascend; np.isin loads numpy.ma
            hired, fired = idx[selected & ~observed], idx[~selected & observed]
            sector_u = keyed_uniform(seed, "employment:sector", p.person_id[hired])
            p.industry[hired] = np.searchsorted(shares, sector_u * shares[-1])
            drawn = 1 + (keyed_uniform(seed, "employment:occ", p.person_id[hired]) * 9).astype(int)
            p.occupation[hired] = np.where(p.occupation[hired], p.occupation[hired], drawn)
            p.work_status[hired] = WORK_STATUSES.index("employee")
            p.employment_income[hired] = med
            p.work_status[fired] = WORK_STATUSES.index("unemployed")
            p.employment_income[fired] = 0.0
            p.self_employment_income[fired] = 0.0
        employee = p.work_status == WORK_STATUSES.index("employee")
    if controls.wage_index != 1.0:
        if not np.any(employee):
            raise AlignmentError(f"wage_index at {controls.date}: the population has no employee")
        values, w = p.employment_income[employee], weight[employee]
        current = float(np.sum(values * w) / np.sum(w))
        income = changed.setdefault("employment_income", p.employment_income.copy())
        income[employee] = align_continuous(values, w, controls.wage_index * current)
    return changed


def _weighted_median(values, weights) -> float:
    if not len(values):
        return 0.0
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    return float(values[order][np.searchsorted(cum, 0.5 * cum[-1])])


# -- baseline state --------------------------------------------------------------


@dataclass(frozen=True)
class BaselineState:
    """Pre-shock arrays shared by every wave computation. Frozen, and every
    array it holds is read-only; on input in id order, those build_baseline
    takes as read (ids, age, weights, money, ...) are views of the input
    columns. Its own arrays hold 13 bytes per person and 48 per household,
    plus the alignment pools (about 8 bytes per person). It keeps only what
    a wave reads and cannot rebuild where it reads it: a person's weight is
    `hh_weight[hh_row]`, a TWSS candidate's take-home pay is taxed from the
    money columns by `wage_subsidy`, and the CEIB step selects each age
    band's workers from `is_worker` and `age`. No wave reads a person's
    sector or a household's tenure: build_baseline reads them into the
    pools, the commute modes and the housing cost, and keeps neither."""

    # person arrays (sorted by person id)
    pid: np.ndarray
    hh_row: np.ndarray           # index into the household arrays
    age: np.ndarray
    status: np.ndarray           # taxben.STATUS_CODES
    is_worker: np.ndarray
    essential: np.ndarray
    home_capable: np.ndarray
    employment_income: np.ndarray  # annual euros: build_baseline and each step take
                                   # the cents of the rows they read
    self_employment_income: np.ndarray
    capital_income: np.ndarray
    private_pension: np.ndarray
    commute_mode: np.ndarray     # int8, expenses.MODE_*
    cap_band: np.ndarray         # int8 index into expenses.AGE_BANDS
    cap_quintile: np.ndarray     # int8, 1..5
    cap_participant: np.ndarray
    # household arrays (sorted by household id)
    hid: np.ndarray
    hh_weight: np.ndarray
    housing_cents: np.ndarray    # H with nothing deferred
    equiv_scale: np.ndarray
    childcare_weekly_cents: np.ndarray
    market: np.ndarray           # the baseline's taxben.HouseholdAccounts
    taxes: np.ndarray
    benefits: np.ndarray
    # alignment pools, fixed for the run: `pup:<sector>`, `subsidy:<sector>` and
    # `deferral` -> the pool's rows in alignment order
    strata: dict
    sector_worker_weight: np.ndarray  # per SECTORS entry
    population_weight: float          # the persons' summed weight, in person order

    def __post_init__(self):
        for array in [*vars(self).values(), *self.strata.values()]:
            if isinstance(array, np.ndarray):
                array.flags.writeable = False


def _by_id(table: Table, ids) -> Table:
    """`table` in ascending `ids` order: views of its columns if it is in
    that order already, else sorted copies."""
    if np.all(ids[1:] > ids[:-1]):
        return Table(**{name: column.view() for name, column in vars(table).items()})
    order = np.argsort(ids, kind="stable")
    return Table(**{name: column[order] for name, column in vars(table).items()})


def build_baseline(pop: Population, controls: ControlTotals, tables: DataTables,
                   schedules: taxben.PolicySchedules, seed: int) -> BaselineState:
    """The pre-shock state of `pop` nowcast to `controls`. A table not in
    id order is sorted by id once, here, into copies; one in id order is
    read in place. Only the columns `nowcast_baseline` changes are new
    arrays. `pop` is not modified."""
    households = Table(**{name: column for name, column in vars(pop.households).items()
                          if name not in ("member_ids", "member_offsets")})  # not per row
    households = _by_id(households, households.household_id)
    persons = _by_id(pop.persons, pop.persons.person_id)
    hid, pid, age = households.household_id, persons.person_id, persons.age
    hh_row = np.searchsorted(hid, persons.household_id)
    hh_weight = households.weight
    person_weight = hh_weight[hh_row]
    persons = Table(**(vars(persons) | nowcast_baseline(persons, person_weight, controls, seed)))
    is_worker = np.isin(persons.work_status, WORKER_CODES)
    # every amount in cents once, for the accounts: a bad one fails before any wave runs
    emp = cents(persons.employment_income)
    se = cents(persons.self_employment_income)
    cap = cents(persons.capital_income)
    cap_pens = cap + cents(persons.private_pension)
    weekly_earn = round_div(emp + np.maximum(se, 0), 52)

    # baseline taxes/benefits -> household disposable, for deciles and childcare
    n_hh = hid.size
    accounts = taxben.household_accounts(
        persons.work_status, np.zeros(pid.size, dtype=np.int8), weekly_earn, emp, se, cap_pens,
        hh_row, n_hh, controls.date, schedules)
    disposable_hh = accounts.market + accounts.benefits - accounts.taxes

    children_u14 = households.n_children_under14
    members = np.bincount(hh_row, minlength=n_hh).astype(np.int64)
    adults_14plus = members - children_u14
    scale = metrics.equivalence_scale(adults_14plus, children_u14)
    equiv_disposable = disposable_hh / 100.0 / scale

    # household-level deciles/quintiles of equivalised disposable income,
    # person-weighted (household weight x size), so a household never
    # straddles a boundary; ties go by household id, the row order
    group_weight = hh_weight * members
    by_income = np.argsort(equiv_disposable, kind="stable")
    decile_hh = metrics.weighted_quantile_groups(by_income, group_weight, 10)
    quintile_hh = metrics.weighted_quantile_groups(by_income, group_weight, 5)
    quintile_p = quintile_hh.astype(np.int8)[hh_row]

    region_bmw = persons.region == REGIONS.index("border, midland and western")
    university = persons.education == EDUCATIONS.index("university")
    commute_mode = expenses.assign_commute_modes(
        tables.models, tables.sector_groups, is_worker, persons.industry, region_bmw,
        persons.occupation, age, university, pid, seed)

    n_workers_hh = np.bincount(hh_row[is_worker], minlength=n_hh)
    adults_18 = np.bincount(hh_row[age >= 18], minlength=n_hh)
    ftypes = expenses.family_type(adults_18, children_u14)
    lone_working = (adults_18 == 1) & (n_workers_hh >= 1)
    two_workers = (n_workers_hh == 2) | lone_working
    childcare_weekly = expenses.childcare_costs_cents(
        tables.models, tables.childcare_grid,
        household_ids=hid, weights=hh_weight, family_types=ftypes,
        deciles=decile_hh,
        n_children_0_4=households.n_children_0_4,
        n_children_under14=children_u14,
        equiv_disposable_week_eur=equiv_disposable * 12.0 / 52.0,
        two_workers_flag=two_workers,
        observed_user=households.childcare_user,
        observed_spend_eur=households.childcare_expenditure,
        seed=seed,
    )

    cap_band = expenses.age_band(age)
    cap_participant = expenses.capital_participants(
        tables.holdings, cap_band, quintile_p, cap > 0, pid, seed)

    def ranked(label, rows, ids):
        return rows[_rank(ids[rows], seed, label)]
    holders = np.flatnonzero(households.tenure == expenses.TENURE_CODES["mortgage"])
    strata = {"deferral": ranked("deferral", holders, hid)}
    employee = persons.work_status == taxben.STATUS_CODES["employee"]
    sector_workers = [np.flatnonzero(is_worker & (persons.industry == s))
                      for s in range(len(SECTORS))]
    for sector, rows in zip(SECTORS, sector_workers):
        pup = rows[(age[rows] >= 18) & (age[rows] <= 66)]
        strata[f"pup:{sector}"] = ranked(f"pup:{sector}", pup, pid)
        strata[f"subsidy:{sector}"] = ranked(f"subsidy:{sector}", rows[employee[rows]], pid)

    return BaselineState(
        pid=pid, hh_row=hh_row, age=age,
        status=persons.work_status, is_worker=is_worker,
        essential=persons.essential_worker, home_capable=persons.home_work_capable,
        employment_income=persons.employment_income,
        self_employment_income=persons.self_employment_income,
        capital_income=persons.capital_income, private_pension=persons.private_pension,
        commute_mode=commute_mode,
        cap_band=cap_band, cap_quintile=quintile_p, cap_participant=cap_participant,
        hid=hid, hh_weight=hh_weight,
        housing_cents=expenses.housing_cost_cents(
            households.tenure, cents(households.mortgage_payment), cents(households.rent)),
        equiv_scale=scale,
        childcare_weekly_cents=childcare_weekly,
        market=accounts.market, taxes=accounts.taxes, benefits=accounts.benefits,
        strata=strata,
        sector_worker_weight=np.array([np.sum(person_weight[rows]) for rows in sector_workers]),
        population_weight=float(np.sum(person_weight)),
    )


# -- wave application ------------------------------------------------------------


@dataclass
class WaveResult:
    """Per-wave incomes in integer cents per month, household level, plus
    each person's covid code. `apply_wave` computes in int64; `run_scenario`
    returns a date's cents arrays in int32 if every value of all of them
    fits, else all in int64. So each income identity (gross = market +
    benefits, disposable = gross - taxes, adjusted = disposable - H - Q - C)
    holds exactly in the arrays' own dtypes: every term, the left side too,
    fits int32, so int32 wrap-around on the right cancels modulo 2**32. Narrowing
    only the arrays that fit would break it: market + benefits could wrap
    in int32 where gross, past int32, stays int64."""

    label: str
    date: dt.date
    # household arrays aligned to BaselineState.hid
    market: np.ndarray
    gross: np.ndarray
    disposable: np.ndarray
    adjusted: np.ndarray
    taxes: np.ndarray
    benefits: np.ndarray
    housing: np.ndarray          # H
    capital_adjustment: np.ndarray  # Q (positive = loss)
    work_expenses: np.ndarray    # C
    covid_code: np.ndarray       # person array


CENTS_FIELDS = ("market", "gross", "disposable", "adjusted", "taxes", "benefits", "housing",
                "capital_adjustment", "work_expenses")


def _scaled_sector_targets(base: BaselineState, national_counts: dict,
                           tables: DataTables) -> dict:
    """Rescale national recipient stocks to the loaded population by the
    sector worker-weight share of national sector employment."""
    employment = tables.national["sector_employment"]
    return {sector: count * float(base.sector_worker_weight[SECTORS.index(sector)])
            / employment[sector] for sector, count in national_counts.items()}


def _rank(ids, seed: int, label: str) -> np.ndarray:
    """Alignment order of uniform-odds units (see calibration.align_binary,
    whose logit(0.5) is exactly 0)."""
    return score_order(ids, logistic_noise(seed, "align:" + label, ids))


def _align_rows(base: BaselineState, ranked, weight, target: float, context: str) -> np.ndarray:
    """Rows chosen from a pool for a rescaled (fractional) target: `ranked`
    is the pool in alignment order and `weight` their weights, summed in
    that order, which is fixed by ids, seed and label alone.

    A shortfall within one unit-weight (the largest weight in the pool, or
    for an empty pool the largest household weight, which is the largest
    person weight as every household has a member) is satisfiable by
    construction, so thin strata may legally absorb a sub-unit remainder by
    selecting nobody; anything beyond that is an infeasible control total
    and fails loudly. The slack is relative, so scaling every weight and the
    target by a power of two keeps the outcome."""
    if target <= 0:
        return np.empty(0, dtype=np.int64)
    available = float(np.sum(weight))
    w_max = float(np.max(weight if weight.size else base.hh_weight))
    if target > (available + w_max) * (1 + 1e-9):
        raise AlignmentError(
            f"{context}: target {target:.2f} exceeds the available weight "
            f"{available:.2f} by more than one unit-weight"
        )
    if available == 0.0:
        return np.empty(0, dtype=np.int64)
    if np.any(weight <= 0.0):
        raise AlignmentError("alignment weights must be positive")
    return take_by_score(ranked, weight, min(target, available), available)


# The switches each shared wave step reads, directly or through an earlier
# step's result: WavePoint fields, and the run's employer_topup and
# capital_booking. Keyed by name, as a traced run wraps each step.
STEP_SWITCHES = {
    "job_losses": (),
    "sickness_cases": ("ceib_on",),
    "wage_subsidy": ("ceib_on", "subsidy_scheme"),
    "housing_cost": ("deferrals_on",),
    "capital_adjustment": ("capital_on", "capital_booking"),
    "household_accounts": ("pup_on", "ceib_on", "subsidy_scheme", "employer_topup"),
    "work_expenses": ("ceib_on", "home_working_on", "childcare_support"),
}


def job_losses(base: BaselineState, controls: ControlTotals, tables: DataTables) -> np.ndarray:
    """(a) Pandemic job losses per sector; `pup` only decides how they are booked."""
    job_lost = np.zeros(base.pid.size, dtype=bool)
    targets = _scaled_sector_targets(base, controls.pup_by_sector, tables)
    for sector, target in sorted(targets.items()):
        ranked = base.strata[f"pup:{sector}"]
        job_lost[_align_rows(base, ranked, base.hh_weight[base.hh_row[ranked]], target,
                             f"job losses in {sector!r}")] = True
    return job_lost


def sickness_cases(base: BaselineState, controls: ControlTotals, wave: WavePoint,
                   tables: DataTables, seed: int, job_lost) -> np.ndarray:
    """(b) Sickness-benefit cases among the remaining workers, per age band."""
    ceib = np.zeros(base.pid.size, dtype=bool)
    if wave.ceib_on and controls.ceib_cases:
        pop_share = base.population_weight / tables.national["population_total"]
        workers = np.flatnonzero(base.is_worker & ~job_lost)
        bands = case_age_band(base.age[workers])
        for (band, in_work), count in sorted(controls.ceib_cases.items()):
            if not in_work:
                continue  # out-of-work cases carry no income change
            rows = workers[bands == CASE_AGE_BANDS.index(band)]
            ranked = rows[_rank(base.pid[rows], seed, f"ceib:{band}:{wave.date.isoformat()}")]
            ceib[_align_rows(base, ranked, base.hh_weight[base.hh_row[ranked]], count * pop_share,
                             f"sickness cases in age band {band}")] = True
    return ceib


def wage_subsidy(base: BaselineState, controls: ControlTotals, wave: WavePoint,
                 tables: DataTables, schedules: taxben.PolicySchedules, job_lost, ceib):
    """(c) Wage subsidy among remaining employees, per sector: who, and their scheme amounts."""
    subsidised = np.zeros(base.pid.size, dtype=bool)
    amount = np.zeros(base.pid.size, dtype=np.int64)
    if wave.subsidy_scheme != "none" and controls.subsidy_by_sector:
        targets = _scaled_sector_targets(base, controls.subsidy_by_sector, tables)
        rows = np.concatenate([base.strata[f"subsidy:{s}"] for s in sorted(targets)])
        rows = rows[~job_lost[rows] & ~ceib[rows]]
        # every remaining employee's scheme amount in one call, 0 for the rest
        if rows.size:
            emp = cents(base.employment_income[rows])
            if wave.subsidy_scheme == "twss":  # on the baseline's weekly take-home pay
                cap_pens = cents(base.capital_income[rows]) + cents(base.private_pension[rows])
                tax = taxben.person_tax_cents(emp, cents(base.self_employment_income[rows]),
                                              cap_pens, schedules.tax)
                take_home = round_div(np.maximum(emp - tax, 0), 52)
                amount[rows] = taxben.twss_subsidy_cents(schedules, take_home, wave.date)
            else:
                amount[rows] = taxben.ewss_subsidy_cents(schedules, round_div(emp, 52), wave.date)
        for sector, target in sorted(targets.items()):
            # pay bands outside the scheme ("no subsidy applies") are ineligible;
            # a subset of the ranked rows keeps their order
            ranked = base.strata[f"subsidy:{sector}"]
            ranked = ranked[amount[ranked] > 0]
            subsidised[_align_rows(base, ranked, base.hh_weight[base.hh_row[ranked]], target,
                                   f"wage subsidy in {sector!r}")] = True
    return subsidised, amount[subsidised]


def housing_cost(base: BaselineState, controls: ControlTotals, wave: WavePoint,
                 tables: DataTables) -> np.ndarray:
    """(e) Mortgage deferrals, and the housing cost H they leave (the baseline's if none)."""
    if not (wave.deferrals_on and controls.deferral_count > 0):
        return base.housing_cents
    ranked = base.strata["deferral"]
    weight = base.hh_weight[ranked]
    target = controls.deferral_count * float(np.sum(weight)) / tables.national["mortgage_count"]
    rows = _align_rows(base, ranked, weight, target, "mortgage deferrals")
    return expenses.deferred_housing_cents(base.housing_cents, rows)


def capital_adjustment(base: BaselineState, controls: ControlTotals, wave: WavePoint,
                       tables: DataTables, capital_booking: str) -> np.ndarray:
    """(f) Capital value changes, booked as the adjustment Q (a zero-stride 0 if none)."""
    if not (wave.capital_on and controls.index_change_factor != 0.0):
        return np.broadcast_to(np.int64(0), base.hid.shape)
    change = expenses.capital_value_change_cents(
        tables.holdings, base.cap_band, base.cap_quintile,
        base.cap_participant, controls.index_change_factor)
    change_hh = np.bincount(base.hh_row, weights=change, minlength=base.hid.size).astype(np.int64)
    return -change_hh if capital_booking == "once" else annual_to_monthly(-change_hh)


def household_accounts(base: BaselineState, wave: WavePoint, schedules: taxben.PolicySchedules,
                       employer_topup: float, job_lost, ceib, subsidised, amount, covid):
    """(g) Household market income, taxes, benefits, gross and disposable income.
    A person (a)-(c) did not move keeps the baseline's status, incomes and covid
    code 0, under which neither tax nor benefit depends on date or policy; so the
    baseline totals change, exactly, by the moved persons' accounts now minus before,
    and a wave that moves nobody holds the baseline's market, taxes and benefits
    themselves. Only the moved persons' money is converted to cents."""
    stopped = job_lost | ceib
    moved = np.flatnonzero(stopped | subsidised)
    if not moved.size:
        gross = base.market + base.benefits
        return base.market, base.taxes, base.benefits, gross, gross - base.taxes
    status, emp, se = (base.status[moved], cents(base.employment_income[moved]),
                       cents(base.self_employment_income[moved]))
    status_now = status.copy()
    if not wave.pup_on:
        status_now[job_lost[moved]] = taxben.STATUS_CODES["unemployed"]
    emp_now = np.where(stopped[moved], 0, emp)
    se_now = np.where(stopped[moved], 0, se)
    gross_weekly = round_div(emp[subsidised[moved]], 52)
    shortfall = np.maximum(gross_weekly - amount, 0)
    emp_now[subsidised[moved]] = (amount + apply_rate(employer_topup, shortfall)) * 52
    weekly_earn = round_div(emp + np.maximum(se, 0), 52)  # the pre-shock earnings
    cap_pens = cents(base.capital_income[moved]) + cents(base.private_pension[moved])

    def moved_accounts(status, covid_code, emp, se):
        return taxben.household_accounts(status, covid_code, weekly_earn, emp, se, cap_pens,
                                         base.hh_row[moved], base.hid.size, wave.date, schedules)
    now = moved_accounts(status_now, covid[moved], emp_now, se_now)
    was = moved_accounts(status, np.zeros(moved.size, dtype=np.int8), emp, se)
    market = base.market + now.market - was.market
    taxes = base.taxes + now.taxes - was.taxes
    benefits = base.benefits + now.benefits - was.benefits
    gross = market + benefits
    return market, taxes, benefits, gross, gross - taxes


def work_expenses(base: BaselineState, wave: WavePoint, tables: DataTables, job_lost, ceib,
                  employed_now, home_working) -> np.ndarray:
    """Work expenses C: commuting plus childcare."""
    n_hh = base.hid.size
    commuting = employed_now & ~home_working
    n_private, n_public = (np.bincount(base.hh_row[commuting & (base.commute_mode == mode)],
                                       minlength=n_hh)
                           for mode in (expenses.MODE_PRIVATE, expenses.MODE_PUBLIC))
    commuting_weekly = expenses.commuting_cost_cents(tables.commute, n_private, n_public)
    if wave.childcare_support:
        return weekly_to_monthly(commuting_weekly)
    home_hh = np.bincount(base.hh_row[job_lost | ceib | home_working], minlength=n_hh) > 0
    return weekly_to_monthly(commuting_weekly + np.where(home_hh, 0, base.childcare_weekly_cents))


def apply_wave(base: BaselineState, controls: ControlTotals, wave: WavePoint,
               tables: DataTables, schedules: taxben.PolicySchedules, seed: int,
               employer_topup: float = Scenario.employer_topup,
               capital_booking: str = Scenario.capital_booking,
               draws: dict | None = None) -> WaveResult:
    """The wave's household incomes. Every step but (d), the covid codes and
    `adjusted` goes through `once`, which keeps its result in `draws`
    under the date, the step's name and the values of its `STEP_SWITCHES`,
    with its arrays read-only; so the waves of one date that pass the same
    dict compute each such result once and hold the same arrays."""
    draws = {} if draws is None else draws
    switches = vars(wave) | {"subsidy_scheme": wave.subsidy_scheme,
                             "employer_topup": employer_topup, "capital_booking": capital_booking}

    def once(step, *args):
        key = (wave.date, step.__name__, tuple(switches[s] for s in STEP_SWITCHES[step.__name__]))
        if key not in draws:
            result = step(*args)
            for array in result if isinstance(result, tuple) else (result,):
                array.flags.writeable = False
            draws[key] = result
        return draws[key]

    job_lost = once(job_losses, base, controls, tables)
    ceib = once(sickness_cases, base, controls, wave, tables, seed, job_lost)
    subsidised, amount = once(wage_subsidy, base, controls, wave, tables, schedules, job_lost,
                              ceib)
    covid = np.zeros(base.pid.size, dtype=np.int8)  # taxben.COVID_CODES
    if wave.pup_on:
        covid[job_lost] = taxben.COVID_CODES["pup_recipient"]
    covid[ceib] = taxben.COVID_CODES["ceib_recipient"]
    covid[subsidised] = taxben.COVID_CODES["wage_subsidised"]

    # (d) home working for non-essential remaining workers
    employed_now = base.is_worker & ~job_lost & ~ceib
    home_working = employed_now & ~base.essential & base.home_capable & wave.home_working_on

    h_hh = once(housing_cost, base, controls, wave, tables)
    q_hh = once(capital_adjustment, base, controls, wave, tables, capital_booking)
    market_hh, taxes_hh, benefits_hh, gross_hh, disposable_hh = once(
        household_accounts, base, wave, schedules, employer_topup, job_lost, ceib, subsidised,
        amount, covid)
    c_hh = once(work_expenses, base, wave, tables, job_lost, ceib, employed_now, home_working)

    return WaveResult(
        label=wave.label, date=wave.date,
        market=market_hh, gross=gross_hh, disposable=disposable_hh,
        adjusted=disposable_hh - h_hh - q_hh - c_hh, taxes=taxes_hh, benefits=benefits_hh,
        housing=h_hh, capital_adjustment=q_hh, work_expenses=c_hh, covid_code=covid)


# -- summaries ------------------------------------------------------------------


def _narrowed(results: list, kept: tuple) -> list:
    """One date's `results` with every cents array as an int32 copy, one per
    distinct array, so waves still share what they shared; or, if a value
    of any of them is past int32, the results as they are (see WaveResult).
    The arrays in `kept`, which the baseline holds for the whole run, and
    zero-stride views stay as they are: a copy of either would add bytes."""
    arrays = {id(a): a for r in results for a in (getattr(r, name) for name in CENTS_FIELDS)}
    bounds = np.iinfo(np.int32)
    if any(a.min(initial=0) < bounds.min or a.max(initial=0) > bounds.max
           for a in arrays.values()):  # checked first: astype wraps without a word
        return results
    kept = {id(a) for a in kept}
    for key, array in arrays.items():
        if key not in kept and 0 not in array.strides:
            arrays[key] = array.astype(np.int32)
            arrays[key].flags.writeable = array.flags.writeable
    return [replace(r, **{name: arrays[id(getattr(r, name))] for name in CENTS_FIELDS})
            for r in results]


def run_scenario(pop: Population, scenario: Scenario, series: ControlSeries,
                 tables: DataTables, schedules: taxben.PolicySchedules, seed: int,
                 threads: int = 1):
    """Nowcast `pop` to `series` at the first wave's date and run every
    wave; returns (BaselineState, [WaveResult], [DistributionSummary]).

    The first wave (the earliest, in parse_scenario's order) anchors the
    decile ranking: its date runs first, and persons are ranked once, by its
    equivalised adjusted income, for every wave's decile table. Up to
    `threads` threads, the calling thread among them, take the other dates
    one at a time. Consecutive waves of one date share every result their
    switches agree on, and the thread that runs a date summarizes it, each
    distinct array once; results and summaries keep the scenario's order.
    A date's cents arrays come back in int32 if all of them fit, else in
    int64, so each income identity stays exact (see WaveResult); the
    baseline's own arrays and zero-stride views as those same objects.
    """
    base = build_baseline(pop, series.at(scenario.waves[0].date), tables, schedules, seed)

    def equivalised(cents_hh):
        return cents_hh / 100.0 / base.equiv_scale

    def run_date(waves: list) -> list:
        controls, draws = series.at(waves[0].date), {}
        results = [apply_wave(base, controls, wave, tables, schedules, seed,
                              employer_topup=scenario.employer_topup,
                              capital_booking=scenario.capital_booking, draws=draws)
                   for wave in waves]
        return _narrowed(results, (base.market, base.taxes, base.benefits, base.housing_cents))

    def summarized(results: list) -> tuple:
        stats = {}  # id of a cents array -> (mean, Gini, decile means); `results` holds each
        for array in (getattr(r, name) for r in results for name in metrics.INCOME_DEFINITIONS):
            if id(array) not in stats:
                stats[id(array)] = metrics.summarize(equivalised(array), hw, groups)
        return results, [metrics.DistributionSummary(r.label, *(
            {name: stats[id(getattr(r, name))][k] for name in metrics.INCOME_DEFINITIONS}
            for k in range(3))) for r in results]

    dates = [list(waves) for _, waves in itertools.groupby(scenario.waves, lambda w: w.date)]
    first = run_date(dates.pop(0))
    w = base.hh_weight[base.hh_row]  # each person's weight, not kept past the ranking
    hw = np.bincount(base.hh_row, weights=w, minlength=base.hid.size)
    groups = metrics.decile_groups(base.hh_row, w, metrics.weighted_quantile_groups(
        np.argsort(equivalised(first[0].adjusted)[base.hh_row], kind="stable"), w, 10))
    del w
    done = [summarized(first)]
    done.extend(_in_threads(lambda waves: summarized(run_date(waves)), dates, threads))
    return (base, [r for results, _ in done for r in results],
            [s for _, summaries in done for s in summaries])


def _in_threads(fn, items: list, threads: int) -> list:
    """`fn` of each item. The calling thread, taking the first, and up to
    threads - 1 threads started once each take the next item not yet taken,
    none after an item raised or an exception left the caller (a Ctrl-C
    while it joins). Every thread has ended on return or raise, unless a
    signal breaks the join; the first exception in item order is raised."""
    outcomes = [None] * len(items)
    cursor = iter(range(len(items)))  # its next() is one C call, atomic under the GIL

    def run(taken):
        for k in taken:
            try:
                outcomes[k] = fn(items[k])
            except BaseException as exc:  # raised in the caller, as Future.result() would
                outcomes[k] = exc
                list(cursor)  # drained: no thread takes another item
    first = list(itertools.islice(cursor, 1))  # taken before any other thread starts
    started = [threading.Thread(target=run, args=(cursor,))
               for _ in range(min(threads, len(items)) - 1)]
    try:
        for thread in started:
            thread.start()
        run(itertools.chain(first, cursor))
    finally:
        list(cursor)  # also when an exception leaves the calling thread outside fn
        for thread in started:
            thread.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes
