"""Taxes, baseline benefits, and the dated pandemic income-support
instruments (PUP, CEIB, TWSS, EWSS).

All money arithmetic is in integer cents so schedule lookups are bit-exact.
Schedules are data, loaded from a policy directory: one CSV per scheme
with one row per (scheme, effective_from, band_lower, value), read by
`files.csv_rows`, and the `key = value` file `tax_system.cfg`, read by
`files.key_values`; every number must be finite. Bands are inclusive of
their lower bound and regimes partition the scheme life from their first
date.

Interpretation notes (the published wording leaves gaps; every choice
below ships as overridable data, see the README):

* The June 29 2020 pay-related structure is encoded as <200 -> 203,
  200-300 -> 250, >=300 -> 300.
* The October 16 2020 structure leaves 300-400 unstated; it is encoded as
  300, consistent with the adjacent regimes.
* The February 2021 reversion pays 250 from exactly 300 up (band lower
  bounds are inclusive everywhere).
* The TWSS tier above 586 is encoded as flat 350 up to 960 and a linear
  taper to 0 at 1,462.
* TWSS/EWSS amounts are part of taxable pay; PUP/CEIB are untaxed
  within-year.

The module prices person states and reads no wave switch: `scenario`'s
waves decide who is coded a PUP or CEIB recipient.
"""
from __future__ import annotations

import bisect
import datetime as dt
import os
from dataclasses import dataclass

import numpy as np

from .files import csv_rows, finite, key_values, money_cents
from .money import annual_to_monthly, apply_rate, round_div, weekly_to_monthly
from .population import COVID_STATES, WORK_STATUSES

TWSS_START = dt.date(2020, 3, 13)
# Handover from the temporary to the employment wage subsidy scheme.
EWSS_HANDOVER = dt.date(2020, 9, 1)
# tax_system.cfg keys besides `band`
TAX_KEYS = ("credit", "si_rate", "si_floor", "unemployment_rate_weekly", "pension_rate_weekly")


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class Band:
    lower_cents: int
    kind: str            # flat | rate | taper
    value_cents: int = 0  # flat amount, or taper start amount
    rate: float = 0.0
    cap_cents: int = 0    # 0 = uncapped
    taper_end_cents: int = 0


@dataclass(frozen=True)
class Regime:
    effective_from: dt.date
    bands: tuple

    def evaluate(self, amounts: np.ndarray) -> np.ndarray:
        """Payment per amount in cents (int64 array in and out): the rule of
        the last band starting at or below max(amount, 0), or of the first."""
        amounts = np.asarray(amounts, dtype=np.int64)
        lowers = [b.lower_cents for b in self.bands]
        which = np.maximum(np.searchsorted(lowers, np.maximum(amounts, 0), side="right") - 1, 0)
        out = np.zeros(amounts.shape, dtype=np.int64)
        for k, band in enumerate(self.bands):
            rows = which == k
            if not rows.any():
                continue
            x = amounts[rows]
            if band.kind == "flat":
                out[rows] = band.value_cents
            elif band.kind == "rate":
                pay = apply_rate(band.rate, x)
                out[rows] = np.minimum(pay, band.cap_cents) if band.cap_cents else pay
            else:  # taper, the only other kind _parse_band_value builds
                remaining = np.maximum(band.taper_end_cents - x, 0)
                out[rows] = round_div(band.value_cents * remaining,
                                      band.taper_end_cents - band.lower_cents)
        return out


@dataclass(frozen=True)
class Schedule:
    """Date-ordered regimes of banded payment rules for one scheme."""

    scheme: str
    regimes: tuple

    def regime_at(self, date: dt.date) -> Regime:
        dates = [r.effective_from for r in self.regimes]
        i = bisect.bisect_right(dates, date) - 1
        if i < 0:
            raise PolicyError(
                f"{self.scheme}: no regime in force on {date} "
                f"(scheme starts {dates[0]})"
            )
        return self.regimes[i]


def _parse_band_value(text: str, lower_cents: int, where: str) -> Band:
    text = text.strip()
    try:
        if text.startswith("taper:"):
            _, start, end = text.split(":")
            return Band(lower_cents, "taper", value_cents=money_cents(start),
                        taper_end_cents=money_cents(end))
        if "%" in text:
            rate_part, _, cap_part = text.partition("%")
            rate = finite(rate_part) / 100.0
            cap = 0
            if cap_part:
                if not cap_part.startswith("max"):
                    raise ValueError(cap_part)
                cap = money_cents(cap_part[3:])
            return Band(lower_cents, "rate", rate=rate, cap_cents=cap)
        return Band(lower_cents, "flat", value_cents=money_cents(text))
    except ValueError as exc:
        raise PolicyError(f"{where}: bad band value {text!r}") from exc


def load_schedule(path, scheme: str) -> Schedule:
    """Load one scheme's banded regimes from a 4-column schedule file."""
    by_date = {}
    name = os.path.basename(path)
    for where, rec in csv_rows(path, {"scheme": str, "effective_from": dt.date.fromisoformat,
                                      "band_lower": money_cents, "value": str}, PolicyError,
                               ("effective_from", "band_lower")):
        if rec["scheme"] != scheme:
            raise PolicyError(f"{where}: expected scheme {scheme!r}")
        lower = rec["band_lower"]
        if lower < 0:  # amounts are banded at max(amount, 0)
            raise PolicyError(f"{where}: negative band_lower")
        band = _parse_band_value(rec["value"], lower, where)
        by_date.setdefault(rec["effective_from"], []).append(band)

    regimes = []
    for eff in sorted(by_date):
        bands = sorted(by_date[eff], key=lambda b: b.lower_cents)
        regimes.append(Regime(effective_from=eff, bands=tuple(bands)))
    if not regimes:
        raise PolicyError(f"{name}: no schedule rows")
    return Schedule(scheme=scheme, regimes=tuple(regimes))


@dataclass(frozen=True)
class TaxSystem:
    """Simplified parametric baseline system: progressive bands, a credit,
    flat social insurance above a floor, and weekly benefit rates."""

    band_thresholds_cents: tuple   # ascending, the first 0 (annual)
    band_rates: tuple              # one per threshold, each in [0, 1]
    credit_cents: int              # annual, non-refundable
    si_rate: float
    si_floor_cents: int            # annual
    unemployment_weekly_cents: int
    pension_weekly_cents: int


def load_tax_system(path) -> TaxSystem:
    """Read `tax_system.cfg`. Each `band = <threshold EUR>:<rate>` line must
    have a threshold >= 0 that no other band has and a rate in [0, 1], and
    one band must start at 0."""
    bands = {}  # threshold cents -> rate
    values = {}

    def number(key, text, where, parse=finite):
        try:
            return parse(text)
        except ValueError:
            kind = "a number" if parse is finite else "an amount in euros under 2**53 cents"
            raise PolicyError(f"{where}: {key} is not {kind}: {text!r}") from None

    for where, section, key, value in key_values(path, PolicyError):
        if key is None:
            raise PolicyError(f"{where}: [{section}]: this file has no sections")
        if key == "band":
            threshold, _, rate = value.partition(":")
            threshold = number("band threshold", threshold, where, money_cents)
            rate = number("band rate", rate, where)
            if threshold < 0:
                raise PolicyError(f"{where}: band threshold must be >= 0, got {value}")
            if not 0.0 <= rate <= 1.0:
                raise PolicyError(f"{where}: band rate must lie in [0, 1], got {value}")
            if threshold in bands:
                raise PolicyError(f"{where}: second band at threshold {threshold / 100:.2f}")
            bands[threshold] = rate
        elif key in values:
            raise PolicyError(f"{where}: {key} is given twice")
        elif key in TAX_KEYS:
            values[key] = number(key, value, where, finite if key == "si_rate" else money_cents)
        else:
            raise PolicyError(f"{where}: unknown key {key!r}")
    if 0 not in bands:
        raise PolicyError(f"{os.path.basename(path)}: no band starts at threshold 0")
    try:
        return TaxSystem(
            band_thresholds_cents=tuple(sorted(bands)),
            band_rates=tuple(bands[t] for t in sorted(bands)),
            credit_cents=values["credit"],
            si_rate=values["si_rate"],
            si_floor_cents=values["si_floor"],
            unemployment_weekly_cents=values["unemployment_rate_weekly"],
            pension_weekly_cents=values["pension_rate_weekly"],
        )
    except KeyError as exc:
        raise PolicyError(f"{os.path.basename(path)}: missing key {exc.args[0]!r}") from exc


@dataclass(frozen=True)
class PolicySchedules:
    pup: Schedule
    twss: Schedule
    ewss: Schedule
    tax: TaxSystem


def load_policy(policy_dir) -> PolicySchedules:
    return PolicySchedules(
        pup=load_schedule(os.path.join(policy_dir, "pup.csv"), "pup"),
        twss=load_schedule(os.path.join(policy_dir, "twss.csv"), "twss"),
        ewss=load_schedule(os.path.join(policy_dir, "ewss.csv"), "ewss"),
        tax=load_tax_system(os.path.join(policy_dir, "tax_system.cfg")),
    )


def pup_rate_cents(schedules: PolicySchedules, prev_weekly_cents, date: dt.date):
    """Weekly pandemic unemployment payment for previous earnings at date."""
    if np.any(prev_weekly_cents < 0):
        raise PolicyError("previous earnings must be >= 0")
    return schedules.pup.regime_at(date).evaluate(prev_weekly_cents)


def ceib_rate_cents(schedules: PolicySchedules, date: dt.date) -> int:
    """Enhanced illness benefit: the top PUP band payment in force at date.

    The earnings-banded rate is used instead when previous earnings are
    known (see household benefit computation below)."""
    regime = schedules.pup.regime_at(date)
    return int(regime.evaluate([b.lower_cents for b in regime.bands]).max())


def twss_subsidy_cents(schedules: PolicySchedules, avg_take_home_weekly_cents,
                       date: dt.date):
    """Temporary wage subsidy on average weekly take-home pay."""
    if not TWSS_START <= date < EWSS_HANDOVER:
        raise PolicyError(f"twss not in force on {date} (life {TWSS_START} to {EWSS_HANDOVER})")
    return schedules.twss.regime_at(date).evaluate(avg_take_home_weekly_cents)


def ewss_subsidy_cents(schedules: PolicySchedules, gross_weekly_cents, date: dt.date):
    """Employment wage subsidy: exact band lookup on gross weekly pay."""
    first = schedules.ewss.regimes[0].effective_from
    if date < first:
        raise PolicyError(f"ewss rates start {first}, got {date}")
    return schedules.ewss.regime_at(date).evaluate(gross_weekly_cents)


def income_tax_cents(taxable_annual_cents, system: TaxSystem):
    """Band tax net of credits (floored at 0) plus social insurance on
    income above the floor."""
    taxable = np.asarray(taxable_annual_cents, dtype=np.int64)
    thresholds = list(system.band_thresholds_cents) + [None]
    band_tax = np.zeros(taxable.shape, dtype=np.float64)
    for i, rate in enumerate(system.band_rates):
        lo = thresholds[i]
        hi = thresholds[i + 1]
        span = np.clip(taxable - lo, 0, None) if hi is None else \
            np.clip(np.minimum(taxable, hi) - lo, 0, None)
        band_tax += rate * span
    gross_tax = np.maximum(np.rint(band_tax).astype(np.int64) - system.credit_cents, 0)
    si = np.rint(system.si_rate * np.clip(taxable - system.si_floor_cents, 0, None))
    return gross_tax + si.astype(np.int64)


# work_status / covid_state integer codes used on the vectorised path
STATUS_CODES = {status: code for code, status in enumerate(WORK_STATUSES)}
COVID_CODES = {state: code for code, state in enumerate(COVID_STATES)}


def benefit_weekly_cents(status_code, covid_code, prev_weekly_cents,
                         date: dt.date, schedules: PolicySchedules) -> np.ndarray:
    """Per-person weekly benefit (vectorised): the earnings-banded pandemic
    rate for PUP and CEIB recipients, with no instrument-off fallback, as the
    wave decides who is coded one; the baseline unemployment rate for the
    unemployed, and the baseline pension for the retired."""
    out = np.zeros(status_code.shape, dtype=np.int64)
    out[status_code == STATUS_CODES["unemployed"]] = schedules.tax.unemployment_weekly_cents
    out[status_code == STATUS_CODES["retired"]] = schedules.tax.pension_weekly_cents
    banded = (covid_code == COVID_CODES["pup_recipient"]) | \
        (covid_code == COVID_CODES["ceib_recipient"])
    if np.any(banded):
        out[banded] = pup_rate_cents(schedules, prev_weekly_cents[banded], date)
    return out


@dataclass(frozen=True)
class HouseholdAccounts:
    """Monthly household market income, taxes T and benefits B in cents
    (aligned to the household rows)."""

    market: np.ndarray
    taxes: np.ndarray
    benefits: np.ndarray


def household_accounts(status_code, covid_code, prev_weekly_cents, emp, se, cap_pens,
                       hh_row, n_households: int, date: dt.date,
                       schedules: PolicySchedules) -> HouseholdAccounts:
    """Household market income, taxes and benefits from person arrays.

    `emp`, `se` and `cap_pens` are each person's annual employment,
    self-employment, and capital plus private pension income in cents;
    negative self-employment income counts in market income but not in
    taxable income. `prev_weekly_cents` are the pre-shock weekly earnings that
    band the pandemic rates, and `hh_row` maps each person to its household
    row. Each person's monthly amount is rounded before the household sum.
    """
    weekly_b = benefit_weekly_cents(status_code, covid_code, prev_weekly_cents, date, schedules)
    person_tax = income_tax_cents(emp + np.maximum(se, 0) + cap_pens, schedules.tax)

    def per_household(monthly):
        return np.bincount(hh_row, weights=monthly,
                           minlength=n_households).astype(np.int64)

    return HouseholdAccounts(
        market=per_household(annual_to_monthly(emp + se + cap_pens)),
        taxes=per_household(annual_to_monthly(person_tax)),
        benefits=per_household(weekly_to_monthly(weekly_b)),
    )
