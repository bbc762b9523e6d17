import bisect
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nowcastsim.money import annual_to_monthly, apply_rate, cents, round_div, weekly_to_monthly
from nowcastsim.taxben import (COVID_CODES, EWSS_HANDOVER, STATUS_CODES, Band, PolicyError,
                               Regime, TaxSystem, benefit_weekly_cents, ceib_rate_cents,
                               ewss_subsidy_cents, household_accounts, income_tax_cents,
                               load_schedule, pup_rate_cents, twss_subsidy_cents)

D = dt.date


class TestPupSchedule:
    def test_flat_opening_rate(self, schedules):
        for earnings in (0, 10000, 100000):
            assert pup_rate_cents(schedules, earnings, D(2020, 3, 15)) == 20300

    def test_flat_spring_rate(self, schedules):
        assert pup_rate_cents(schedules, 15000, D(2020, 5, 5)) == 35000
        assert pup_rate_cents(schedules, 90000, D(2020, 3, 24)) == 35000

    def test_autumn_banded_rates(self, schedules):
        date = D(2020, 11, 15)
        assert pup_rate_cents(schedules, 45000, date) == 35000
        assert pup_rate_cents(schedules, 35000, date) == 30000
        assert pup_rate_cents(schedules, 25000, date) == 25000
        assert pup_rate_cents(schedules, 15000, date) == 20300

    def test_winter_reversion(self, schedules):
        assert pup_rate_cents(schedules, 15000, D(2021, 2, 15)) == 20300
        assert pup_rate_cents(schedules, 40000, D(2021, 2, 15)) == 25000

    def test_date_before_scheme_rejected(self, schedules):
        with pytest.raises(PolicyError):
            pup_rate_cents(schedules, 10000, D(2020, 3, 1))

    def test_step_function_nondecreasing_in_earnings(self, schedules):
        for date in (D(2020, 6, 29), D(2020, 9, 17), D(2020, 10, 16), D(2021, 2, 1)):
            rates = [pup_rate_cents(schedules, c, date) for c in range(0, 60000, 500)]
            assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_exactly_one_regime_per_date(self, schedules):
        # regime intervals partition the scheme life from its first date
        dates = [r.effective_from for r in schedules.pup.regimes]
        assert dates == sorted(set(dates))
        day = D(2020, 3, 13)
        while day <= D(2021, 3, 1):
            in_force = [r for r in schedules.pup.regimes if r.effective_from <= day]
            assert len(in_force) >= 1
            assert schedules.pup.regime_at(day) is in_force[-1]
            day += dt.timedelta(days=17)


class TestCeib:
    def test_flat_regimes(self, schedules):
        assert ceib_rate_cents(schedules, D(2020, 5, 5)) == 35000
        assert ceib_rate_cents(schedules, D(2020, 3, 15)) == 20300

    def test_banded_regime_pays_top_band(self, schedules):
        assert ceib_rate_cents(schedules, D(2020, 11, 15)) == 35000


class TestTwss:
    def test_flat_opening_period(self, schedules):
        assert twss_subsidy_cents(schedules, 50000, D(2020, 3, 20)) == 20300

    def test_seventy_percent_with_cap(self, schedules):
        date = D(2020, 4, 1)
        assert twss_subsidy_cents(schedules, 50000, date) == 35000
        assert twss_subsidy_cents(schedules, 58599, date) == 41000  # 410 cap bites
        assert twss_subsidy_cents(schedules, 60000, date) == 35000  # 586-960: 350 cap
        assert twss_subsidy_cents(schedules, 70000, date) == 35000

    def test_high_pay_excluded_in_spring(self, schedules):
        assert twss_subsidy_cents(schedules, 100000, D(2020, 4, 1)) == 0

    def test_eighty_five_percent_below_412(self, schedules):
        assert twss_subsidy_cents(schedules, 40000, D(2020, 5, 1)) == 34000
        assert twss_subsidy_cents(schedules, 20000, D(2020, 5, 1)) == 17000

    def test_mid_bands_after_april(self, schedules):
        date = D(2020, 5, 1)
        assert twss_subsidy_cents(schedules, 45000, date) == 35000   # flat 412-500
        assert twss_subsidy_cents(schedules, 52000, date) == 36400   # 70% unchanged
        assert twss_subsidy_cents(schedules, 70000, date) == 35000   # flat 586-960

    def test_taper_above_960(self, schedules):
        date = D(2020, 5, 1)
        assert twss_subsidy_cents(schedules, 96000, date) == 35000
        assert twss_subsidy_cents(schedules, 146200, date) == 0
        mid = twss_subsidy_cents(schedules, 121100, date)
        assert 0 < mid < 35000

    def test_life_bounds(self, schedules):
        with pytest.raises(PolicyError):
            twss_subsidy_cents(schedules, 30000, D(2020, 3, 1))
        with pytest.raises(PolicyError):
            twss_subsidy_cents(schedules, 30000, D(2020, 10, 1))


class TestEwss:
    def test_first_table(self, schedules):
        date = D(2020, 8, 1)
        assert ewss_subsidy_cents(schedules, 10000, date) == 0
        assert ewss_subsidy_cents(schedules, 18000, date) == 15150
        assert ewss_subsidy_cents(schedules, 20300, date) == 20300
        assert ewss_subsidy_cents(schedules, 146200, date) == 20300
        assert ewss_subsidy_cents(schedules, 200000, date) == 0

    def test_second_table(self, schedules):
        date = D(2020, 11, 1)
        assert ewss_subsidy_cents(schedules, 10000, date) == 0
        assert ewss_subsidy_cents(schedules, 18000, date) == 20300
        assert ewss_subsidy_cents(schedules, 25000, date) == 25000
        assert ewss_subsidy_cents(schedules, 35000, date) == 30000
        assert ewss_subsidy_cents(schedules, 100000, date) == 35000
        assert ewss_subsidy_cents(schedules, 200000, date) == 0

    def test_start_date_enforced(self, schedules):
        with pytest.raises(PolicyError):
            ewss_subsidy_cents(schedules, 20000, D(2020, 6, 1))


class TestIncomeTax:
    def test_zero_taxable_zero_tax(self, schedules):
        assert income_tax_cents(0, schedules.tax) == 0

    def test_single_band_arithmetic(self):
        system = TaxSystem(
            band_thresholds_cents=(0,), band_rates=(0.20,), credit_cents=0,
            si_rate=0.0, si_floor_cents=0, unemployment_weekly_cents=0,
            pension_weekly_cents=0,
        )
        assert income_tax_cents(10000, system) == 2000

    def test_monotone_and_lipschitz_over_random_systems(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            thresholds = (0, int(rng.integers(1, 50)) * 100000)
            rates = tuple(sorted(rng.uniform(0.05, 0.45, 2)))
            system = TaxSystem(
                band_thresholds_cents=thresholds, band_rates=rates,
                credit_cents=int(rng.integers(0, 400000)),
                si_rate=float(rng.uniform(0.0, 0.08)),
                si_floor_cents=int(rng.integers(0, 2000000)),
                unemployment_weekly_cents=0, pension_weekly_cents=0,
            )
            taxable = np.sort(rng.integers(0, 10_000_000, 80))
            taxes = income_tax_cents(taxable, system)
            assert np.all(np.diff(taxes) >= 0)
            top_rate = max(rates) + system.si_rate
            steps = np.diff(taxable)
            # band tax and social insurance each round to the cent
            ok = np.diff(taxes) <= top_rate * steps + 2.0
            assert np.all(ok)

    def test_credit_floors_at_zero(self):
        system = TaxSystem(
            band_thresholds_cents=(0,), band_rates=(0.2,), credit_cents=500000,
            si_rate=0.0, si_floor_cents=0, unemployment_weekly_cents=0,
            pension_weekly_cents=0,
        )
        assert income_tax_cents(100000, system) == 0


def one_person_tb(schedules, date, covid_state, employment_income=0.0,
                  work_status="employee", prev_weekly_cents=None):
    """(T, B) of a one-person household through the household accounts;
    previous weekly earnings default to the current ones."""
    emp = cents(employment_income)
    prev = round_div(emp, 52) if prev_weekly_cents is None else prev_weekly_cents
    zero = np.zeros(1, dtype=np.int64)
    accounts = household_accounts(
        np.array([STATUS_CODES[work_status]]), np.array([COVID_CODES[covid_state]]),
        np.array([prev]), np.array([emp]), zero, zero, zero, 1,
        date, schedules)
    return int(accounts.taxes[0]), int(accounts.benefits[0])


class TestHouseholdTB:
    def test_pup_recipient_monthly_benefit(self, schedules):
        t, b = one_person_tb(schedules, D(2020, 5, 5), "pup_recipient",
                             prev_weekly_cents=50000)
        assert b == weekly_to_monthly(35000)
        assert t == 0

    def test_no_income_no_recipients_no_tax(self, schedules):
        t, b = one_person_tb(schedules, D(2020, 5, 5), "none", work_status="inactive")
        assert t == 0 and b == 0

    def test_unemployed_gets_baseline_rate(self, schedules):
        _, b = one_person_tb(schedules, D(2020, 5, 5), "none", work_status="unemployed")
        assert b == weekly_to_monthly(schedules.tax.unemployment_weekly_cents)


N_HOUSEHOLDS = 4
PERSON = st.tuples(
    st.sampled_from(sorted(STATUS_CODES.values())),
    st.sampled_from(sorted(COVID_CODES.values())),
    st.integers(0, 150_000),              # previous weekly earnings
    st.integers(0, 12_000_000),           # annual employment income
    st.integers(-3_000_000, 3_000_000),   # annual self-employment income
    st.integers(0, 2_000_000),            # annual capital income
    st.integers(0, 4_000_000),            # annual private pension
    st.integers(0, N_HOUSEHOLDS - 1),     # household row
)


@settings(max_examples=120, deadline=None)
@given(persons=st.lists(PERSON, min_size=1, max_size=12),
       date=st.dates(min_value=D(2020, 3, 13), max_value=D(2021, 6, 30)))
def test_household_accounts_match_scalar_oracle(schedules, persons, date):
    """Vector accounts equal a per-person sum of scalar rules."""
    tax = schedules.tax
    pup, ceib = COVID_CODES["pup_recipient"], COVID_CODES["ceib_recipient"]
    columns = [np.array(c, dtype=np.int64) for c in zip(*persons)]
    market, taxes, benefits = ([0] * N_HOUSEHOLDS for _ in range(3))
    person_tax = []
    for status, covid, prev, emp, se, cap, pens, row in persons:
        if covid in (pup, ceib):
            weekly = pup_rate_cents(schedules, prev, date)
        elif status == STATUS_CODES["unemployed"]:
            weekly = tax.unemployment_weekly_cents
        elif status == STATUS_CODES["retired"]:
            weekly = tax.pension_weekly_cents
        else:
            weekly = 0
        annual_tax = income_tax_cents(emp + max(se, 0) + cap + pens, tax)
        person_tax.append(annual_tax)
        market[row] += round_div(emp + se + cap + pens, 12)
        taxes[row] += round_div(annual_tax, 12)
        benefits[row] += round_div(weekly * 52, 12)
    status, covid, prev, emp, se, cap, pens, row = columns
    accounts = household_accounts(status, covid, prev, emp, se, cap + pens, row, N_HOUSEHOLDS,
                                  date, schedules)
    assert accounts.market.tolist() == market
    assert accounts.taxes.tolist() == taxes
    assert accounts.benefits.tolist() == benefits
    assert accounts.person_tax.tolist() == person_tax


def two_argument_accounts(status, covid, prev, emp, se, cap, pens, hh_row, n_households, date,
                          schedules):
    """(market, taxes, benefits, person_tax) as household_accounts computed
    them when capital and pension income were two arguments."""
    weekly_b = benefit_weekly_cents(status, covid, prev, date, schedules)
    person_tax = income_tax_cents(emp + np.maximum(se, 0) + cap + pens, schedules.tax)

    def per_household(monthly):
        return np.bincount(hh_row, weights=monthly, minlength=n_households).astype(np.int64)
    return (per_household(annual_to_monthly(emp + se + cap + pens)),
            per_household(annual_to_monthly(person_tax)),
            per_household(weekly_to_monthly(weekly_b)), person_tax)


def int64s(n, low, high):
    return arrays(np.int64, n, elements=st.integers(low, high))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(1, 40),
       date=st.dates(min_value=D(2020, 3, 13), max_value=D(2021, 6, 30)))
def test_one_capital_and_pension_argument_equals_two(schedules, data, n, date):
    """Summing capital and pension income before the call changes no
    account: int64 sums of these amounts are exact in any order."""
    status = data.draw(int64s(n, 0, len(STATUS_CODES) - 1))
    covid = data.draw(int64s(n, 0, len(COVID_CODES) - 1))
    prev = data.draw(int64s(n, 0, 2 ** 40))
    emp, se, cap, pens = (data.draw(int64s(n, low, 2 ** 48))
                          for low in (0, -2 ** 48, -2 ** 48, 0))
    hh_row = data.draw(int64s(n, 0, N_HOUSEHOLDS - 1))
    one = household_accounts(status, covid, prev, emp, se, cap + pens, hh_row, N_HOUSEHOLDS,
                             date, schedules)
    two = two_argument_accounts(status, covid, prev, emp, se, cap, pens, hh_row, N_HOUSEHOLDS,
                                date, schedules)
    for got, expected in zip((one.market, one.taxes, one.benefits, one.person_tax), two):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


# -- Regime.evaluate against the scalar band rules it replaced -----------------


def oracle_band_for(regime, amount_cents):
    lowers = [b.lower_cents for b in regime.bands]
    i = bisect.bisect_right(lowers, max(amount_cents, 0)) - 1
    return regime.bands[max(i, 0)]


def oracle_eval_band(band, amount_cents):
    if band.kind == "flat":
        return band.value_cents
    if band.kind == "rate":
        pay = apply_rate(band.rate, amount_cents)
        if band.cap_cents:
            pay = min(pay, band.cap_cents)
        return pay
    span = band.taper_end_cents - band.lower_cents
    remaining = max(band.taper_end_cents - amount_cents, 0)
    return round_div(band.value_cents * remaining, span)


def oracle(regime, amounts):
    return [oracle_eval_band(oracle_band_for(regime, a), a) for a in amounts]


def edge_amounts(regime):
    """0, every band floor and its neighbours, and the range ends."""
    out = {0, -1, -(10**9), 10**9}
    for band in regime.bands:
        out |= {band.lower_cents - 1, band.lower_cents, band.lower_cents + 1}
        if band.kind == "taper":
            out |= {band.taper_end_cents - 1, band.taper_end_cents,
                    band.taper_end_cents + 1}
    return sorted(out)


AMOUNTS = st.lists(st.integers(-(10**9), 10**9), max_size=40)


@settings(max_examples=60, deadline=None)
@given(amounts=AMOUNTS)
def test_evaluate_matches_oracle_on_shipped_regimes(schedules, amounts):
    for schedule in (schedules.pup, schedules.twss, schedules.ewss):
        for regime in schedule.regimes:
            values = edge_amounts(regime) + amounts
            got = regime.evaluate(np.array(values, dtype=np.int64))
            assert got.dtype == np.int64
            assert got.tolist() == oracle(regime, values)


@settings(max_examples=80, deadline=None)
@given(amounts=st.lists(st.integers(0, 10**9), max_size=30),
       date=st.dates(min_value=D(2020, 3, 13), max_value=D(2021, 6, 30)))
def test_schedule_functions_match_oracle_at_any_date(schedules, amounts, date):
    """The public functions, on scalar and array amounts, over dates drawn
    across every regime of each scheme."""
    cases = [(pup_rate_cents, schedules.pup)]
    if date < EWSS_HANDOVER:
        cases.append((twss_subsidy_cents, schedules.twss))
    if date >= schedules.ewss.regimes[0].effective_from:
        cases.append((ewss_subsidy_cents, schedules.ewss))
    for fn, schedule in cases:
        regime = schedule.regime_at(date)
        values = [a for a in edge_amounts(regime) if a >= 0] + amounts
        expected = oracle(regime, values)
        assert fn(schedules, np.array(values, dtype=np.int64), date).tolist() == expected
        scalars = [fn(schedules, v, date) for v in values]
        assert scalars == expected
    pup_regime = schedules.pup.regime_at(date)
    assert ceib_rate_cents(schedules, date) == max(
        oracle_eval_band(b, b.lower_cents) for b in pup_regime.bands)


@st.composite
def band_tables(draw):
    lowers = sorted(draw(st.sets(st.integers(0, 2_000_000), min_size=1, max_size=6)))
    bands = []
    for lower in lowers:
        kind = draw(st.sampled_from(["flat", "rate", "rate_capped", "taper"]))
        if kind == "flat":
            bands.append(Band(lower, "flat", value_cents=draw(st.integers(0, 10**6))))
        elif kind.startswith("rate"):
            cap = draw(st.integers(1, 10**6)) if kind == "rate_capped" else 0
            rate = draw(st.floats(0.0, 1.5, allow_nan=False))
            bands.append(Band(lower, "rate", rate=rate, cap_cents=cap))
        else:
            bands.append(Band(lower, "taper", value_cents=draw(st.integers(0, 10**6)),
                              taper_end_cents=lower + draw(st.integers(1, 2_000_000))))
    return Regime(effective_from=D(2020, 1, 1), bands=tuple(bands))


@settings(max_examples=150, deadline=None)
@given(regime=band_tables(), amounts=AMOUNTS)
def test_evaluate_matches_oracle_on_random_band_tables(regime, amounts):
    values = edge_amounts(regime) + amounts
    assert regime.evaluate(np.array(values, dtype=np.int64)).tolist() == \
        oracle(regime, values)


def test_array_pup_rejects_negative_earnings(schedules):
    with pytest.raises(PolicyError):
        pup_rate_cents(schedules, np.array([100, -1], dtype=np.int64), D(2020, 5, 5))


def test_negative_band_lower_rejected(tmp_path):
    path = tmp_path / "pup.csv"
    path.write_text("scheme,effective_from,band_lower,value\n"
                    "pup,2020-03-13,-1,203\n")
    with pytest.raises(PolicyError, match="pup.csv:2"):
        load_schedule(path, "pup")
