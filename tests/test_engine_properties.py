"""Engine-level properties on small random populations built directly as
columns: the adjusted-income identity on every wave, the null wave as a
fixed point, nested PUP recipient sets as the sector targets rise, a
wave's accounts equal to a whole-population evaluation of its state, and
the values a wave derives from the baseline equal to those computed from the
input columns: housing under any deferrals, weekly earnings, and the TWSS
candidates' take-home pay; and each fixed alignment pool's stored weight
sum and maximum."""
import datetime as dt
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nowcastsim import expenses, scenario, taxben
from nowcastsim.calibration import AlignmentError
from nowcastsim.money import apply_rate, cents, round_div
from nowcastsim.population import (SECTORS, TENURES, WORK_STATUSES, Population, Table,
                                   validate)
from nowcastsim.scenario import (CASE_AGE_BANDS, ControlTotals, WavePoint, apply_wave,
                                 build_baseline, case_age_band, job_losses, sickness_cases)
from scenario_oracle import baseline_take_home

DATES = [dt.date(2020, 5, 5), dt.date(2020, 11, 15), dt.date(2021, 2, 23)]
PUP = taxben.COVID_CODES["pup_recipient"]
CEIB = taxben.COVID_CODES["ceib_recipient"]
SUBSIDISED = taxben.COVID_CODES["wage_subsidised"]
BASE_CONTROLS = ControlTotals(date=dt.date(2019, 12, 1))  # no targets: nowcast is the identity


def column_population(seed: int, n_households: int) -> Population:
    """A valid population of `n_households`, drawn column by column. Every
    worker is an employee or self-employed person aged 18-66 with yearly
    pay the wage-subsidy schemes cover."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, n_households)
    n = int(sizes.sum())
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    hh_row = np.repeat(np.arange(n_households), sizes)
    age = rng.integers(0, 90, n)
    age[offsets[:-1]] = rng.integers(18, 90, n_households)  # every head is an adult
    code = WORK_STATUSES.index
    status = np.where(age < 16, code("child"),
                      rng.choice([code(s) for s in WORK_STATUSES[:6]], n))
    status[(age > 66) & (status <= 1)] = code("retired")
    status[(age < 18) & (status <= 1)] = code("student")
    worker = status <= 1
    employee = status == code("employee")
    pay = rng.uniform(10_000, 60_000, n).round(2)
    mortgage = rng.random(n_households) < 0.4
    tenure = np.where(mortgage, TENURES.index("mortgage"),
                      rng.choice([TENURES.index("renter"), TENURES.index("owner_outright")],
                                 n_households))
    kids_0_4 = np.bincount(hh_row, weights=age <= 4, minlength=n_households).astype(int)
    kids_u14 = np.bincount(hh_row, weights=age < 14, minlength=n_households).astype(int)
    childcare = (kids_u14 > 0) & (rng.random(n_households) < 0.5)
    households = Table(
        household_id=np.arange(1, n_households + 1), weight=rng.uniform(0.5, 1.5, n_households),
        member_ids=np.arange(1, n + 1), member_offsets=offsets, tenure=tenure,
        mortgage_payment=np.where(mortgage, rng.uniform(500, 1500, n_households).round(2), 0.0),
        rent=np.where(tenure == TENURES.index("renter"), 900.0, 0.0),
        childcare_user=childcare,
        childcare_expenditure=np.where(childcare, rng.uniform(50, 200, n_households).round(2),
                                       0.0),
        n_children_0_4=kids_0_4, n_children_under14=kids_u14)
    persons = Table(
        person_id=np.arange(1, n + 1), household_id=hh_row + 1, age=age,
        sex=rng.integers(0, 2, n), education=rng.integers(0, 3, n),
        occupation=np.where(worker, rng.integers(1, 10, n), 0),
        industry=np.where(worker, rng.integers(0, len(SECTORS), n), -1),
        region=rng.integers(0, 2, n), work_status=status,
        employment_income=np.where(employee, pay, 0.0),
        self_employment_income=np.where(worker & ~employee, pay - 15_000, 0.0),
        capital_income=np.where((age >= 18) & (rng.random(n) < 0.2), 300.0, 0.0),
        private_pension=np.where(status == code("retired"), 8_000.0, 0.0),
        essential_worker=worker & (rng.random(n) < 0.3),
        home_work_capable=worker & (rng.random(n) < 0.5),
        covid_state=np.zeros(n, dtype=np.int64))
    assert validate(households, persons) == []
    return Population(households=households, persons=persons)


def controls_at(date, tables, base, pup=0.0, ceib=0.0, subsidy=0.0, deferrals=0.0):
    """Control totals whose rescaled targets are the given shares of each
    sector's worker weight (PUP, subsidy), of each age band's worker
    weight (CEIB) and of the mortgage holders' weight (deferrals)."""
    national = tables.national
    bands = case_age_band(base.age)
    weight = base.hh_weight[base.hh_row]
    band_weight = {band: float(weight[base.is_worker & (bands == code)].sum())
                   for code, band in enumerate(CASE_AGE_BANDS)}
    pop_share = float(weight.sum()) / national["population_total"]
    return ControlTotals(
        date=date,
        pup_by_sector={s: pup * national["sector_employment"][s] for s in SECTORS},
        ceib_cases={(band, True): ceib * w / pop_share for band, w in band_weight.items()},
        subsidy_by_sector={s: subsidy * national["sector_employment"][s] for s in SECTORS},
        deferral_count=deferrals * national["mortgage_count"],
        index_change_factor=-0.35)


POPULATIONS = st.tuples(st.integers(0, 10 ** 6), st.integers(5, 40))


@settings(max_examples=60, deadline=None)
@given(population=POPULATIONS, date=st.sampled_from(DATES),
       switches=st.lists(st.booleans(), min_size=7, max_size=7),
       subsidy=st.sampled_from(["none", "auto"]),  # auto: the scheme in force at the date
       shares=st.lists(st.floats(0.0, 0.3), min_size=4, max_size=4))
def test_adjusted_identity_on_every_wave(tables, schedules, population, date, switches,
                                         subsidy, shares):
    base = build_baseline(column_population(*population), BASE_CONTROLS, tables, schedules,
                          seed=5)
    pup_on, ceib_on, childcare, deferrals_on, capital_on, home, booking = switches
    wave = WavePoint(label="w", date=date, pup_on=pup_on, ceib_on=ceib_on, subsidy=subsidy,
                     childcare_support=childcare, deferrals_on=deferrals_on,
                     capital_on=capital_on, home_working_on=home)
    try:
        r = apply_wave(base, controls_at(date, tables, base, *shares), wave, tables,
                       schedules, seed=5, capital_booking="once" if booking else "amortized")
    except AlignmentError:  # CEIB and job losses left too few subsidy candidates
        assume(False)
    assert np.array_equal(r.adjusted,
                          r.disposable - r.housing - r.capital_adjustment - r.work_expenses)
    assert np.array_equal(r.gross, r.market + r.benefits)
    assert np.array_equal(r.disposable, r.gross - r.taxes)


def person_states(base, controls, wave, tables, seed):
    """Who works, and who works from home, in a wave: step (d) of apply_wave
    on the public steps' job losses and sickness cases."""
    job_lost = job_losses(base, controls, tables)
    ceib = sickness_cases(base, controls, wave, tables, seed, job_lost)
    employed_now = base.is_worker & ~job_lost & ~ceib
    return employed_now, employed_now & ~base.essential & base.home_capable & wave.home_working_on


@settings(max_examples=25, deadline=None)
@given(population=POPULATIONS, date=st.sampled_from(DATES))
def test_null_wave_is_a_fixed_point(tables, schedules, population, date):
    """With no instrument switched on, a wave at any date leaves every
    person's state and every income where the base date has them."""
    pop = column_population(*population)
    base = build_baseline(pop, BASE_CONTROLS, tables, schedules, seed=5)
    controls = controls_at(date, tables, base, 0.0, 0.2, 0.2, 0.2)  # no job losses
    at_base = apply_wave(base, BASE_CONTROLS,
                         WavePoint(label="base", date=BASE_CONTROLS.date), tables, schedules, 5)
    wave = WavePoint(label="null", date=date)
    later = apply_wave(base, controls, wave, tables, schedules, 5)
    assert np.all(later.covid_code == 0)
    employed_now, home_working = person_states(base, controls, wave, tables, 5)
    assert np.array_equal(employed_now, base.is_worker)
    assert not home_working.any()
    for name in ("market", "gross", "disposable", "adjusted", "taxes", "benefits",
                 "housing", "capital_adjustment", "work_expenses"):
        assert np.array_equal(getattr(later, name), getattr(at_base, name)), name


@settings(max_examples=40, deadline=None)
@given(population=POPULATIONS, date=st.sampled_from(DATES),
       shares=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=4))
def test_pup_recipients_nested_as_targets_rise(tables, schedules, population, date, shares):
    base = build_baseline(column_population(*population), BASE_CONTROLS, tables, schedules,
                          seed=5)
    wave = WavePoint(label="pup", date=date, pup_on=True)
    recipients = [apply_wave(base, controls_at(date, tables, base, pup=share), wave, tables,
                             schedules, 5).covid_code == PUP for share in sorted(shares)]
    for smaller, larger in zip(recipients, recipients[1:]):
        assert np.all(larger[smaller])


def whole_population_accounts(base, r, wave, schedules, employer_topup, job_lost):
    """taxben.household_accounts over every person in the state of wave
    result `r`, rebuilt from its covid codes and the wave's job losses by
    the rules of apply_wave's steps (a)-(c)."""
    ceib = r.covid_code == CEIB
    subsidised = r.covid_code == SUBSIDISED
    status = base.status.copy()
    if not wave.pup_on:
        status[job_lost] = taxben.STATUS_CODES["unemployed"]
    emp, se = cents(base.employment_income), cents(base.self_employment_income)
    weekly_earn = round_div(emp + np.maximum(se, 0), 52)
    gross_weekly = round_div(emp[subsidised], 52)
    emp[job_lost | ceib] = 0
    se[job_lost | ceib] = 0
    if subsidised.any():
        scheme = wave.subsidy if wave.subsidy != "auto" else \
            "twss" if wave.date < taxben.EWSS_HANDOVER else "ewss"
        amount = taxben.twss_subsidy_cents(
            schedules, baseline_take_home(base, schedules)[subsidised], wave.date) \
            if scheme == "twss" else \
            taxben.ewss_subsidy_cents(schedules, gross_weekly, wave.date)
        shortfall = np.maximum(gross_weekly - amount, 0)
        emp[subsidised] = (amount + apply_rate(employer_topup, shortfall)) * 52
    cap_pens = cents(base.capital_income) + cents(base.private_pension)
    return taxben.household_accounts(
        status, r.covid_code, weekly_earn, emp, se, cap_pens, base.hh_row, base.hid.size,
        wave.date, schedules)


@settings(max_examples=80, deadline=None)
@given(population=POPULATIONS, date=st.dates(dt.date(2020, 3, 13), dt.date(2021, 6, 30)),
       pup_on=st.booleans(), ceib_on=st.booleans(),
       subsidy=st.sampled_from(["none", "twss", "ewss", "auto"]),
       shares=st.lists(st.floats(0.0, 0.3), min_size=3, max_size=3),
       employer_topup=st.floats(0.0, 1.0))
def test_wave_accounts_equal_a_whole_population_evaluation(
        tables, schedules, population, date, pup_on, ceib_on, subsidy, shares, employer_topup):
    """apply_wave evaluates taxes and benefits only for the persons a wave
    moves and adds the change to the baseline totals; that equals
    evaluating every person."""
    base = build_baseline(column_population(*population), BASE_CONTROLS, tables, schedules,
                          seed=5)
    wave = WavePoint(label="w", date=date, pup_on=pup_on, ceib_on=ceib_on, subsidy=subsidy)
    controls = controls_at(date, tables, base, *shares)
    try:
        r = apply_wave(base, controls, wave, tables, schedules, seed=5,
                       employer_topup=employer_topup)
    except (AlignmentError, taxben.PolicyError):  # too few candidates; scheme not in force
        assume(False)
    full = whole_population_accounts(base, r, wave, schedules, employer_topup,
                                     job_losses(base, controls, tables))
    for name in ("market", "taxes", "benefits"):
        assert np.array_equal(getattr(r, name), getattr(full, name)), name
    assert np.array_equal(r.gross, full.market + full.benefits)
    assert np.array_equal(r.disposable, full.market + full.benefits - full.taxes)


@settings(max_examples=60, deadline=None)
@given(population=POPULATIONS, data=st.data())
def test_wave_housing_equals_the_cost_under_its_deferrals(tables, schedules, population,
                                                          data):
    """The baseline's one housing array, with a deferral mask drawn over the
    mortgage holders applied as the step `housing_cost` applies it, equals
    housing_cost_cents on the input's tenures, mortgages and rents with the
    deferring holders' cost zeroed: itself when nobody defers."""
    pop = column_population(*population)
    base = build_baseline(pop, BASE_CONTROLS, tables, schedules, seed=5)
    h = pop.households
    holders = np.flatnonzero(h.tenure == expenses.TENURE_CODES["mortgage"])
    deferred = np.zeros(h.tenure.size, dtype=bool)
    deferred[holders] = data.draw(st.lists(st.booleans(), min_size=holders.size,
                                           max_size=holders.size))
    housing = expenses.deferred_housing_cents(base.housing_cents, np.flatnonzero(deferred))
    expected = np.where(deferred, 0, expenses.housing_cost_cents(
        h.tenure, cents(h.mortgage_payment), cents(h.rent)))
    assert housing.dtype == expected.dtype and np.array_equal(housing, expected)
    assert (housing is base.housing_cents) == (not deferred.any())
    r = apply_wave(base, BASE_CONTROLS, WavePoint(label="w", date=BASE_CONTROLS.date), tables,
                   schedules, 5)
    assert r.housing is base.housing_cents


@settings(max_examples=40, deadline=None)
@given(population=POPULATIONS, date=st.sampled_from(DATES),
       shares=st.lists(st.floats(0.0, 0.3), min_size=3, max_size=3))
def test_weekly_earnings_the_accounts_read_are_derived_exactly(tables, schedules, population,
                                                               date, shares):
    """The pre-shock weekly earnings passed to taxben.household_accounts,
    for every person at the baseline and for the moved persons in a wave,
    equal round_div(emp + max(se, 0), 52) of the input columns."""
    pop = column_population(*population)  # in id order, as the baseline's rows
    p = pop.persons
    expected = round_div(cents(p.employment_income)
                         + np.maximum(cents(p.self_employment_income), 0), 52)
    accounts, calls = taxben.household_accounts, []

    def spy(status, covid, prev_weekly_cents, *args):
        calls.append(prev_weekly_cents)
        return accounts(status, covid, prev_weekly_cents, *args)
    wave = WavePoint(label="w", date=date, pup_on=True, ceib_on=True, subsidy="auto")
    with mock.patch.object(taxben, "household_accounts", spy):
        base = build_baseline(pop, BASE_CONTROLS, tables, schedules, seed=5)
        try:
            r = apply_wave(base, controls_at(date, tables, base, *shares), wave, tables,
                           schedules, seed=5)
        except AlignmentError:  # CEIB and job losses left too few subsidy candidates
            assume(False)
    baseline, *wave_calls = calls
    assert np.array_equal(baseline, expected)
    moved = r.covid_code != 0  # with pup on, every moved person has a covid code
    if not moved.any():  # the wave holds the baseline's accounts and evaluates nobody
        assert wave_calls == [] and r.market is base.market
        return
    now, was = wave_calls
    assert np.array_equal(now, expected[moved]) and np.array_equal(was, expected[moved])


def assert_same_arrays(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and np.array_equal(x, y)


# euro amounts: whole cents, half-cent edges (k + 0.5) / 100, and any float
EUROS = st.one_of(st.integers(-10 ** 8, 10 ** 8).map(lambda k: k / 100),
                  st.integers(-10 ** 8, 10 ** 8).map(lambda k: (k + 0.5) / 100),
                  st.floats(-1e6, 1e6))


def drawn_money(population, data):
    """A column population with drawn euro amounts, negative self-employment
    income among them, and a function drawing one more column of it."""
    pop = column_population(*population)
    n = pop.persons.person_id.size

    def column(values):
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    money = {"employment_income": column(EUROS.map(abs)),
             "self_employment_income": column(EUROS),
             "capital_income": column(EUROS.map(abs)), "private_pension": column(EUROS.map(abs))}
    return Population(households=pop.households,
                      persons=Table(**(vars(pop.persons) | money))), column


def subsidy_candidates(base, job_lost, ceib):
    """The rows wage_subsidy prices: every subsidy pool's employees that
    neither lost their job nor are CEIB cases, sector by sector."""
    rows = np.concatenate([base.strata[f"subsidy:{s}"][0] for s in sorted(SECTORS)])
    return rows[~job_lost[rows] & ~ceib[rows]]


@settings(max_examples=60, deadline=None)
@given(population=POPULATIONS, pup_on=st.booleans(), data=st.data())
def test_steps_read_the_cents_of_the_whole_columns(tables, schedules, population, pup_on, data):
    """The cents that the steps household_accounts (for its moved rows) and
    wage_subsidy (for its EWSS candidates) convert from the baseline's euros
    equal, at those rows, the cents of the whole columns: on drawn amounts,
    negative self-employment income among them, and drawn moved rows."""
    pop, column = drawn_money(population, data)
    n = pop.persons.person_id.size
    money = vars(pop.persons)
    base = build_baseline(pop, BASE_CONTROLS, tables, schedules, seed=5)
    emp, se = cents(money["employment_income"]), cents(money["self_employment_income"])
    cap_pens = cents(money["capital_income"]) + cents(money["private_pension"])

    state = column(st.sampled_from([0, 1, 2, 3]))  # stays, loses the job, CEIB, subsidised
    job_lost, ceib, subsidised = state == 1, state == 2, state == 3
    k = int(subsidised.sum())
    amount = np.array(data.draw(st.lists(st.integers(0, 10 ** 5), min_size=k, max_size=k)),
                      dtype=np.int64)
    covid = np.zeros(n, dtype=np.int8)
    covid[job_lost & pup_on], covid[ceib], covid[subsidised] = PUP, CEIB, SUBSIDISED
    wave = WavePoint(label="w", date=dt.date(2020, 11, 15), pup_on=pup_on, subsidy="ewss")
    accounts, calls = taxben.household_accounts, []

    def spy(*args):
        calls.append(args)
        return accounts(*args)
    with mock.patch.object(taxben, "household_accounts", spy):
        scenario.household_accounts(base, wave, schedules, 0.3, job_lost, ceib, subsidised,
                                    amount, covid)
    moved = np.flatnonzero(state > 0)
    if not moved.size:
        assert calls == []
    else:
        (_, _, *now), (_, _, *was) = (call[:6] for call in calls)
        assert_same_arrays(was, [round_div(emp + np.maximum(se, 0), 52)[moved], emp[moved],
                               se[moved], cap_pens[moved]])
        stopped = (job_lost | ceib)[moved]
        gross_weekly = round_div(emp[subsidised], 52)
        emp_now = np.where(stopped, 0, emp[moved])
        emp_now[subsidised[moved]] = (amount + apply_rate(
            0.3, np.maximum(gross_weekly - amount, 0))) * 52
        assert_same_arrays(now, [was[0], emp_now, np.where(stopped, 0, se[moved]), cap_pens[moved]])

    ewss, weekly = taxben.ewss_subsidy_cents, []
    with mock.patch.object(taxben, "ewss_subsidy_cents",
                           lambda schedules, pay, date: weekly.append(pay) or ewss(schedules, pay,
                                                                                   date)):
        scenario.wage_subsidy(base, controls_at(wave.date, tables, base), wave, tables,
                              schedules, job_lost, ceib)
    rows = subsidy_candidates(base, job_lost, ceib)
    assert_same_arrays(weekly, [round_div(emp, 52)[rows]] if rows.size else [])


@settings(max_examples=60, deadline=None)
@given(population=POPULATIONS, data=st.data())
def test_twss_prices_the_take_home_pay_build_baseline_computed(tables, schedules, population,
                                                               data):
    """The weekly take-home pay that wage_subsidy derives for its TWSS
    candidates equals, at their rows, round_div(max(emp - tax, 0), 52) with
    the annual tax of the whole population's baseline accounts, as
    build_baseline once kept it for everyone: on drawn amounts and drawn job
    losses and CEIB cases."""
    pop, column = drawn_money(population, data)
    base = build_baseline(pop, BASE_CONTROLS, tables, schedules, seed=5)
    state = column(st.sampled_from([0, 1, 2]))  # stays, loses the job, CEIB
    job_lost, ceib = state == 1, state == 2
    wave = WavePoint(label="w", date=dt.date(2020, 5, 5), subsidy="twss")
    twss, weekly = taxben.twss_subsidy_cents, []
    with mock.patch.object(taxben, "twss_subsidy_cents",
                           lambda schedules, pay, date: weekly.append(pay) or twss(schedules, pay,
                                                                                   date)):
        scenario.wage_subsidy(base, controls_at(wave.date, tables, base), wave, tables,
                              schedules, job_lost, ceib)
    rows = subsidy_candidates(base, job_lost, ceib)
    assert_same_arrays(weekly, [baseline_take_home(base, schedules)[rows]] if rows.size else [])


@settings(max_examples=60, deadline=None)
@given(population=POPULATIONS)
def test_fixed_pools_hold_the_weight_sum_and_maximum_of_their_ascending_rows(
        tables, schedules, population):
    """Each fixed pool (`pup:<sector>`, `deferral`) keeps its members in
    alignment order, and the sum and largest of their weights as np.sum and
    np.max give them over the ascending rows, bit for bit; an empty pool's
    largest weight is the largest household weight."""
    pop = column_population(*population)  # in id order
    base = build_baseline(pop, BASE_CONTROLS, tables, schedules, seed=5)
    person_weight = base.hh_weight[base.hh_row]
    pup = base.is_worker & (base.age >= 18) & (base.age <= 66)
    members = {f"pup:{s}": (np.flatnonzero(pup & (pop.persons.industry == i)), person_weight)
               for i, s in enumerate(SECTORS)}
    members["deferral"] = (
        np.flatnonzero(pop.households.tenure == expenses.TENURE_CODES["mortgage"]),
        base.hh_weight)
    assert {label for label in base.strata if not label.startswith("subsidy:")} == set(members)
    for label, (rows, weight) in members.items():
        ranked, available, w_max = base.strata[label]
        assert np.array_equal(np.sort(ranked), rows), label
        expected = (np.sum(weight[rows]),
                    np.max(weight[rows]) if rows.size else np.max(base.hh_weight))
        assert [np.float64(x).tobytes() for x in (available, w_max)] == \
            [x.tobytes() for x in expected], label
