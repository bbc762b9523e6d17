"""Differential test of the wave step's alignment: `apply_wave`, which ranks
the persistent strata once in `build_baseline`, against the earlier
per-wave selection kept below as the oracle (masks rebuilt every wave, one
`align_binary` call per stratum, chosen ids mapped back to rows).

The population's person and household ids are shuffled, so they do not
ascend with its rows, and the targets cover zero, a fraction of one
unit-weight, ordinary shares, the available weight and infeasible totals."""
import datetime as dt
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nowcastsim import expenses, scenario, taxben
from nowcastsim.calibration import AlignmentError, align_binary
from nowcastsim.money import cents, round_div
from nowcastsim.population import (SECTORS, Population, SynthConfig, Table,
                                   generate_synthetic, validate)
from nowcastsim.scenario import (CASE_AGE_BANDS, ControlTotals, WavePoint, _align_rows,
                                 _pool_weight, apply_wave, build_baseline, case_age_band)
from scenario_oracle import baseline_take_home

SEED = 11
BEFORE_EWSS, AFTER_EWSS = dt.date(2020, 6, 6), dt.date(2020, 11, 15)
STRATA = ("pup", "ceib", "subsidy", "deferral")
KINDS = ("zero", "sub_unit", "ordinary", "available", "infeasible")


def oracle_align_units(ids, weights, target, seed, label, unit_weight, context):
    if target <= 0:
        return np.empty(0, dtype=np.int64)
    available = float(np.sum(weights))
    w_max = float(np.max(weights)) if len(weights) else unit_weight
    if target > (available + w_max) * (1 + 1e-9):  # a slack relative to the pool
        raise AlignmentError(
            f"{context}: target {target:.2f} exceeds the available weight "
            f"{available:.2f} by more than one unit-weight"
        )
    if available == 0.0:
        return np.empty(0, dtype=np.int64)
    probs = np.full(len(ids), 0.5)
    return align_binary(ids, probs, weights, min(target, available), seed, label)


def oracle_states(base, by_id, controls, wave, tables, schedules, seed):
    """(job_lost, ceib, subsidised, deferred) as the per-wave path chose them;
    `by_id` holds the population's sectors and tenures."""
    industry, tenure = by_id
    n = base.pid.size
    person_weight = base.hh_weight[base.hh_row]
    unit_weight = float(np.max(person_weight))
    national = tables.national["sector_employment"]

    def scaled(counts):
        targets = {}
        for sector, count in counts.items():
            mask = base.is_worker & (industry == SECTORS.index(sector))
            targets[sector] = count * float(np.sum(person_weight[mask])) / national[sector]
        return targets

    def pick(rows, ids, weights, target, label, unit, context):
        chosen = oracle_align_units(ids[rows], weights[rows], target, seed, label, unit,
                                    context)
        return rows[np.searchsorted(ids[rows], chosen)]

    job_lost = np.zeros(n, dtype=bool)
    eligible = base.is_worker & (base.age >= 18) & (base.age <= 66)
    for sector, target in sorted(scaled(controls.pup_by_sector).items()):
        rows = np.flatnonzero(eligible & (industry == SECTORS.index(sector)))
        job_lost[pick(rows, base.pid, person_weight, target, f"pup:{sector}",
                      unit_weight, f"job losses in {sector!r}")] = True

    ceib = np.zeros(n, dtype=bool)
    if wave.ceib_on and controls.ceib_cases:
        pop_share = float(np.sum(person_weight)) / tables.national["population_total"]
        bands = case_age_band(base.age)
        for (band, in_work), count in sorted(controls.ceib_cases.items()):
            if in_work:
                rows = np.flatnonzero(base.is_worker & ~job_lost
                                      & (bands == CASE_AGE_BANDS.index(band)))
                ceib[pick(rows, base.pid, person_weight, count * pop_share,
                          f"ceib:{band}:{wave.date.isoformat()}", unit_weight,
                          f"sickness cases in age band {band}")] = True

    subsidised = np.zeros(n, dtype=bool)
    scheme = wave.subsidy
    if scheme == "auto":
        scheme = "twss" if wave.date < taxben.EWSS_HANDOVER else "ewss"
    if scheme != "none" and controls.subsidy_by_sector:
        targets = scaled(controls.subsidy_by_sector)
        candidate = (base.status == taxben.STATUS_CODES["employee"]) & ~job_lost & ~ceib
        sector_rows = {s: np.flatnonzero(candidate & (industry == SECTORS.index(s)))
                       for s in sorted(targets)}
        rows = np.concatenate(list(sector_rows.values()))
        amount = np.zeros(n, dtype=np.int64)
        if rows.size:
            if scheme == "twss":
                amount[rows] = taxben.twss_subsidy_cents(
                    schedules, baseline_take_home(base, schedules)[rows], wave.date)
            else:
                amount[rows] = taxben.ewss_subsidy_cents(
                    schedules, round_div(cents(base.employment_income), 52)[rows], wave.date)
        for sector, target in sorted(targets.items()):
            rows = sector_rows[sector]
            rows = rows[amount[rows] > 0]
            subsidised[pick(rows, base.pid, person_weight, target, f"subsidy:{sector}",
                            unit_weight, f"wage subsidy in {sector!r}")] = True

    deferred = np.zeros(base.hid.size, dtype=bool)
    if wave.deferrals_on and controls.deferral_count > 0:
        holders = tenure == expenses.TENURE_CODES["mortgage"]
        holder_weight = float(np.sum(base.hh_weight[holders]))
        target = controls.deferral_count * holder_weight / tables.national["mortgage_count"]
        deferred[pick(np.flatnonzero(holders), base.hid, base.hh_weight, target, "deferral",
                      float(np.max(base.hh_weight)), "mortgage deferrals")] = True
    return job_lost, ceib, subsidised, deferred


def wave_states(base, controls, wave, tables, schedules, seed, monkeypatch):
    """(job_lost, ceib, subsidised, deferred) as apply_wave chose them: the
    job losses as its step `job_losses` returned them to it."""
    seen = {"deferred": np.zeros(base.hid.size, dtype=bool)}
    housing, losses = expenses.deferred_housing_cents, scenario.job_losses

    def spy(housing_cents, rows):
        seen["deferred"][rows] = True
        return housing(housing_cents, rows)

    @functools.wraps(losses)
    def job_losses(*args):
        seen["job_lost"] = losses(*args)
        return seen["job_lost"]

    monkeypatch.setattr(expenses, "deferred_housing_cents", spy)
    monkeypatch.setattr(scenario, "job_losses", job_losses)
    r = apply_wave(base, controls, wave, tables, schedules, seed)
    ceib = r.covid_code == taxben.COVID_CODES["ceib_recipient"]
    subsidised = r.covid_code == taxben.COVID_CODES["wage_subsidised"]
    return seen["job_lost"], ceib, subsidised, seen["deferred"]


def shuffled_ids(pop: Population, seed: int) -> Population:
    """`pop` with its person and household ids permuted to large,
    non-monotone values and both tables' rows shuffled."""
    rng = np.random.default_rng(seed)
    h, p = pop.households, pop.persons
    new_pid = rng.permutation(10 * p.person_id.size)[:p.person_id.size] + 1
    new_hid = rng.permutation(10 * h.household_id.size)[:h.household_id.size] + 1
    pid_of = dict(zip(p.person_id.tolist(), new_pid.tolist()))
    hid_of = dict(zip(h.household_id.tolist(), new_hid.tolist()))
    p_rows = rng.permutation(p.person_id.size)
    persons = Table(**{name: column[p_rows] for name, column in vars(p).items()})
    persons.person_id = np.array([pid_of[i] for i in persons.person_id.tolist()])
    persons.household_id = np.array([hid_of[i] for i in persons.household_id.tolist()])
    h_rows = rng.permutation(h.household_id.size)
    members = [[pid_of[i] for i in h.member_ids[h.member_offsets[r]:h.member_offsets[r + 1]]]
               for r in h_rows.tolist()]
    households = Table(**{name: column[h_rows] for name, column in vars(h).items()
                          if name not in ("member_ids", "member_offsets")})
    households.household_id = np.array([hid_of[i] for i in households.household_id.tolist()])
    households.member_ids = np.array([i for m in members for i in m], dtype=np.int64)
    households.member_offsets = np.cumsum([0] + [len(m) for m in members], dtype=np.int64)
    assert validate(households, persons) == []
    return Population(households=households, persons=persons)


@pytest.fixture(scope="module")
def pop():
    pop = shuffled_ids(generate_synthetic(SynthConfig(households=300, weight_jitter=True), 5),
                       seed=3)
    assert np.any(np.diff(pop.persons.person_id) < 0)
    assert np.any(np.diff(pop.households.household_id) < 0)
    return pop


@pytest.fixture(scope="module")
def base(pop, tables, schedules):
    return build_baseline(pop, ControlTotals(date=dt.date(2019, 12, 1)), tables, schedules,
                          seed=SEED)


@pytest.fixture(scope="module")
def by_id(pop):
    """The persons' sectors and the households' tenures, in id order, the
    order of the baseline's rows."""
    return (pop.persons.industry[np.argsort(pop.persons.person_id)],
            pop.households.tenure[np.argsort(pop.households.household_id)])


def stratum_target(kind, available, i):
    """A rescaled target of the given kind against a pool of `available`
    weight (unit weights here lie in [0.5, 1.5]); `i` varies it per stratum."""
    return {"zero": 0.0, "sub_unit": 0.3 + 0.05 * (i % 5),
            "ordinary": (0.1 + 0.04 * (i % 6)) * available,
            "available": available + 0.2 * (i % 3) - 0.1,
            "infeasible": available + 2.0 + i}[kind]


def controls_for(base, by_id, tables, schedules, wave, kinds):
    """Control totals whose rescaled targets take the given kind per stratum,
    measured against each pool as it is before any person is moved."""
    industry, tenure = by_id
    national = tables.national
    weight = base.hh_weight[base.hh_row]
    sector_weight = {s: float(np.sum(weight[base.is_worker & (industry == i)]))
                     for i, s in enumerate(SECTORS)}
    pup, subsidy = {}, {}
    eligible = base.is_worker & (base.age >= 18) & (base.age <= 66)
    employee = base.status == taxben.STATUS_CODES["employee"]
    if wave.subsidy == "twss" or (wave.subsidy == "auto" and wave.date < taxben.EWSS_HANDOVER):
        amount = taxben.twss_subsidy_cents(schedules, baseline_take_home(base, schedules),
                                           wave.date)
    else:
        amount = taxben.ewss_subsidy_cents(schedules, round_div(cents(base.employment_income), 52),
                                           wave.date)
    employee &= amount > 0  # pay bands outside the scheme are ineligible
    for i, s in enumerate(SECTORS):
        if sector_weight[s] == 0:
            continue
        per_target = national["sector_employment"][s] / sector_weight[s]
        in_sector = industry == i
        pup[s] = per_target * stratum_target(
            kinds["pup"], float(np.sum(weight[eligible & in_sector])), i)
        subsidy[s] = per_target * stratum_target(
            kinds["subsidy"], float(np.sum(weight[employee & in_sector])), i)
    pop_share = float(np.sum(weight)) / national["population_total"]
    bands = case_age_band(base.age)
    ceib = {(band, True): stratum_target(
                kinds["ceib"], float(np.sum(weight[base.is_worker & (bands == i)])), i)
            / pop_share for i, band in enumerate(CASE_AGE_BANDS)}
    ceib[("25-34", False)] = 50.0  # out-of-work cases move nobody
    holders = tenure == expenses.TENURE_CODES["mortgage"]
    holder_weight = float(np.sum(base.hh_weight[holders]))
    deferrals = stratum_target(kinds["deferral"], holder_weight, 0) \
        * national["mortgage_count"] / holder_weight
    return ControlTotals(date=wave.date, pup_by_sector=pup, ceib_cases=ceib,
                         subsidy_by_sector=subsidy, deferral_count=deferrals)


WAVES = [(True, "twss", BEFORE_EWSS), (False, "ewss", AFTER_EWSS),
         (True, "auto", AFTER_EWSS), (False, "auto", BEFORE_EWSS)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("stratum", STRATA)
def test_wave_step_selects_what_the_per_wave_oracle_selects(base, by_id, tables, schedules,
                                                             monkeypatch, stratum, kind):
    # a person stratum taken whole leaves the later ones nobody to select
    others = "zero" if kind == "available" and stratum != "deferral" else "ordinary"
    kinds = dict.fromkeys(STRATA, others) | {"deferral": "ordinary", stratum: kind}
    for pup_on, subsidy, date in WAVES:
        wave = WavePoint(label="w", date=date, pup_on=pup_on, ceib_on=True, subsidy=subsidy,
                         deferrals_on=True)
        controls = controls_for(base, by_id, tables, schedules, wave, kinds)
        try:
            expected = oracle_states(base, by_id, controls, wave, tables, schedules, SEED)
        except AlignmentError as exc:
            with pytest.raises(AlignmentError) as raised:
                wave_states(base, controls, wave, tables, schedules, SEED, monkeypatch)
            assert str(raised.value) == str(exc)
            continue
        got = wave_states(base, controls, wave, tables, schedules, SEED, monkeypatch)
        for name, want, have in zip(STRATA, expected, got):
            assert np.array_equal(want, have), (name, pup_on, subsidy, date)
        if kind != "zero":  # the comparison saw real selections
            assert expected[STRATA.index(stratum)].any(), (stratum, kind)
        if kind == "ordinary":
            assert all(states.any() for states in expected)


def test_infeasible_targets_raise(base, by_id, tables, schedules):
    """Every stratum's infeasible case reaches the error path at least once."""
    for stratum in STRATA:
        kinds = dict.fromkeys(STRATA, "ordinary") | {stratum: "infeasible"}
        wave = WavePoint(label="w", date=BEFORE_EWSS, pup_on=True, ceib_on=True,
                         subsidy="twss", deferrals_on=True)
        with pytest.raises(AlignmentError, match="exceeds the available weight"):
            apply_wave(base, controls_for(base, by_id, tables, schedules, wave, kinds), wave,
                       tables, schedules, SEED)


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.floats(0.5, 1.5), max_size=30), target=st.floats(0.0, 50.0),
       k=st.integers(-30, 30))
@example(weights=[1.0] * 10, target=11.5, k=-30)  # once clamped to all 10 rows at 2**-30
def test_scaling_weights_and_target_keeps_the_outcome(weights, target, k):
    """Scaling every weight and the target by 2**k, which is exact in
    floating point, keeps whether a stratum's alignment raises and, if it
    does not, the rows it takes. The one row outside the pool weighs 1, the
    unit weight of an empty pool, as the largest of all weights."""
    weight = np.array(weights + [1.0])
    pool = np.arange(len(weights))
    ranked = pool[::-1].copy()

    def outcome(scale):
        scaled = weight * scale
        try:
            return _align_rows(ranked, scaled[ranked], *_pool_weight(scaled[pool], scaled),
                               target * scale, "stratum").tolist()
        except AlignmentError:
            return "raises"
    assert outcome(2.0 ** k) == outcome(1.0)
