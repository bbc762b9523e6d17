import configparser
import dataclasses
import datetime as dt
import functools
import itertools
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenario_oracle

import nowcastsim
from nowcastsim import metrics, population, scenario, taxben
from nowcastsim.calibration import AlignmentError
from nowcastsim.money import cents, round_div, weekly_to_monthly
from nowcastsim.population import (SECTORS, WORK_STATUSES, WORKER_CODES, Population,
                                   SynthConfig, Table, generate_synthetic)
from nowcastsim.scenario import (CALIBRATED_COLUMNS, CASE_AGE_BANDS, ControlError, ControlTotals,
                                 ScenarioError, WavePoint, _align_rows, apply_wave,
                                 build_baseline, control_gaps, load_control_totals,
                                 nowcast_baseline, parse_scenario, run_scenario,
                                 schedule_faults)

D = dt.date
ACCOM = "accommodation and food service activities"
CONSTRUCTION = "construction"


# (scenario lines, wave lines, the location the error must name)
BAD_FIELDS = [
    ("capital_booking = monthly\n", "date=2020-05-05\n", r"\[scenario\] capital_booking"),
    ("employer_topup = 1.5\n", "date=2020-05-05\n", r"\[scenario\] employer_topup"),
    ("employer_topup = -0.1\n", "date=2020-05-05\n", r"\[scenario\] employer_topup"),
    ("employer_topup = nan\n", "date=2020-05-05\n", r"\[scenario\] employer_topup"),
    ("employer_topup = inf\n", "date=2020-05-05\n", r"\[scenario\] employer_topup"),
    ("employer_topup = lots\n", "date=2020-05-05\n", r"\[scenario\] employer_topup"),
    ("seed = 4.5\n", "date=2020-05-05\n", r"\[scenario\] seed"),
    ("", "date=2020-13-01\n", r"\[wave:a\] date"),
    ("employer_top_up = 0.9\n", "date=2020-05-05\n", r"\[scenario\] employer_top_up"),
    ("", "date=2020-05-05\npupp = on\n", r"\[wave:a\] pupp"),
    ("", "date=2020-05-05\n[DEFAULT]\npupp = on\n", r"s.cfg:5: unknown section \[DEFAULT\]"),
    ("", "date=2020-05-05\n[wave_b]\ndate=2020-06-06\n", r"unknown section \[wave_b\]"),
]


def equivalised(base, result, name):
    """A wave's household equivalised EUR/month of one income definition."""
    return getattr(result, name) / 100.0 / base.equiv_scale


def null_wave(label="before", date=D(2019, 12, 1)):
    return WavePoint(label=label, date=date)


def crisis_wave(date=D(2020, 5, 5), **overrides):
    fields = dict(label=date.isoformat(), date=date, pup_on=True, ceib_on=True,
                  subsidy="auto", childcare_support=True, deferrals_on=True,
                  capital_on=True, home_working_on=True)
    fields.update(overrides)
    return WavePoint(**fields)


@pytest.fixture(scope="module")
def base(small_pop, tables, schedules):
    return build_baseline(small_pop, ControlTotals(date=D(2019, 12, 1)), tables, schedules,
                          seed=7)


@pytest.fixture(scope="module")
def shipped_controls(default_scenario):
    return load_control_totals(default_scenario.controls_path)


class TestControlLoading:
    def test_shipped_file_parses(self, shipped_controls):
        wave1 = shipped_controls.at(D(2020, 5, 5))
        assert wave1.pup_by_sector[ACCOM] == 128500
        assert wave1.index_change_factor == pytest.approx(-0.3532)
        assert wave1.ceib_cases[("25-34", True)] > 0

    def test_unknown_sector_is_named(self, tmp_path):
        path = tmp_path / "controls.csv"
        path.write_text("stratum_key,date,target\npup:space mining,2020-05-05,10\n")
        with pytest.raises(ControlError, match="space mining"):
            load_control_totals(path)

    def test_unknown_employment_rate_band_is_located(self, tmp_path):
        path = tmp_path / "controls.csv"
        path.write_text("stratum_key,date,target\nemployment_rate:25-34,2019-12-01,0.7\n"
                        "employment_rate:25-35,2019-12-01,0.7\n")
        with pytest.raises(ControlError, match="^controls.csv:3: unknown age band '25-35'$"):
            load_control_totals(path)

    def test_unknown_stratum_key_rejected(self, tmp_path):
        path = tmp_path / "controls.csv"
        path.write_text("stratum_key,date,target\nfrobnicate,2020-05-05,10\n")
        with pytest.raises(ControlError):
            load_control_totals(path)

    def test_deferral_interpolation(self, shipped_controls):
        # linear between the March 28 (28000) and April 12 (45000) points
        series = shipped_controls
        assert series.deferrals_at(D(2020, 3, 28)) == 28000
        assert series.deferrals_at(D(2020, 4, 12)) == 45000
        mid = series.deferrals_at(D(2020, 4, 4))
        assert 28000 < mid < 45000
        # flat beyond the last observation, zero before the scheme
        assert series.deferrals_at(D(2021, 1, 26)) == 90539
        assert series.deferrals_at(D(2020, 1, 1)) == 0.0

    def test_deferral_rows_load_in_date_order(self, tmp_path):
        path = tmp_path / "controls.csv"
        path.write_text("stratum_key,date,target\nmortgage_deferrals,2020-04-12,45000\n"
                        "mortgage_deferrals,2020-03-28,28000\n")
        series = load_control_totals(path)
        assert series.deferrals == [(D(2020, 3, 28), 28000.0), (D(2020, 4, 12), 45000.0)]
        assert series.deferrals_at(D(2020, 4, 4)) == 28000 + 7 / 15 * (45000 - 28000)

    def test_missing_date_yields_null_controls(self, shipped_controls):
        empty = shipped_controls.at(D(2019, 12, 1))
        assert empty.pup_by_sector == {}
        assert empty.index_change_factor == 0.0


class TestScenarioFile:
    def test_shipped_scenario(self, default_scenario):
        labels = [w.label for w in default_scenario.waves]
        assert labels[0] == "before"
        assert len(labels) == 7
        assert default_scenario.waves[1].pup_on is True
        assert default_scenario.waves[0].pup_on is False
        dates = [w.date for w in default_scenario.waves]
        assert dates == sorted(dates)

    def test_bad_subsidy_value(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("[scenario]\ncontrols=c.csv\n[wave:a]\ndate=2020-05-05\n"
                        "subsidy=moon\n")
        with pytest.raises(ScenarioError):
            parse_scenario(path)

    def test_wave_needs_date(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("[scenario]\n[wave:a]\npup=on\n")
        with pytest.raises(ScenarioError):
            parse_scenario(path)

    @pytest.mark.parametrize("scenario_lines, wave_lines, where", BAD_FIELDS)
    def test_bad_field_is_located(self, tmp_path, scenario_lines, wave_lines, where):
        path = tmp_path / "s.cfg"
        path.write_text(f"[scenario]\ncontrols=c.csv\n{scenario_lines}"
                        f"[wave:a]\n{wave_lines}")
        with pytest.raises(ScenarioError, match=where) as err:
            parse_scenario(path)
        assert "s.cfg" in str(err.value)

    def test_key_before_any_section_is_located(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("seed = 1\n[scenario]\ncontrols=c.csv\n[wave:a]\ndate=2020-05-05\n")
        with pytest.raises(ScenarioError, match=r"s.cfg:1: a line before the first \[section\]$"):
            parse_scenario(path)

    def test_capital_booking_once_accepted(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("[scenario]\ncontrols=c.csv\ncapital_booking = once\n"
                        "employer_topup = 1\n[wave:a]\ndate=2020-05-05\n")
        plan = parse_scenario(path)
        assert plan.capital_booking == "once" and plan.employer_topup == 1.0

    @pytest.mark.parametrize("scenario_lines, wave_lines, message", [
        ("seed = 1\nseed = 2\n", "date=2020-05-05\n", "s.cfg:4: [scenario] seed is given twice"),
        ("", "date=2020-05-05\n[wave:a]\n", "s.cfg:5: [wave:a] is given twice"),
        ("", "date=2020-05-05\npupp = on\n", "s.cfg:5: [wave:a] pupp is not a known key"),
        ("", "date=2020-05-05\n[wave_b]\n", "s.cfg:5: unknown section [wave_b]"),
        ("employer_topup = 1.5\n", "date=2020-05-05\n",
         "s.cfg:3: [scenario] employer_topup must be a number in [0, 1], got '1.5'"),
        ("", "date=2020-05-05\npup = maybe\n", "s.cfg:5: [wave:a] pup must be on or off, "
                                               "got 'maybe'"),
        ("", "date=2020-13-01\n", "s.cfg:4: [wave:a] date must be an ISO date, "
                                  "got '2020-13-01'"),
        ("", "pup = on\n", "s.cfg:3: [wave:a] needs a date"),
        # a label is a CSV cell and part of summary_<label>.csv
        *[("", f"date=2020-05-05\n[wave:{label}]\ndate=2020-06-06\n",
           f"s.cfg:5: [wave:{label}] a wave label must be non-empty and hold none of "
           ', " / \\') for label in ("", "May 5, 2020", "05/05", 'a"b', "a\\b")],
        # gini.csv's change row of wave x is labelled change:x
        *[("", f"date=2020-05-05\n[wave:{label}]\ndate=2020-06-06\n",
           f"s.cfg:5: [wave:{label}] a wave label must not start with 'change:', which marks "
           "the change rows of gini.csv") for label in ("change:a", "change:")],
    ])
    def test_fault_names_file_and_line(self, tmp_path, scenario_lines, wave_lines, message):
        path = tmp_path / "s.cfg"
        path.write_text(f"[scenario]\ncontrols=c.csv\n{scenario_lines}[wave:a]\n{wave_lines}")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("line, message", [
        ("seed: 42", "s.cfg:3: expected key = value"),
        ("; a comment", "s.cfg:3: expected key = value"),
        ("Seed = 42", "s.cfg:3: [scenario] Seed is not a known key"),
    ])
    def test_configparser_only_syntax_is_located(self, tmp_path, line, message):
        """scenario.cfg has the syntax of the other configs: no `:`
        delimiter, no `;` comments and case-sensitive keys."""
        path = tmp_path / "s.cfg"
        path.write_text(f"[scenario]\ncontrols=c.csv\n{line}\n[wave:a]\ndate=2020-05-05\n")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("wave_lines", ["pup = on  # the payment\nceib = on\n",
                                            "pup = on\n  ceib = on\n"])
    def test_inline_comment_and_indented_key_are_read(self, tmp_path, wave_lines):
        path = tmp_path / "s.cfg"
        path.write_text(f"[scenario]\ncontrols=c.csv\n[wave:a]\ndate=2020-05-05\n{wave_lines}")
        wave = parse_scenario(path).waves[0]
        assert wave.pup_on and wave.ceib_on and not wave.deferrals_on

    @pytest.mark.parametrize("sweep", [False, True])
    def test_matches_the_configparser_reading(self, data_dir, tmp_path, sweep):
        """parse_scenario equals the configparser reading it replaced, on the
        shipped scenario and on a 25-wave sweep written by ConfigParser.write
        in which every wave key takes more than one value."""
        path = os.path.join(data_dir, "scenario.cfg")
        if sweep:
            parser = configparser.ConfigParser()
            parser["scenario"] = {"controls": os.path.join(data_dir, "control_totals.csv"),
                                  "seed": "7", "employer_topup": "0.25",
                                  "capital_booking": "once"}
            switches = ("pup", "ceib", "childcare_support", "deferrals", "capital_losses",
                        "home_working")
            for i in range(25):
                wave = {"date": (D(2021, 6, 1) - dt.timedelta(days=9 * i)).isoformat(),
                        "subsidy": ("none", "twss", "EWSS", "auto")[i % 4]}
                wave.update((key, "On" if i >> bit & 1 else "off")
                            for bit, key in enumerate(switches) if i % 7 != bit)
                parser[f"wave:w{i}"] = wave
            path = tmp_path / "scenario.cfg"
            with open(path, "w", encoding="utf-8") as fh:
                parser.write(fh)
        plan = parse_scenario(path)
        assert len(plan.waves) == (25 if sweep else 7)
        assert plan == scenario_oracle.parse_scenario(path)


class TestControlGaps:
    def test_shipped_scenario_has_no_gaps(self, default_scenario, shipped_controls):
        assert control_gaps(default_scenario, shipped_controls) == []

    def test_instrument_without_rows_is_named(self, tmp_path):
        (tmp_path / "c.csv").write_text(
            "stratum_key,date,target\nsubsidy:construction,2020-05-05,10\n"
            "mortgage_deferrals,2020-05-05,10\n")
        path = tmp_path / "s.cfg"
        path.write_text("[scenario]\ncontrols=c.csv\n[wave:a]\ndate=2020-05-05\n"
                        "pup=on\nceib=on\nsubsidy=auto\ndeferrals=on\n"
                        "capital_losses=on\n[wave:b]\ndate=2020-06-06\n")
        plan = parse_scenario(path)
        gaps = control_gaps(plan, load_control_totals(plan.controls_path))
        assert len(gaps) == 3
        for gap, instrument in zip(gaps, ("pup", "ceib", "capital_losses")):
            assert gap.startswith(f"wave a switches {instrument} on")
            assert "c.csv" in gap and "2020-05-05" in gap


    def test_ceib_margins_more_than_one_case_apart_are_named(self, tmp_path):
        (tmp_path / "c.csv").write_text(
            "stratum_key,date,target\nceib:construction,2020-05-05,10\n"
            "ceib:manufacturing,2020-05-05,5\nceib_cases:in_work:25-34,2020-05-05,12\n"
            "ceib_cases:out_of_work:25-34,2020-05-05,40\nceib:construction,2020-06-06,7\n"
            "ceib_cases:in_work:35-44,2020-06-06,3\nceib_cases:in_work:45-54,2020-06-06,5\n"
            "ceib:construction,2020-08-28,4\n")
        path = tmp_path / "s.cfg"
        path.write_text("[scenario]\ncontrols=c.csv\n[wave:a]\ndate=2019-12-01\n")
        plan = parse_scenario(path)
        assert control_gaps(plan, load_control_totals(plan.controls_path)) == [
            "c.csv: the ceib:<sector> rows at 2020-05-05 sum to 15 cases, "
            "the in-work ceib_cases rows to 12",
            "c.csv: the ceib:<sector> rows at 2020-08-28 sum to 4 cases, "
            "the in-work ceib_cases rows to 0"]

    def test_nowcast_rows_off_the_first_wave_date_are_named(self, tmp_path):
        (tmp_path / "c.csv").write_text(
            "stratum_key,date,target\nemployment_rate:25-34,2020-05-05,0.5\n"
            "employment_rate:35-44,2020-05-05,0.6\nemployment_rate:35-44,2019-12-01,0.7\n"
            "wage_index,2019-12-01,1.02\nwage_index,2020-08-28,1.1\n"
            "employment_rate:65+,2019-11-30,0.1\n")
        path = tmp_path / "s.cfg"
        path.write_text("[scenario]\ncontrols=c.csv\n[wave:b]\ndate=2020-05-05\n"
                        "[wave:a]\ndate=2019-12-01\n")
        plan = parse_scenario(path)
        never = "are never read; the nowcast reads them only at the first wave's date, 2019-12-01"
        assert control_gaps(plan, load_control_totals(plan.controls_path)) == [
            f"c.csv: the employment_rate:<band> rows at 2019-11-30 {never}",
            f"c.csv: the employment_rate:<band> rows at 2020-05-05 {never}",
            f"c.csv: the wage_index rows at 2020-08-28 {never}"]

    def test_shipped_ceib_margins_agree_within_one_case(self, default_scenario,
                                                        shipped_controls):
        assert control_gaps(default_scenario, shipped_controls) == []


class TestScheduleFaults:
    def test_shipped_scenario_has_none(self, default_scenario, schedules):
        assert schedule_faults(default_scenario, schedules, "scenario.cfg") == []

    @pytest.mark.parametrize("wave_lines, faults", [
        ("date=2020-11-15\nsubsidy=twss\n",
         ["twss not in force on 2020-11-15 (life 2020-03-13 to 2020-09-01)"]),
        ("date=2020-05-05\nsubsidy=ewss\n", ["ewss rates start 2020-07-01, got 2020-05-05"]),
        ("date=2019-12-01\nceib=on\nsubsidy=auto\n",
         ["pup: no regime in force on 2019-12-01 (scheme starts 2020-03-13)",
          "twss not in force on 2019-12-01 (life 2020-03-13 to 2020-09-01)"]),
        ("date=2019-12-01\npup=on\n",
         ["pup: no regime in force on 2019-12-01 (scheme starts 2020-03-13)"]),
        ("date=2019-12-01\npup=off\nsubsidy=none\ndeferrals=on\n", []),
        ("date=2020-08-31\npup=on\nsubsidy=auto\n", []),
        ("date=2020-09-01\nceib=on\nsubsidy=auto\n", []),
    ])
    def test_instrument_out_of_schedule_is_named(self, tmp_path, schedules, wave_lines,
                                                 faults):
        """The taxben calls apply_wave makes, at the wave's date: pup_rate_cents
        for pup or ceib, and the subsidy the wave pays, `auto` resolved."""
        path = tmp_path / "s.cfg"
        path.write_text(f"[scenario]\ncontrols=c.csv\n[wave:a]\n{wave_lines}")
        assert schedule_faults(parse_scenario(path), schedules, "s.cfg") == [
            f"s.cfg: [wave:a] {fault}" for fault in faults]

    @pytest.mark.parametrize("subsidy, date, scheme", [
        ("auto", D(2020, 8, 31), "twss"), ("auto", D(2020, 9, 1), "ewss"),
        ("twss", D(2021, 1, 1), "twss"), ("ewss", D(2020, 5, 5), "ewss"),
        ("none", D(2020, 5, 5), "none")])
    def test_subsidy_scheme_resolves_auto_at_the_handover(self, subsidy, date, scheme):
        assert WavePoint(label="a", date=date, subsidy=subsidy).subsidy_scheme == scheme


class TestAlignUnitsEmptyStratum:
    """A stratum with no eligible units absorbs a target of at most one
    unit-weight, the largest household weight, by selecting nobody; a
    larger target is infeasible."""

    def test_target_within_unit_weight_selects_nobody(self):
        for target in (0.5, 1.0):
            base = SimpleNamespace(hh_weight=np.array([0.5, 1.0]))
            chosen = _align_rows(base, np.empty(0, dtype=np.int64), np.empty(0), target,
                                 "sickness cases in age band 0")
            assert chosen.size == 0

    def test_target_above_unit_weight_raises_with_context(self):
        for unit_weight, target in ((0.0, 0.5), (1.0, 1.5)):
            with pytest.raises(AlignmentError, match="sickness cases in age band 0"):
                base = SimpleNamespace(hh_weight=np.array([unit_weight, 0.0]))
                _align_rows(base, np.empty(0, dtype=np.int64), np.empty(0), target,
                            "sickness cases in age band 0")


def same_columns(a, b) -> bool:
    return vars(a).keys() == vars(b).keys() and all(
        np.array_equal(column, getattr(b, name)) for name, column in vars(a).items())


def person_weights(pop):
    h = pop.households
    return h.weight[np.searchsorted(h.household_id, pop.persons.household_id)]


def base_weights(base):
    """Each person's weight in a baseline: their household's."""
    return base.hh_weight[base.hh_row]


def is_worker(persons):
    return np.isin(persons.work_status, WORKER_CODES)


def nowcast(pop, controls, seed):
    """`pop` with the person columns that the nowcast to `controls` changes."""
    changed = nowcast_baseline(pop.persons, person_weights(pop), controls, seed)
    return Population(households=pop.households, persons=Table(**(vars(pop.persons) | changed)))


class TestNowcastBaseline:
    def test_no_targets_is_identity(self, small_pop):
        out = nowcast(small_pop, ControlTotals(date=D(2019, 12, 1)), seed=7)
        assert same_columns(out.persons, small_pop.persons)

    def test_observed_rates_are_a_fixed_point(self, small_pop):
        bands = {}
        from nowcastsim.scenario import case_age_band
        group = case_age_band(small_pop.persons.age)
        weights = person_weights(small_pop)
        for band in ("25-34", "35-44", "45-54"):
            idx = np.flatnonzero((group == CASE_AGE_BANDS.index(band))
                                 & (small_pop.persons.age >= 16))
            w = weights[idx]
            worker = is_worker(small_pop.persons)[idx]
            bands[band] = float(w[worker].sum() / w.sum())
        controls = ControlTotals(date=D(2019, 12, 1), employment_rate_by_age=bands)
        out = nowcast(small_pop, controls, seed=7)
        assert same_columns(out.persons, small_pop.persons)

    def test_higher_target_hits_rate_within_one_unit(self, small_pop):
        from nowcastsim.scenario import case_age_band
        group = case_age_band(small_pop.persons.age)
        weights = person_weights(small_pop)
        band = "35-44"
        idx = np.flatnonzero((group == CASE_AGE_BANDS.index(band))
                             & (small_pop.persons.age >= 16))
        w = weights[idx]
        worker = is_worker(small_pop.persons)[idx]
        rate0 = float(w[worker].sum() / w.sum())
        target = min(rate0 + 0.05, 0.99)
        controls = ControlTotals(date=D(2019, 12, 1),
                                 employment_rate_by_age={band: target})
        out = nowcast(small_pop, controls, seed=7)
        worker_now = is_worker(out.persons)[idx]
        realized = float(w[worker_now].sum() / w.sum())
        assert abs(realized - target) <= w.max() / w.sum()
        violations = __import__("nowcastsim.population", fromlist=["validate"]) \
            .validate(out.households, out.persons)
        assert violations == []

    def test_lower_target_fires_with_zero_earnings(self, small_pop):
        from nowcastsim.scenario import case_age_band
        band = "35-44"
        in_band = ((case_age_band(small_pop.persons.age) == CASE_AGE_BANDS.index(band))
                   & (small_pop.persons.age >= 16))
        controls = ControlTotals(date=D(2019, 12, 1), employment_rate_by_age={band: 0.3})
        out = nowcast(small_pop, controls, seed=7)
        fired = in_band & is_worker(small_pop.persons) & ~is_worker(out.persons)
        assert fired.any()
        assert np.all(out.persons.work_status[fired] == WORK_STATUSES.index("unemployed"))
        assert np.all(out.persons.employment_income[fired] == 0.0)
        assert np.all(out.persons.self_employment_income[fired] == 0.0)
        assert np.all(is_worker(out.persons)[~in_band] == is_worker(small_pop.persons)[~in_band])

    def test_wage_index_scales_mean(self, small_pop):
        controls = ControlTotals(date=D(2019, 12, 1), wage_index=1.02)
        out = nowcast(small_pop, controls, seed=7)
        weights = person_weights(small_pop)

        def mean(pop):
            employee = pop.persons.work_status == WORK_STATUSES.index("employee")
            v = pop.persons.employment_income[employee]
            w = weights[employee]
            return float((v * w).sum() / w.sum())

        assert mean(out) == pytest.approx(1.02 * mean(small_pop), rel=1e-9)

    def test_build_baseline_leaves_its_input_unchanged(self, tables, schedules):
        """build_baseline calibrates new arrays, never `pop` itself."""
        pop = generate_synthetic(SynthConfig(households=400, weight_jitter=True), 7)
        before = [Table(**{name: column.copy() for name, column in vars(table).items()})
                  for table in (pop.households, pop.persons)]
        controls = ControlTotals(date=D(2019, 12, 1), wage_index=1.02,
                                 employment_rate_by_age={"25-34": 0.5, "45-54": 0.95})
        base = build_baseline(pop, controls, tables, schedules, seed=7)
        assert same_columns(pop.households, before[0])
        assert same_columns(pop.persons, before[1])
        order = np.argsort(pop.persons.person_id)
        assert not np.array_equal(base.status, pop.persons.work_status[order])
        assert not np.array_equal(base.employment_income, pop.persons.employment_income[order])

    def test_nowcast_imports_no_module(self):
        """Once its imports are done, an employment nowcast loads no module:
        np.isin on the selected ids took numpy's unique path, which imported
        numpy.ma in the middle of the run."""
        code = textwrap.dedent("""
            import datetime as dt, sys
            from nowcastsim import population, scenario
            pop = population.generate_synthetic(population.SynthConfig(households=300), 5)
            h, p = pop.households, pop.persons
            weight = h.weight[h.household_id.searchsorted(p.household_id)]
            p.person_id = p.person_id * 1000  # np.isin takes a table, not unique, on dense ids
            controls = scenario.ControlTotals(date=dt.date(2019, 12, 1), wage_index=1.02,
                                              employment_rate_by_age={"25-34": 0.5, "45-54": 0.95})
            loaded = set(sys.modules)
            changed = scenario.nowcast_baseline(p, weight, controls, 5)
            assert (changed["work_status"] != p.work_status).any()
            assert set(sys.modules) == loaded, sorted(set(sys.modules) - loaded)
        """)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nowcastsim.__file__))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, encoding="utf-8")
        assert done.returncode == 0, done.stderr


CALIBRATING = ControlTotals(date=D(2019, 12, 1), wage_index=1.02,
                           employment_rate_by_age={"25-34": 0.5, "45-54": 0.95})


def calibrating_series(plan):
    """The controls of `plan`, with CALIBRATING's employment rates and wage
    index at its first date, so that the nowcast aligns too."""
    series = load_control_totals(plan.controls_path)
    first = plan.waves[0].date
    series.employment_rate[first] = CALIBRATING.employment_rate_by_age
    series.wage_index[first] = CALIBRATING.wage_index
    return series


def assert_bit_equal(a, b):
    """`a` and `b` hold the same values with the same bits and dtypes,
    through dicts, lists and tuples."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_bit_equal(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_bit_equal(x, y)
    elif isinstance(a, (np.ndarray, float, int)):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    else:
        assert a == b


def shuffled(pop, rng) -> Population:
    """`pop` with its person rows and its household rows (with their
    member lists) each in a random order."""
    h, p = pop.households, pop.persons
    h_perm, p_perm = rng.permutation(len(h)), rng.permutation(len(p))
    members = np.split(h.member_ids, h.member_offsets[1:-1])
    households = Table(**{name: column[h_perm] for name, column in vars(h).items()})
    households.member_ids = np.concatenate([members[i] for i in h_perm])
    households.member_offsets = np.cumsum([0] + [members[i].size for i in h_perm])
    persons = Table(**{name: column[p_perm] for name, column in vars(p).items()})
    return Population(households=households, persons=persons)


# the dtype of every column of the one in-memory layout
LAYOUT = {
    "persons": {"person_id": np.int32, "household_id": np.int32, "age": np.int16,
                **dict.fromkeys(("sex", "education", "occupation", "industry", "region",
                                 "work_status", "covid_state"), np.int8),
                **dict.fromkeys(("employment_income", "self_employment_income", "capital_income",
                                 "private_pension"), np.float64),
                "essential_worker": bool, "home_work_capable": bool},
    "households": {"household_id": np.int32, "weight": np.float64, "member_offsets": np.intp,
                   "member_ids": np.int32, "tenure": np.int8, "mortgage_payment": np.float64,
                   "rent": np.float64, "childcare_user": bool, "childcare_expenditure": np.float64,
                   "n_children_0_4": np.int16, "n_children_under14": np.int16},
}


class TestLayout:
    """The generator and the loader both hold category codes in one byte,
    ids in four and ages and child counts in two; the engine gives the same
    run on the int64 columns of hand-built tables."""

    def test_generated_and_loaded_tables_hold_int8_codes(self, tmp_path):
        generated = generate_synthetic(SynthConfig(households=50, weight_jitter=True), 3)
        population.save_population(generated, tmp_path)
        for pop in (generated, population.load_population(tmp_path)):
            for name, dtypes in LAYOUT.items():
                table = getattr(pop, name)
                assert {c: a.dtype for c, a in vars(table).items()} == {
                    c: np.dtype(d) for c, d in dtypes.items()}, name

    def test_int64_codes_give_the_same_run(self, tables, schedules, default_scenario, wave_spy):
        """Every narrowed column, codes, ids, ages and child counts, widened to int64."""
        pop = generate_synthetic(SynthConfig(households=300, weight_jitter=True), 5)
        wide = Population(*(Table(**{c: a.astype(np.int64) if a.dtype.kind == "i" else a
                                     for c, a in vars(table).items()})
                            for table in (pop.households, pop.persons)))
        for name, dtypes in LAYOUT.items():
            assert {c: a.dtype for c, a in vars(getattr(wide, name)).items()} == {
                c: np.dtype(np.int64 if np.dtype(d).kind == "i" else d)
                for c, d in dtypes.items()}, name
        series = calibrating_series(default_scenario)
        (_, results, summaries), (_, wide_results, wide_summaries) = (
            wave_spy(p, default_scenario, series, tables, schedules, seed=5)
            for p in (pop, wide))
        assert_bit_equal([vars(r) for r in results], [vars(r) for r in wide_results])
        assert_bit_equal([vars(s) for s in summaries], [vars(s) for s in wide_summaries])


def test_baseline_owns_13_bytes_per_person_48_per_household_and_its_pools(tables, schedules):
    """The arrays a baseline owns, those that are no view of its input,
    hold 13 bytes per person (hh_row, and is_worker, commute_mode, cap_band,
    cap_quintile and cap_participant at 1 byte each), 48 per household
    (housing, equivalence scale, childcare, market income, taxes, benefits),
    8 per sector (its worker weight) and the alignment pools: 8 per member
    of a pool, its rows in alignment order. Growing the baseline changes
    this test."""
    pop = generate_synthetic(SynthConfig(households=2000, weight_jitter=True), 9)
    base = build_baseline(pop, ControlTotals(date=D(2019, 12, 1)), tables, schedules, seed=9)
    inputs = [*vars(pop.persons).values(), *vars(pop.households).values()]
    arrays = [a for a in [*vars(base).values(), *base.strata.values()]
              if isinstance(a, np.ndarray)]
    owned = [a for a in arrays if not any(np.shares_memory(a, column) for column in inputs)]
    in_sector = base.is_worker & (pop.persons.industry >= 0)  # generated in id order
    fixed_members = (np.sum(in_sector & (base.age >= 18) & (base.age <= 66))
                     + np.sum(pop.households.tenure == population.TENURES.index("mortgage")))
    subsidy_members = np.sum(in_sector & (base.status == taxben.STATUS_CODES["employee"]))
    assert sum(a.nbytes for a in owned) == (13 * base.pid.size + 48 * base.hid.size
                                            + 8 * len(SECTORS) + 8 * fixed_members
                                            + 8 * subsidy_members)


# Traced bytes per person that each phase may allocate above its live input,
# measured on the population of the test below (4,575 persons); the peaks
# repeat to 0.3% across processes.
PHASE_BUDGETS = {"load_population": 194.4, "build_baseline": 182.3, "run_scenario": 221.3}


def test_each_phase_peaks_within_its_traced_budget_per_person(tables, schedules, tmp_path,
                                                               default_scenario,
                                                               shipped_controls):
    """Under tracemalloc, which counts numpy's buffers, the peak each phase
    reaches above the memory live at its entry stays within its per-person
    budget plus 1%: loading 2,000 saved households, building their baseline
    and running the shipped scenario on them. A change that lowers a peak
    lowers its budget too."""
    population.save_population(
        generate_synthetic(SynthConfig(households=2000, weight_jitter=True), 9), tmp_path)
    peaks = {}

    def traced(phase, *args):
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = phase(*args)
        peaks[phase.__name__] = tracemalloc.get_traced_memory()[1] - live
        return out
    tracemalloc.start()
    try:
        pop = traced(population.load_population, tmp_path)
        traced(build_baseline, pop, shipped_controls.at(default_scenario.waves[0].date), tables,
               schedules, 9)
        traced(run_scenario, pop, default_scenario, shipped_controls, tables, schedules, 9)
    finally:
        tracemalloc.stop()
    persons = pop.persons.person_id.size
    assert list(peaks) == list(PHASE_BUDGETS)
    over = {name: peak / persons for name, peak in peaks.items()
            if peak > 1.01 * PHASE_BUDGETS[name] * persons}
    assert not over, over


class TestBaselineInputOrder:
    """On input in id order build_baseline reads the columns in place; any
    other order is sorted into copies. Both give one baseline."""

    @pytest.fixture(scope="class")
    def pop(self):
        return generate_synthetic(SynthConfig(households=300, weight_jitter=True), 5)

    @pytest.fixture(scope="class")
    def ordered_base(self, pop, tables, schedules):
        return build_baseline(pop, CALIBRATING, tables, schedules, seed=5)

    def test_read_columns_are_read_only_views_of_the_input(self, pop, ordered_base):
        for name, column in (("pid", pop.persons.person_id), ("age", pop.persons.age),
                             ("hh_weight", pop.households.weight),
                             ("capital_income", pop.persons.capital_income),
                             ("private_pension", pop.persons.private_pension)):
            assert np.shares_memory(getattr(ordered_base, name), column), name
            assert not getattr(ordered_base, name).flags.writeable, name

    def test_calibrated_columns_are_copies(self, pop, ordered_base):
        for name in ("status", "employment_income", "self_employment_income"):
            for column in [*vars(pop.persons).values(), *vars(pop.households).values()]:
                assert not np.shares_memory(getattr(ordered_base, name), column), name

    def test_input_stays_writeable(self, pop, ordered_base):
        for table in (pop.households, pop.persons):
            assert all(column.flags.writeable for column in vars(table).values())

    def test_every_baseline_array_is_read_only(self, ordered_base):
        arrays = [v for v in [*vars(ordered_base).values(), *ordered_base.strata.values()]
                  if isinstance(v, np.ndarray)]
        assert len(arrays) > 30 and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            ordered_base.employment_income[0] = 0

    def test_nowcast_writes_only_the_calibrated_columns(self, pop):
        """The nowcast writes none of its input's columns: it returns new
        arrays for the calibrated columns it changes, and none when its
        controls change nothing."""
        persons = Table(**{name: column.copy() for name, column in vars(pop.persons).items()})
        for column in vars(persons).values():
            column.flags.writeable = False
        weight = person_weights(pop)
        changed = nowcast_baseline(persons, weight, CALIBRATING, seed=5)
        assert list(changed) == list(CALIBRATED_COLUMNS)
        assert not np.array_equal(changed["work_status"], pop.persons.work_status)
        assert not np.array_equal(changed["employment_income"], pop.persons.employment_income)
        assert same_columns(persons, pop.persons)
        wage_only = ControlTotals(date=CALIBRATING.date, wage_index=1.02)
        assert list(nowcast_baseline(persons, weight, wage_only, seed=5)) == ["employment_income"]
        assert nowcast_baseline(persons, weight, ControlTotals(date=CALIBRATING.date), 5) == {}

    def test_nothing_is_copied_when_the_nowcast_changes_nothing(self, pop, tables, schedules):
        base = build_baseline(pop, ControlTotals(date=CALIBRATING.date), tables, schedules, 5)
        for name, column in (("status", pop.persons.work_status),
                             ("home_capable", pop.persons.home_work_capable),
                             ("employment_income", pop.persons.employment_income),
                             ("self_employment_income", pop.persons.self_employment_income)):
            assert np.shares_memory(getattr(base, name), column), name

    @pytest.mark.parametrize("seed", [5, 11])
    @settings(max_examples=4, deadline=None)
    @given(order_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_shuffled_input_gives_the_same_run(self, seed, order_seed, tables, schedules,
                                               default_scenario, wave_spy):
        pop = generate_synthetic(SynthConfig(households=300, weight_jitter=True), seed)
        other = shuffled(pop, np.random.default_rng(order_seed))
        assert population.validate(other.households, other.persons) == []
        series = calibrating_series(default_scenario)
        runs = [wave_spy(p, default_scenario, series, tables, schedules, seed)
                for p in (pop, other)]
        (base, results, summaries), (other_base, other_results, other_summaries) = runs
        assert not np.shares_memory(other_base.pid, other.persons.person_id)
        assert_bit_equal(vars(base), vars(other_base))
        assert_bit_equal([vars(r) for r in results], [vars(r) for r in other_results])
        assert_bit_equal([vars(s) for s in summaries], [vars(s) for s in other_summaries])


class TestApplyWave:
    def test_baseline_is_frozen(self, base):
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.employment_income = base.employment_income.copy()

    def test_null_wave_is_fixed_point(self, base, tables, schedules):
        controls = ControlTotals(date=D(2019, 12, 1))
        a = apply_wave(base, controls, null_wave(), tables, schedules, seed=7)
        b = apply_wave(base, controls, null_wave(), tables, schedules, seed=7)
        for name in ("market", "gross", "disposable", "adjusted", "taxes",
                     "benefits", "housing", "capital_adjustment", "work_expenses"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.all(a.covid_code == 0)
        assert np.all(a.capital_adjustment == 0)

    def test_a_wave_that_moves_nobody_holds_the_baseline_accounts(self, base, tables,
                                                                   schedules, shipped_controls):
        """With nobody moved, the step household_accounts returns the
        baseline's market, taxes and benefits themselves; a wave that moves
        someone holds arrays of its own."""
        still = apply_wave(base, ControlTotals(date=D(2019, 12, 1)), null_wave(), tables,
                           schedules, seed=7)
        wave = crisis_wave()
        moved = apply_wave(base, shipped_controls.at(wave.date), wave, tables, schedules, seed=7)
        for name in ("market", "taxes", "benefits"):
            assert getattr(still, name) is getattr(base, name), name
            assert not np.shares_memory(getattr(moved, name), getattr(base, name)), name
        assert np.array_equal(still.gross, base.market + base.benefits)
        assert np.array_equal(still.disposable, still.gross - base.taxes)

    def test_result_dtypes(self, base, tables, schedules, shipped_controls):
        """One byte per person for the covid code; integer cents per household."""
        wave = crisis_wave()
        r = apply_wave(base, shipped_controls.at(wave.date), wave, tables, schedules, seed=7)
        assert r.covid_code.dtype == np.int8
        assert set(r.covid_code.tolist()) == set(taxben.COVID_CODES.values())
        for name in ("market", "gross", "disposable", "adjusted", "taxes",
                     "benefits", "housing", "capital_adjustment", "work_expenses"):
            assert getattr(r, name).dtype == np.int64, name

    def test_identity_every_wave(self, base, tables, schedules, shipped_controls,
                                 default_scenario):
        for wave in default_scenario.waves:
            r = apply_wave(base, shipped_controls.at(wave.date), wave, tables,
                           schedules, seed=7)
            assert np.array_equal(
                r.adjusted, r.disposable - r.housing - r.capital_adjustment
                - r.work_expenses)

    def test_pup_counts_match_scaled_targets(self, small_pop, base, tables, schedules,
                                             shipped_controls):
        wave = crisis_wave()
        controls = shipped_controls.at(wave.date)
        r = apply_wave(base, controls, wave, tables, schedules, seed=7)
        pup_code = taxben.COVID_CODES["pup_recipient"]
        weight = base_weights(base)
        for sector, count in controls.pup_by_sector.items():
            s = SECTORS.index(sector)
            in_sector = small_pop.persons.industry == s  # generated in id order
            pop_weight = float(weight[base.is_worker & in_sector].sum())
            target = count * pop_weight / tables.national["sector_employment"][sector]
            realized = float(weight[(r.covid_code == pup_code) & in_sector].sum())
            assert abs(realized - target) <= weight.max() + 1e-9

    def test_recipients_lose_earnings_and_gain_banded_rate(self, base, tables,
                                                           schedules, shipped_controls):
        wave = crisis_wave(date=D(2020, 11, 15))
        r = apply_wave(base, shipped_controls.at(wave.date), wave, tables,
                       schedules, seed=7)
        recipients = r.covid_code == taxben.COVID_CODES["pup_recipient"]
        assert recipients.any()
        weekly_earn = round_div(cents(base.employment_income)
                                + np.maximum(cents(base.self_employment_income), 0), 52)
        rates = np.array([
            taxben.pup_rate_cents(schedules, int(c), wave.date)
            for c in weekly_earn[recipients]
        ])
        assert set(rates.tolist()) <= {20300, 25000, 30000, 35000}
        # recompute household benefits from person states and compare
        expected_weekly = np.zeros(base.pid.size, dtype=np.int64)
        expected_weekly[recipients] = rates
        ceib = r.covid_code == taxben.COVID_CODES["ceib_recipient"]
        expected_weekly[ceib] = [
            taxben.pup_rate_cents(schedules, int(c), wave.date)
            for c in weekly_earn[ceib]
        ]
        baseline_unemployed = base.status == taxben.STATUS_CODES["unemployed"]
        expected_weekly[baseline_unemployed & (r.covid_code == 0)] = \
            schedules.tax.unemployment_weekly_cents
        retired = base.status == taxben.STATUS_CODES["retired"]
        expected_weekly[retired] = schedules.tax.pension_weekly_cents
        expected_b = np.bincount(
            base.hh_row, weights=weekly_to_monthly(expected_weekly),
            minlength=base.hid.size).astype(np.int64)
        assert np.array_equal(expected_b, r.benefits)

    def test_switch_off_identity(self, base, tables, schedules, shipped_controls):
        wave = crisis_wave(pup_on=False, ceib_on=False, subsidy="none",
                           childcare_support=False, deferrals_on=False,
                           capital_on=False, home_working_on=False)
        controls = shipped_controls.at(wave.date)
        r = apply_wave(base, controls, wave, tables, schedules, seed=7)
        assert np.all(r.covid_code == 0)
        assert np.array_equal(r.disposable, r.market - r.taxes + r.benefits)
        # benefits reduce to the baseline rules: each job loser adds exactly the
        # ordinary unemployment rate to the baseline benefits
        job_lost = scenario.job_losses(base, controls, tables)
        assert job_lost.any()
        losers = np.bincount(base.hh_row[job_lost], minlength=base.hid.size)
        rate = weekly_to_monthly(schedules.tax.unemployment_weekly_cents)
        assert np.array_equal(r.benefits, base.benefits + losers * rate)
        assert np.all(r.capital_adjustment == 0)
        baseline = apply_wave(base, ControlTotals(date=wave.date), null_wave(
            label="null", date=wave.date), tables, schedules, seed=7)
        assert float(r.market.sum()) < float(baseline.market.sum())

    def test_monotone_burden_in_pup_count(self, base, tables, schedules,
                                          shipped_controls):
        wave = crisis_wave()
        controls = shipped_controls.at(wave.date)
        market_totals = []
        for factor in (0.5, 1.0):
            scaled = ControlTotals(
                date=controls.date,
                pup_by_sector={k: v * factor for k, v in controls.pup_by_sector.items()},
            )
            r = apply_wave(base, scaled, wave, tables, schedules, seed=7)
            market_totals.append(float((r.market * base.hh_weight).sum()))
        assert market_totals[1] <= market_totals[0]

    def test_infeasible_sector_raises(self, base, tables, schedules):
        count = tables.national["sector_employment"][CONSTRUCTION] * 2.0
        controls = ControlTotals(date=D(2020, 5, 5),
                                 pup_by_sector={CONSTRUCTION: count})
        with pytest.raises(AlignmentError):
            apply_wave(base, controls, crisis_wave(), tables, schedules, seed=7)

    def test_home_working_and_support_zero_expenses(self, base, tables, schedules,
                                                    shipped_controls):
        wave = crisis_wave(childcare_support=False)
        controls = shipped_controls.at(wave.date)
        r = apply_wave(base, controls, wave, tables, schedules, seed=7)
        null = apply_wave(base, ControlTotals(date=wave.date),
                          null_wave(label="n", date=wave.date), tables,
                          schedules, seed=7)
        assert float(r.work_expenses.sum()) < float(null.work_expenses.sum())
        # households where someone newly stays home (benefit recipients and
        # home workers, not the still-working subsidised) pay no childcare,
        # so their work expenses cannot exceed the largest commuting bill
        from nowcastsim.money import cents, weekly_to_monthly
        recipients = np.isin(r.covid_code, [taxben.COVID_CODES["pup_recipient"],
                                            taxben.COVID_CODES["ceib_recipient"]])
        # step (d)'s home workers, from the public steps (a) and (b)
        job_lost = scenario.job_losses(base, controls, tables)
        employed_now = base.is_worker & ~job_lost & ~scenario.sickness_cases(
            base, controls, wave, tables, 7, job_lost)
        stays_home = recipients | (employed_now & ~base.essential & base.home_capable)
        assert stays_home.sum() > recipients.sum()
        home_hh = np.unique(base.hh_row[stays_home])
        max_commuting = weekly_to_monthly(
            tables.commute.motor_fuels_cents[3] + tables.commute.public_transport_cents[3])
        assert np.all(r.work_expenses[home_hh] <= max_commuting)

    def test_childcare_support_switch_zeroes_all_childcare(self, base, tables,
                                                           schedules, shipped_controls):
        wave = crisis_wave(childcare_support=True)
        with_support = apply_wave(base, shipped_controls.at(wave.date), wave,
                                  tables, schedules, seed=7)
        without = apply_wave(base, shipped_controls.at(wave.date),
                             crisis_wave(childcare_support=False), tables,
                             schedules, seed=7)
        assert float(with_support.work_expenses.sum()) <= \
            float(without.work_expenses.sum())
        payers = base.childcare_weekly_cents > 0
        assert payers.any()


class TestCompare:
    def test_instruments_on_vs_off_gini(self, base, tables, schedules,
                                        shipped_controls):
        date = D(2020, 5, 5)
        controls = shipped_controls.at(date)
        before = apply_wave(base, ControlTotals(date=date),
                            null_wave(label="b", date=date), tables, schedules, seed=7)
        on = apply_wave(base, controls, crisis_wave(), tables, schedules, seed=7)
        off = apply_wave(base, controls,
                         crisis_wave(pup_on=False, ceib_on=False, subsidy="none"),
                         tables, schedules, seed=7)
        def gini_delta(result, name):
            return (metrics.weighted_gini(equivalised(base, result, name)[base.hh_row],
                                          base_weights(base))
                    - metrics.weighted_gini(equivalised(base, before, name)[base.hh_row],
                                            base_weights(base)))

        assert gini_delta(on, "market") > 0
        assert gini_delta(on, "disposable") < gini_delta(off, "disposable")


class TestRunScenario:
    def test_end_to_end_and_thread_determinism(self, small_pop, tables, schedules,
                                               default_scenario, shipped_controls, wave_spy):
        base1, results1, summaries1 = wave_spy(
            small_pop, default_scenario, shipped_controls, tables, schedules, seed=42,
            threads=1)
        base3, results3, summaries3 = wave_spy(
            small_pop, default_scenario, shipped_controls, tables, schedules, seed=42,
            threads=3)
        assert [s.label for s in summaries1] == [w.label for w in default_scenario.waves]
        for a, b in zip(results1, results3):
            assert np.array_equal(a.adjusted, b.adjusted)
            assert np.array_equal(a.market, b.market)
        for a, b in zip(summaries1, summaries3):
            assert a.gini == b.gini and a.means == b.means
        # decile means of the ranking definition rise with the decile index
        # in the ranking wave itself
        before = summaries1[0].decile_means["adjusted"]
        assert np.all(np.diff(before) >= 0)

    def test_each_wave_ranks_each_definition_once(self, small_pop, tables, schedules,
                                                  default_scenario, shipped_controls,
                                                  monkeypatch):
        """Persons are ranked once per run, into the first wave's fixed
        deciles; each wave's four Ginis sort its households, not its persons,
        and every summary reads the one set of (household, decile) pairs."""
        grouped, ginis, paired, summarized = [], [], [], []
        inner_groups, inner_gini = metrics.weighted_quantile_groups, metrics.weighted_gini
        inner_pairs, inner_summarize = metrics.decile_groups, metrics.summarize
        monkeypatch.setattr(metrics, "weighted_quantile_groups", lambda order, weights, n:
                            grouped.append(inner_groups(order, weights, n)) or grouped[-1])
        monkeypatch.setattr(metrics, "weighted_gini", lambda values, weights:
                            ginis.append(len(values)) or inner_gini(values, weights))
        monkeypatch.setattr(metrics, "decile_groups", lambda hh_row, weights, deciles:
                            paired.append((deciles, inner_pairs(hh_row, weights, deciles)))
                            or paired[-1][1])
        monkeypatch.setattr(metrics, "summarize", lambda values, hw, groups:
                            summarized.append((len(values), groups))
                            or inner_summarize(values, hw, groups))
        base, _, summaries = run_scenario(small_pop, default_scenario, shipped_controls, tables,
                                          schedules, seed=42)
        assert [g.size for g in grouped].count(base.pid.size) == 1
        assert ginis == [base.hid.size] * 4 * len(default_scenario.waves)
        assert base.hid.size < base.pid.size
        [(deciles, groups)] = paired
        assert deciles is grouped[-1] and deciles.size == base.pid.size
        assert [n for n, _ in summarized] == [base.hid.size] * 4 * len(summaries)
        assert all(g is groups for _, g in summarized)

    def test_null_scenario_constant_across_waves(self, small_pop, tables, schedules,
                                                 tmp_path, default_scenario, wave_spy):
        controls = tmp_path / "controls.csv"
        controls.write_text("stratum_key,date,target\n")
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "[scenario]\ncontrols = controls.csv\nseed = 1\n"
            "[wave:before]\ndate = 2019-12-01\n"
            "[wave:later]\ndate = 2020-05-05\n"
        )
        plan = parse_scenario(cfg)
        _, results, summaries = wave_spy(small_pop, plan, load_control_totals(controls),
                                             tables, schedules, seed=1)
        assert np.array_equal(results[0].adjusted, results[1].adjusted)
        assert summaries[0].gini == summaries[1].gini

    def test_equivalised_values_positive(self, small_pop, tables, schedules,
                                         default_scenario, shipped_controls, wave_spy):
        base, results, summaries = wave_spy(small_pop, default_scenario, shipped_controls,
                                                tables, schedules, seed=3)
        values = {name: equivalised(base, results[0], name)
                  for name in metrics.INCOME_DEFINITIONS}
        assert set(values) == set(summaries[0].means) == {"market", "gross", "disposable",
                                                           "adjusted"}
        assert values["gross"].mean() > 0 and summaries[0].means["gross"] > 0


def benefit_change_per_recipient(base, result):
    """A wave's weighted monthly benefit change in EUR, over every household,
    per PUP or CEIB recipient."""
    codes = [taxben.COVID_CODES[state] for state in ("pup_recipient", "ceib_recipient")]
    recipients = np.isin(result.covid_code, codes)
    change = np.sum(base.hh_weight * (result.benefits - base.benefits)) / 100.0
    return change / base_weights(base)[recipients].sum()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generosity_falls_as_benefits_become_targeted(tables, schedules, default_scenario,
                                                      shipped_controls, wave_spy, seed):
    """The paper's second finding: the flat PUP of the first crisis wave gave
    way to earnings-banded rates, so a recipient gains less by the last wave.
    At 2,000 households the first crisis date gives 1,517 EUR at each seed,
    and the last 1,468, 1,448 and 1,454 EUR at seeds 1, 2 and 3."""
    pop = generate_synthetic(SynthConfig(households=2000), seed)
    base, results, _ = wave_spy(pop, default_scenario, shipped_controls, tables, schedules,
                                    seed=seed)
    by_date = {r.date: r for r in results}
    first, last = (benefit_change_per_recipient(base, by_date[date])
                   for date in (D(2020, 5, 5), D(2021, 1, 26)))
    assert last < first and not np.isclose(last, first)  # a fall, not a rounding tie


# the instrument variants of every crisis date in a policy sweep
SWEEP_VARIANTS = {"full": {}, "nopup": {"pup_on": False, "ceib_on": False},
                  "nosub": {"subsidy": "none"},
                  "care": {"childcare_support": True, "deferrals_on": False, "capital_on": False,
                           "home_working_on": False}}

# one wave per switch of the shipped 2020-08-28 wave (childcare support off) flipped
SWITCH_FLIPS = {"full": {}, "nopup": {"pup_on": False}, "noceib": {"ceib_on": False},
                "nosub": {"subsidy": "none"}, "twss": {"subsidy": "twss"},
                "ewss": {"subsidy": "ewss"}, "nodeferrals": {"deferrals_on": False},
                "nocapital": {"capital_on": False}, "nohome": {"home_working_on": False},
                "care": {"childcare_support": True}}
# the WaveResult fields a date's waves share, and the wave switches each is
# keyed by (besides the date and the run's employer_topup and capital_booking)
SHARED_FIELDS = {"housing": ("deferrals_on",), "capital_adjustment": ("capital_on",),
                 **dict.fromkeys(("market", "taxes", "benefits", "gross", "disposable"),
                                 ("pup_on", "ceib_on", "subsidy_scheme")),
                 "work_expenses": ("ceib_on", "home_working_on", "childcare_support")}
ACCOUNTS = ("market", "taxes", "benefits")  # the baseline's own, in a wave that moves nobody


def policy_sweep(plan):
    """`plan`'s first wave, then each crisis date x SWEEP_VARIANTS, plus ewss
    on 2020-08-28, where `auto` pays twss; at another top-up and booking."""
    first, *crisis = plan.waves
    waves = [first]
    for w in crisis:
        waves += [dataclasses.replace(w, label=f"{w.label}-{name}", **fields)
                  for name, fields in SWEEP_VARIANTS.items()]
        if w.date == D(2020, 8, 28):  # both schemes are in force; `auto` pays twss
            waves.append(dataclasses.replace(w, label=f"{w.label}-ewss", subsidy="ewss"))
    return dataclasses.replace(plan, waves=waves, employer_topup=0.25, capital_booking="once")


class TestSharedDraws:
    """run_scenario runs the waves of one date with one dict of results;
    each wave's result must still be that of a standalone apply_wave."""

    @pytest.fixture(scope="class", params=["sweep", "flips", "flips-once"])
    def plan(self, default_scenario, request):
        """The policy sweep (`policy_sweep`), or one date's waves, each
        flipping one switch of the shipped 2020-08-28 wave, at the default
        top-up and booking or at others."""
        if request.param == "sweep":
            return policy_sweep(default_scenario)
        first, *crisis = default_scenario.waves
        [w] = [w for w in crisis if w.date == D(2020, 8, 28)]
        waves = [first] + [dataclasses.replace(w, label=f"{w.label}-{name}", **fields)
                           for name, fields in SWITCH_FLIPS.items()]
        settings = {"flips": {}, "flips-once": dict(employer_topup=0.6,
                                                    capital_booking="once")}[request.param]
        return dataclasses.replace(default_scenario, waves=waves, **settings)

    @pytest.fixture(scope="class")
    def jittered(self):
        return generate_synthetic(SynthConfig(households=300, weight_jitter=True), 5)

    def standalone(self, pop, plan, series, tables, schedules, seed):
        base = build_baseline(pop, series.at(plan.waves[0].date), tables, schedules, seed)
        return [apply_wave(base, series.at(w.date), w, tables, schedules, seed,
                           employer_topup=plan.employer_topup,
                           capital_booking=plan.capital_booking) for w in plan.waves]

    def test_sweep_shares_dates(self, plan):
        """Each plan is in date order as parse_scenario gives it, and its
        2020-08-28 waves pay no subsidy, twss and ewss."""
        dates = [w.date for w in plan.waves]
        assert dates == sorted(dates)
        assert (len(set(dates)), len(dates)) in ((7, 1 + 6 * 4 + 1), (2, 1 + len(SWITCH_FLIPS)))
        schemes = {w.subsidy_scheme for w in plan.waves if w.date == D(2020, 8, 28)}
        assert schemes == {"none", "twss", "ewss"}

    @pytest.mark.parametrize("threads", [1, 3])
    def test_waves_equal_standalone_waves(self, jittered, plan, shipped_controls, tables,
                                          schedules, wave_spy, threads):
        _, results, _ = wave_spy(jittered, plan, shipped_controls, tables, schedules,
                                     seed=11, threads=threads)
        expected = self.standalone(jittered, plan, shipped_controls, tables, schedules, 11)
        assert_bit_equal([vars(r) for r in results], [vars(r) for r in expected])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_unsorted_waves_give_the_same_results(self, jittered, plan, shipped_controls,
                                                  tables, schedules, wave_spy, threads):
        """Shuffled, a date's waves fill their dict in another order (or, in
        the sweep, split into several runs of one date)."""
        first, *rest = plan.waves
        order = np.random.default_rng(4).permutation(len(rest))
        shuffled = dataclasses.replace(plan, waves=[first] + [rest[i] for i in order])
        assert [w.label for w in shuffled.waves] != [w.label for w in plan.waves]
        dates = [w.date for w in shuffled.waves]
        if len(set(dates)) > 2:
            assert dates != sorted(dates)
        _, results, summaries = wave_spy(jittered, shuffled, shipped_controls, tables,
                                             schedules, seed=11, threads=threads)
        expected = self.standalone(jittered, shuffled, shipped_controls, tables, schedules, 11)
        assert_bit_equal([vars(r) for r in results], [vars(r) for r in expected])
        _, _, sorted_summaries = run_scenario(
            jittered, plan, shipped_controls, tables, schedules, seed=11)
        by_label = {s.label: vars(s) for s in sorted_summaries}
        assert_bit_equal([vars(s) for s in summaries], [by_label[s.label] for s in summaries])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_waves_whose_keys_agree_hold_the_same_arrays(self, jittered, plan,
                                                         shipped_controls, tables, schedules,
                                                         wave_spy, threads, monkeypatch):
        """Shared results are the same arrays exactly where the keys agree,
        except the housing cost of a wave that defers nobody, and the market
        income, taxes and benefits of a wave that moves nobody: those are the
        baseline's `housing_cents`, and its `market`, `taxes` and `benefits`,
        in every such wave of the run. With no capital change, Q is a
        zero-stride view of 0. The covid codes, adjusted income and the
        person states (d) that the step `work_expenses` reads are each
        wave's own."""
        states, expenses_step = [], scenario.work_expenses

        @functools.wraps(expenses_step)
        def work_expenses(base, wave, tables, job_lost, ceib, employed_now, home_working):
            states.append((employed_now, home_working))
            return expenses_step(base, wave, tables, job_lost, ceib, employed_now, home_working)
        monkeypatch.setattr(scenario, "work_expenses", work_expenses)
        base, results, _ = wave_spy(jittered, plan, shipped_controls, tables, schedules,
                                        seed=11, threads=threads)
        waves = {w.label: w for w in plan.waves}
        defers, books, still = set(), set(), set()
        for r in results:
            wave, controls = waves[r.label], shipped_controls.at(r.date)
            if not (r.covid_code.any() or scenario.job_losses(base, controls, tables).any()):
                still.add(r.label)
            for name in ACCOUNTS:
                assert (getattr(r, name) is getattr(base, name)) == (r.label in still), r.label
            if wave.deferrals_on and controls.deferral_count > 0:
                defers.add(r.label)
                assert not np.array_equal(r.housing, base.housing_cents), r.label
            if wave.capital_on and controls.index_change_factor != 0.0:
                books.add(r.label)
            assert (r.housing is base.housing_cents) == (r.label not in defers), r.label
            assert (r.capital_adjustment.strides == (0,)) == (r.label not in books), r.label
            assert r.capital_adjustment.any() == (r.label in books), r.label
        assert 0 < len(defers) < len(results) and 0 < len(books) < len(results)
        assert 0 < len(still) < len(results)
        for a, b in itertools.combinations(results, 2):
            for name, switches in SHARED_FIELDS.items():
                agree = a.date == b.date and all(
                    getattr(waves[a.label], s) == getattr(waves[b.label], s) for s in switches)
                if name == "housing" and not {a.label, b.label} & defers:
                    agree = True  # both hold the baseline's array
                if name in ACCOUNTS and {a.label, b.label} <= still:
                    agree = True  # both hold the baseline's accounts
                assert (getattr(a, name) is getattr(b, name)) == agree, (a.label, b.label, name)
            for name in ("adjusted", "covid_code"):
                assert getattr(a, name) is not getattr(b, name)
        assert len(states) > len({w.date for w in plan.waves})
        for a, b in itertools.combinations(states, 2):
            assert a[0] is not b[0] and a[1] is not b[1]
        for r in results:
            assert not any(getattr(r, name).flags.writeable for name in SHARED_FIELDS)

    def test_steps_wrapped_as_the_tracer_wraps_them_give_the_same_run(
            self, jittered, plan, shipped_controls, tables, schedules, wave_spy, monkeypatch):
        """Each wave step replaced by a `functools.wraps` wrapper that counts
        its calls, as the tracer replaces every public function: the results
        are bit for bit the unwrapped run's, every step runs, and
        `job_losses`, which reads no switch, runs once per date."""
        _, expected, _ = wave_spy(jittered, plan, shipped_controls, tables, schedules,
                                      seed=11)
        calls = dict.fromkeys(scenario.STEP_SWITCHES, 0)

        def counted(step):
            @functools.wraps(step)
            def wrapper(*args, **kwargs):
                calls[step.__name__] += 1
                return step(*args, **kwargs)
            return wrapper
        for name in scenario.STEP_SWITCHES:
            monkeypatch.setattr(scenario, name, counted(getattr(scenario, name)))
        _, results, _ = wave_spy(jittered, plan, shipped_controls, tables, schedules,
                                     seed=11)
        assert_bit_equal([vars(r) for r in results], [vars(r) for r in expected])
        assert all(calls.values()), calls
        assert calls["job_losses"] == len({w.date for w in plan.waves})

    def test_one_dict_serves_every_setting(self, jittered, plan, shipped_controls, tables,
                                           schedules):
        """The booking and the employer top-up are part of the keys too: a
        dict shared by waves run under both settings gives each wave its
        standalone result."""
        other = "amortized" if plan.capital_booking == "once" else "once"
        settings = [dict(employer_topup=plan.employer_topup,
                         capital_booking=plan.capital_booking),
                    dict(employer_topup=0.55, capital_booking=other)]
        base = build_baseline(jittered, shipped_controls.at(plan.waves[0].date), tables,
                              schedules, 11)
        draws = {}
        for w in plan.waves:
            controls = shipped_controls.at(w.date)
            for kwargs in settings:
                shared = apply_wave(base, controls, w, tables, schedules, 11, draws=draws,
                                    **kwargs)
                alone = apply_wave(base, controls, w, tables, schedules, 11, **kwargs)
                assert_bit_equal(vars(shared), vars(alone))

    @pytest.mark.parametrize("households", [300, 4])
    def test_summaries_equal_summarize_of_each_wave(self, plan, shipped_controls, tables,
                                                    schedules, wave_spy, households):
        """Each reused statistic is the one summarize gives the wave's own
        incomes, under the first wave's deciles, bit for bit; 4 households
        leave deciles empty (NaN)."""
        pop = generate_synthetic(SynthConfig(households=households, weight_jitter=True), 5)
        base, results, summaries = wave_spy(pop, plan, shipped_controls, tables,
                                                schedules, seed=11)
        w = base_weights(base)
        deciles = metrics.weighted_quantile_groups(np.argsort(
            equivalised(base, results[0], "adjusted")[base.hh_row], kind="stable"), w, 10)
        groups = metrics.decile_groups(base.hh_row, w, deciles)
        hw = np.bincount(base.hh_row, weights=w)
        for r, s in zip(results, summaries):
            for name in metrics.INCOME_DEFINITIONS:
                expected = metrics.summarize(equivalised(base, r, name), hw, groups)
                assert_bit_equal((s.means[name], s.gini[name], s.decile_means[name]), expected)
        nans = np.isnan(summaries[-1].decile_means["market"]).sum()
        assert (nans > 0) == (households == 4)

    def test_each_distinct_array_is_ranked_once(self, jittered, plan, shipped_controls,
                                                tables, schedules, wave_spy, monkeypatch):
        """Only the cents arrays no earlier wave summarized are equivalised
        and sorted, each once, in the waves' order; a definition whose array
        an earlier wave summarized takes that wave's very statistics."""
        ginis, summarized = [], []
        inner_gini, inner_summarize = metrics.weighted_gini, metrics.summarize
        monkeypatch.setattr(metrics, "weighted_gini", lambda values, weights:
                            ginis.append(1) or inner_gini(values, weights))
        monkeypatch.setattr(metrics, "summarize", lambda values, hw, groups:
                            summarized.append(values) or inner_summarize(values, hw, groups))
        base, results, summaries = wave_spy(jittered, plan, shipped_controls, tables,
                                                schedules, seed=11)
        seen, distinct, expected, first = set(), [], [], {}
        for r, s in zip(results, summaries):
            new = 0
            for name in metrics.INCOME_DEFINITIONS:
                array = getattr(r, name)
                if id(array) not in seen:
                    seen.add(id(array))
                    distinct.append(array)
                    first[id(array)] = s.decile_means[name]
                    new += 1
                assert s.decile_means[name] is first[id(array)]
            expected.append(new)
        assert 1 in expected
        assert len(ginis) == len(summarized) == len(seen) < 4 * len(results)
        for values, array in zip(summarized, distinct):
            assert_bit_equal(values, array / 100.0 / base.equiv_scale)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_each_distinct_array_is_summarized_once_at_any_thread_count(
            self, jittered, plan, shipped_controls, tables, schedules, wave_spy, threads,
            monkeypatch):
        """The thread that runs a date summarizes it, each distinct cents
        array once, however the dates are spread over threads."""
        summarized, inner = [], metrics.summarize
        monkeypatch.setattr(metrics, "summarize", lambda values, hw, groups:
                            summarized.append(1) or inner(values, hw, groups))
        _, results, _ = wave_spy(jittered, plan, shipped_controls, tables, schedules,
                                     seed=11, threads=threads)
        distinct = {id(getattr(r, name)) for r in results for name in metrics.INCOME_DEFINITIONS}
        assert len(summarized) == len(distinct) < 4 * len(results)


INT32 = np.iinfo(np.int32)


def assert_identities(results):
    """Each WaveResult's income identities hold exactly, in its own dtypes."""
    for r in results:
        for lhs, rhs in ((r.gross, r.market + r.benefits), (r.disposable, r.gross - r.taxes),
                         (r.adjusted, r.disposable - r.housing - r.capital_adjustment
                          - r.work_expenses)):
            assert (lhs == rhs).all(), r.label


def assert_narrowed(returned, spied, kept, narrow):
    """`returned` holds `spied`'s values. If `narrow`, each cents array is
    int32 but the arrays in `kept` and zero-stride views; those, and every
    array if not `narrow`, are the spied objects themselves. Arrays shared
    within a date stay shared, and no others become shared."""
    assert [r.label for r in returned] == [s.label for s in spied]
    for r, s in zip(returned, spied):
        assert r.covid_code is s.covid_code
        for name in scenario.CENTS_FIELDS:
            got, was = getattr(r, name), getattr(s, name)
            assert np.array_equal(got, was), (r.label, name)
            if narrow and not (0 in was.strides or any(was is a for a in kept)):
                assert got.dtype == np.int32 and got.flags.writeable == was.flags.writeable
            else:
                assert got is was, (r.label, name)
    for _, date in itertools.groupby(zip(returned, spied), lambda pair: pair[0].date):
        pairs = [(getattr(r, name), getattr(s, name))
                 for r, s in date for name in scenario.CENTS_FIELDS]
        for (a, b), (c, d) in itertools.combinations(pairs, 2):
            assert (a is c) == (b is d)


class TestNarrowedResults:
    """run_scenario returns a date's cents arrays in int32 when every value of
    all of them fits, and otherwise as apply_wave computed them, in int64."""

    @staticmethod
    def run(wave_spy, monkeypatch, pop, plan, *args, **kwargs):
        """The baseline, run_scenario's own results and the spy's."""
        returned, inner = [], scenario.run_scenario
        monkeypatch.setattr(scenario, "run_scenario", lambda *a, **k:
                            returned.append(inner(*a, **k)) or returned[-1])
        base, spied, _ = wave_spy(pop, plan, *args, **kwargs)
        [(_, results, _)] = returned
        return base, results, spied

    @staticmethod
    def kept(base) -> tuple:
        return base.market, base.taxes, base.benefits, base.housing_cents

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("sweep", [False, True], ids=["shipped", "sweep"])
    def test_every_date_comes_back_in_int32(self, default_scenario, shipped_controls, tables,
                                            schedules, wave_spy, monkeypatch, sweep, threads):
        pop = generate_synthetic(SynthConfig(households=300, weight_jitter=True), 5)
        plan = policy_sweep(default_scenario) if sweep else default_scenario
        base, results, spied = self.run(wave_spy, monkeypatch, pop, plan, shipped_controls,
                                        tables, schedules, seed=11, threads=threads)
        assert_narrowed(results, spied, self.kept(base), narrow=True)
        assert_identities(results)
        arrays = [getattr(r, name) for r in results for name in scenario.CENTS_FIELDS]
        assert any(a is base.market for a in arrays)  # the first wave moves nobody
        assert any(a.dtype == np.int32 for a in arrays)
        if sweep:  # "care" defers nothing and books no capital change
            assert any(a is base.housing_cents for a in arrays)
            assert any(0 in a.strides for a in arrays)

    def test_a_household_past_int32_keeps_its_dates_in_int64(
            self, default_scenario, shipped_controls, tables, schedules, wave_spy,
            monkeypatch):
        """A pension of 12 x 2**31 cents a year keeps its household's market
        income at 2**31 cents a month or more at every date."""
        pop = generate_synthetic(SynthConfig(households=300, weight_jitter=True), 5)
        pension = pop.persons.private_pension.copy()
        pension[np.flatnonzero(pop.persons.work_status == WORK_STATUSES.index("retired"))[0]] = (
            12 * 2 ** 31 / 100)
        rich = Population(households=pop.households,
                          persons=Table(**(vars(pop.persons) | {"private_pension": pension})))
        base, results, spied = self.run(wave_spy, monkeypatch, rich, default_scenario,
                                        shipped_controls, tables, schedules, seed=11, threads=3)
        assert all(r.market.max() > INT32.max for r in spied)
        assert_narrowed(results, spied, self.kept(base), narrow=False)
        assert_identities(results)

    @staticmethod
    def date(top, bottom) -> list:
        """Two waves of one date whose values reach `top` and `bottom`, sharing
        all but adjusted income; the second household's adjusted income
        passes below -2**31 on the way, which wraps in int32."""
        def cents(*values):
            array = np.array(values, dtype=np.int64)
            array.flags.writeable = False
            return array
        market, benefits, taxes = cents(top, 0), cents(0, 0), cents(0, INT32.max)
        housing, capital, work = cents(top, 6), cents(0, -5), cents(0, INT32.min - bottom)
        gross = cents(*(market + benefits))
        disposable = cents(*(gross - taxes))
        first = scenario.WaveResult(
            "a", D(2020, 5, 5), market=market, gross=gross, disposable=disposable,
            adjusted=disposable - housing - capital - work, taxes=taxes, benefits=benefits,
            housing=housing, capital_adjustment=capital, work_expenses=work,
            covid_code=np.zeros(2, dtype=np.int8))
        return [first, dataclasses.replace(first, label="b", adjusted=first.adjusted.copy())]

    @pytest.mark.parametrize("top, bottom, narrow", [
        (INT32.max, INT32.min, True), (INT32.max + 1, INT32.min, False),
        (INT32.max, INT32.min - 1, False)])
    def test_a_date_narrows_only_within_int32(self, top, bottom, narrow):
        results = self.date(top, bottom)
        assert max(r.housing.max() for r in results) == top
        assert min(r.adjusted.min() for r in results) == bottom
        narrowed = scenario._narrowed(results, ())
        assert_narrowed(narrowed, results, (), narrow)
        assert_identities(narrowed)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(INT32.min - 2, INT32.min + 1) | st.integers(-2, 2)
                           | st.integers(INT32.max - 1, INT32.max + 2),
                           min_size=2 * len(scenario.CENTS_FIELDS) * 2,
                           max_size=2 * len(scenario.CENTS_FIELDS) * 2),
           shared=st.sets(st.sampled_from(scenario.CENTS_FIELDS)),
           kept=st.sampled_from(scenario.CENTS_FIELDS), zero=st.booleans())
    def test_a_date_narrows_exactly_when_every_value_fits(self, values, shared, kept, zero):
        """Two waves of one date, sharing the arrays named in `shared`; the
        first's `kept` array is a baseline's own, and with `zero` its capital
        adjustment is a zero-stride 0."""
        arrays = iter(np.array(values, dtype=np.int64).reshape(-1, 2))
        first = {name: next(arrays) for name in scenario.CENTS_FIELDS}
        if zero:
            first["capital_adjustment"] = np.broadcast_to(np.int64(0), (2,))
        second = {name: first[name] if name in shared else next(arrays)
                  for name in scenario.CENTS_FIELDS}
        results = [scenario.WaveResult(label, D(2020, 5, 5), **cents,
                                       covid_code=np.zeros(2, dtype=np.int8))
                   for label, cents in (("a", first), ("b", second))]
        fits = all(INT32.min <= v <= INT32.max
                   for cents in (first, second) for a in cents.values() for v in a.tolist())
        assert_narrowed(scenario._narrowed(results, (first[kept],)), results, (first[kept],),
                        narrow=fits)


class TestDateLoop:
    """run_scenario runs the first date in the calling thread and ranks the
    deciles by it; then the calling thread, which takes the second date, and
    `threads - 1` threads each take the next date not yet taken."""

    @pytest.fixture(scope="class")
    def plan(self, default_scenario):
        """3 dates: the first wave, then SWEEP_VARIANTS at two crisis dates."""
        first, *crisis = default_scenario.waves
        return dataclasses.replace(default_scenario, waves=[first] + [
            dataclasses.replace(w, label=f"{w.label}-{name}", **fields)
            for w in crisis[:2] for name, fields in SWEEP_VARIANTS.items()])

    @pytest.fixture(scope="class")
    def pop(self):
        return generate_synthetic(SynthConfig(households=300, weight_jitter=True), 5)

    def test_plan_has_three_dates(self, plan):
        assert len({w.date for w in plan.waves}) == 3 < len(plan.waves)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_the_calling_thread_is_one_of_the_threads(self, pop, default_scenario,
                                                      shipped_controls, tables, schedules,
                                                      monkeypatch, threads):
        """The caller runs the first date and the second; each of the 6
        dates after the first runs in the caller or in one of threads - 1
        threads, started once, and every started thread has ended when the
        run returns."""
        caller, starts, ran_in, inner = threading.current_thread(), [], {}, scenario.apply_wave

        class Recorded(threading.Thread):
            def start(self):
                starts.append(self)
                super().start()
        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setattr(scenario, "apply_wave", lambda base, controls, wave, *args, **kw:
                            ran_in.setdefault(wave.date, threading.current_thread())
                            and inner(base, controls, wave, *args, **kw))
        run_scenario(pop, default_scenario, shipped_controls, tables, schedules, seed=11,
                     threads=threads)
        first, *dates = sorted(ran_in)
        assert len(dates) == 6 and len(starts) == threads - 1 and ran_in[first] is caller
        assert ran_in[dates[0]] is caller and {ran_in[date] for date in dates} <= {caller, *starts}
        assert not any(thread.is_alive() for thread in starts)

    @pytest.mark.parametrize("threads", [1, 2, 3, 9])
    def test_no_item_starts_after_one_raised(self, threads):
        """Items 2 and 4 raise, and an item after item 2 ends only once item
        2 has raised. Item 2's exception is raised once every thread has
        ended; items 0-2 have run, each item at most once, and none past
        2 + threads - 1, the last the other threads can hold when 2 raises."""
        alive, ran, raised = threading.enumerate(), [], threading.Event()

        def fn(k):
            ran.append(k)
            if k > 2:
                raised.wait(10)
                time.sleep(0.01)  # past the instructions that record item 2's exception
            if k in (2, 4):
                raised.set()
                raise ValueError(k)
        with pytest.raises(ValueError, match="^2$"):
            scenario._in_threads(fn, list(range(8)), threads)
        assert {0, 1, 2} <= set(ran) and len(set(ran)) == len(ran)
        assert max(ran) <= 2 + threads - 1
        assert threading.enumerate() == alive

    def test_a_slow_item_holds_no_other_thread(self):
        """Items [slow, fast x 5] at 2 threads: the other thread runs items
        1-5 while the calling thread runs item 0, which ends once item 5 has
        run."""
        caller, ran_in, rest, waited = threading.current_thread(), {}, threading.Event(), []

        def fn(k):
            ran_in[k] = threading.current_thread()
            if k == 0:
                waited.append(rest.wait(10))
            if k == 5:
                rest.set()
        scenario._in_threads(fn, list(range(6)), 2)
        other = ran_in[1]
        assert waited == [True] and other is not caller
        assert ran_in == {0: caller, 1: other, 2: other, 3: other, 4: other, 5: other}

    def test_every_item_runs_once_under_frequent_thread_switches(self):
        """8 threads take 2,000 items from the one cursor with a thread
        switch requested every microsecond: no item is taken twice or lost."""
        ran, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = scenario._in_threads(lambda k: ran.append(k) or -k, list(range(2000)), 8)
        finally:
            sys.setswitchinterval(interval)
        assert out == [-k for k in range(2000)] and sorted(ran) == list(range(2000))

    def test_an_interrupt_while_the_caller_joins_leaves_no_thread(self):
        """A Ctrl-C that reaches the calling thread while the other thread
        runs a slow item: the KeyboardInterrupt is raised, and the process
        exits with no thread left. A child process runs it, so that a thread
        left waiting cannot stall this one's exit."""
        code = textwrap.dedent("""
            import _thread, threading, time
            from nowcastsim.scenario import _in_threads

            def fn(k):  # the calling thread's items are quick, the other thread's slow
                time.sleep(0.05 if threading.current_thread() is threading.main_thread() else 1)
            timer = threading.Timer(0.3, _thread.interrupt_main)
            timer.start()
            try:
                _in_threads(fn, list(range(4)), 2)
            except KeyboardInterrupt:
                timer.join()
                print("KeyboardInterrupt", len(threading.enumerate()))
            """)
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nowcastsim.__file__))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              encoding="utf-8", timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["KeyboardInterrupt", "1"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_deciles_are_ranked_before_the_second_date_runs(
            self, pop, plan, shipped_controls, tables, schedules, monkeypatch, threads):
        events, inner_groups, inner_wave = [], metrics.decile_groups, scenario.apply_wave
        monkeypatch.setattr(metrics, "decile_groups", lambda *args:
                            events.append("groups") or inner_groups(*args))
        monkeypatch.setattr(scenario, "apply_wave", lambda base, controls, wave, *args, **kw:
                            events.append(wave.date) or inner_wave(base, controls, wave, *args,
                                                                   **kw))
        run_scenario(pop, plan, shipped_controls, tables, schedules, seed=11, threads=threads)
        second = sorted({w.date for w in plan.waves})[1]
        assert events.count("groups") == 1
        assert events.index("groups") < events.index(second)
        assert set(events[:events.index("groups")]) == {plan.waves[0].date}

    def test_any_thread_count_gives_the_same_run(self, pop, plan, shipped_controls, tables,
                                                 schedules, wave_spy):
        runs = [wave_spy(pop, plan, shipped_controls, tables, schedules, seed=11,
                             threads=threads)[1:] for threads in (1, 2, 3, 8)]
        assert [s.label for s in runs[0][1]] == [w.label for w in plan.waves]
        for results, summaries in runs[1:]:
            assert_bit_equal([vars(r) for r in results], [vars(r) for r in runs[0][0]])
            assert_bit_equal([vars(s) for s in summaries], [vars(s) for s in runs[0][1]])


def wave_cells(out_dir) -> dict:
    """Each wave's cells in the written tables: its column of
    average_income.csv, its rows of the other three (label cell dropped,
    a gini change row marked) and the body of its summary file."""
    def read(name):
        return (out_dir / name).read_text(encoding="utf-8").splitlines()
    average = [line.split(",") for line in read("average_income.csv")]
    cells = {label: [[row[k] for row in average[1:]]] for k, label in enumerate(average[0])
             if k}
    for name in ("gini.csv", "redistribution.csv", "decile_means.csv"):
        for line in read(name)[1:]:
            label, *row = line.split(",")
            cells[label.removeprefix("change:")].append((name, label.startswith("change:"), row))
    for label, rows in cells.items():
        rows.append(read(f"summary_{label}.csv"))
    return cells


def read_tables(out_dir, rename=lambda label: label) -> dict:
    """Every written file as rows of cells, by file name, with each label
    cell and summary file name passed through `rename`: the header cells of
    average_income.csv, the first cell of the other three tables' rows
    (after any "change:" prefix) and the label in summary_<label>.csv."""
    tables = {}
    for path in sorted(out_dir.iterdir()):
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
        name = path.name
        if name == "average_income.csv":
            rows[0][1:] = map(rename, rows[0][1:])
        elif name in ("gini.csv", "redistribution.csv", "decile_means.csv"):
            for row in rows[1:]:
                change = "change:" if row[0].startswith("change:") else ""
                row[0] = change + rename(row[0].removeprefix(change))
        else:
            name = f"summary_{rename(name.removeprefix('summary_').removesuffix('.csv'))}.csv"
        tables[name] = rows
    return tables


class TestRunRelations:
    """Metamorphic relations between whole runs that pin the summaries: the
    first wave alone ranks the deciles, a wave's statistics are those of its
    own arrays, however many waves share them, weights enter only as ratios,
    and a wave's label names its output without entering any result.

    Relabelling household or person ids is not a relation: every draw is
    keyed by id (`rng.keyed_uniform`) and ties in each ranking fall to the
    lower id, so new ids give other draws and, in general, other results.
    Each relation holds on jittered and on unit weights."""

    @pytest.fixture(scope="class")
    def by_jitter(self):
        """The jittered-weight population, and the unit-weight one."""
        return {jitter: generate_synthetic(SynthConfig(households=3000, weight_jitter=jitter), 5)
                for jitter in (True, False)}

    @pytest.fixture(scope="class", params=["shipped", "sweep"])
    def plan(self, default_scenario, request):
        """The shipped waves, or the baseline plus each crisis date x SWEEP_VARIANTS."""
        if request.param == "shipped":
            return default_scenario
        first, *crisis = default_scenario.waves
        return dataclasses.replace(default_scenario, waves=[first] + [
            dataclasses.replace(w, label=f"{w.label}-{name}", **fields)
            for w in crisis for name, fields in SWEEP_VARIANTS.items()])

    @staticmethod
    def run(wave_spy, pop, plan, waves, series, tables, schedules, threads=1):
        return wave_spy(pop, dataclasses.replace(plan, waves=waves), series, tables,
                            schedules, seed=11, threads=threads)

    @pytest.mark.parametrize("jitter", [True, False], ids=["jittered", "unit"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_dropping_or_appending_a_wave_leaves_the_others(self, by_jitter, plan,
                                                            shipped_controls, tables, schedules,
                                                            wave_spy, threads, jitter):
        """Dropping waves other than the first, or appending a later date,
        leaves every other wave's result and summary bit for bit. Run g drops
        each wave whose position at its date, less the date's index after the
        first, is g mod 4: in the sweep, one instrument variant per crisis
        date, another at the next date. So every wave is dropped in a run that
        keeps each other wave of its date and the same variant at the next
        date. The appended date repeats every wave of the last."""
        def by_label(waves):
            _, results, summaries = self.run(wave_spy, by_jitter[jitter], plan, waves,
                                             shipped_controls, tables, schedules, threads)
            return {r.label: (vars(r), vars(s)) for r, s in zip(results, summaries)}
        waves = plan.waves
        full = by_label(waves)
        later = [dataclasses.replace(w, label=f"{w.label}-later",
                                     date=w.date + dt.timedelta(days=30))
                 for w in waves if w.date == waves[-1].date]
        dates = itertools.groupby(waves[1:], lambda w: w.date)
        group = {w.label: (k - i) % 4
                 for i, (_, at_date) in enumerate(dates) for k, w in enumerate(at_date)}
        dropped = [[w for w in waves if group.get(w.label) != g] for g in range(4)]
        for kept in dropped + [waves + later]:
            got = by_label(kept)
            common = [w.label for w in kept if w.label in full]
            assert_bit_equal([got[label] for label in common], [full[label] for label in common])

    @pytest.fixture(scope="class")
    def calibrating(self, default_scenario):
        return calibrating_series(default_scenario)

    @pytest.fixture(scope="class")
    def unscaled(self):
        return {}  # (plan labels, weight_jitter) -> (results, summaries)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(-30, 30), jitter=st.booleans())
    @example(k=-30, jitter=False)
    @example(k=-30, jitter=True)
    @example(k=30, jitter=False)
    @example(k=30, jitter=True)
    def test_scaling_every_weight_by_a_power_of_two_changes_nothing(
            self, by_jitter, plan, calibrating, unscaled, tables, schedules, wave_spy, k,
            jitter):
        """Multiplying every household weight by 2**k is exact, and every
        target, pool weight, tolerance and group cut the engine takes is a
        ratio of weights; so every WaveResult and summary is bit for bit
        the same, through the nowcast's alignment too."""
        pop = by_jitter[jitter]
        key = (tuple(w.label for w in plan.waves), jitter)
        if key not in unscaled:
            unscaled[key] = self.run(wave_spy, pop, plan, plan.waves, calibrating, tables,
                                     schedules)[1:]
        households = Table(**(vars(pop.households) | {"weight": pop.households.weight * 2.0**k}))
        _, results, summaries = self.run(wave_spy,
                                         Population(households=households, persons=pop.persons),
                                         plan, plan.waves, calibrating, tables, schedules)
        expected_results, expected_summaries = unscaled[key]
        assert_bit_equal([vars(r) for r in results], [vars(r) for r in expected_results])
        assert_bit_equal([vars(s) for s in summaries], [vars(s) for s in expected_summaries])

    @pytest.mark.parametrize("jitter", [True, False], ids=["jittered", "unit"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_a_wave_and_its_twin_give_identical_columns(self, by_jitter, plan, shipped_controls,
                                                        tables, schedules, wave_spy, threads,
                                                        jitter, tmp_path):
        """A wave duplicated under a second label at its date, next to it or
        last, gives the same cells in all four tables and the same summary
        file body; the first wave's twin adds a gini change row of zeros."""
        waves = plan.waves
        for i in sorted({0, 1, len(waves) // 2, len(waves) - 1}):
            twin = dataclasses.replace(waves[i], label=f"{waves[i].label}-twin")
            for where, with_twin in (("next", waves[:i + 1] + [twin] + waves[i + 1:]),
                                     ("last", waves + [twin])):
                _, _, summaries = self.run(wave_spy, by_jitter[jitter], plan, with_twin,
                                           shipped_controls, tables, schedules, threads)
                out = tmp_path / f"{i}-{where}"
                out.mkdir()
                metrics.write_summary_tables(out, summaries)
                cells = wave_cells(out)
                original, copy = cells[waves[i].label], cells[twin.label]
                if i == 0:  # the first wave has no change row
                    copy.remove(("gini.csv", True, ["0.000000"] * 4))
                assert original == copy, (waves[i].label, where)

    @pytest.mark.parametrize("jitter", [True, False], ids=["jittered", "unit"])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_relabelling_the_waves_changes_only_their_labels(self, by_jitter, plan,
                                                             shipped_controls, tables,
                                                             schedules, wave_spy, threads,
                                                             jitter, tmp_path):
        """Renaming every wave, in the reverse of the scenario's order,
        changes only the label cells of the four tables and the names of the
        summary files; every WaveResult but its label is bit for bit the same."""
        waves = plan.waves
        names = {w.label: f"w{len(waves) - k:02d}" for k, w in enumerate(waves)}
        renamed = [dataclasses.replace(w, label=names[w.label]) for w in waves]
        runs = []
        for run_waves in (waves, renamed):
            _, results, summaries = self.run(wave_spy, by_jitter[jitter], plan, run_waves,
                                             shipped_controls, tables, schedules, threads)
            out = tmp_path / run_waves[0].label
            out.mkdir()
            metrics.write_summary_tables(out, summaries)
            runs.append((out, [vars(r) | {"label": None} for r in results]))
        (original, original_results), (relabelled, relabelled_results) = runs
        assert read_tables(relabelled) == read_tables(original, names.__getitem__)
        assert_bit_equal(relabelled_results, original_results)


def lexsort_groups(ranking, weights, n_groups, ids):
    """Weighted quantile groups ranked by value, ties by id, as they were
    formed before the callers passed their own order."""
    order = np.lexsort((ids, ranking))
    cum = np.cumsum(np.asarray(weights, dtype=np.float64)[order])
    groups = np.empty(order.size, dtype=np.int64)
    groups[order] = np.clip(np.ceil(cum * n_groups / cum[-1] - 1e-9).astype(np.int64), 1,
                            n_groups)
    return groups


class TestQuantileGroupsOfARun:
    def test_groups_equal_the_lexsort_groups(self, tables, schedules, default_scenario,
                                             shipped_controls, wave_spy, monkeypatch):
        """build_baseline's deciles and quintiles and run_scenario's deciles
        are ranked in lexsort((ids, values)) order, so they equal its groups."""
        calls = []
        inner = metrics.weighted_quantile_groups

        def spy(order, weights, n_groups):
            calls.append((order, n_groups, inner(order, weights, n_groups)))
            return calls[-1][2]
        monkeypatch.setattr(metrics, "weighted_quantile_groups", spy)
        pop = generate_synthetic(SynthConfig(households=300, weight_jitter=True), 5)
        base, results, _ = wave_spy(pop, default_scenario, shipped_controls, tables,
                                        schedules, seed=5)
        assert [n for _, n, _ in calls] == [10, 5, 10]
        equiv = (base.market + base.benefits - base.taxes) / 100.0 / base.equiv_scale
        assert np.unique(equiv).size < equiv.size  # tied households to break by id
        group_weight = base.hh_weight * np.bincount(base.hh_row)
        first = equivalised(base, results[0], "adjusted")[base.hh_row]
        for (order, n_groups, groups), values, weight, ids in (
                (calls[0], equiv, group_weight, base.hid),
                (calls[1], equiv, group_weight, base.hid),
                (calls[2], first, base_weights(base), base.pid)):
            assert np.array_equal(order, np.lexsort((ids, values)))
            assert np.array_equal(groups, lexsort_groups(values, weight, n_groups, ids))


class TestWeightedPopulation:
    def test_weighted_pipeline_contracts(self, tables, schedules, default_scenario):
        pop = generate_synthetic(SynthConfig(households=1500, weight_jitter=True), 13)
        series = load_control_totals(default_scenario.controls_path)
        _, _, summaries = run_scenario(pop, default_scenario, series, tables, schedules,
                                       seed=13)
        state = build_baseline(pop, series.at(default_scenario.waves[0].date), tables,
                               schedules, seed=13)
        wave = default_scenario.waves[1]
        controls = series.at(wave.date)
        r = apply_wave(state, controls, wave, tables, schedules, seed=13)
        assert np.array_equal(
            r.adjusted, r.disposable - r.housing - r.capital_adjustment
            - r.work_expenses)
        pup = r.covid_code == taxben.COVID_CODES["pup_recipient"]
        weight = base_weights(state)
        w_max = weight.max()
        for sector, count in controls.pup_by_sector.items():
            s = SECTORS.index(sector)
            in_sector = pop.persons.industry == s  # generated in id order
            scale = (weight[state.is_worker & in_sector].sum()
                     / tables.national["sector_employment"][sector])
            realized = weight[pup & in_sector].sum()
            assert abs(realized - count * scale) <= w_max + 1e-9
        for s in summaries:
            assert 0.0 < s.gini["disposable"] < 1.0
