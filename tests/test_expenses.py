import csv
import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nowcastsim.expenses import (AGE_BANDS, FAMILY_TYPES, MODE_NONE, MODE_PRIVATE, MODE_PUBLIC,
                                 TRANSPORT_COVARIATES, CapitalHoldingsGrid, ChildcareCostGrid, ExpenseError, age_band,
                                 assign_commute_modes,
                                 capital_participants,
                                 capital_value_change_cents,
                                 childcare_costs_cents, commuting_cost_cents,
                                 deferred_housing_cents, family_type, housing_cost_cents,
                                 transport_covariates)
from nowcastsim.igm import anchored_draws, logit_prob
from nowcastsim.money import cents
from nowcastsim.population import SECTORS
from nowcastsim.scenario import CASE_AGE_BANDS, case_age_band, load_data_tables


class TestCommuteTable:
    def test_totals_are_component_sums(self, tables):
        # 9.17 = 7.41 + 1.76 and so on; enforced at load time
        mf = tables.commute.motor_fuels_cents
        pt = tables.commute.public_transport_cents
        assert mf[1] + pt[1] == 917
        assert mf[2] + pt[2] == 1442
        assert mf[3] + pt[3] == 2382

    def test_cost_examples(self, tables):
        assert commuting_cost_cents(tables.commute, 2, 0) == 1359
        assert commuting_cost_cents(tables.commute, 0, 1) == 176
        assert commuting_cost_cents(tables.commute, 0, 0) == 0

    def test_counts_cap_at_three(self, tables):
        assert commuting_cost_cents(tables.commute, 7, 0) == \
            commuting_cost_cents(tables.commute, 3, 0)

    def test_negative_count_rejected(self, tables):
        with pytest.raises(ExpenseError):
            commuting_cost_cents(tables.commute, -1, 0)


class TestCommuteModes:
    def assign(self, tables, is_worker=True, industry="construction", age=30):
        return assign_commute_modes(
            tables.models, tables.sector_groups,
            is_worker=np.array([is_worker]), sector_idx=np.array([SECTORS.index(industry)]),
            region_bmw=np.array([0.0]), occupation=np.array([3]),
            age=np.array([age]), university=np.array([0.0]),
            person_ids=np.array([1]), seed=3,
        )[0]

    def test_covariates_are_the_declared_names(self):
        """The names the loader lets the transport logits use are the ones
        `transport_covariates` supplies."""
        n = 9
        cov = transport_covariates(np.arange(n), np.zeros(n), np.arange(1, n + 1),
                                   np.arange(n) * 10, np.zeros(n))
        assert tuple(cov) == TRANSPORT_COVARIATES
        assert len(TRANSPORT_COVARIATES) == 29

    def test_non_worker_gets_none(self, tables):
        assert self.assign(tables, is_worker=False) == MODE_NONE

    def test_worker_modes_are_valid(self, tables):
        for pid in range(50):
            modes = assign_commute_modes(
                tables.models, tables.sector_groups,
                is_worker=np.array([True]), sector_idx=np.array([SECTORS.index("manufacturing")]),
                region_bmw=np.array([0.0]), occupation=np.array([2]),
                age=np.array([40]), university=np.array([1.0]),
                person_ids=np.array([pid]), seed=3,
            )
            assert modes[0] in (MODE_NONE, MODE_PUBLIC, MODE_PRIVATE)

    def test_mode_frequencies_track_logits(self, tables):
        n = 20_000
        modes = assign_commute_modes(
            tables.models, tables.sector_groups,
            is_worker=np.ones(n, dtype=bool), sector_idx=np.full(n, SECTORS.index("construction")),
            region_bmw=np.zeros(n), occupation=np.full(n, 3),
            age=np.full(n, 40), university=np.zeros(n),
            person_ids=np.arange(n), seed=3,
        )
        cov = {"ind_construction": 1.0, "occ_3": 1.0, "age_40_44": 1.0}
        p_public = logit_prob(tables.models["transport_public"], cov)
        p_private = logit_prob(tables.models["transport_private"], cov)
        share_public = (modes == MODE_PUBLIC).mean()
        share_private = (modes == MODE_PRIVATE).mean()
        assert share_public == pytest.approx(p_public, abs=0.01)
        assert share_private == pytest.approx((1 - p_public) * p_private, abs=0.01)

    def test_modes_stable_across_calls(self, tables):
        a = self.assign(tables)
        b = self.assign(tables)
        assert a == b


class TestFamilyType:
    def test_classification(self):
        assert FAMILY_TYPES[family_type(1, 2)] == "lone_parent"
        assert FAMILY_TYPES[family_type(2, 2)] == "two_adults_1_3_children"
        assert FAMILY_TYPES[family_type(2, 4)] == "other_with_children"
        assert FAMILY_TYPES[family_type(3, 1)] == "other_with_children"
        assert family_type(2, 0) == -1  # no children
        assert family_type(np.array([1, 2, 3]), np.array([2, 0, 1])).tolist() == [0, -1, 2]


class TestChildcare:
    def build(self, tables, n=400, seed=5):
        rng = np.random.default_rng(seed)
        ids = np.arange(1, n + 1)
        weights = np.ones(n)
        kids04 = rng.integers(0, 3, n)
        kids14 = kids04 + rng.integers(0, 3, n)
        adults = rng.integers(1, 4, n)
        ftypes = family_type(adults, kids14)
        deciles = rng.integers(1, 11, n)
        equiv_week = rng.uniform(100, 900, n)
        two_workers = rng.uniform(size=n) < 0.5
        observed_user = (kids14 > 0) & (rng.uniform(size=n) < 0.6)
        observed_spend = np.where(observed_user, rng.lognormal(4.5, 0.6, n), 0.0)
        return dict(
            models=tables.models, grid=tables.childcare_grid, household_ids=ids,
            weights=weights, family_types=ftypes, deciles=deciles,
            n_children_0_4=kids04, n_children_under14=kids14,
            equiv_disposable_week_eur=equiv_week, two_workers_flag=two_workers,
            observed_user=observed_user, observed_spend_eur=observed_spend, seed=11,
        )

    def test_no_children_pay_nothing(self, tables):
        kw = self.build(tables)
        costs = childcare_costs_cents(**kw)
        no_kids = kw["family_types"] == -1
        assert np.all(costs[no_kids] == 0)

    def test_cell_means_match_grid(self, tables):
        # calibration is exact to rel 1e-9 in euro space; the stored
        # integer-cent values add at most half a cent per household
        kw = self.build(tables, n=2000)
        costs = childcare_costs_cents(**kw)
        users = costs > 0
        w = kw["weights"]
        for (ftype, decile), target in tables.childcare_grid.cells.items():
            cell = users & (kw["family_types"] == ftype) & (kw["deciles"] == decile)
            if not np.any(cell):
                continue
            mean = np.sum(costs[cell] / 100.0 * w[cell]) / np.sum(w[cell])
            assert mean == pytest.approx(target / 100.0, rel=1e-6, abs=0.005)

    def test_baseline_users_replay_observed_flag(self, tables):
        kw = self.build(tables)
        costs = childcare_costs_cents(**kw)
        users = costs > 0
        expected = kw["observed_user"] & (kw["family_types"] >= 0)
        assert np.array_equal(users, expected)


    def test_recovered_residual_replays_observed_spend(self, tables):
        # with no grid cell to calibrate to, an observed user's cost is the
        # expenditure prediction plus the recovered residual: the observation
        kw = self.build(tables)
        kw["grid"] = ChildcareCostGrid(cells={})
        costs = childcare_costs_cents(**kw)
        users = kw["observed_user"]
        assert users.any()
        assert costs[users].tolist() == [cents(v) for v in kw["observed_spend_eur"][users]]
        assert np.all(costs[~users] == 0)


class TestHousing:
    def test_tenure_rules(self):
        cost = deferred_housing_cents(housing_cost_cents(
            tenure_code=np.array([0, 1, 1, 2]),
            mortgage_cents=np.array([0, 100000, 100000, 0]),
            rent_cents=np.array([0, 0, 0, 90000]),
        ), rows=np.array([2]))
        assert cost.tolist() == [0, 100000, 0, 90000]


class TestCapital:
    def test_age_bands(self):
        assert [AGE_BANDS[b] for b in age_band([20, 34, 35, 44, 45, 54, 55, 64, 65, 90])] == \
            ["30", "30", "40", "40", "50", "50", "60", "60", "70", "70"]

    def test_zero_factor_means_zero_loss(self, tables):
        change = capital_value_change_cents(
            tables.holdings, np.array([AGE_BANDS.index("60")]), np.array([5]), np.array([True]),
            0.0)
        assert change.tolist() == [0]

    def test_top_cell_change_matches_reference(self, tables):
        # holding 1763.00 x factor -0.3532 ~ -622.69 -> about -0.623 thousand
        change = capital_value_change_cents(
            tables.holdings, np.array([AGE_BANDS.index("60")]), np.array([5]), np.array([True]),
            -0.3532)
        assert change[0] == round(176300 * -0.3532)
        assert change[0] / 100000.0 == pytest.approx(-0.623, abs=0.002)

    def test_non_participants_lose_nothing(self, tables):
        change = capital_value_change_cents(
            tables.holdings, np.array([AGE_BANDS.index("60")]), np.array([5]),
            np.array([False]), -0.3532)
        assert change.tolist() == [0]

    def test_participation_gate_replays_observed(self, tables):
        rng = np.random.default_rng(3)
        n = 5000
        bands = age_band(rng.integers(20, 90, n))
        quintiles = rng.integers(1, 6, n)
        observed = rng.uniform(size=n) < 0.1
        out = capital_participants(tables.holdings, bands, quintiles, observed,
                                   np.arange(n), seed=7)
        assert np.array_equal(out, observed)


COUNTS = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=40)


@given(counts=COUNTS)
def test_commuting_array_matches_scalar_formula(tables, counts):
    mf = tables.commute.motor_fuels_cents
    pt = tables.commute.public_transport_cents
    private = np.array([c[0] for c in counts], dtype=np.int64)
    public = np.array([c[1] for c in counts], dtype=np.int64)
    out = commuting_cost_cents(tables.commute, private, public)
    assert out.dtype == np.int64
    assert out.tolist() == [mf[min(a, 3)] + pt[min(b, 3)] for a, b in counts]


def test_commuting_array_rejects_negative_counts(tables):
    with pytest.raises(ExpenseError):
        commuting_cost_cents(tables.commute, np.array([1, 0]), np.array([0, -1]))


# with odd holdings, factors of k + 0.5 put changes exactly on half a cent
FACTORS = st.sampled_from([0.5, -0.5, 1.5, -2.5]) | st.floats(-1.0, 1.0, allow_nan=False)
CELLS = [(b, q) for b in ("30", "40", "50", "60", "70") for q in range(1, 6)]


@settings(max_examples=60, deadline=None)
@given(holdings=st.lists(st.integers(0, 10**7), min_size=len(CELLS), max_size=len(CELLS)),
       units=st.lists(st.tuples(st.sampled_from(CELLS), st.booleans()), max_size=40),
       factor=FACTORS)
def test_capital_change_matches_per_person_round(holdings, units, factor):
    values = dict(zip(CELLS, holdings))
    grid = CapitalHoldingsGrid(participation=np.full((5, 5), 0.5),
                               value_cents=np.array(holdings, dtype=np.int64).reshape(5, 5))
    bands = np.array([AGE_BANDS.index(u[0][0]) for u in units], dtype=np.int64)
    quintiles = np.array([u[0][1] for u in units], dtype=np.int64)
    participant = np.array([u[1] for u in units], dtype=bool)
    out = capital_value_change_cents(grid, bands, quintiles, participant, factor)
    assert out.dtype == np.int64
    assert out.tolist() == [int(round(values[cell] * factor)) if p else 0
                            for cell, p in units]


def _case_band_label(age):
    """The sickness-case band of one age, as the control file labels it."""
    for upper, label in ((0, "0"), (4, "1-4"), (14, "5-14"), (24, "15-24"), (34, "25-34"),
                         (44, "35-44"), (54, "45-54"), (64, "55-64")):
        if age <= upper:
            return label
    return "65+"


def _holding_band_label(age):
    """The holdings-grid band of one age: its decade label, <35 to 65+."""
    for upper, label in ((34, "30"), (44, "40"), (54, "50"), (64, "60")):
        if age <= upper:
            return label
    return "70"


def test_band_codes_index_the_band_labels():
    ages = np.arange(121)
    assert [CASE_AGE_BANDS[c] for c in case_age_band(ages)] == [_case_band_label(a) for a in ages]
    assert [AGE_BANDS[c] for c in age_band(ages)] == [_holding_band_label(a) for a in ages]
    assert CASE_AGE_BANDS[case_age_band(40)] == "35-44" and AGE_BANDS[age_band(40)] == "40"


@given(ages=st.lists(st.integers(0, 2 ** 62), max_size=60))
def test_case_band_codes_equal_a_binary_search_over_the_band_starts(ages):
    """case_age_band counts the band starts at or below each age, which is
    the binary search over them that it replaced, at any valid age."""
    ages = np.array(ages, dtype=np.int64)
    assert np.array_equal(case_age_band(ages), np.searchsorted(
        (1, 5, 15, 25, 35, 45, 55, 65), ages, side="right"))


def _grid_rows(data_dir, name, column) -> dict:
    with open(os.path.join(data_dir, name), newline="", encoding="utf-8") as fh:
        return {(row["age_band"], int(row["quintile"])): float(row[column])
                for row in csv.DictReader(fh)}


def test_holdings_grid_lookups_match_the_csv_rows(tables, data_dir):
    rates = _grid_rows(data_dir, "shareholding_participation.csv", "participation")
    values = {cell: cents(v * 1000.0) for cell, v in
              _grid_rows(data_dir, "shareholding_values.csv", "value_eur_thousand").items()}
    rng = np.random.default_rng(8)
    n = 3000
    ages = rng.integers(0, 110, n)
    quintiles = rng.integers(1, 6, n)
    cells = [(_holding_band_label(a), q) for a, q in zip(ages.tolist(), quintiles.tolist())]
    observed = rng.uniform(size=n) < 0.2
    ids = np.arange(n)
    expected_rates = np.clip([rates[c] for c in cells], 1e-9, 1.0 - 1e-9)
    expected = anchored_draws(expected_rates, observed, 4, "shareholding", ids) < expected_rates
    participant = capital_participants(tables.holdings, age_band(ages), quintiles, observed,
                                       ids, seed=4)
    assert np.array_equal(participant, expected)
    change = capital_value_change_cents(tables.holdings, age_band(ages), quintiles,
                                        participant, -0.3532)
    assert change.tolist() == [round(values[c] * -0.3532) if p else 0
                               for c, p in zip(cells, participant.tolist())]


@pytest.mark.parametrize("name", ["shareholding_participation.csv", "shareholding_values.csv"])
def test_holdings_grid_without_a_cell_is_rejected(data_dir, tmp_path, name):
    shutil.copytree(data_dir, tmp_path / "data")
    path = tmp_path / "data" / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[-1].startswith("70,5,")
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(ExpenseError) as err:
        load_data_tables(str(tmp_path / "data"))
    assert str(err.value) == f"{name}: no row for age_band '70', quintile 5"


@pytest.mark.parametrize("name, old, new, message", [
    ("sector_groups.csv", "manufacturing,ind_manufacturing_utilities",
     "manufactoring,ind_manufacturing_utilities",
     "sector_groups.csv:3: unknown sector 'manufactoring'"),
    ("sector_groups.csv", "construction,ind_construction", "construction,ind_constrution",
     "sector_groups.csv:5: unknown transport group 'ind_constrution'"),
    ("sector_groups.csv", "education,ind_education_health",
     "education,ind_education_health\neducation,ind_other",
     "sector_groups.csv:16: second row for sector 'education'"),
    ("sector_groups.csv", "\nother sectors,ind_other", "",
     "sector_groups.csv: no row for sector 'other sectors'"),
    ("childcare_cost_grid.csv", "lone_parent,2,7.8", "lone_parent,12,7.8",
     "childcare_cost_grid.csv:3: decile 12 outside 1..10"),
    ("childcare_cost_grid.csv", "lone_parent,2,7.8", "lone_parent,1,7.8",
     "childcare_cost_grid.csv:3: second row for family_type 'lone_parent', decile '1'"),
    ("shareholding_participation.csv", "30,2,", "35,2,",
     "shareholding_participation.csv:3: age_band '35' is not one of 30, 40, 50, 60, 70"),
    ("shareholding_values.csv", "30,2,", "30,6,",
     "shareholding_values.csv:3: quintile 6 outside 1..5"),
    ("shareholding_values.csv", "30,2,", "30,1,",
     "shareholding_values.csv:3: second row for age_band '30', quintile '1'"),
    ("shareholding_values.csv", "30,1,0.001", "30,1,nan",
     "shareholding_values.csv:2: bad value_eur_thousand 'nan'"),
    ("commuting_costs.csv", "\n2,0.482", "\n1,0.482",
     "commuting_costs.csv:3: second row for workers '1'"),
    ("commuting_costs.csv", "\n3,0.721,0.595,20.33,3.49,23.82", "",
     "commuting_costs.csv: no row for workers 3"),
    ("commuting_costs.csv", "9.17", "inf", "commuting_costs.csv:2: bad total_eur 'inf'"),
])
def test_reference_grid_rule_is_enforced(data_dir, tmp_path, name, old, new, message):
    shutil.copytree(data_dir, tmp_path / "data")
    path = tmp_path / "data" / name
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ExpenseError) as err:
        load_data_tables(str(tmp_path / "data"))
    assert str(err.value) == message
