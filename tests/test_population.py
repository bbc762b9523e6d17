import bisect
import csv
import filecmp
import io
import math
import os
import tempfile
import warnings

import generator_oracle
import numpy as np
import population_oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nowcastsim import population
from nowcastsim.expenses import ExpenseError, load_commute_costs
from nowcastsim.population import (COVID_STATES, DEFAULT_SECTOR_SHARES, EDUCATIONS,
                                   REGIONS, SECTORS, SEXES, TENURES, WORK_STATUSES,
                                   WORKER_CODES, PopulationError, SynthConfig, Table,
                                   generate_synthetic, load_population,
                                   parse_synth_config, save_population, validate)

CONSTRUCTION = "construction"
ENUMS = {"tenure": TENURES, "sex": SEXES, "education": EDUCATIONS, "industry": SECTORS,
         "region": REGIONS, "work_status": WORK_STATUSES, "covid_state": COVID_STATES}


def tiny_household(hid=1, **overrides):
    fields = dict(
        household_id=hid, weight=1.0, member_ids=(hid * 10,), tenure="renter",
        mortgage_payment=0.0, rent=800.0, childcare_user=False,
        childcare_expenditure=0.0, n_children_0_4=0, n_children_under14=0,
    )
    fields.update(overrides)
    return fields


def tiny_person(pid=10, hid=1, **overrides):
    fields = dict(
        person_id=pid, household_id=hid, age=40, sex="female",
        education="secondary", occupation=3, industry=CONSTRUCTION,
        region="southern and eastern", work_status="employee",
        employment_income=30000.0, self_employment_income=0.0,
        capital_income=0.0, private_pension=0.0, essential_worker=False,
        home_work_capable=True, covid_state="none",
    )
    fields.update(overrides)
    return fields


def tables(households, persons):
    """Household and person Tables of field dicts (enum labels as codes)."""
    def column(rows, name):
        if name in ENUMS:
            return np.array([ENUMS[name].index(r[name]) if r[name] else -1 for r in rows])
        return np.array([r[name] for r in rows])

    h = Table(**{c: column(households, c) for c in households[0] if c != "member_ids"})
    h.member_ids = np.array([i for r in households for i in r["member_ids"]], dtype=np.int64)
    h.member_offsets = np.cumsum([0] + [len(r["member_ids"]) for r in households])
    return h, Table(**{c: column(persons, c) for c in persons[0]})


def same_columns(a, b) -> bool:
    return vars(a).keys() == vars(b).keys() and all(
        np.array_equal(column, getattr(b, name)) for name, column in vars(a).items())


class TestValidation:
    def test_consistent_pair_passes(self):
        assert validate(*tables([tiny_household()], [tiny_person()])) == []

    def test_orphan_person_named(self):
        problems = validate(*tables([tiny_household()], [tiny_person(hid=99)]))
        assert any("person 10" in p and "99" in p for p in problems)

    def test_zero_weight_rejected(self):
        problems = validate(*tables([tiny_household(weight=0.0)], [tiny_person()]))
        assert any("weight" in p for p in problems)

    def test_all_violations_reported(self):
        problems = validate(*tables(
            [tiny_household(weight=0.0)],
            [tiny_person(hid=99, covid_state="pup_recipient", age=70)],
        ))
        assert len(problems) >= 3

    def test_mortgage_payment_tenure_consistency(self):
        problems = validate(*tables([tiny_household(tenure="mortgage", mortgage_payment=0.0)],
                                    [tiny_person()]))
        assert any("mortgage" in p for p in problems)

    def test_money_past_exact_cents_named(self):
        """Past 2**53 cents a float64 holds no exact cent: validate names the
        row and column instead of the run wrapping the amount round int64."""
        problems = validate(*tables([tiny_household(rent=-1e14)],
                                    [tiny_person(employment_income=1e17)]))
        assert "household 1: column 'rent': must be under 2**53 cents in magnitude" in problems
        assert ("person 10: column 'employment_income': must be under 2**53 cents "
                "in magnitude") in problems
        # the largest whole cent count below 2**53 is accepted
        assert validate(*tables([tiny_household()],
                                [tiny_person(employment_income=(2 ** 53 - 1) / 100)])) == []

    @pytest.mark.parametrize("n_0_4, n_u14, members, valid", [
        (0, 0, 1, True), (1, 1, 1, True), (1, 2, 2, True), (0, 2, 3, True),
        (0, 5, 1, False), (2, 1, 3, False), (0, 3, 2, False)])
    def test_child_counts_bounded_by_members(self, n_0_4, n_u14, members, valid):
        """n_children_0_4 <= n_children_under14 <= members keeps the OECD
        scale at 0.5 or more; a household outside it is named."""
        ids = tuple(range(10, 10 + members))
        problems = validate(*tables(
            [tiny_household(member_ids=ids, n_children_0_4=n_0_4, n_children_under14=n_u14)],
            [tiny_person(pid) for pid in ids]))
        assert problems == ([] if valid else [
            "household 1: child counts need n_children_0_4 <= n_children_under14 <= members, "
            f"got {n_0_4}, {n_u14} and {members}"])

    def test_child_count_fault_follows_the_other_household_checks(self):
        problems = validate(*tables([tiny_household(n_children_under14=2, rent=float("inf"))],
                                    [tiny_person()]))
        assert problems == ["household 1: column 'rent': must be finite",
                            "household 1: child counts need n_children_0_4 <= "
                            "n_children_under14 <= members, got 0, 2 and 1"]

    def test_employment_income_requires_employee(self):
        problems = validate(*tables([tiny_household()],
                                    [tiny_person(work_status="unemployed",
                                                 employment_income=100.0, industry="")]))
        assert any("employment_income" in p for p in problems)


class TestRoundTrip:
    def test_save_load_save_is_identity(self, tmp_path):
        pop = generate_synthetic(SynthConfig(households=60, weight_jitter=True), 5)
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_population(pop, first)
        loaded = load_population(first)
        save_population(loaded, second)
        assert filecmp.cmp(first / "persons.csv", second / "persons.csv", shallow=False)
        assert filecmp.cmp(first / "households.csv", second / "households.csv",
                           shallow=False)

    def test_loaded_fields_match(self, tmp_path):
        pop = generate_synthetic(SynthConfig(households=30), 9)
        save_population(pop, tmp_path)
        loaded = load_population(tmp_path)
        assert len(loaded.persons) == len(pop.persons)
        assert same_columns(loaded.persons, pop.persons)

    def test_referential_error_on_load(self, tmp_path):
        pop = generate_synthetic(SynthConfig(households=5), 1)
        save_population(pop, tmp_path)
        persons = (tmp_path / "persons.csv").read_text().splitlines()
        persons[1] = persons[1].replace(",1,", ",99,", 1)  # household_id -> 99
        (tmp_path / "persons.csv").write_text("\n".join(persons) + "\n")
        with pytest.raises(PopulationError) as err:
            load_population(tmp_path)
        assert any("99" in v for v in err.value.violations)

    def test_missing_column_named(self, tmp_path):
        pop = generate_synthetic(SynthConfig(households=3), 1)
        save_population(pop, tmp_path)
        lines = (tmp_path / "households.csv").read_text().splitlines()
        lines[0] = lines[0].replace("weight", "wt")
        (tmp_path / "households.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(PopulationError) as err:
            load_population(tmp_path)
        assert any("weight" in v for v in err.value.violations)


class TestGenerator:
    def test_deterministic_for_fixed_seed(self, tmp_path):
        cfg = SynthConfig(households=200)
        a = generate_synthetic(cfg, 42)
        b = generate_synthetic(cfg, 42)
        save_population(a, tmp_path / "a")
        save_population(b, tmp_path / "b")
        assert (tmp_path / "a" / "persons.csv").read_bytes() == \
            (tmp_path / "b" / "persons.csv").read_bytes()
        assert (tmp_path / "a" / "households.csv").read_bytes() == \
            (tmp_path / "b" / "households.csv").read_bytes()

    def test_seed_changes_output(self):
        cfg = SynthConfig(households=100)
        assert not same_columns(generate_synthetic(cfg, 1).persons,
                                generate_synthetic(cfg, 2).persons)

    def test_sector_share_within_one_percent(self):
        shares = dict(DEFAULT_SECTOR_SHARES)
        explicit = {CONSTRUCTION: 0.10}
        rest = 1.0 - 0.10
        other_total = sum(v for k, v in shares.items() if k != CONSTRUCTION)
        shares = {k: (explicit.get(k) if k in explicit else v * rest / other_total)
                  for k, v in shares.items()}
        pop = generate_synthetic(SynthConfig(households=1000, sector_shares=shares), 3)
        workers = np.isin(pop.persons.work_status, WORKER_CODES)
        share = np.mean(pop.persons.industry[workers] == SECTORS.index(CONSTRUCTION))
        assert 0.09 <= share <= 0.11

    def test_zero_households_rejected(self):
        with pytest.raises(PopulationError):
            generate_synthetic(SynthConfig(households=0), 1)

    def test_children_are_children(self, small_pop):
        p = small_pop.persons
        assert np.all(p.work_status[p.age < 16] == WORK_STATUSES.index("child"))

    def test_workers_have_industry_and_occupation(self, small_pop):
        p = small_pop.persons
        employee = p.work_status == WORK_STATUSES.index("employee")
        assert np.all((p.industry[employee] >= 0) & (p.industry[employee] < len(SECTORS)))
        assert np.all((p.occupation[employee] >= 1) & (p.occupation[employee] <= 9))

    def test_one_array_lists_and_names_the_persons(self, small_pop):
        """Persons are numbered 1..n in household order, so the households'
        member lists and the persons' ids are one int32 array."""
        ids = small_pop.persons.person_id
        assert small_pop.households.member_ids is ids
        assert ids.dtype == np.int32
        assert np.array_equal(ids, np.arange(1, ids.size + 1))

    def test_weights_default_to_one(self, small_pop):
        assert np.all(small_pop.households.weight == 1.0)

    def test_weight_jitter_stays_in_band(self):
        pop = generate_synthetic(SynthConfig(households=150, weight_jitter=True), 2)
        weights = pop.households.weight
        assert np.all((weights >= 0.5) & (weights <= 1.5))
        assert weights.std() > 0.0

    @pytest.mark.parametrize("name", sorted(population._CHOICES))
    def test_choice_draws_as_generator_choice(self, name):
        """Bisecting `_CDFS[name]` on one uniform draws what
        Generator.choice(a, p=p), which the generator called before, draws
        from the same stream, and leaves the stream where choice leaves it."""
        p = population._CHOICES[name]
        a = np.arange(1, len(p) + 1)  # occupation codes 1..9, 1..3 or 1..2 children
        ours, numpys = (np.random.default_rng(np.random.SeedSequence([0x5E3D, 42]))
                        for _ in range(2))
        draws = [(1 + bisect.bisect_right(population._CDFS[name], ours.random()),
                  int(ours.integers(0, 100))) for _ in range(100_000)]
        assert draws == [(int(numpys.choice(a, p=p)), int(numpys.integers(0, 100)))
                         for _ in range(100_000)]
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_draws_follow_the_generator_stream(self):
        """`_draws` returns what `Generator.random()` and
        `Generator.integers(lo, hi)` return, interleaved with the
        Generator's own lognormal and permutation, and leaves the same
        state, the buffered half word included. The spans are the
        generator's, plus 2**31 + 1, which rejects about half its words."""
        spans = [(25, 91), (25, 86), (-5, 6), (18, 29), (25, 51), (0, 16), (7, 7 + 2**31 + 1)]
        ours, numpys = (np.random.default_rng(np.random.SeedSequence([0x5E3D, 42]))
                        for _ in range(2))
        random, integers = population._draws(ours)
        got, want = [], []
        schedule = np.random.default_rng(1).integers(0, len(spans) + 2, 120_000).tolist()
        for k in schedule:
            if k < len(spans):
                got.append(integers(*spans[k]))
                want.append(int(numpys.integers(*spans[k])))
            elif k == len(spans):
                got.append(random())
                want.append(numpys.random())
            else:
                got.append(ours.lognormal(6.0, 1.0))
                want.append(numpys.lognormal(6.0, 1.0))
        assert got == want
        assert ours.permutation(1000).tolist() == numpys.permutation(1000).tolist()
        assert ours.bit_generator.state == numpys.bit_generator.state

    @pytest.mark.parametrize("lines, seed", [
        ("", 42),
        ("households = 600\nweight_jitter = on\n", 7),
        ("households = 600\nsector_share[construction] = 0.3\nsector_share[education] = 0\n"
         "income_offset[construction] = 0.4\nincome_offset[manufacturing] = -0.2\n"
         "essential_share[manufacturing] = 1\nessential_share[construction] = 0\n"
         "income_location = 9.5\nincome_scale = 0.8\n", 3),
        ("households = 1\n", 11),
        ("households = 300\n", 0),
        ("households = 300\n", 2**32 + 5),
    ], ids=["defaults", "weight_jitter", "overrides", "one_household", "seed_0", "seed_2**32+5"])
    def test_tables_match_oracle(self, tmp_path, lines, seed):
        """The generator returns the tables, array for array and dtype for
        dtype, that one Generator call per draw gave (`generator_oracle`)."""
        (tmp_path / "synth.cfg").write_text(lines)
        config = parse_synth_config(tmp_path / "synth.cfg")
        ours = generate_synthetic(config, seed)
        oracle = generator_oracle.generate_synthetic(config, seed)
        for table, expected in ((ours.persons, oracle.persons),
                                (ours.households, oracle.households)):
            assert list(vars(table)) == list(vars(expected))
            for name, column in vars(table).items():
                assert column.dtype == getattr(expected, name).dtype, name
                assert np.array_equal(column, getattr(expected, name)), name


class TestSynthConfigFile:
    def test_parse_and_renormalise(self, tmp_path):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text(
            "# comment\n"
            "households = 250\n"
            "weight_jitter = on\n"
            f"sector_share[{CONSTRUCTION}] = 0.10\n"
            "income_location = 10.0\n"
        )
        cfg = parse_synth_config(cfg_path)
        assert cfg.households == 250
        assert cfg.weight_jitter is True
        assert cfg.income_location == 10.0
        assert cfg.sector_shares[CONSTRUCTION] == 0.10
        assert sum(cfg.sector_shares.values()) == pytest.approx(1.0)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text("frobnicate = 3\n")
        with pytest.raises(PopulationError):
            parse_synth_config(cfg_path)

    def test_unknown_sector_rejected(self, tmp_path):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text("sector_share[space mining] = 0.5\n")
        with pytest.raises(PopulationError):
            parse_synth_config(cfg_path)


class TestSynthConfigRejections:
    @pytest.mark.parametrize("line, where", [
        ("weight_jitter = yes", "synth.cfg:2: weight_jitter has a bad value 'yes'"),
        ("essential_share[not a sector] = 0.5",
         "synth.cfg:2: essential_share[not a sector]: unknown sector 'not a sector'"),
        ("income_offset[manufactoring] = 0.1",
         "synth.cfg:2: income_offset[manufactoring]: unknown sector 'manufactoring'"),
        ("sector_share[space mining] = 0.5",
         "synth.cfg:2: sector_share[space mining]: unknown sector 'space mining'"),
        ("households = lots", "synth.cfg:2: households has a bad value 'lots'"),
        ("income_scale = wide", "synth.cfg:2: income_scale has a bad value 'wide'"),
        ("income_offset[construction] = up", "synth.cfg:2: income_offset[construction] has a "
                                             "bad value 'up'"),
        ("base_period = 2019-12-01", "synth.cfg:2: unknown key 'base_period'"),
        ("essential_share[construction] = 1.5",
         "synth.cfg:2: essential_share[construction] must lie in [0, 1], got 1.5"),
        ("essential_share[construction] = -0.1",
         "synth.cfg:2: essential_share[construction] must lie in [0, 1], got -0.1"),
        ("essential_share[construction] = nan",
         "synth.cfg:2: essential_share[construction] must lie in [0, 1], got nan"),
        ("households = -3", "synth.cfg:2: households must be at least 1, got -3"),
        ("households = 0", "synth.cfg:2: households must be at least 1, got 0"),
        ("income_scale = -1", "synth.cfg:2: income_scale must be finite and >= 0, got -1"),
        ("income_scale = nan", "synth.cfg:2: income_scale must be finite and >= 0, got nan"),
        ("income_scale = inf", "synth.cfg:2: income_scale must be finite and >= 0, got inf"),
        ("income_location = inf", "synth.cfg:2: income_location must be finite, got inf"),
        ("income_location = -inf", "synth.cfg:2: income_location must be finite, got -inf"),
        ("income_offset[construction] = nan",
         "synth.cfg:2: income_offset[construction] must be finite, got nan"),
        ("sector_share[construction] = nan",
         "synth.cfg:2: sector_share[construction] must be finite and >= 0, got nan"),
        ("sector_share[construction] = -0.5",
         "synth.cfg:2: sector_share[construction] must be finite and >= 0, got -0.5"),
        ("sector_share[construction] = inf",
         "synth.cfg:2: sector_share[construction] must be finite and >= 0, got inf"),
    ])
    def test_bad_line_names_line_and_key(self, tmp_path, line, where):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text(f"households = 20\n{line}\n")
        with pytest.raises(PopulationError) as err:
            parse_synth_config(cfg_path)
        assert err.value.violations == [where]

    @pytest.mark.parametrize("lines, where", [
        ("households = lots\n", "a.cfg:1: households has a bad value 'lots'"),
        ("sector_share[construction] = 0.7\nsector_share[education] = 0.6\n",
         "a.cfg: sector shares exceed 1"),
        ("households = 5\nhouseholds = 6\n", "a.cfg:2: households is given twice"),
        ("sector_share[construction] = 0.1\nsector_share[ construction ] = 0.2\n",
         "a.cfg:2: sector_share[ construction ] is given twice"),
        ("[synth]\nhouseholds = 5\n", "a.cfg:1: [synth]: this file has no sections"),
    ])
    def test_errors_name_the_file_given(self, tmp_path, lines, where):
        cfg_path = tmp_path / "a.cfg"
        cfg_path.write_text(lines)
        with pytest.raises(PopulationError) as err:
            parse_synth_config(cfg_path)
        assert err.value.violations == [where]

    @pytest.mark.parametrize("value, expected", [("on", True), ("true", True), ("1", True),
                                                 ("off", False), ("false", False),
                                                 ("0", False)])
    def test_weight_jitter_switch_values(self, tmp_path, value, expected):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text(f"weight_jitter = {value}\n")
        assert parse_synth_config(cfg_path).weight_jitter is expected

    def test_sector_maps_are_used(self, tmp_path):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text(f"essential_share[{CONSTRUCTION}] = 1\n"
                            f"income_offset[{CONSTRUCTION}] = 0.5\n")
        cfg = parse_synth_config(cfg_path)
        assert cfg.essential_shares[CONSTRUCTION] == 1.0
        assert cfg.income_offsets[CONSTRUCTION] == 0.5


class TestPopulationIndex:
    def test_member_lookup(self, small_pop):
        h, p = small_pop.households, small_pop.persons
        member_ids = h.member_ids[h.member_offsets[0]:h.member_offsets[1]]
        rows = [int(np.flatnonzero(p.person_id == i)[0]) for i in member_ids]
        assert list(p.person_id[rows]) == list(member_ids)
        assert np.all(p.household_id[rows] == h.household_id[0])


class TestSchemaRejections:
    @pytest.mark.parametrize("name, header_edit, where", [
        ("households.csv", ",n_children_under14", "households.csv: unknown column 'rooms'"),
        ("persons.csv", ",covid_state", "persons.csv: unknown column 'rooms'"),
    ])
    def test_unknown_column_named(self, tmp_path, name, header_edit, where):
        save_population(generate_synthetic(SynthConfig(households=3), 1), tmp_path)
        lines = (tmp_path / name).read_text().splitlines()
        lines = [lines[0].replace(header_edit, header_edit + ",rooms")] + \
            [line + ",4" for line in lines[1:]]
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        with pytest.raises(PopulationError) as err:
            load_population(tmp_path)
        assert where in err.value.violations

    @pytest.mark.parametrize("edit", [lambda line: line + ",extra",
                                      lambda line: line.rsplit(",", 1)[0]])
    def test_ragged_row_located(self, tmp_path, edit):
        save_population(generate_synthetic(SynthConfig(households=3), 1), tmp_path)
        lines = (tmp_path / "persons.csv").read_text().splitlines()
        lines[2] = edit(lines[2])
        (tmp_path / "persons.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(PopulationError, match=r"persons.csv:3: 1[57] fields where "
                                                  r"the header has 16"):
            load_population(tmp_path)


# -- the columnar loader and validate against the object-based oracle --------

# candidate cell texts per column: bad enum values, negative or non-finite
# money, orphan or duplicate ids, member_ids mismatches, unparseable numbers,
# mortgage/tenure disagreements and the PUP 18-66 rule, next to valid values
CELLS = {
    "households.csv": {
        "household_id": ["1", "2", "999", "x", "2.0", ""],
        "weight": ["0", "-1.5", "nan", "abc", "2.5"],
        "member_ids": ["", "1", "1;1", "2;1", "3;4", "999", "1;x", ";;3"],
        "tenure": ["mortgage", "renter", " owner_outright ", "castle", ""],
        "mortgage_payment": ["0.00", "12.50", "-1.00", "lots"],
        "rent": ["-3.00", "0.00", "1e3", "x", "inf", "-1e14"],
        "childcare_user": ["true", "false", "yes", ""],
        "childcare_expenditure": ["0.00", "5.00", "-2.00"],
        "n_children_0_4": ["-1", "2", "x"],
        "n_children_under14": ["-1", "0", "1.5", "5"],
    },
    "persons.csv": {
        "person_id": ["1", "3", "999", "x", ""],
        "household_id": ["1", "2", "999", "y"],
        "age": ["-1", "17", "70", "40", "forty"],
        "sex": ["female", "other", ""],
        "education": ["university", "phd"],
        "occupation": ["", "0", "5", "10", "-1", "x"],
        "industry": ["", "construction", "space mining"],
        "region": ["southern and eastern", "mars"],
        "work_status": ["employee", "unemployed", "retired", "boss"],
        "employment_income": ["0.00", "100.00", "-1.00", "x", "1e17"],
        "self_employment_income": ["-100.00", "x"],
        "capital_income": ["-1.00", "5.00", "-inf"],
        "private_pension": ["-1.00", "nan"],
        "essential_worker": ["true", "nope"],
        "home_work_capable": ["false", "1"],
        "covid_state": ["pup_recipient", "none", "zombie"],
    },
}
EDITS = [(name, column, text) for name, columns in CELLS.items()
         for column, texts in columns.items() for text in texts]


def outcome(load, path):
    try:
        return load(path), []
    except PopulationError as exc:
        return None, exc.violations


def decoded(table, name) -> list:
    """One Table column as the oracle's field values."""
    column = getattr(table, name).tolist()
    if name == "member_ids":
        bounds = table.member_offsets.tolist()
        return [tuple(column[a:b]) for a, b in zip(bounds, bounds[1:])]
    if name in ENUMS:
        return [(ENUMS[name] + ("",))[code] for code in column]
    return column


def same_as_objects(table, objects, columns) -> bool:
    return all(list(map(repr, decoded(table, name))) ==
               [repr(getattr(o, name)) for o in objects] for name in columns)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1000), households=st.integers(1, 5),
       edits=st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 10 ** 6)),
                      max_size=4))
# member_ids are parsed before household_id within a row
@example(seed=0, households=2, edits=[(("households.csv", "household_id", "2.0"), 0),
                                      (("households.csv", "member_ids", "1;x"), 0)])
# person 2 of household 2 also listed first by household 1
@example(seed=1, households=2, edits=[(("households.csv", "member_ids", "1;2"), 0)])
# a non-worker's industry must be empty or a sector
@example(seed=2, households=2, edits=[(("persons.csv", "work_status", "retired"), 0),
                                      (("persons.csv", "industry", "space mining"), 0)])
# the repeated id is the later row, after a violation on the row between
@example(seed=0, households=2, edits=[(("persons.csv", "person_id", "1"), 2),
                                      (("persons.csv", "age", "-1"), 1)])
# money past 2**53 cents, next to a non-finite cell in the same row
@example(seed=4, households=2, edits=[(("persons.csv", "employment_income", "1e17"), 0),
                                      (("persons.csv", "private_pension", "nan"), 0),
                                      (("households.csv", "rent", "-1e14"), 1)])
# non-finite money and weights, two in one row
@example(seed=3, households=2, edits=[(("persons.csv", "private_pension", "nan"), 0),
                                      (("persons.csv", "capital_income", "-inf"), 0),
                                      (("households.csv", "weight", "nan"), 1),
                                      (("households.csv", "rent", "inf"), 1)])
def test_loader_and_validate_match_oracle(seed, households, edits):
    """A saved population with corrupted cells loads to the same columns, or
    fails with the same first parse error or the same violations, as the
    object-based loader and validate it replaced."""
    with tempfile.TemporaryDirectory() as d:
        save_population(generate_synthetic(SynthConfig(households=households,
                                                       weight_jitter=True), seed), d)
        files = {}
        for name in CELLS:
            with open(os.path.join(d, name), newline="", encoding="utf-8") as fh:
                files[name] = list(csv.reader(fh))
        for (name, column, text), k in edits:
            header, body = files[name][0], files[name][1:]
            body[k % len(body)][header.index(column)] = text
        for name, rows in files.items():
            with open(os.path.join(d, name), "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
        pop, violations = outcome(load_population, d)
        objects, expected = outcome(population_oracle.load_population, d)
    assert violations == expected
    if objects is not None:
        households_, persons_ = objects
        assert same_as_objects(pop.households, households_, CELLS["households.csv"])
        assert same_as_objects(pop.persons, persons_, CELLS["persons.csv"])


# -- edge cases of the file syntax, against the oracle ---------------------

def saved_bytes(path) -> dict:
    save_population(generate_synthetic(SynthConfig(households=3, weight_jitter=True), 1), path)
    return {name: (path / name).read_bytes() for name in CELLS}


def with_cell(data: bytes, column, text, row=1) -> bytes:
    rows = list(csv.reader(data.decode().splitlines()))
    rows[row][rows[0].index(column)] = text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().encode()


PERSONS_EDITS = {
    "blank line": lambda data: data.replace(b"\n", b"\n\n", 2),
    "blank lines, then a bad cell":
        lambda data: with_cell(data, "age", "abc", row=2).replace(b"\n", b"\n\n\n", 1),
    "row starts with #": lambda data: data.replace(b"\n1,", b"\n#1,", 1),
    "doubled quotes": lambda data: with_cell(data, "region", 'a "quoted" region'),
    "quoted comma": lambda data: with_cell(data, "sex", "ma,le"),
    "quoted newline": lambda data: with_cell(data, "region", "southern and\neastern"),
    "unknown enum text": lambda data: with_cell(data, "covid_state", "zombie", row=2),
    "occupation past int8": lambda data: with_cell(data, "occupation", "300"),
    "occupation below int8": lambda data: with_cell(data, "occupation", "-129", row=2),
    "1_000 in an int column": lambda data: with_cell(data, "age", "1_000"),
    "1_000 in a float column": lambda data: with_cell(data, "capital_income", "1_000"),
    "arabic digits in an int column": lambda data: with_cell(data, "age", "١٢"),
    "arabic digits in a float column": lambda data: with_cell(data, "capital_income", "١٢"),
    "2**63 in a float column": lambda data: with_cell(data, "capital_income",
                                                       "9223372036854775808"),
    "invalid UTF-8 byte": lambda data: data.replace(b"female", b"fem\xffale", 1),
}


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("edit", PERSONS_EDITS.values(), ids=PERSONS_EDITS)
def test_syntax_edge_cases_match_oracle(tmp_path, edit, line_end):
    """CRLF and CR-only line ends, blank lines, quoting, numbers that only
    Python reads and undecodable bytes: the same tables, violations or
    exception as the object-based loader."""
    files = saved_bytes(tmp_path)
    files["persons.csv"] = edit(files["persons.csv"])
    for name, data in files.items():
        (tmp_path / name).write_bytes(data.replace(b"\n", line_end))

    def result(load):
        try:
            return outcome(load, tmp_path)
        except UnicodeDecodeError:  # the object-based loader's; this one names the line
            data = (tmp_path / "persons.csv").read_bytes()
            line = data[:data.index(b"\xff")].count(line_end) + 1
            return None, [f"persons.csv:{line}: not UTF-8 text (byte 0xff: invalid start byte)"]
    (pop, violations), (objects, expected) = (
        result(load_population), result(population_oracle.load_population))
    assert violations == expected
    if objects is not None:
        assert same_as_objects(pop.households, objects[0], CELLS["households.csv"])
        assert same_as_objects(pop.persons, objects[1], CELLS["persons.csv"])


def with_column(data: bytes, column, texts) -> bytes:
    """`data` with the cells of `column` in rows 1.. replaced by `texts`."""
    for row, text in enumerate(texts, 1):
        data = with_cell(data, column, text, row)
    return data


def on_persons(edit):
    """An edit of persons.csv as an edit of both files' bytes."""
    return lambda files: {**files, "persons.csv": edit(files["persons.csv"])}


def first_household_renumbered(files: dict) -> dict:
    """Household 1 and its first person, who is person 1, numbered 2**31."""
    households, persons, big = files["households.csv"], files["persons.csv"], str(2**31)
    members = next(csv.DictReader(io.StringIO(households.decode())))["member_ids"].split(";")
    households = with_cell(households, "member_ids", ";".join([big, *members[1:]]))
    persons = with_column(persons, "household_id", [big] * len(members))  # in household order
    return {"households.csv": with_cell(households, "household_id", big),
            "persons.csv": with_cell(persons, "person_id", big)}


@pytest.mark.parametrize("edit, wide", [
    (on_persons(lambda data: with_cell(data, "age", "1_000")), {}),
    (on_persons(lambda data: with_cell(data, "occupation", "300")),
     {"persons.csv": {"occupation"}}),
    (on_persons(lambda data: with_column(data, "sex", [f"sex {k}" for k in range(130)])),
     {"persons.csv": {"sex"}}),
    (on_persons(lambda data: with_cell(with_cell(data, "household_id", str(2**31)), "age",
                                       "40000", row=2)),
     {"persons.csv": {"household_id", "age"}}),
    (first_household_renumbered,
     {"households.csv": {"household_id", "member_ids"},
      "persons.csv": {"person_id", "household_id"}}),
], ids=["1_000", "occupation 300", "130 unknown sex texts", "household_id 2**31, age 40000",
        "household 1 and person 1 numbered 2**31"])
def test_each_file_reaches_loadtxt_at_most_once(tmp_path, monkeypatch, edit, wide):
    """A file np.loadtxt rejects is read in one more pass, by csv, and loads
    (or fails) as the object-based loader reads it, its violations naming
    the values alike; only an integer column with a value past its type (a
    code past int8, an id or member id past int32, an age past int16) is
    held wider, in int64, than the generator holds it."""
    generated = generate_synthetic(SynthConfig(households=80), 1)
    save_population(generated, tmp_path)
    files = edit({name: (tmp_path / name).read_bytes() for name in CELLS})
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    calls, loadtxt = [], np.loadtxt

    def counted(fh, *args, **kwargs):
        calls.append(os.path.basename(fh.name))
        return loadtxt(fh, *args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", counted)
    pop, violations = outcome(load_population, tmp_path)
    assert sorted(calls) == ["households.csv", "persons.csv"]
    objects, expected = outcome(population_oracle.load_population, tmp_path)
    assert violations == expected
    if objects is not None:
        assert same_as_objects(pop.households, objects[0], CELLS["households.csv"])
        assert same_as_objects(pop.persons, objects[1], CELLS["persons.csv"])
    for name, columns, narrow in (
            ("households.csv", population._HOUSEHOLD_COLUMNS, generated.households),
            ("persons.csv", population._PERSON_COLUMNS, generated.persons)):
        table, _ = population._load_table(str(tmp_path / name), columns)
        assert {column for column, values in vars(table).items()
                if values.dtype != getattr(narrow, column).dtype} == wide.get(name, set())


def test_an_integer_numpy_casts_through_a_float_is_rescanned(tmp_path, monkeypatch):
    """Older numpy reads an integer cell past its type, such as an age of
    40000 in int16, as a float and casts it, with only a DeprecationWarning
    that Python hides by default: the loader makes that warning an error, so
    the file is rescanned and the age kept, in int64."""
    save_population(generate_synthetic(SynthConfig(households=3), 1), tmp_path)
    path = tmp_path / "persons.csv"
    path.write_bytes(with_cell(path.read_bytes(), "age", "40000"))
    loadtxt = np.loadtxt

    def through_float(fh, *args, **kwargs):  # numpy's parser before the deprecation expired
        text = fh.read()
        if ",40000," in text:
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as error:
                raise ValueError("could not convert string '40000' to int16") from error
            text = text.replace(",40000,", f",{np.array(40000).astype(np.int16)},")
        return loadtxt(io.StringIO(text), *args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", through_float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # Python's default
        table, _ = population._load_table(str(path), population._PERSON_COLUMNS)
    assert table.age.dtype == np.int64 and table.age[0] == 40000


@pytest.mark.parametrize("name, edit, violations", [
    # the oracle reads past these: a whitespace-only row is one field, an
    # int64 overflow is its int, and it ignores unknown columns
    ("persons.csv", lambda data: data.replace(b"\n", b"\n  \n", 2),
     ["persons.csv:2: 1 fields where the header has 16"]),
    ("persons.csv", lambda data: with_cell(data, "age", "9223372036854775808"),
     ["persons.csv:2: bad int '9223372036854775808'"]),
    # line 5 after two blank lines: physical lines count, as in files.csv_rows
    ("persons.csv",
     lambda data: with_cell(data, "age", "abc", row=2).replace(b"\n", b"\n\n\n", 1),
     ["persons.csv:5: bad int 'abc'"]),
    # a row whose quoted cell spans lines 2-3 is named by its last line
    ("persons.csv",
     lambda data: with_cell(data, "region", "south\nern").replace(b"\n1,", b"\nx,", 1),
     ["persons.csv:3: bad int 'x'"]),
    ("households.csv", lambda data: with_cell(data, "member_ids", "1;9223372036854775808"),
     ["households.csv:2: bad int '9223372036854775808'"]),
    ("households.csv", lambda data: b"\xef\xbb\xbf" + data,
     ["households.csv: missing column 'household_id'",
      "households.csv: unknown column '\\ufeffhousehold_id'"]),
])
def test_syntax_errors_located(tmp_path, name, edit, violations):
    files = saved_bytes(tmp_path)
    (tmp_path / name).write_bytes(edit(files[name]))
    with pytest.raises(PopulationError) as err:
        load_population(tmp_path)
    assert err.value.violations == violations


def test_header_only_files_parse_silently_and_are_rejected(tmp_path, capfd):
    """Each header-only file parses to an empty table without numpy's "no
    data" warning; a population without households is rejected."""
    for name, data in saved_bytes(tmp_path).items():
        (tmp_path / name).write_bytes(data.split(b"\n")[0] + b"\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing printed on stderr either
        for name, columns in (("households.csv", population._HOUSEHOLD_COLUMNS),
                              ("persons.csv", population._PERSON_COLUMNS)):
            assert len(population._load_table(str(tmp_path / name), columns)[0]) == 0
        with pytest.raises(PopulationError) as err:
            load_population(tmp_path)
    assert err.value.violations == ["households.csv: no households"]
    assert capfd.readouterr() == ("", "")


def test_repeated_column_is_rejected_by_both_readers(tmp_path, data_dir):
    """A repeated header column is an error, in a population file and in a
    reference file alike, whichever copy holds good values."""
    pop = generate_synthetic(SynthConfig(households=3), 1)
    save_population(pop, tmp_path)
    rows = list(csv.reader((tmp_path / "persons.csv").read_text().splitlines()))
    with open(tmp_path / "persons.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [[*rows[0], "age"]] + [[*row, row[rows[0].index("age")]] for row in rows[1:]])
    with pytest.raises(PopulationError) as err:
        load_population(tmp_path)
    assert err.value.violations == ["persons.csv: column 'age' appears twice"]

    with open(os.path.join(data_dir, "commuting_costs.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    path = tmp_path / "commuting_costs.csv"
    path.write_text("\n".join([lines[0] + ",total_eur"] + [line + ",1" for line in lines[1:]]),
                    encoding="utf-8")
    with pytest.raises(ExpenseError,
                       match="^commuting_costs.csv: column 'total_eur' appears twice$"):
        load_commute_costs(path)


@pytest.mark.parametrize("line", [0, 2])
def test_population_file_that_is_not_utf8_is_named(tmp_path, line):
    save_population(generate_synthetic(SynthConfig(households=3), 1), tmp_path)
    path = tmp_path / "households.csv"
    lines = path.read_bytes().split(b"\n")
    lines[line] = lines[line].replace(b",", b"\xe9,", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(PopulationError) as err:
        load_population(tmp_path)
    assert err.value.violations == [
        f"households.csv:{line + 1}: not UTF-8 text (byte 0xe9: invalid continuation byte)"]


NUMBER_TEXTS = st.lists(st.sampled_from([*"0123456789.eE+-_ ", "nan", "inf"]),
                        max_size=12).map("".join)


@settings(max_examples=1000, deadline=None)
@given(text=NUMBER_TEXTS)
@example(text="1_000")
@example(text="9223372036854775808")
@example(text=" -1e5 ")
@example(text="2147483647")
@example(text="2147483648")
@example(text="-2147483648")
@example(text="-2147483649")
@example(text="32767")
@example(text="32768")
@example(text="-32768")
@example(text="-32769")
def test_native_numbers_are_pythons(text):
    """numpy's C parser reads an int64, int32, int16 or float64 cell to
    exactly the value Python's int or float reads, or rejects it, a value
    past the integer type too: so a file it accepts loads as before, and one
    it rejects is rescanned with Python's parsers."""
    for kind, dtype in ((int, np.int64), (int, np.int32), (int, np.int16), (float, np.float64)):
        try:
            with warnings.catch_warnings():  # as in `population._read`, on any numpy
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
                native = np.loadtxt([f'"{text}"'], dtype=dtype, delimiter=",", quotechar='"',
                                    comments=None, ndmin=1)
        except ValueError:
            continue
        assert native.shape == (1,)
        python = kind(text)
        assert native[0].item() == python or math.isnan(python) and np.isnan(native[0])
        assert np.signbit(native[0]) == np.signbit(python)
