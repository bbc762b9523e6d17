import filecmp

import numpy as np
import pytest

from nowcastsim.population import (DEFAULT_SECTOR_SHARES, Household, Person,
                                   PopulationError, SECTORS, SynthConfig,
                                   generate_synthetic, load_population,
                                   parse_synth_config, save_population,
                                   validate)

CONSTRUCTION = "construction"


def tiny_household(hid=1, **overrides):
    fields = dict(
        household_id=hid, weight=1.0, member_ids=(hid * 10,), tenure="renter",
        mortgage_payment=0.0, rent=800.0, childcare_user=False,
        childcare_expenditure=0.0, n_children_0_4=0, n_children_under14=0,
    )
    fields.update(overrides)
    return Household(**fields)


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
    return Person(**fields)


class TestValidation:
    def test_consistent_pair_passes(self):
        assert validate([tiny_household()], [tiny_person()]) == []

    def test_orphan_person_named(self):
        problems = validate([tiny_household()], [tiny_person(hid=99)])
        assert any("person 10" in p and "99" in p for p in problems)

    def test_zero_weight_rejected(self):
        problems = validate([tiny_household(weight=0.0)], [tiny_person()])
        assert any("weight" in p for p in problems)

    def test_all_violations_reported(self):
        problems = validate(
            [tiny_household(weight=0.0)],
            [tiny_person(hid=99, covid_state="pup_recipient", age=70)],
        )
        assert len(problems) >= 3

    def test_mortgage_payment_tenure_consistency(self):
        problems = validate([tiny_household(tenure="mortgage", mortgage_payment=0.0)],
                            [tiny_person()])
        assert any("mortgage" in p for p in problems)

    def test_employment_income_requires_employee(self):
        problems = validate([tiny_household()],
                            [tiny_person(work_status="unemployed",
                                         employment_income=100.0, industry="")])
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
        for a, b in zip(loaded.persons, pop.persons):
            assert a == b

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
        assert generate_synthetic(cfg, 1).persons != generate_synthetic(cfg, 2).persons

    def test_sector_share_within_one_percent(self):
        shares = dict(DEFAULT_SECTOR_SHARES)
        explicit = {CONSTRUCTION: 0.10}
        rest = 1.0 - 0.10
        other_total = sum(v for k, v in shares.items() if k != CONSTRUCTION)
        shares = {k: (explicit.get(k) if k in explicit else v * rest / other_total)
                  for k, v in shares.items()}
        pop = generate_synthetic(SynthConfig(households=1000, sector_shares=shares), 3)
        workers = [p for p in pop.persons if p.is_worker]
        share = sum(1 for p in workers if p.industry == CONSTRUCTION) / len(workers)
        assert 0.09 <= share <= 0.11

    def test_zero_households_rejected(self):
        with pytest.raises(PopulationError):
            generate_synthetic(SynthConfig(households=0), 1)

    def test_children_are_children(self, small_pop):
        for p in small_pop.persons:
            if p.age < 16:
                assert p.work_status == "child"

    def test_workers_have_industry_and_occupation(self, small_pop):
        for p in small_pop.persons:
            if p.work_status == "employee":
                assert p.industry in SECTORS
                assert 1 <= p.occupation <= 9

    def test_weights_default_to_one(self, small_pop):
        assert all(h.weight == 1.0 for h in small_pop.households)

    def test_weight_jitter_stays_in_band(self):
        pop = generate_synthetic(SynthConfig(households=150, weight_jitter=True), 2)
        weights = np.array([h.weight for h in pop.households])
        assert np.all((weights >= 0.5) & (weights <= 1.5))
        assert weights.std() > 0.0


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


class TestPopulationIndex:
    def test_member_lookup(self, small_pop):
        h = small_pop.households[0]
        by_id = {p.person_id: p for p in small_pop.persons}
        members = [by_id[i] for i in h.member_ids]
        assert [p.person_id for p in members] == list(h.member_ids)
        assert all(p.household_id == h.household_id for p in members)
