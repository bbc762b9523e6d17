"""Microdata schema, validation, file I/O, and the deterministic
synthetic-population generator used when no survey file is supplied.

Two delimiter-separated files describe a population: `households.csv` and
`persons.csv`, UTF-8 with a mandatory header row, enums as lowercase
strings, money as decimals with a '.' separator, booleans as true/false,
and household member ids joined with ';'.

Occupation is a code in 1..9 and is required for workers; non-workers may
carry 0 (not applicable). Industry must be one of the seventeen sector
labels below whenever the person works, and may be empty otherwise.
"""
from __future__ import annotations

import csv
import datetime as dt
import os
from dataclasses import dataclass, field

import numpy as np

SECTORS = (
    "agriculture, forestry and fishing; mining and quarrying",
    "manufacturing",
    "electricity, gas supply; water supply, sewerage and waste management",
    "construction",
    "wholesale and retail trade; repair of motor vehicles and motorcycles",
    "transportation and storage",
    "accommodation and food service activities",
    "information and communication activities",
    "financial and insurance activities",
    "real estate activities",
    "professional, scientific and technical activities",
    "administrative and support service activities",
    "public administration and defence; compulsory social security",
    "education",
    "human health and social work activities",
    "arts, entertainment and recreation",
    "other sectors",
)

REGIONS = ("border, midland and western", "southern and eastern")
SEXES = ("male", "female")
EDUCATIONS = ("primary", "secondary", "university")
WORK_STATUSES = ("employee", "self-employed", "unemployed", "retired",
                 "inactive", "student", "child")
TENURES = ("owner_outright", "mortgage", "renter")
COVID_STATES = ("none", "pup_recipient", "ceib_recipient", "wage_subsidised")
WORKER_STATUSES = ("employee", "self-employed")

# Share of each sector's workers classed as essential, used by the
# generator; configurable through synth.cfg essential_share[...] keys.
DEFAULT_ESSENTIAL_SHARES = {
    SECTORS[0]: 0.90, SECTORS[1]: 0.40, SECTORS[2]: 0.95, SECTORS[3]: 0.20,
    SECTORS[4]: 0.50, SECTORS[5]: 0.60, SECTORS[6]: 0.05, SECTORS[7]: 0.30,
    SECTORS[8]: 0.35, SECTORS[9]: 0.10, SECTORS[10]: 0.25, SECTORS[11]: 0.30,
    SECTORS[12]: 0.85, SECTORS[13]: 0.60, SECTORS[14]: 0.95, SECTORS[15]: 0.05,
    SECTORS[16]: 0.30,
}

# Pre-crisis sector employment mix (proportional to the national reference
# employment file shipped with the scenario data).
DEFAULT_SECTOR_SHARES = {
    SECTORS[0]: 110, SECTORS[1]: 250, SECTORS[2]: 25, SECTORS[3]: 145,
    SECTORS[4]: 300, SECTORS[5]: 100, SECTORS[6]: 190, SECTORS[7]: 120,
    SECTORS[8]: 110, SECTORS[9]: 25, SECTORS[10]: 140, SECTORS[11]: 105,
    SECTORS[12]: 115, SECTORS[13]: 195, SECTORS[14]: 310, SECTORS[15]: 55,
    SECTORS[16]: 110,
}
_total = sum(DEFAULT_SECTOR_SHARES.values())
DEFAULT_SECTOR_SHARES = {k: v / _total for k, v in DEFAULT_SECTOR_SHARES.items()}
del _total


class PopulationError(ValueError):
    """Raised on schema or referential violations; carries them all."""

    def __init__(self, violations):
        self.violations = list(violations)
        preview = "; ".join(self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} violation(s): {preview}{more}")


@dataclass
class Person:
    person_id: int
    household_id: int
    age: int
    sex: str
    education: str
    occupation: int
    industry: str
    region: str
    work_status: str
    employment_income: float
    self_employment_income: float
    capital_income: float
    private_pension: float
    essential_worker: bool
    home_work_capable: bool
    covid_state: str = "none"

    @property
    def is_worker(self) -> bool:
        return self.work_status in WORKER_STATUSES


@dataclass
class Household:
    household_id: int
    weight: float
    member_ids: tuple
    tenure: str
    mortgage_payment: float
    rent: float
    childcare_user: bool
    childcare_expenditure: float
    n_children_0_4: int
    n_children_under14: int


@dataclass
class Population:
    households: list
    persons: list
    base_period: dt.date = dt.date(2019, 12, 1)


def validate(households, persons) -> list:
    """Return every schema/invariant violation as a human-readable string."""
    violations = []
    hh_by_id = {}
    for h in households:
        if h.household_id in hh_by_id:
            violations.append(f"household {h.household_id}: duplicate household_id")
        hh_by_id[h.household_id] = h
        if not h.weight > 0:
            violations.append(f"household {h.household_id}: column 'weight': must be > 0")
        if h.tenure not in TENURES:
            violations.append(f"household {h.household_id}: column 'tenure': bad value {h.tenure!r}")
        if h.mortgage_payment < 0 or h.rent < 0 or h.childcare_expenditure < 0:
            violations.append(f"household {h.household_id}: negative money amount")
        if (h.mortgage_payment > 0) != (h.tenure == "mortgage"):
            violations.append(
                f"household {h.household_id}: mortgage_payment > 0 must hold exactly "
                f"for tenure 'mortgage' (tenure={h.tenure!r}, payment={h.mortgage_payment})"
            )
        if h.childcare_expenditure > 0 and not h.childcare_user:
            violations.append(
                f"household {h.household_id}: childcare_expenditure > 0 without childcare_user"
            )
        if h.n_children_0_4 < 0 or h.n_children_under14 < 0:
            violations.append(f"household {h.household_id}: negative child count")
        if not h.member_ids:
            violations.append(f"household {h.household_id}: empty member_ids")

    seen_person = {}
    membership = {}
    for h in households:
        for pid in h.member_ids:
            membership.setdefault(pid, []).append(h.household_id)

    for p in persons:
        tag = f"person {p.person_id}"
        if p.person_id in seen_person:
            violations.append(f"{tag}: duplicate person_id")
        seen_person[p.person_id] = p
        if p.age < 0:
            violations.append(f"{tag}: column 'age': must be >= 0")
        if p.sex not in SEXES:
            violations.append(f"{tag}: column 'sex': bad value {p.sex!r}")
        if p.education not in EDUCATIONS:
            violations.append(f"{tag}: column 'education': bad value {p.education!r}")
        if p.region not in REGIONS:
            violations.append(f"{tag}: column 'region': bad value {p.region!r}")
        if p.work_status not in WORK_STATUSES:
            violations.append(f"{tag}: column 'work_status': bad value {p.work_status!r}")
        if p.covid_state not in COVID_STATES:
            violations.append(f"{tag}: column 'covid_state': bad value {p.covid_state!r}")
        is_worker = p.work_status in WORKER_STATUSES
        if is_worker:
            if p.occupation not in range(1, 10):
                violations.append(f"{tag}: column 'occupation': workers need a code in 1..9")
            if p.industry not in SECTORS:
                violations.append(f"{tag}: column 'industry': bad value {p.industry!r}")
        else:
            if p.occupation not in range(0, 10):
                violations.append(f"{tag}: column 'occupation': bad code {p.occupation}")
            if p.industry and p.industry not in SECTORS:
                violations.append(f"{tag}: column 'industry': bad value {p.industry!r}")
        if p.employment_income < 0 or p.capital_income < 0 or p.private_pension < 0:
            violations.append(f"{tag}: negative income where >= 0 required")
        if p.employment_income > 0 and p.work_status != "employee":
            violations.append(
                f"{tag}: employment_income > 0 requires work_status 'employee'"
            )
        if p.covid_state == "pup_recipient" and not (18 <= p.age <= 66):
            violations.append(f"{tag}: pup_recipient outside the 18-66 age rule")
        if p.household_id not in hh_by_id:
            violations.append(
                f"{tag}: column 'household_id': references household "
                f"{p.household_id} absent from households"
            )
        homes = membership.get(p.person_id, [])
        if len(homes) != 1:
            violations.append(
                f"{tag}: appears in member_ids of {len(homes)} households"
            )
        elif homes[0] != p.household_id:
            violations.append(
                f"{tag}: household_id {p.household_id} disagrees with "
                f"member_ids of household {homes[0]}"
            )

    for pid, hhs in membership.items():
        if pid not in seen_person:
            violations.append(
                f"household {hhs[0]}: member_ids references missing person {pid}"
            )
    return violations


def _parse_bool(text, where):
    if text == "true":
        return True
    if text == "false":
        return False
    raise PopulationError([f"{where}: bad boolean {text!r}"])


def _parse(kind, text, where):
    try:
        return kind(text)
    except ValueError:
        raise PopulationError([f"{where}: bad {kind.__name__} {text!r}"]) from None


_PERSON_COLUMNS = (
    "person_id", "household_id", "age", "sex", "education", "occupation",
    "industry", "region", "work_status", "employment_income",
    "self_employment_income", "capital_income", "private_pension",
    "essential_worker", "home_work_capable", "covid_state",
)
_HOUSEHOLD_COLUMNS = (
    "household_id", "weight", "member_ids", "tenure", "mortgage_payment",
    "rent", "childcare_user", "childcare_expenditure", "n_children_0_4",
    "n_children_under14",
)


def _read_rows(path, columns):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        got = tuple(reader.fieldnames or ())
        missing = [c for c in columns if c not in got]
        if missing:
            raise PopulationError(
                [f"{os.path.basename(path)}: missing column {c!r}" for c in missing]
            )
        return list(reader)


def load_population(path, base_period: dt.date = dt.date(2019, 12, 1)) -> Population:
    """Load and validate households.csv + persons.csv from a directory."""
    hh_path = os.path.join(path, "households.csv")
    p_path = os.path.join(path, "persons.csv")
    households = []
    for lineno, rec in enumerate(_read_rows(hh_path, _HOUSEHOLD_COLUMNS), start=2):
        where = f"households.csv:{lineno}"
        member_ids = tuple(
            _parse(int, tok, where) for tok in rec["member_ids"].split(";") if tok
        )
        households.append(
            Household(
                household_id=_parse(int, rec["household_id"], where),
                weight=_parse(float, rec["weight"], where),
                member_ids=member_ids,
                tenure=rec["tenure"].strip(),
                mortgage_payment=_parse(float, rec["mortgage_payment"], where),
                rent=_parse(float, rec["rent"], where),
                childcare_user=_parse_bool(rec["childcare_user"], where),
                childcare_expenditure=_parse(float, rec["childcare_expenditure"], where),
                n_children_0_4=_parse(int, rec["n_children_0_4"], where),
                n_children_under14=_parse(int, rec["n_children_under14"], where),
            )
        )
    persons = []
    for lineno, rec in enumerate(_read_rows(p_path, _PERSON_COLUMNS), start=2):
        where = f"persons.csv:{lineno}"
        persons.append(
            Person(
                person_id=_parse(int, rec["person_id"], where),
                household_id=_parse(int, rec["household_id"], where),
                age=_parse(int, rec["age"], where),
                sex=rec["sex"].strip(),
                education=rec["education"].strip(),
                occupation=_parse(int, rec["occupation"] or "0", where),
                industry=rec["industry"].strip(),
                region=rec["region"].strip(),
                work_status=rec["work_status"].strip(),
                employment_income=_parse(float, rec["employment_income"], where),
                self_employment_income=_parse(float, rec["self_employment_income"], where),
                capital_income=_parse(float, rec["capital_income"], where),
                private_pension=_parse(float, rec["private_pension"], where),
                essential_worker=_parse_bool(rec["essential_worker"], where),
                home_work_capable=_parse_bool(rec["home_work_capable"], where),
                covid_state=rec["covid_state"].strip(),
            )
        )
    violations = validate(households, persons)
    if violations:
        raise PopulationError(violations)
    return Population(households=households, persons=persons, base_period=base_period)


def save_population(pop: Population, path) -> None:
    """Write households.csv + persons.csv; output is byte-stable."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "households.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HOUSEHOLD_COLUMNS)
        for h in pop.households:
            writer.writerow([
                h.household_id, repr(h.weight), ";".join(str(i) for i in h.member_ids),
                h.tenure, f"{h.mortgage_payment:.2f}", f"{h.rent:.2f}",
                "true" if h.childcare_user else "false",
                f"{h.childcare_expenditure:.2f}", h.n_children_0_4, h.n_children_under14,
            ])
    with open(os.path.join(path, "persons.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_PERSON_COLUMNS)
        for p in pop.persons:
            writer.writerow([
                p.person_id, p.household_id, p.age, p.sex, p.education,
                p.occupation, p.industry, p.region, p.work_status,
                f"{p.employment_income:.2f}", f"{p.self_employment_income:.2f}",
                f"{p.capital_income:.2f}", f"{p.private_pension:.2f}",
                "true" if p.essential_worker else "false",
                "true" if p.home_work_capable else "false",
                p.covid_state,
            ])


@dataclass
class SynthConfig:
    """Parameters of the synthetic generator (see synth.cfg keys)."""

    households: int = 1000
    sector_shares: dict = field(default_factory=lambda: dict(DEFAULT_SECTOR_SHARES))
    income_location: float = 10.45   # log of annual employee earnings (EUR)
    income_scale: float = 0.55
    income_offsets: dict = field(default_factory=dict)  # sector -> location shift
    essential_shares: dict = field(default_factory=lambda: dict(DEFAULT_ESSENTIAL_SHARES))
    weight_jitter: bool = False
    base_period: dt.date = dt.date(2019, 12, 1)


def parse_synth_config(path) -> SynthConfig:
    """Parse a key=value synth.cfg; bracketed keys override per-sector maps.

    Recognised keys: households, income_location, income_scale,
    weight_jitter (on/off), base_period (ISO date), sector_share[<sector>],
    income_offset[<sector>], essential_share[<sector>].
    """
    cfg = SynthConfig()
    explicit_shares = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PopulationError([f"synth.cfg:{lineno}: expected key = value"])
            key, value = (tok.strip() for tok in line.split("=", 1))
            if key == "households":
                cfg.households = int(value)
            elif key == "income_location":
                cfg.income_location = float(value)
            elif key == "income_scale":
                cfg.income_scale = float(value)
            elif key == "weight_jitter":
                cfg.weight_jitter = value in ("on", "true", "1")
            elif key == "base_period":
                cfg.base_period = dt.date.fromisoformat(value)
            elif key.startswith("sector_share[") and key.endswith("]"):
                explicit_shares[key[13:-1].strip()] = float(value)
            elif key.startswith("income_offset[") and key.endswith("]"):
                cfg.income_offsets[key[14:-1].strip()] = float(value)
            elif key.startswith("essential_share[") and key.endswith("]"):
                cfg.essential_shares[key[16:-1].strip()] = float(value)
            else:
                raise PopulationError([f"synth.cfg:{lineno}: unknown key {key!r}"])
    if explicit_shares:
        unknown = sorted(set(explicit_shares) - set(SECTORS))
        if unknown:
            raise PopulationError([f"synth.cfg: unknown sector {s!r}" for s in unknown])
        remainder = 1.0 - sum(explicit_shares.values())
        if remainder < -1e-9:
            raise PopulationError(["synth.cfg: sector shares exceed 1"])
        others = {s: DEFAULT_SECTOR_SHARES[s] for s in SECTORS if s not in explicit_shares}
        scale = remainder / sum(others.values()) if others else 0.0
        cfg.sector_shares = {**{s: v * scale for s, v in others.items()}, **explicit_shares}
    return cfg


def _quota_counts(shares: dict, n: int) -> dict:
    """Largest-remainder apportionment of n slots to the share map."""
    labels = [s for s in SECTORS if shares.get(s, 0.0) > 0]
    raw = {s: shares[s] * n for s in labels}
    counts = {s: int(raw[s]) for s in labels}
    shortfall = n - sum(counts.values())
    by_remainder = sorted(labels, key=lambda s: (-(raw[s] - counts[s]), s))
    for s in by_remainder[:shortfall]:
        counts[s] += 1
    return counts


def generate_synthetic(config: SynthConfig, seed: int) -> Population:
    """Deterministic synthetic population: a pure function of (config, seed).

    Households mix singles, couples, families and lone parents; workers are
    spread over sectors by largest-remainder quota so realized shares stay
    within one worker of the configured shares; employee earnings are
    log-normal per sector. Children (age < 16) always have work_status
    'child'. Weights are 1.0 unless weight_jitter draws them in [0.5, 1.5].
    """
    if config.households <= 0:
        raise PopulationError(["synthetic generator needs a positive household count"])
    rng = np.random.default_rng(np.random.SeedSequence([0x5E3D, seed & 0xFFFFFFFF]))
    households = []
    persons = []
    next_pid = 1

    def new_person(hid, age, work_status, rng):
        nonlocal next_pid
        pid = next_pid
        next_pid += 1
        sex = "male" if rng.random() < 0.5 else "female"
        if age < 16:
            education = "primary"
        elif rng.random() < (0.35 if age < 65 else 0.20):
            education = "university"
        else:
            education = "secondary" if rng.random() < 0.75 else "primary"
        occupation = 0
        if work_status in WORKER_STATUSES:
            occupation = int(rng.choice(
                np.arange(1, 10),
                p=[0.13, 0.12, 0.12, 0.13, 0.10, 0.10, 0.10, 0.10, 0.10],
            ))
        region = REGIONS[0] if rng.random() < 0.27 else REGIONS[1]
        capital = 0.0
        if age >= 18:
            cap_rate = {0: 0.03, 1: 0.06, 2: 0.10, 3: 0.13}.get(min((age - 15) // 10, 3), 0.10)
            if rng.random() < cap_rate:
                capital = round(float(rng.lognormal(6.0, 1.0)), 2)
        pension = 0.0
        if work_status == "retired" and rng.random() < 0.55:
            pension = round(float(rng.lognormal(9.3, 0.5)), 2)
        home_capable = False
        if occupation:
            home_capable = rng.random() < (0.7 if occupation <= 4 else (0.3 if occupation == 9 else 0.15))
        return Person(
            person_id=pid, household_id=hid, age=age, sex=sex, education=education,
            occupation=occupation, industry="", region=region, work_status=work_status,
            employment_income=0.0, self_employment_income=0.0, capital_income=capital,
            private_pension=pension, essential_worker=False,
            home_work_capable=home_capable, covid_state="none",
        )

    def adult_status(age, rng):
        u = rng.random()
        if age < 18:
            return "student"
        if age < 25:
            return ("student" if u < 0.45 else
                    "employee" if u < 0.85 else
                    "unemployed" if u < 0.92 else "inactive")
        if age < 65:
            return ("employee" if u < 0.68 else
                    "self-employed" if u < 0.78 else
                    "unemployed" if u < 0.84 else "inactive")
        return "retired" if u < 0.92 else ("employee" if u < 0.97 else "self-employed")

    for hid in range(1, config.households + 1):
        u = rng.random()
        if u < 0.28:
            htype = "single"
        elif u < 0.58:
            htype = "couple"
        elif u < 0.83:
            htype = "couple_kids"
        elif u < 0.92:
            htype = "lone_parent"
        else:
            htype = "three_adult"
        member_list = []
        if htype == "single":
            age = int(rng.integers(25, 91))
            member_list.append(new_person(hid, age, adult_status(age, rng), rng))
        elif htype in ("couple", "three_adult"):
            age1 = int(rng.integers(25, 86))
            age2 = max(18, age1 + int(rng.integers(-5, 6)))
            for age in (age1, age2):
                member_list.append(new_person(hid, age, adult_status(age, rng), rng))
            if htype == "three_adult":
                age3 = int(rng.integers(18, 29))
                member_list.append(new_person(hid, age3, adult_status(age3, rng), rng))
        else:
            n_kids = int(rng.choice([1, 2, 3], p=[0.4, 0.4, 0.2])) if htype == "couple_kids" \
                else int(rng.choice([1, 2], p=[0.7, 0.3]))
            n_adults = 2 if htype == "couple_kids" else 1
            for _ in range(n_adults):
                age = int(rng.integers(25, 51))
                member_list.append(new_person(hid, age, adult_status(age, rng), rng))
            for _ in range(n_kids):
                member_list.append(new_person(hid, int(rng.integers(0, 16)), "child", rng))

        head_age = member_list[0].age
        u = rng.random()
        if head_age < 35:
            tenure = "renter" if u < 0.55 else ("mortgage" if u < 0.90 else "owner_outright")
        elif head_age < 60:
            tenure = "renter" if u < 0.20 else ("mortgage" if u < 0.70 else "owner_outright")
        else:
            tenure = "renter" if u < 0.12 else ("mortgage" if u < 0.25 else "owner_outright")
        mortgage = round(float(rng.lognormal(6.8, 0.35)), 2) if tenure == "mortgage" else 0.0
        rent = round(float(rng.lognormal(6.95, 0.30)), 2) if tenure == "renter" else 0.0

        kids_0_4 = sum(1 for p in member_list if p.age <= 4)
        kids_u14 = sum(1 for p in member_list if p.age < 14)
        childcare_user = False
        childcare_spend = 0.0
        if kids_0_4 > 0 and rng.random() < 0.55:
            childcare_user = True
        elif kids_u14 > 0 and rng.random() < 0.15:
            childcare_user = True
        if childcare_user:
            childcare_spend = round(float(rng.lognormal(4.9, 0.5)), 2)

        weight = round(float(0.5 + rng.random()), 6) if config.weight_jitter else 1.0
        households.append(
            Household(
                household_id=hid, weight=weight,
                member_ids=tuple(p.person_id for p in member_list),
                tenure=tenure, mortgage_payment=mortgage, rent=rent,
                childcare_user=childcare_user, childcare_expenditure=childcare_spend,
                n_children_0_4=kids_0_4, n_children_under14=kids_u14,
            )
        )
        persons.extend(member_list)

    # sector assignment by quota keeps realized shares within one worker
    workers = [i for i, p in enumerate(persons) if p.is_worker]
    counts = _quota_counts(config.sector_shares, len(workers))
    sector_slots = []
    for s in SECTORS:
        sector_slots.extend([s] * counts.get(s, 0))
    order = rng.permutation(len(workers))
    for slot, widx in zip(sector_slots, (workers[i] for i in order)):
        p = persons[widx]
        p.industry = slot
        p.essential_worker = bool(rng.random() < config.essential_shares.get(slot, 0.3))
        location = config.income_location + config.income_offsets.get(slot, 0.0)
        amount = round(float(rng.lognormal(location, config.income_scale)), 2)
        if p.work_status == "employee":
            p.employment_income = amount
        else:
            p.self_employment_income = round(amount * 0.9, 2)

    violations = validate(households, persons)
    if violations:  # would be a generator bug, not a data fault
        raise PopulationError(violations)
    return Population(households=households, persons=persons, base_period=config.base_period)
