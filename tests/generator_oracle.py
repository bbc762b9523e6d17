"""The synthetic generator as it drew before it read the bit generator
directly, kept as the differential oracle: one numpy `Generator` call per
draw (`rng.random()`, `rng.integers(lo, hi)`, `rng.lognormal`), string
work statuses and tenures, and per-household tuples transposed at the end.
`generate_synthetic` must return tables array- and dtype-identical to it:
both take each column's dtype from `population._dtype` (int32 ids and
member ids, int16 ages and child counts, int8 codes).
"""
from __future__ import annotations

import bisect

import numpy as np

from nowcastsim.population import (_HOUSEHOLD_COLUMNS, _PERSON_COLUMNS, SECTORS, TENURES,
                                   WORK_STATUSES, WORKER_CODES, WORKER_STATUSES, Population,
                                   PopulationError, Table, _dtype, _quota_counts, validate)

# The generator's categorical draws: a worker's occupation code (1..9), and
# a household type's number of children (1..3 and 1..2).
_CHOICES = {"occupation": (0.13, 0.12, 0.12, 0.13, 0.10, 0.10, 0.10, 0.10, 0.10),
            "couple_kids": (0.4, 0.4, 0.2), "lone_parent": (0.7, 0.3)}
_CDFS = {name: (np.cumsum(p) / np.cumsum(p)[-1]).tolist() for name, p in _CHOICES.items()}


def _choice(name, rng) -> int:
    """An index drawn with the probabilities `_CHOICES[name]`: the index that
    `rng.choice(len(p), p=p)` returns from the same one `rng.random()` draw,
    as choice bisects the same normalised cumulative table, at under a
    tenth of its cost."""
    return bisect.bisect_right(_CDFS[name], rng.random())


def _table(values: dict, columns) -> Table:
    """Lists of column values as arrays of the layout's dtypes (`_dtype`);
    the member_ids list holds household sizes, as persons are numbered from
    1 in household order."""
    table = {}
    for column, kind in columns.items():
        if kind == "ids":
            table["member_offsets"] = np.cumsum([0, *values[column]], dtype=np.int64)
            table[column] = np.arange(1, table["member_offsets"][-1] + 1, dtype=_dtype(kind))
        else:
            table[column] = np.array(values[column], dtype=_dtype(kind))
    return Table(**table)


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
    households = []  # one tuple per household, the size in place of its member ids
    # one list per person column, enums as codes; the columns that only the
    # sector assignment below sets are filled once the persons are drawn
    values = {column: [] for column in _PERSON_COLUMNS}
    status_code = {status: code for code, status in enumerate(WORK_STATUSES)}
    primary, secondary, university = range(3)  # EDUCATIONS codes

    def new_person(hid, age, work_status, rng):
        values["household_id"].append(hid)
        values["age"].append(age)
        values["sex"].append(0 if rng.random() < 0.5 else 1)  # male, female
        if age < 16:
            education = primary
        elif rng.random() < (0.35 if age < 65 else 0.20):
            education = university
        else:
            education = secondary if rng.random() < 0.75 else primary
        values["education"].append(education)
        occupation = 0
        if work_status in WORKER_STATUSES:
            occupation = 1 + _choice("occupation", rng)
        values["occupation"].append(occupation)
        values["region"].append(0 if rng.random() < 0.27 else 1)
        values["work_status"].append(status_code[work_status])
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
        values["capital_income"].append(capital)
        values["private_pension"].append(pension)
        values["home_work_capable"].append(home_capable)

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
        first = len(values["age"])
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
        if htype == "single":
            age = int(rng.integers(25, 91))
            new_person(hid, age, adult_status(age, rng), rng)
        elif htype in ("couple", "three_adult"):
            age1 = int(rng.integers(25, 86))
            age2 = max(18, age1 + int(rng.integers(-5, 6)))
            for age in (age1, age2):
                new_person(hid, age, adult_status(age, rng), rng)
            if htype == "three_adult":
                age3 = int(rng.integers(18, 29))
                new_person(hid, age3, adult_status(age3, rng), rng)
        else:
            n_kids = 1 + _choice(htype, rng)
            n_adults = 2 if htype == "couple_kids" else 1
            for _ in range(n_adults):
                age = int(rng.integers(25, 51))
                new_person(hid, age, adult_status(age, rng), rng)
            for _ in range(n_kids):
                new_person(hid, int(rng.integers(0, 16)), "child", rng)

        ages = values["age"][first:]
        u = rng.random()
        if ages[0] < 35:
            tenure = "renter" if u < 0.55 else ("mortgage" if u < 0.90 else "owner_outright")
        elif ages[0] < 60:
            tenure = "renter" if u < 0.20 else ("mortgage" if u < 0.70 else "owner_outright")
        else:
            tenure = "renter" if u < 0.12 else ("mortgage" if u < 0.25 else "owner_outright")
        mortgage = round(float(rng.lognormal(6.8, 0.35)), 2) if tenure == "mortgage" else 0.0
        rent = round(float(rng.lognormal(6.95, 0.30)), 2) if tenure == "renter" else 0.0

        kids_0_4 = sum(1 for age in ages if age <= 4)
        kids_u14 = sum(1 for age in ages if age < 14)
        childcare_user = False
        childcare_spend = 0.0
        if kids_0_4 > 0 and rng.random() < 0.55:
            childcare_user = True
        elif kids_u14 > 0 and rng.random() < 0.15:
            childcare_user = True
        if childcare_user:
            childcare_spend = round(float(rng.lognormal(4.9, 0.5)), 2)

        weight = round(float(0.5 + rng.random()), 6) if config.weight_jitter else 1.0
        households.append((hid, weight, len(ages), TENURES.index(tenure), mortgage, rent,
                           childcare_user, childcare_spend, kids_0_4, kids_u14))

    n = len(values["age"])
    values.update(person_id=range(1, n + 1), industry=[-1] * n, employment_income=[0.0] * n,
                  self_employment_income=[0.0] * n, essential_worker=[False] * n,
                  covid_state=[0] * n)  # covid_state "none"
    # sector assignment by quota keeps realized shares within one worker
    status = values["work_status"]
    workers = [i for i, s in enumerate(status) if s in WORKER_CODES]
    counts = _quota_counts(config.sector_shares, len(workers))
    sector_slots = []
    for code, s in enumerate(SECTORS):
        sector_slots.extend([code] * counts.get(s, 0))
    order = rng.permutation(len(workers))
    for code, i in zip(sector_slots, (workers[k] for k in order)):
        slot = SECTORS[code]
        values["industry"][i] = code
        values["essential_worker"][i] = bool(rng.random() < config.essential_shares.get(slot, 0.3))
        location = config.income_location + config.income_offsets.get(slot, 0.0)
        amount = round(float(rng.lognormal(location, config.income_scale)), 2)
        if status[i] == status_code["employee"]:
            values["employment_income"][i] = amount
        else:
            values["self_employment_income"][i] = round(amount * 0.9, 2)

    person_table = _table(values, _PERSON_COLUMNS)
    household_table = _table(dict(zip(_HOUSEHOLD_COLUMNS, zip(*households))), _HOUSEHOLD_COLUMNS)
    violations = validate(household_table, person_table)
    if violations:  # would be a generator bug, not a data fault
        raise PopulationError(violations)
    return Population(households=household_table, persons=person_table)
