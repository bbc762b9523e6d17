"""The object-based population loader and validator that the columnar
`nowcastsim.population` replaced, kept as the differential oracle:
`load_population` returns (households, persons) as lists of
`Household`/`Person`, or raises the same `PopulationError`. Three rules were
added after the replacement, in both: every float field must be finite,
every money field, finite, must be under 2**53 cents in magnitude, and a
household's child counts must satisfy n_children_0_4 <= n_children_under14
<= its member count. A line
number counts every physical line, blank ones too, as the columnar loader
came to do after the replacement.
"""
import csv
import math
import os
from dataclasses import dataclass

from nowcastsim.population import (COVID_STATES, EDUCATIONS, REGIONS, SECTORS, SEXES,
                                   TENURES, WORK_STATUSES, WORKER_STATUSES,
                                   PopulationError)


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


def _check_finite(violations, tag, record, fields):
    bad = [name for name in fields if not math.isfinite(getattr(record, name))]
    if bad:
        violations.append(f"{tag}: " + ", ".join(f"column {name!r}" for name in bad)
                          + ": must be finite")


def _check_cents(violations, tag, record, fields):
    values = {name: getattr(record, name) for name in fields}
    bad = [name for name, value in values.items()
           if math.isfinite(value) and abs(value * 100.0) >= 2 ** 53]
    if bad:
        violations.append(f"{tag}: " + ", ".join(f"column {name!r}" for name in bad)
                          + ": must be under 2**53 cents in magnitude")


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
        _check_finite(violations, f"household {h.household_id}", h,
                      ("weight", "mortgage_payment", "rent", "childcare_expenditure"))
        _check_cents(violations, f"household {h.household_id}", h,
                     ("mortgage_payment", "rent", "childcare_expenditure"))
        if not h.n_children_0_4 <= h.n_children_under14 <= len(h.member_ids):
            violations.append(
                f"household {h.household_id}: child counts need n_children_0_4 <= "
                f"n_children_under14 <= members, got {h.n_children_0_4}, "
                f"{h.n_children_under14} and {len(h.member_ids)}")

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
        money = ("employment_income", "self_employment_income", "capital_income",
                 "private_pension")
        _check_finite(violations, tag, p, money)
        _check_cents(violations, tag, p, money)

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
    """(physical line, record) per row; a row spanning lines is named by its last."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        got = tuple(reader.fieldnames or ())
        missing = [c for c in columns if c not in got]
        if missing:
            raise PopulationError(
                [f"{os.path.basename(path)}: missing column {c!r}" for c in missing]
            )
        return [(reader.line_num, rec) for rec in reader]


def load_population(path):
    """Load and validate households.csv + persons.csv from a directory."""
    hh_path = os.path.join(path, "households.csv")
    p_path = os.path.join(path, "persons.csv")
    households = []
    for lineno, rec in _read_rows(hh_path, _HOUSEHOLD_COLUMNS):
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
    for lineno, rec in _read_rows(p_path, _PERSON_COLUMNS):
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
    return households, persons
