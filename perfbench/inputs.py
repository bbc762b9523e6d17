"""Input files for the benchmark workloads, written before any timed run.

The survey-file generator here is the benchmark's own, vectorised with
numpy and independent of ``nowcastsim.population.generate_synthetic``, so
a later change to the engine's generator cannot change the input of the
``survey-csv`` workload. Its marginal shapes (household types, ages,
work status, earnings, sector mix) follow the shipped national reference,
so every shipped control total stays feasible at the sizes used here.

Scenario files refer to their controls by a path relative to the
scenario file, so the engine's manifest (which hashes the scenario file)
and with it the output digest do not depend on where the checkout lives.
"""
from __future__ import annotations

import configparser
import csv
import os

import numpy as np

BASE_DATE = "2019-12-01"
WORKING_AGE_BANDS = ("15-24", "25-34", "35-44", "45-54", "55-64")
# target employment rate = observed rate + shift, so the nowcast alignment
# both removes and adds workers
EMPLOYMENT_SHIFT = {"15-24": -0.03, "25-34": 0.01, "35-44": 0.01,
                    "45-54": -0.01, "55-64": 0.02}
WAGE_INDEX = 1.02

# policy-sweep: four instrument variants of every shipped crisis wave
SWEEP_VARIANTS = {
    "full": {},
    "nopup": {"pup": "off", "ceib": "off"},
    "nosub": {"subsidy": "none"},
    "care": {"childcare_support": "on", "deferrals": "off",
             "capital_losses": "off", "home_working": "off"},
}

_HH_COLUMNS = ("household_id", "weight", "member_ids", "tenure", "mortgage_payment",
               "rent", "childcare_user", "childcare_expenditure", "n_children_0_4",
               "n_children_under14")
_P_COLUMNS = ("person_id", "household_id", "age", "sex", "education", "occupation",
              "industry", "region", "work_status", "employment_income",
              "self_employment_income", "capital_income", "private_pension",
              "essential_worker", "home_work_capable", "covid_state")


def sector_employment(data_dir) -> dict:
    """Sector label -> national employment, from the shipped reference."""
    out = {}
    with open(os.path.join(data_dir, "national_reference.csv"), newline="",
              encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            key = rec["key"].strip()
            if key.startswith("sector_employment:"):
                out[key.split(":", 1)[1]] = float(rec["value"])
    return out


def _quota(shares: np.ndarray, n: int) -> np.ndarray:
    """Largest-remainder apportionment of n slots to shares."""
    raw = shares / shares.sum() * n
    counts = np.floor(raw).astype(np.int64)
    order = np.lexsort((np.arange(raw.size), -(raw - counts)))
    counts[order[: n - int(counts.sum())]] += 1
    return counts


def survey_population(n_households: int, seed: int, sectors: dict) -> tuple:
    """Return (households, persons) as dicts of numpy columns."""
    rng = np.random.default_rng(np.random.SeedSequence([0xB3C4, seed & 0xFFFFFFFF]))
    n = n_households
    # household type: single, couple, couple with kids, lone parent, three adults
    htype = np.searchsorted([0.28, 0.58, 0.83, 0.92], rng.random(n), side="right")
    adults = np.choose(htype, [1, 2, 2, 1, 3])
    kids = np.where(htype == 2, rng.choice([1, 2, 3], n, p=[0.4, 0.4, 0.2]),
                    np.where(htype == 3, rng.choice([1, 2], n, p=[0.7, 0.3]), 0))
    members = adults + kids
    hh = np.repeat(np.arange(n), members)
    slot = np.arange(hh.size) - np.repeat(np.cumsum(members) - members, members)
    m = hh.size
    t = htype[hh]

    first = np.select([htype == 0, (htype == 1) | (htype == 4)],
                      [rng.integers(25, 91, n), rng.integers(25, 86, n)],
                      rng.integers(25, 51, n))
    partner = np.maximum(18, first + rng.integers(-5, 6, n))
    age = np.select(
        [slot >= adults[hh], slot == 0, (slot == 1) & (t != 2), slot == 1],
        [rng.integers(0, 16, m), first[hh], partner[hh], rng.integers(25, 51, m)],
        rng.integers(18, 29, m))
    child = slot >= adults[hh]

    u = rng.random(m)
    status = np.select(
        [child, age < 25, age < 65],
        [np.full(m, "child"),
         np.select([u < 0.45, u < 0.85, u < 0.92], ["student", "employee", "unemployed"],
                   "inactive"),
         np.select([u < 0.68, u < 0.78, u < 0.84], ["employee", "self-employed",
                                                     "unemployed"], "inactive")],
        np.select([u < 0.92, u < 0.97], ["retired", "employee"], "self-employed"))
    worker = (status == "employee") | (status == "self-employed")

    occupation = np.where(worker, rng.choice(
        np.arange(1, 10), m, p=[0.13, 0.12, 0.12, 0.13, 0.10, 0.10, 0.10, 0.10, 0.10]), 0)
    university = ~child & (rng.random(m) < np.where(age < 65, 0.35, 0.20))
    education = np.where(university, "university",
                         np.where(child | (rng.random(m) >= 0.75), "primary", "secondary"))
    cap_rate = np.select([age < 18, age < 25, age < 35, age < 45], [0.0, 0.03, 0.06, 0.10],
                         0.13)
    capital = np.where(rng.random(m) < cap_rate, np.round(rng.lognormal(6.0, 1.0, m), 2), 0.0)
    pension = np.where((status == "retired") & (rng.random(m) < 0.55),
                       np.round(rng.lognormal(9.3, 0.5, m), 2), 0.0)
    home_capable = (occupation > 0) & (rng.random(m) < np.select(
        [occupation <= 4, occupation == 9], [0.7, 0.3], 0.15))

    # sectors by quota over workers, as national employment shares
    labels = np.array(list(sectors), dtype=object)
    w_idx = rng.permutation(np.flatnonzero(worker))
    industry = np.full(m, "", dtype=object)
    industry[w_idx] = np.repeat(labels, _quota(np.array(list(sectors.values())), w_idx.size))
    amount = np.round(rng.lognormal(10.45, 0.55, m), 2)
    employment = np.where(status == "employee", amount, 0.0)
    self_employment = np.where(status == "self-employed", np.round(amount * 0.9, 2), 0.0)
    essential = worker & (rng.random(m) < 0.45)

    head_age = age[np.cumsum(members) - members]
    u = rng.random(n)
    tenure = np.select(
        [head_age < 35, head_age < 60],
        [np.select([u < 0.55, u < 0.90], ["renter", "mortgage"], "owner_outright"),
         np.select([u < 0.20, u < 0.70], ["renter", "mortgage"], "owner_outright")],
        np.select([u < 0.12, u < 0.25], ["renter", "mortgage"], "owner_outright"))
    mortgage = np.where(tenure == "mortgage", np.round(rng.lognormal(6.8, 0.35, n), 2), 0.0)
    rent = np.where(tenure == "renter", np.round(rng.lognormal(6.95, 0.30, n), 2), 0.0)
    kids_0_4 = np.bincount(hh, weights=age <= 4, minlength=n).astype(np.int64)
    kids_u14 = np.bincount(hh, weights=age < 14, minlength=n).astype(np.int64)
    user = ((kids_0_4 > 0) & (rng.random(n) < 0.55)) | ((kids_u14 > 0) & (rng.random(n) < 0.15))
    spend = np.where(user, np.round(rng.lognormal(4.9, 0.5, n), 2), 0.0)
    weight = np.round(0.5 + rng.random(n), 6)

    pid = np.arange(1, m + 1)
    households = {
        "household_id": np.arange(1, n + 1), "weight": weight,
        "member_ids": np.split(pid, np.cumsum(members)[:-1]), "tenure": tenure,
        "mortgage_payment": mortgage, "rent": rent, "childcare_user": user,
        "childcare_expenditure": spend, "n_children_0_4": kids_0_4,
        "n_children_under14": kids_u14,
    }
    persons = {
        "person_id": pid, "household_id": hh + 1, "age": age,
        "sex": np.where(rng.random(m) < 0.5, "male", "female"), "education": education,
        "occupation": occupation, "industry": industry,
        "region": np.where(rng.random(m) < 0.27, "border, midland and western",
                           "southern and eastern"),
        "work_status": status, "employment_income": employment,
        "self_employment_income": self_employment, "capital_income": capital,
        "private_pension": pension, "essential_worker": essential,
        "home_work_capable": home_capable, "covid_state": np.full(m, "none"),
    }
    return households, persons


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.2f}"
    if isinstance(value, np.ndarray):
        return ";".join(map(str, value.tolist()))
    return str(value)


def write_table(path, columns, table) -> None:
    cols = [table[c] for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in zip(*cols):
            writer.writerow([_cell(v) for v in row])


def employment_targets(persons, households) -> dict:
    """Observed weighted employment rate per working-age band, shifted."""
    age = persons["age"]
    weight = households["weight"][persons["household_id"] - 1]
    worker = np.isin(persons["work_status"], ("employee", "self-employed"))
    targets = {}
    for band in WORKING_AGE_BANDS:
        lo, hi = map(int, band.split("-"))
        inband = (age >= max(lo, 16)) & (age <= hi)  # the nowcast aligns ages 16+
        observed = float(np.sum(weight[inband & worker]) / np.sum(weight[inband]))
        targets[band] = min(max(observed + EMPLOYMENT_SHIFT[band], 0.01), 0.99)
    return targets


def write_survey_inputs(out_dir, data_dir, n_households: int, seed: int) -> dict:
    """households.csv / persons.csv, a controls file with base-date
    employment and wage targets, and the shipped scenario pointed at it."""
    pop_dir = os.path.join(out_dir, "population")
    os.makedirs(pop_dir, exist_ok=True)
    households, persons = survey_population(n_households, seed, sector_employment(data_dir))
    # weights carry six decimals; _cell would round them to two
    hh_table = dict(households, weight=[repr(float(w)) for w in households["weight"]])
    write_table(os.path.join(pop_dir, "households.csv"), _HH_COLUMNS, hh_table)
    write_table(os.path.join(pop_dir, "persons.csv"), _P_COLUMNS, persons)

    controls = os.path.join(out_dir, "controls.csv")
    with open(os.path.join(data_dir, "control_totals.csv"), encoding="utf-8") as fh:
        shipped = fh.read()
    with open(controls, "w", encoding="utf-8") as fh:
        fh.write(shipped if shipped.endswith("\n") else shipped + "\n")
        for band, rate in employment_targets(persons, households).items():
            fh.write(f"employment_rate:{band},{BASE_DATE},{rate:.6f}\n")
        fh.write(f"wage_index,{BASE_DATE},{WAGE_INDEX}\n")

    scenario = os.path.join(out_dir, "scenario.cfg")
    parser = configparser.ConfigParser()
    parser.read(os.path.join(data_dir, "scenario.cfg"))
    parser["scenario"]["controls"] = "controls.csv"
    with open(scenario, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return {"population": pop_dir, "scenario": scenario}


def write_synth_config(out_dir, n_households: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "synth.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"households = {n_households}\n")
    return path


def write_sweep_scenario(out_dir, data_dir) -> str:
    """Baseline plus every shipped crisis wave under each SWEEP_VARIANTS."""
    shipped = configparser.ConfigParser()
    shipped.read(os.path.join(data_dir, "scenario.cfg"))
    sweep = configparser.ConfigParser()
    controls = os.path.join(data_dir, shipped["scenario"]["controls"])
    sweep["scenario"] = {"controls": os.path.relpath(controls, out_dir),
                         "seed": shipped["scenario"].get("seed", "0")}
    waves = [s for s in shipped.sections() if s.startswith("wave:")]
    first = min(waves, key=lambda s: shipped[s]["date"])
    sweep[first] = dict(shipped[first])
    for section in waves:
        if section == first:
            continue
        for variant, overrides in SWEEP_VARIANTS.items():
            sweep[f"{section}-{variant}"] = {**dict(shipped[section]), **overrides}
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "scenario.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        sweep.write(fh)
    return path


def wave_labels(scenario_path) -> list:
    parser = configparser.ConfigParser()
    if not parser.read(scenario_path):
        raise FileNotFoundError(scenario_path)
    return [s.split(":", 1)[1] for s in parser.sections() if s.startswith("wave:")]
