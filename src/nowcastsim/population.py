"""Microdata schema, validation, file I/O, and the deterministic
synthetic-population generator used when no survey file is supplied.

Two delimiter-separated files describe a population: `households.csv` and
`persons.csv`, UTF-8 with a mandatory header row, enums as lowercase
strings, money as decimals with a '.' separator (finite, and under 2**53
cents in magnitude, past which a float64 holds no exact cent), booleans as
true/false, and household member ids joined with ';'. Fields may be quoted
as `save_population` (Python's csv module) writes them; blank rows are
skipped. Every schema column must be present and no other; every row has
the header's field count.

Each file is read in one `np.loadtxt` pass: numpy's C parser reads the int
and float columns, converters the others. A file that pass rejects is read
in one more pass, row by row with `csv` and Python's parsers, which raises
the first bad row or cell or else loads the file: a number that numpy
rejects but Python's int or float reads, such as `1_000`, loads as Python
reads it, and a column with an integer past its dtype loads in int64 for
validate to report. A line number counts every physical line, blank ones
too, as `files.csv_rows` and `files.not_utf8` do; a row whose quoted cell
spans lines is named by its last line.

Occupation is a code in 1..9 and is required for workers; non-workers may
carry 0 (not applicable). Industry must be one of the seventeen sector
labels below whenever the person works, and may be empty otherwise.

In memory a population is two column tables (`Table`), persons and
households, with one numpy array per schema column and rows in file or
generation order: int32 ids, int16 ages and child counts, int8 enum and
occupation codes, float64 money and weights, bool flags. Both the loader
and the generator write that layout directly. An enum code indexes the
column's label tuple below (industry -1 is none); household i's member ids
are `member_ids[member_offsets[i]:member_offsets[i + 1]]`. Integer columns
are only compared, sorted and indexed: arithmetic on them wraps silently
at their width, so widen them first.
"""
from __future__ import annotations

import bisect
import csv
import math
import os
import warnings
from array import array
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np

from .files import key_values, not_utf8
from .money import has_cents

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


WORKER_CODES = tuple(WORK_STATUSES.index(s) for s in WORKER_STATUSES)


class PopulationError(ValueError):
    """Raised on schema or referential violations; carries them all."""

    def __init__(self, violations):
        self.violations = list(violations)
        preview = "; ".join(self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"{len(self.violations)} violation(s): {preview}{more}")


_boolean = {"true": True, "false": False}.__getitem__  # raises KeyError on other text


def _occupation(text) -> int:
    return int(text or "0")  # empty means 0, not applicable


# Column -> kind: an integer column's numpy type (its cells parsed by int),
# the Python parser of its cells (float, _boolean or _occupation), "ids"
# (';'-joined person ids), or the label tuple that an enum column's codes index.
_PERSON_COLUMNS = {
    "person_id": np.int32, "household_id": np.int32, "age": np.int16, "sex": SEXES,
    "education": EDUCATIONS, "occupation": _occupation, "industry": SECTORS,
    "region": REGIONS, "work_status": WORK_STATUSES, "employment_income": float,
    "self_employment_income": float, "capital_income": float, "private_pension": float,
    "essential_worker": _boolean, "home_work_capable": _boolean, "covid_state": COVID_STATES,
}
_HOUSEHOLD_COLUMNS = {
    "household_id": np.int32, "weight": float, "member_ids": "ids", "tenure": TENURES,
    "mortgage_payment": float, "rent": float, "childcare_user": _boolean,
    "childcare_expenditure": float, "n_children_0_4": np.int16, "n_children_under14": np.int16,
}
_DTYPES = {float: np.float64, _boolean: bool, _occupation: np.int8, "ids": np.int32}
_TYPECODES = {np.int8: "b", np.int16: "h", np.int32: "i", np.int64: "q", np.float64: "d",
              bool: "b"}  # `array` typecodes; a bool is one 0/1 byte


def _dtype(kind, wide=False):
    """The in-memory dtype of a column kind: an integer column's own type,
    int8 for codes, int32 for "ids", else the Python kind's; int64 for
    every integer kind if `wide`."""
    dtype = np.int8 if isinstance(kind, tuple) else _DTYPES.get(kind, kind)
    return np.int64 if wide and np.issubdtype(dtype, np.integer) else dtype


class Table(SimpleNamespace):
    """One numpy array per schema column, as attributes; `len()` is the row
    count (the length of the first column, the id). Columns have the dtypes
    of `_dtype` (`member_offsets` is intp); a file `np.loadtxt` rejects holds
    a column with an integer past its dtype in int64, and a hand-built table
    may hold any integer column wider."""

    def __len__(self):
        return len(next(iter(vars(self).values())))


@dataclass
class Population:
    households: Table
    persons: Table


def _repeats(ids) -> np.ndarray:
    """True on every row whose id already occurs on an earlier row."""
    order = np.argsort(ids, kind="stable")
    out = np.zeros(ids.size, dtype=bool)
    out[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    return out


def _valid(codes, labels) -> np.ndarray:
    return (codes >= 0) & (codes < len(labels))


def validate(households: Table, persons: Table, unknown=None) -> list:
    """Return every schema/invariant violation as a human-readable string:
    households, then persons, then missing members, each in row order.

    `unknown` maps an enum column to the texts of its codes past the end of
    its label tuple (values read from a file that the schema lacks)."""
    unknown = unknown or {}
    h, p = households, persons
    hid, pid = h.household_id, p.person_id
    members = np.diff(h.member_offsets)

    def label(column, labels, code):
        return "" if code == -1 else (labels + tuple(unknown.get(column, ())))[code]

    def bad_value(column, labels, codes):
        return lambda r: f"column '{column}': bad value {label(column, labels, codes[r])!r}"

    def cells(table, columns, is_bad, fault):
        bad = {c: is_bad(getattr(table, c)) for c in columns}
        return np.logical_or.reduce(list(bad.values())), lambda r: ", ".join(
            f"column {c!r}" for c in columns if bad[c][r]) + ": " + fault

    def float_checks(table, columns):
        floats = [column for column, kind in columns.items() if kind is float]
        money = [column for column in floats if column != "weight"]
        return [cells(table, floats, lambda x: ~np.isfinite(x), "must be finite"),
                cells(table, money, lambda x: np.isfinite(x) & ~has_cents(x),
                      "must be under 2**53 cents in magnitude")]

    household_checks = [
        (_repeats(hid), lambda r: "duplicate household_id"),
        (~(h.weight > 0), lambda r: "column 'weight': must be > 0"),
        (~_valid(h.tenure, TENURES), bad_value("tenure", TENURES, h.tenure)),
        ((h.mortgage_payment < 0) | (h.rent < 0) | (h.childcare_expenditure < 0),
         lambda r: "negative money amount"),
        ((h.mortgage_payment > 0) != (h.tenure == TENURES.index("mortgage")),
         lambda r: "mortgage_payment > 0 must hold exactly for tenure 'mortgage' "
                   f"(tenure={label('tenure', TENURES, h.tenure[r])!r}, "
                   f"payment={float(h.mortgage_payment[r])})"),
        ((h.childcare_expenditure > 0) & ~h.childcare_user,
         lambda r: "childcare_expenditure > 0 without childcare_user"),
        ((h.n_children_0_4 < 0) | (h.n_children_under14 < 0),
         lambda r: "negative child count"),
        (members == 0, lambda r: "empty member_ids"),
        *float_checks(h, _HOUSEHOLD_COLUMNS),
        ((h.n_children_0_4 > h.n_children_under14) | (h.n_children_under14 > members),
         lambda r: "child counts need n_children_0_4 <= n_children_under14 <= members, "
                   f"got {h.n_children_0_4[r]}, {h.n_children_under14[r]} and {members[r]}"),
    ]

    # each person's listings in member_ids: how many, and the first household
    owner = np.repeat(hid, members)
    order = np.argsort(h.member_ids, kind="stable")
    listed = h.member_ids[order]
    first = np.searchsorted(listed, pid, side="left")
    homes = np.searchsorted(listed, pid, side="right") - first
    first_home = np.append(owner[order], 0)[first]

    worker = np.isin(p.work_status, WORKER_CODES)
    person_checks = [
        (_repeats(pid), lambda r: "duplicate person_id"),
        (p.age < 0, lambda r: "column 'age': must be >= 0"),
        *[(~_valid(getattr(p, column), labels), bad_value(column, labels, getattr(p, column)))
          for column, labels in (("sex", SEXES), ("education", EDUCATIONS), ("region", REGIONS),
                                 ("work_status", WORK_STATUSES),
                                 ("covid_state", COVID_STATES))],
        # workers need an occupation in 1..9, others one in 0..9
        ((p.occupation < worker.astype(np.int64)) | (p.occupation > 9),
         lambda r: "column 'occupation': workers need a code in 1..9" if worker[r]
         else f"column 'occupation': bad code {p.occupation[r]}"),
        (~_valid(p.industry, SECTORS) & (worker | (p.industry != -1)),
         bad_value("industry", SECTORS, p.industry)),
        ((p.employment_income < 0) | (p.capital_income < 0) | (p.private_pension < 0),
         lambda r: "negative income where >= 0 required"),
        ((p.employment_income > 0) & (p.work_status != WORK_STATUSES.index("employee")),
         lambda r: "employment_income > 0 requires work_status 'employee'"),
        ((p.covid_state == COVID_STATES.index("pup_recipient")) & ((p.age < 18) | (p.age > 66)),
         lambda r: "pup_recipient outside the 18-66 age rule"),
        (~np.isin(p.household_id, hid),
         lambda r: f"column 'household_id': references household {p.household_id[r]} "
                   "absent from households"),
        (homes != 1, lambda r: f"appears in member_ids of {homes[r]} households"),
        ((homes == 1) & (first_home != p.household_id),
         lambda r: f"household_id {p.household_id[r]} disagrees with member_ids of "
                   f"household {first_home[r]}"),
        *float_checks(p, _PERSON_COLUMNS),
    ]

    found = [(section, r, check, f"{tag} {ids[r]}: {message(r)}")
             for section, tag, ids, checks in ((0, "household", hid, household_checks),
                                               (1, "person", pid, person_checks))
             for check, (mask, message) in enumerate(checks)
             for r in np.flatnonzero(mask)]
    listed_ids, first_at = np.unique(h.member_ids, return_index=True)
    found += [(2, first_at[k], 0, f"household {owner[first_at[k]]}: member_ids "
                                  f"references missing person {listed_ids[k]}")
              for k in np.flatnonzero(~np.isin(listed_ids, pid))]
    return [message for *_, message in sorted(found)]


def _coder(labels, unknown: list):
    """Parser of enum texts: the code of the stripped text in `labels`, -1
    for ''; a text outside `labels` is appended to `unknown` and coded past
    the end of `labels`."""
    codes = {text: code for code, text in enumerate(labels)} | {"": -1}

    def code(text) -> int:
        text = text.strip()
        if text not in codes:
            codes[text] = len(labels) + len(unknown)
            unknown.append(text)
        return codes[text]
    return code


class _Memo(dict):
    """`parse` with every result kept: `_Memo(parse).__getitem__` is a
    C-level lookup for a text seen before."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        self[text] = self.parse(text)
        return self[text]


def _split_ids(ids: array, text) -> int:
    """Append one cell's ';'-separated ids to the int array `ids`; return their count."""
    count = len(ids)
    ids.extend(map(int, filter(None, text.split(";"))))
    return len(ids) - count


def _read(path, header, columns) -> tuple:
    """One np.loadtxt pass over the rows of a CSV file whose header has every
    column of `columns`: integer and float cells parsed by numpy's C parser,
    other cells by their kind. The parser rejects an integer past its `_dtype`
    or written as a float: older numpy casts such a cell through a float with
    only a DeprecationWarning, so that warning is made an error here."""
    unknown, ids, types, converters = {}, array(_TYPECODES[_dtype("ids")]), [], {}
    for i, column in enumerate(header):
        kind = columns[column]
        types.append(_dtype(kind))
        if kind == "ids":  # the cell's count of ids
            converters[i] = partial(_split_ids, ids)
        elif isinstance(kind, tuple):
            converters[i] = _Memo(_coder(kind, unknown.setdefault(column, []))).__getitem__
        elif kind in (_boolean, _occupation):
            converters[i] = _Memo(kind).__getitem__
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # header only
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        records = np.loadtxt(fh, dtype=[(f"f{i}", t) for i, t in enumerate(types)],
                             delimiter=",", quotechar='"', skiprows=1, comments=None,
                             ndmin=1, encoding="utf-8", converters=converters)
    table = {}
    for column, kind in columns.items():
        values = records[f"f{header.index(column)}"]
        if kind == "ids":
            table[column] = np.frombuffer(ids, dtype=_dtype(kind))
            table["member_offsets"] = np.cumsum(np.append(0, values), dtype=np.int64)
        else:
            table[column] = values.copy()
    return Table(**table), unknown


def _read_rows(path, header, columns) -> tuple:
    """`_read` for a file np.loadtxt rejects, in one streamed csv.reader pass that
    parses every cell with its Python kind, integer columns in their `_dtype` where all fit.

    Raises the first row whose field count differs from the header's, else
    the first cell its kind rejects, in row order and, within a row,
    member_ids first and then schema order. Blank rows are skipped but
    counted, and a row is named by its last physical line."""
    name = os.path.basename(path)
    unknown, values, ids = {}, _buffers(columns, wide=True), array("q")
    parsers = []  # (field index, kind, parser, where its values go), member ids first
    for column, kind in sorted(columns.items(), key=lambda item: item[1] != "ids"):
        integer = kind == "ids" or isinstance(kind, type) and issubclass(kind, np.integer)
        parse = (_coder(kind, unknown.setdefault(column, [])) if isinstance(kind, tuple)
                 else int if integer else kind)
        parsers.append((header.index(column), kind, parse,
                        (ids if kind == "ids" else values[column]).append))
    bad = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in filter(None, reader):
            if len(row) != len(header):
                raise PopulationError([f"{name}:{reader.line_num}: {len(row)} fields where "
                                       f"the header has {len(header)}"])
            if bad:
                continue  # a field-count fault further on still wins
            try:
                for i, kind, parse, append in parsers:
                    cells = [text for text in row[i].split(";") if text] if kind == "ids" \
                        else [row[i]]
                    for cell in cells:
                        append(parse(cell))  # an int past int64 overflows its buffer
                    if kind == "ids":
                        values["member_ids"].append(len(cells))
            except (KeyError, OverflowError, ValueError):
                what = {float: "float", _boolean: "boolean"}.get(kind, "int")
                bad = f"{name}:{reader.line_num}: bad {what} {cell!r}"
    if bad:
        raise PopulationError([bad])
    table = _table(values, columns, np.frombuffer(ids, dtype=np.int64), wide=True)
    for column, kind in columns.items():
        wide, narrow = getattr(table, column), _dtype(kind)
        if wide.dtype != narrow and np.array_equal(wide, wide.astype(narrow)):
            setattr(table, column, wide.astype(narrow))
    return table, unknown


def _load_table(path, columns) -> tuple:
    """One CSV file as a Table plus the unknown texts of its enum columns.

    A missing or unknown column, or a row whose field count differs from the
    header's, raises; so does a repeated column, a line that is not UTF-8, or
    the first unparseable cell (see `_read_rows`). A file that `np.loadtxt`
    rejects, such as one with an occupation outside -128..127, an age of
    40000, an id of 2**31 or more unknown texts in one enum column than int8
    codes index, is read by `_read_rows`."""
    name = os.path.basename(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
        problems = [f"{name}: missing column {c!r}" for c in columns if c not in header]
        problems += [f"{name}: unknown column {c!r}" for c in header if c not in columns]
        problems += [f"{name}: column {c!r} appears twice"
                     for i, c in enumerate(header) if c in header[:i]]
        if problems:
            raise PopulationError(problems)
        try:
            return _read(path, header, columns)
        except (KeyError, OverflowError, ValueError):
            # a bad cell or row, a code past int8, or a number that numpy
            # rejects but Python's int or float reads, such as 1_000
            return _read_rows(path, header, columns)
    except UnicodeDecodeError:
        raise PopulationError([not_utf8(path)]) from None


def load_population(path) -> Population:
    """Load and validate households.csv + persons.csv from a directory; a
    population needs at least one household."""
    households, unknown = _load_table(os.path.join(path, "households.csv"),
                                      _HOUSEHOLD_COLUMNS)
    persons, unknown_persons = _load_table(os.path.join(path, "persons.csv"),
                                           _PERSON_COLUMNS)
    violations = validate(households, persons, unknown | unknown_persons)
    if not len(households):  # nothing to rank into deciles or summarize
        violations.insert(0, "households.csv: no households")
    if violations:
        raise PopulationError(violations)
    return Population(households=households, persons=persons)


def _texts(table: Table, column, kind) -> list:
    """One column as the strings save_population writes."""
    values = getattr(table, column)
    if kind == "ids":
        ids, bounds = values.astype(str).tolist(), table.member_offsets.tolist()
        return [";".join(ids[a:b]) for a, b in zip(bounds, bounds[1:])]
    if isinstance(kind, tuple):
        return np.array(kind + ("",))[values].tolist()  # code -1 is the empty text
    if kind is _boolean:
        return np.where(values, "true", "false").tolist()
    if kind is float:  # weights keep every digit, money two decimals
        return list(map(repr if column == "weight" else "{:.2f}".format, values.tolist()))
    return values.tolist()


def save_population(pop: Population, path) -> None:
    """Write households.csv + persons.csv; output is byte-stable."""
    os.makedirs(path, exist_ok=True)
    for name, table, columns in (("households.csv", pop.households, _HOUSEHOLD_COLUMNS),
                                 ("persons.csv", pop.persons, _PERSON_COLUMNS)):
        texts = [_texts(table, column, kind) for column, kind in columns.items()]
        with open(os.path.join(path, name), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(zip(*texts))


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


_SWITCH = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def parse_synth_config(path) -> SynthConfig:
    """Parse a key=value synth.cfg; bracketed keys override per-sector maps.

    Recognised keys: households (at least 1), income_location (finite),
    income_scale (finite, >= 0), weight_jitter (on/true/1 or off/false/0),
    sector_share[<sector>] (finite, >= 0), income_offset[<sector>]
    (finite), essential_share[<sector>] (in [0, 1]). Anything else, a
    `[section]` line, a key given twice, an unknown sector or a bad or
    out-of-range value raises PopulationError naming the file, the line
    and the key.
    """
    cfg = SynthConfig()
    scalars = {"households": int, "income_location": float, "income_scale": float,
               "weight_jitter": _SWITCH.__getitem__}
    finite = (math.isfinite, "must be finite")
    finite_non_negative = (lambda v: 0.0 <= v < math.inf, "must be finite and >= 0")
    ranges = {"households": (lambda v: v >= 1, "must be at least 1"),
              "income_location": finite, "income_offset": finite,
              "income_scale": finite_non_negative, "sector_share": finite_non_negative,
              "essential_share": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")}
    explicit_shares = {}
    sector_maps = {"sector_share": explicit_shares, "income_offset": cfg.income_offsets,
                   "essential_share": cfg.essential_shares}
    name = os.path.basename(path)
    given = set()
    for where, section, key, value in key_values(path, lambda message: PopulationError([message])):
        if key is None:
            raise PopulationError([f"{where}: [{section}]: this file has no sections"])
        head, _, sector = key.partition("[")

        def parsed(convert):
            try:
                number = convert(value)
            except (KeyError, ValueError):
                raise PopulationError([f"{where}: {key} has a bad value {value!r}"]) from None
            if head in ranges and not ranges[head][0](number):
                raise PopulationError([f"{where}: {key} {ranges[head][1]}, got {value}"])
            return number

        if key in scalars:
            setattr(cfg, key, parsed(scalars[key]))
        elif head in sector_maps and sector.endswith("]"):
            sector = sector[:-1].strip()
            if sector not in SECTORS:
                raise PopulationError([f"{where}: {key}: unknown sector {sector!r}"])
            sector_maps[head][sector] = parsed(float)
        else:
            raise PopulationError([f"{where}: unknown key {key!r}"])
        if (head, sector) in given:
            raise PopulationError([f"{where}: {key} is given twice"])
        given.add((head, sector))
    if explicit_shares:
        remainder = 1.0 - sum(explicit_shares.values())
        if remainder < -1e-9:
            raise PopulationError([f"{name}: sector shares exceed 1"])
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


def _buffers(columns, wide=False) -> dict:
    """One empty typed buffer per column, of the column's `_dtype`."""
    return {column: array(_TYPECODES[_dtype(kind, wide)]) for column, kind in columns.items()}


def _table(values: dict, columns, member_ids, wide=False) -> Table:
    """Table of columns, each a view of its typed buffer (or array) in `_dtype`,
    but member_ids: its buffer holds household sizes, `member_ids` (None for persons) the ids."""
    table = {}
    for column, kind in columns.items():
        column_values = np.frombuffer(values[column], dtype=_dtype(kind, wide))
        if kind == "ids":
            table["member_offsets"] = np.cumsum(np.append(0, column_values), dtype=np.int64)
            table[column] = member_ids
        else:
            table[column] = column_values
    return Table(**table)


# The generator's categorical draws: a worker's occupation code (1..9), and
# a household type's number of children (1..3 and 1..2). Bisecting a
# uniform draw on `_CDFS[name]` gives the index that
# `rng.choice(len(p), p=p)` returns from the same draw, as choice bisects
# the same normalised cumulative table.
_CHOICES = {"occupation": (0.13, 0.12, 0.12, 0.13, 0.10, 0.10, 0.10, 0.10, 0.10),
            "couple_kids": (0.4, 0.4, 0.2), "lone_parent": (0.7, 0.3)}
_CDFS = {name: (np.cumsum(p) / np.cumsum(p)[-1]).tolist() for name, p in _CHOICES.items()}


def _draws(rng) -> tuple:
    """`rng.random()` and `int(rng.integers(lo, hi))`, read from the PCG64
    state behind `rng` without numpy's per-call argument handling.

    The uniform is the bit generator's own `next_double`, which
    `Generator.random` returns. The integer is `Generator.integers`' rule
    for a span `hi - lo` in 2..2**32: Lemire's bounded multiply of one
    `next_uint32`, drawn again while the low word is under
    `(2**32 - span) % span`. Both advance the live state, its buffered
    half word included, so `rng`'s own methods may be called in between
    and the stream stays the one numpy draws. Valid while `rng` lives.
    """
    bits = rng.bit_generator.ctypes
    next_uint32 = partial(bits.next_uint32, bits.state)

    def integers(lo, hi):
        span = hi - lo
        m = next_uint32() * span
        if (m & 0xFFFFFFFF) < span:
            threshold = (0x100000000 - span) % span
            while (m & 0xFFFFFFFF) < threshold:
                m = next_uint32() * span
        return lo + (m >> 32)

    return partial(bits.next_double, bits.state), integers


def generate_synthetic(config: SynthConfig, seed: int) -> Population:
    """Deterministic synthetic population: a pure function of (config, seed).

    Households mix singles, couples, families and lone parents; workers are
    spread over sectors by largest-remainder quota so realized shares stay
    within one worker of the configured shares; employee earnings are
    log-normal per sector. Children (age < 16) always have work_status
    'child'. Weights are 1.0 unless weight_jitter draws them in [0.5, 1.5].

    Every value comes from one sequential numpy PCG64 stream seeded with
    (0x5E3D, seed mod 2**32), in a fixed order: household by household,
    then the sector assignment. So, unlike the engine's keyed draws, a
    change to any setting, the household count included, can change every
    household. Uniform and bounded-integer draws are read from the bit
    generator directly (`_draws`), log-normals and the worker permutation
    through the `Generator`; the stream is the one that one `Generator`
    call per draw reads.
    """
    if config.households <= 0:
        raise PopulationError(["synthetic generator needs a positive household count"])
    rng = np.random.default_rng(np.random.SeedSequence([0x5E3D, seed & 0xFFFFFFFF]))
    random, integers = _draws(rng)
    lognormal = rng.lognormal
    occupation_cdf, couple_kids_cdf, lone_parent_cdf = (
        _CDFS[name] for name in ("occupation", "couple_kids", "lone_parent"))
    # WORK_STATUSES codes
    employee, self_employed, unemployed, retired, inactive, student, child = range(7)
    owner_outright, mortgage, renter = range(3)  # TENURES codes
    primary, secondary, university = range(3)  # EDUCATIONS codes
    # one typed buffer per column, enums as codes; the person columns that only
    # the sector assignment below sets are filled once the persons are drawn
    values = _buffers(_PERSON_COLUMNS)
    (add_household_id, add_age, add_sex, add_education, add_occupation, add_region,
     add_status, add_capital, add_pension, add_home) = (values[column].append for column in (
        "household_id", "age", "sex", "education", "occupation", "region", "work_status",
        "capital_income", "private_pension", "home_work_capable"))
    households = _buffers(_HOUSEHOLD_COLUMNS)
    (add_weight, add_size, add_tenure, add_mortgage, add_rent, add_childcare_user,
     add_childcare_spend, add_kids_0_4, add_kids_u14) = (households[column].append for column in (
        "weight", "member_ids", "tenure", "mortgage_payment", "rent", "childcare_user",
        "childcare_expenditure", "n_children_0_4", "n_children_under14"))

    def adult(hid, age):
        """Append one person aged 18 or over, status drawn first."""
        u = random()
        if age < 25:
            status = (student if u < 0.45 else employee if u < 0.85 else
                      unemployed if u < 0.92 else inactive)
        elif age < 65:
            status = (employee if u < 0.68 else self_employed if u < 0.78 else
                      unemployed if u < 0.84 else inactive)
        else:
            status = retired if u < 0.92 else (employee if u < 0.97 else self_employed)
        add_household_id(hid)
        add_age(age)
        add_sex(0 if random() < 0.5 else 1)  # male, female
        if random() < (0.35 if age < 65 else 0.20):
            add_education(university)
        else:
            add_education(secondary if random() < 0.75 else primary)
        occupation = 0
        if status <= self_employed:  # a worker
            occupation = 1 + bisect.bisect_right(occupation_cdf, random())
        add_occupation(occupation)
        add_region(0 if random() < 0.27 else 1)
        add_status(status)
        cap_rate = 0.03 if age < 25 else (0.06 if age < 35 else (0.10 if age < 45 else 0.13))
        add_capital(round(lognormal(6.0, 1.0), 2) if random() < cap_rate else 0.0)
        add_pension(round(lognormal(9.3, 0.5), 2)
                    if status == retired and random() < 0.55 else 0.0)
        add_home(occupation > 0 and
                 random() < (0.7 if occupation <= 4 else (0.3 if occupation == 9 else 0.15)))

    for hid in range(1, config.households + 1):
        first = len(values["age"])
        kids_0_4 = kids_u14 = 0
        u = random()
        if u < 0.28:  # single
            head = integers(25, 91)
            adult(hid, head)
        elif u < 0.58 or u >= 0.92:  # couple, or three adults
            head = integers(25, 86)
            partner = max(18, head + integers(-5, 6))
            adult(hid, head)
            adult(hid, partner)
            if u >= 0.92:
                adult(hid, integers(18, 29))
        else:  # couple with children, or lone parent
            couple = u < 0.83
            n_kids = 1 + bisect.bisect_right(couple_kids_cdf if couple else lone_parent_cdf,
                                             random())
            head = integers(25, 51)
            adult(hid, head)
            if couple:
                adult(hid, integers(25, 51))
            for _ in range(n_kids):  # a child draws its age, sex and region
                age = integers(0, 16)
                add_household_id(hid)
                add_age(age)
                add_sex(0 if random() < 0.5 else 1)
                add_education(primary)
                add_occupation(0)
                add_region(0 if random() < 0.27 else 1)
                add_status(child)
                add_capital(0.0)
                add_pension(0.0)
                add_home(False)
                kids_0_4 += age <= 4
                kids_u14 += age < 14

        u = random()
        if head < 35:
            tenure = renter if u < 0.55 else (mortgage if u < 0.90 else owner_outright)
        elif head < 60:
            tenure = renter if u < 0.20 else (mortgage if u < 0.70 else owner_outright)
        else:
            tenure = renter if u < 0.12 else (mortgage if u < 0.25 else owner_outright)
        add_tenure(tenure)
        add_mortgage(round(lognormal(6.8, 0.35), 2) if tenure == mortgage else 0.0)
        add_rent(round(lognormal(6.95, 0.30), 2) if tenure == renter else 0.0)
        childcare_user = ((kids_0_4 > 0 and random() < 0.55)
                          or (kids_u14 > 0 and random() < 0.15))
        add_childcare_user(childcare_user)
        add_childcare_spend(round(lognormal(4.9, 0.5), 2) if childcare_user else 0.0)
        add_kids_0_4(kids_0_4)
        add_kids_u14(kids_u14)
        add_weight(round(0.5 + random(), 6) if config.weight_jitter else 1.0)
        add_size(len(values["age"]) - first)

    n = len(values["age"])
    values.update(person_id=np.arange(1, n + 1, dtype=np.int32), industry=array("b", [-1]) * n,
                  employment_income=array("d", [0.0]) * n,
                  self_employment_income=array("d", [0.0]) * n,
                  essential_worker=array("b", [False]) * n,
                  covid_state=array("b", [0]) * n)  # covid_state "none"
    # sector assignment by quota keeps realized shares within one worker
    status = values["work_status"]
    workers = [i for i, s in enumerate(status) if s <= self_employed]
    counts = _quota_counts(config.sector_shares, len(workers))
    sector_slots = []
    for code, s in enumerate(SECTORS):
        sector_slots.extend([code] * counts.get(s, 0))
    order = rng.permutation(len(workers))
    for code, i in zip(sector_slots, (workers[k] for k in order)):
        slot = SECTORS[code]
        values["industry"][i] = code
        values["essential_worker"][i] = random() < config.essential_shares.get(slot, 0.3)
        location = config.income_location + config.income_offsets.get(slot, 0.0)
        amount = round(lognormal(location, config.income_scale), 2)
        if status[i] == employee:
            values["employment_income"][i] = amount
        else:
            values["self_employment_income"][i] = round(amount * 0.9, 2)

    households["household_id"] = np.arange(1, config.households + 1, dtype=np.int32)
    person_table = _table(values, _PERSON_COLUMNS, None)
    # persons are numbered from 1 in household order: one array lists and names them
    household_table = _table(households, _HOUSEHOLD_COLUMNS, person_table.person_id)
    violations = validate(household_table, person_table)
    if violations:  # would be a generator bug, not a data fault
        raise PopulationError(violations)
    return Population(households=household_table, persons=person_table)
