"""Readers of every input file but the population tables: the CSV tables
of the data and policy directories, and the `key = value` configs
(`scenario.cfg`, `tax_system.cfg`, `synth.cfg`). Both read UTF-8, skip
blank lines and `#` comments, name a row `<file basename>:<line>` counting
every physical line, and raise the caller's error class built from one
message. Every CSV table has key columns, and `csv_rows` alone enforces
that no key repeats and that each required key has a row."""
import csv
import math
import os

from .money import cents


def csv_rows(path, columns: dict, error, key, required=()):
    """Yield (where, record) per data row of a header-first CSV. `columns`
    maps each required column to the parser of its stripped cells, and the
    record holds their parsed values; other columns are not read. A missing
    or repeated column, a row of another field count than the header's, or a
    cell its parser rejects with ValueError raises `error(message)`.

    `key` names the columns whose parsed values identify a row. A row whose
    key repeats an earlier row's raises `<where>: second row for <column>
    '<cell>', ...` before the row is yielded; after the last row, the first
    tuple of key values in `required` that no row had raises `<file>: no
    row for <column> <value!r>, ...`."""
    name = os.path.basename(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = [(lineno, line) for lineno, line in enumerate(fh, start=1)
                     if line.strip() and not line.lstrip().startswith("#")]
    except UnicodeDecodeError:
        raise error(not_utf8(path)) from None
    rows = csv.reader(line for _, line in lines)
    header = [cell.strip() for cell in next(rows, [])]
    for column in columns:
        if column not in header:
            raise error(f"{name}: missing column {column!r}; expected {', '.join(columns)}")
    for i, column in enumerate(header):
        if column in header[:i]:
            raise error(f"{name}: column {column!r} appears twice")
    seen = set()
    for row in rows:
        where = f"{name}:{lines[rows.line_num - 1][0]}"
        if len(row) != len(header):
            raise error(f"{where}: {len(row)} fields where the header has {len(header)}")
        record = {}
        for column, parse in columns.items():
            cell = row[header.index(column)]
            try:
                record[column] = parse(cell.strip())
            except ValueError:
                raise error(f"{where}: bad {column} {cell!r}") from None
        values = tuple(record[column] for column in key)
        if values in seen:
            cells = (f"{column} {row[header.index(column)].strip()!r}" for column in key)
            raise error(f"{where}: second row for {', '.join(cells)}")
        seen.add(values)
        yield where, record
    for values in required:
        if values not in seen:
            cells = (f"{column} {value!r}" for column, value in zip(key, values))
            raise error(f"{name}: no row for {', '.join(cells)}")


def key_values(path, error):
    """Yield (where, section, key, value) per `key = value` line of a config,
    with the name of the `[section]` header above it (None before the
    first), and (where, name, None, None) per header. `#` starts a comment;
    any other line raises `error(message)`."""
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise error(not_utf8(path)) from None
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{name}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            yield where, section, None, None
        elif "=" in line:
            key, value = (token.strip() for token in line.split("=", 1))
            yield where, section, key, value
        else:
            raise error(f"{where}: expected key = value")


def not_utf8(path) -> str:
    """The fault of a file that is not UTF-8: `<file basename>:<line>` of its
    first line that does not decode (lines end at LF, CRLF or CR, as in text
    mode), and the byte that stops it."""
    with open(path, "rb") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines(keepends=True))
        for lineno, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return (f"{os.path.basename(path)}:{lineno}: not UTF-8 text "
                        f"(byte {line[exc.start]:#04x}: {exc.reason})")
    return f"{os.path.basename(path)}: not UTF-8 text"


def finite(text) -> float:
    """Parse a number cell that is neither nan nor inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value


def money_cents(text, unit: float = 1.0):
    """Parse a money cell of `unit` euros into int64 cents: a `finite`
    number, which `money.cents` rejects with ValueError outside
    `money.has_cents`."""
    return cents(finite(text) * unit)
