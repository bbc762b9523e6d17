"""Readers of the reference input files: the CSV tables of the data and
policy directories, and the `key = value` configs. Both skip blank lines
and `#` comments, name a row `<file basename>:<line>` counting every
physical line, and raise the caller's error class built from one message."""
import csv
import math
import os


def csv_rows(path, columns: dict, error):
    """Yield (where, record) per data row of a header-first CSV. `columns`
    maps each required column to the parser of its stripped cells, and the
    record holds their parsed values; other columns are not read. A missing
    column, a row of another field count than the header's, or a cell its
    parser rejects with ValueError raises `error(message)`."""
    name = os.path.basename(path)
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [(lineno, line) for lineno, line in enumerate(fh, start=1)
                 if line.strip() and not line.lstrip().startswith("#")]
    rows = csv.reader(line for _, line in lines)
    header = [cell.strip() for cell in next(rows, [])]
    for column in columns:
        if column not in header:
            raise error(f"{name}: missing column {column!r}; expected {', '.join(columns)}")
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
        yield where, record


def key_values(path, error):
    """Yield (where, key, value) per `key = value` line of a config; `#`
    starts a comment. A line without `=` raises `error(message)`."""
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise error(f"{name}:{lineno}: expected key = value")
            key, value = (token.strip() for token in line.split("=", 1))
            yield f"{name}:{lineno}", key, value


def finite(text) -> float:
    """Parse a number cell that is neither nan nor inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {text!r}")
    return value
