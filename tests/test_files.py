import datetime as dt
import itertools

import pytest

from nowcastsim.files import csv_rows, finite, key_values, money_cents
from nowcastsim.money import MAX_CENTS


class Bad(ValueError):
    pass


def rows(tmp_path, text, columns):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8")
    return list(csv_rows(path, columns, Bad, ("key",)))


class TestCsvRows:
    def test_comments_and_blank_lines_count_as_physical_lines(self, tmp_path):
        text = ("# a comment, with a comma\n\nkey,date,note,value\n"
                "a,2020-05-05,skipped, 1.5 \n\n  # indented comment\n"
                '"b, quoted",2020-06-06,,2\n')
        out = rows(tmp_path, text, {"key": str, "date": dt.date.fromisoformat,
                                    "value": finite})
        assert out == [("table.csv:4", {"key": "a", "date": dt.date(2020, 5, 5), "value": 1.5}),
                       ("table.csv:7", {"key": "b, quoted", "date": dt.date(2020, 6, 6),
                                        "value": 2.0})]

    def test_missing_column_names_file_and_column(self, tmp_path):
        with pytest.raises(Bad, match="^table.csv: missing column 'value'; expected key, value$"):
            rows(tmp_path, "key,valeu\na,1\n", {"key": str, "value": float})

    def test_empty_file_misses_every_column(self, tmp_path):
        with pytest.raises(Bad, match="^table.csv: missing column 'key'"):
            rows(tmp_path, "# only a comment\n\n", {"key": str})

    @pytest.mark.parametrize("line, fields", [("a", 1), ("a,1,2", 3)])
    def test_wrong_field_count_is_located(self, tmp_path, line, fields):
        with pytest.raises(Bad, match=f"^table.csv:4: {fields} fields where the header has 2$"):
            rows(tmp_path, f"key,value\nb,2\n\n{line}\n", {"key": str, "value": float})

    @pytest.mark.parametrize("parse, cell", [(int, "1.5"), (float, "abc"), (finite, "nan"),
                                             (finite, "-inf"),
                                             (dt.date.fromisoformat, "2020-13-01")])
    def test_unparseable_cell_is_located(self, tmp_path, parse, cell):
        with pytest.raises(Bad, match=f"^table.csv:3: bad value '{cell}'$"):
            rows(tmp_path, f"key,value\n\na,{cell}\n", {"key": str, "value": parse})

    def test_repeated_column_is_rejected(self, tmp_path):
        with pytest.raises(Bad, match="^table.csv: column 'value' appears twice$"):
            rows(tmp_path, "key,value, value\na,1,2\n", {"key": str, "value": float})

    @pytest.mark.parametrize("cell", ["1e17", "-1e17", "inf", "nan", "lots"])
    def test_money_cell_past_cents_is_located(self, tmp_path, cell):
        with pytest.raises(Bad, match=f"^table.csv:2: bad value '{cell}'$"):
            rows(tmp_path, f"key,value\na,{cell}\n", {"key": str, "value": money_cents})

    def test_rows_are_read_lazily_up_to_the_first_fault(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("key\na\nb,c\n", encoding="utf-8")
        reader = csv_rows(path, {"key": str}, Bad, ("key",))
        assert next(reader) == ("table.csv:2", {"key": "a"})
        with pytest.raises(Bad, match="table.csv:3"):
            next(reader)

    def test_second_row_for_a_key_is_named_by_its_physical_line(self, tmp_path):
        # the key compares parsed values, and the message quotes the cells as written
        path = tmp_path / "table.csv"
        path.write_text('key,n,value\n"b, c",1,x\n# a comment\n\na,1,y\n"b, c",01,z\n',
                        encoding="utf-8")
        reader = csv_rows(path, {"key": str, "n": int}, Bad, ("key", "n"))
        assert [where for where, _ in itertools.islice(reader, 2)] == ["table.csv:2",
                                                                       "table.csv:5"]
        with pytest.raises(Bad, match="^table.csv:6: second row for key 'b, c', n '01'$"):
            next(reader)

    def test_missing_required_key_is_raised_after_the_last_row(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("key,n\nb,2\n\na,1\n", encoding="utf-8")
        reader = csv_rows(path, {"key": str, "n": int}, Bad, ("key", "n"),
                          [("a", 1), ("c", 3), ("b", 2), ("d", 4)])
        assert next(reader) == ("table.csv:2", {"key": "b", "n": 2})
        assert next(reader) == ("table.csv:4", {"key": "a", "n": 1})
        with pytest.raises(Bad, match="^table.csv: no row for key 'c', n 3$"):
            next(reader)


class TestKeyValues:
    def test_comments_blank_lines_and_spacing(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# header\n\nband = 0:0.20  # first band\nname=x = y\n",
                        encoding="utf-8")
        assert list(key_values(path, Bad)) == [("a.cfg:3", None, "band", "0:0.20"),
                                               ("a.cfg:4", None, "name", "x = y")]

    def test_section_headers_are_yielded_and_name_the_keys_below(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("top = 1\n[one]  # first\na = 1\n\n[two:x]\n  b = [2]\n",
                        encoding="utf-8")
        assert list(key_values(path, Bad)) == [("a.cfg:1", None, "top", "1"),
                                               ("a.cfg:2", "one", None, None),
                                               ("a.cfg:3", "one", "a", "1"),
                                               ("a.cfg:5", "two:x", None, None),
                                               ("a.cfg:6", "two:x", "b", "[2]")]

    def test_line_without_equals_is_located(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("credit = 1\n\ncredit 2\n", encoding="utf-8")
        with pytest.raises(Bad, match="^a.cfg:3: expected key = value$"):
            list(key_values(path, Bad))


@pytest.mark.parametrize("read", [lambda path: list(csv_rows(path, {"key": str}, Bad, ("key",))),
                                  lambda path: list(key_values(path, Bad))])
def test_line_that_is_not_utf8_is_located(tmp_path, read):
    path = tmp_path / "table.csv"
    path.write_bytes("key = caf\u00e9\n\n".encode() + b"key = caf\xe9\nkey = 1\n")
    with pytest.raises(Bad, match=r"^table.csv:3: not UTF-8 text \(byte 0xe9: "
                                  r"invalid continuation byte\)$"):
        read(path)


class TestMoneyCents:
    @pytest.mark.parametrize("text, unit, expected", [
        ("12.34", 1.0, 1234), ("-0.005", 1.0, -1), ("0.001", 1000.0, 100),
        (str((MAX_CENTS - 1) / 100), 1.0, MAX_CENTS - 1)])
    def test_converts_to_int64_cents(self, text, unit, expected):
        assert money_cents(text, unit) == expected

    @pytest.mark.parametrize("text, unit", [(str(MAX_CENTS / 100), 1.0), ("1e13", 1000.0),
                                            ("1e305", 1000.0), ("-inf", 1.0), ("x", 1.0)])
    def test_rejects_what_cannot_become_cents(self, text, unit):
        with pytest.raises(ValueError):
            money_cents(text, unit)
