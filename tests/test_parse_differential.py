"""parse_mass_table against the per-line parser it replaced.

`reference_parse` is that parser as it was, kept here as the reference:
both must return equal records, field for field with the same types and
bits, or raise the same error with the same message. Inputs never hold the
characters at which the reference wrongly ended a line (\\x0b, \\x0c,
\\x1c-\\x1e); the tests of that fix are in test_ame.py. One line of the
reference differs from the parser it was: it hands `read_fields` the fields
stripped of only what int() and float() skip, not of all that str.strip()
takes for whitespace, so that a \\x1f in a field is named as that field.
The error path names a field through `read_fields`, as the parser does, so
its energy kind rejects a non-finite total through `ame.energy`. And the
reference frames the record's own error: a line that breaks the record rule
(A != Z + N, a negative energy) is a MassTableParseError that names the
line, as every other bad line is, where the per-line parser let the
record's DataIntegrityError out without one.
"""

import math
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nucaug import ame
from nucaug.ame import _FIELD_NAMES, LAYOUTS, NuclideRecord, read_fields
from nucaug.errors import DataIntegrityError, MassTableParseError


def reference_parse(content, edition):
    layout = LAYOUTS[edition]
    if isinstance(content, bytes):
        content = content.decode("ascii", errors="replace")

    min_width = layout.min_width
    n0, n1 = layout.col_n
    z0, z1 = layout.col_z
    a0, a1 = layout.col_a
    b0, b1 = layout.col_bea
    e0, e1 = layout.col_bea_err
    isfinite = math.isfinite
    records = []
    append = records.append
    lines = content.splitlines()[layout.header_lines:]
    for line_no, line in enumerate(lines, start=layout.header_lines + 1):
        if len(line) < min_width:
            if not line.strip():
                continue
            raise MassTableParseError(line_no, f"line width {len(line)} < required {min_width}")
        bea, bea_err = line[b0:b1], line[e0:e1]
        try:
            n = int(line[n0:n1])
            z = int(line[z0:z1])
            a = int(line[a0:a1])
            be_total = float(bea.replace("#", ".")) * a / 1000.0
            be_err = float(bea_err.replace("#", ".")) * a / 1000.0
            if not (isfinite(be_total) and isfinite(be_err)):
                raise ValueError
        except ValueError:
            if not line.strip():
                continue
            try:
                a = int(line[a0:a1])
            except ValueError:
                a = 0

            def energy(text):
                return ame.energy(float(text.replace("#", ".")) * a / 1000.0)

            fields = [line[c0:c1].strip(string.whitespace)
                      for c0, c1 in ((n0, n1), (z0, z1), (a0, a1), (b0, b1), (e0, e1))]
            read_fields(line_no, _FIELD_NAMES, (int, int, int, energy, energy), fields)
        try:
            append(NuclideRecord(z, n, a, be_total, be_err, "#" in bea or "#" in bea_err))
        except DataIntegrityError as exc:
            raise MassTableParseError(line_no, str(exc)) from None
    return records


def outcome(parse, content, edition):
    """The records, each field with its type and exact bits, or the error's
    type and message."""
    try:
        records = parse(content, edition)
    except (MassTableParseError, DataIntegrityError) as exc:
        return type(exc), str(exc)
    return [tuple((type(v), v.hex() if isinstance(v, float) else v) for v in r)
            for r in records]


def assert_same(content, edition):
    want = outcome(reference_parse, content, edition)
    assert outcome(ame.parse_mass_table, content, edition) == want
    if content.isascii():
        assert outcome(ame.parse_mass_table, content.decode("ascii"), edition) == want
    return want


EDITIONS = st.sampled_from(sorted(LAYOUTS))
# every byte but the five line breaks the reference got wrong
JUNK = st.binary(max_size=12).map(
    lambda b: bytes(c for c in b if c not in b"\x0b\x0c\x1c\x1d\x1e"))
FIELD_JUNK = st.one_of(
    JUNK, st.text(alphabet="0123456789 .#-+eEinfa_\t\x1f\x00", max_size=12).map(str.encode),
    st.sampled_from([b"\x00", b"\x80", b"\xff", "é".encode(), b"1\x00", b"\x1f1", b"1\x1f",
                     b"nan", b"-inf", b"1e308", b"-1.5", b"1_0", b"+7"]))
BLANK = st.text(alphabet=" \t\x1f", max_size=200).map(str.encode)


@st.composite
def tables(draw, real_lines):
    """The header and a mix of lines: real records, some with trailing spaces
    trimmed or cut short, some spliced with junk, or with junk for one field,
    or with "#" for the decimal point of an energy, and blank lines; joined by
    mixed line endings."""
    edition = draw(EDITIONS)
    layout = LAYOUTS[edition]
    header, records = real_lines[edition]
    body = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record", "trimmed", "cut", "spliced", "field", "hash",
                                     "blank"]))
        line = draw(st.sampled_from(records))
        if kind == "trimmed":
            line = line.rstrip()
        elif kind == "cut":
            line = line[:draw(st.integers(0, layout.min_width + 4))]
        elif kind == "spliced":
            start, cut = draw(st.integers(0, len(line))), draw(st.integers(0, 12))
            line = line[:start] + draw(FIELD_JUNK) + line[start + cut:]
        elif kind == "field":
            start, end = draw(st.sampled_from(layout.columns))
            line = line[:start] + draw(FIELD_JUNK).rjust(end - start)[:end - start] + line[end:]
        elif kind == "hash":
            start, end = draw(st.sampled_from([layout.col_bea, layout.col_bea_err]))
            line = line[:start] + line[start:end].replace(b".", b"#") + line[end:]
        elif kind == "blank":
            line = draw(BLANK)
        body.append(line)
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]),
                         min_size=len(header) + len(body), max_size=len(header) + len(body)))
    return edition, b"".join(line + end for line, end in zip(header + body, ends))


@pytest.fixture(scope="module")
def real_lines(mass16_text, mass20_text):
    """Per edition: the header lines, and the first 40 record lines."""
    lines = {}
    for edition, text in (("AME2016", mass16_text), ("AME2020", mass20_text)):
        skip = LAYOUTS[edition].header_lines
        all_lines = text.splitlines()
        lines[edition] = (all_lines[:skip], all_lines[skip:skip + 40])
    return lines


class TestAgainstReference:
    @pytest.mark.parametrize("edition", sorted(LAYOUTS))
    def test_shipped_tables(self, mass16_text, mass20_text, edition):
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        assert len(assert_same(text, edition)) > 3000

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_mixed_tables(self, real_lines, data):
        edition, content = data.draw(tables(real_lines))
        assert_same(content, edition)

    @given(edition=EDITIONS, line=st.integers(0, 39), start=st.integers(0, 100),
           cut=st.integers(0, 12), junk=FIELD_JUNK)
    @settings(max_examples=300, deadline=None)
    # \x1f for a pad space of BE/A or its uncertainty: str.strip() takes it
    # for whitespace, int() and float() do not
    @example(edition="AME2016", line=2, start=52, cut=1, junk=b"\x1f")
    @example(edition="AME2016", line=2, start=63, cut=1, junk=b"\x1f")
    @example(edition="AME2020", line=2, start=67, cut=1, junk=b"\x1f")
    def test_spliced_record(self, real_lines, edition, line, start, cut, junk):
        # the splice of TestParserFuzz.test_corrupted_record_line, as bytes
        header, records = real_lines[edition]
        body = list(records)
        body[line] = body[line][:start] + junk + body[line][start + cut:]
        assert_same(b"\n".join(header + body), edition)

    @pytest.mark.parametrize("edition", sorted(LAYOUTS))
    @pytest.mark.parametrize("short_first", [True, False])
    def test_first_of_two_bad_lines_is_named(self, real_lines, edition, short_first):
        header, records = real_lines[edition]
        col = LAYOUTS[edition].col_bea
        short = records[1][:30]
        bad = records[3][:col[0]] + b"x".rjust(col[1] - col[0]) + records[3][col[1]:]
        body = [records[0], short, records[2], bad] if short_first else \
            [records[0], bad, records[2], short]
        error, message = assert_same(b"\n".join(header + body), edition)
        first = len(header) + 2
        assert error is MassTableParseError
        assert message.startswith(f"line {first}: ")
        assert ("line width" in message) == short_first

    @pytest.mark.parametrize("edition", sorted(LAYOUTS))
    def test_record_error_before_a_bad_field(self, real_lines, edition):
        # A != Z + N on one line, an unreadable field on a later one: the
        # earlier line's record error, framed with its line number
        header, records = real_lines[edition]
        n0, n1 = LAYOUTS[edition].col_n
        mismatch = records[1][:n0] + b"99".rjust(n1 - n0) + records[1][n1:]
        bad = records[2][:n0] + b"x".rjust(n1 - n0) + records[2][n1:]
        error, message = assert_same(b"\n".join(header + [records[0], mismatch, bad]),
                                     edition)
        assert error is MassTableParseError
        assert message.startswith(f"line {len(header) + 2}: A != Z + N for ")

    @pytest.mark.parametrize("content", [b"", b"\n" * 50, b"x\n" * 39 + b"\n \n\t\n"])
    def test_no_records(self, content):
        assert assert_same(content, "AME2016") == []
