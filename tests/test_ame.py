import contextlib
import io
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nucaug import ame, cli
from nucaug.errors import ConfigurationError, DataIntegrityError, MassTableParseError


def make_record(z=8, n=8, be=127.619, err=0.01, estimated=False):
    return ame.NuclideRecord(z=z, n=n, a=z + n, be_total=be, be_err=err,
                             estimated=estimated)


class TestNuclideRecord:
    def test_key(self):
        assert make_record(z=82, n=126).key == (82, 208)

    def test_mass_number_mismatch_rejected(self):
        with pytest.raises(DataIntegrityError):
            ame.NuclideRecord(z=8, n=8, a=17, be_total=100.0, be_err=0.0,
                              estimated=False)

    def test_negative_uncertainty_rejected(self):
        with pytest.raises(DataIntegrityError):
            make_record(err=-0.001)

    def test_negative_energy_rejected(self):
        with pytest.raises(DataIntegrityError):
            make_record(be=-1.0)

    @pytest.mark.parametrize("field", ["be", "err"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, field, value):
        with pytest.raises(DataIntegrityError, match="non-finite"):
            make_record(**{field: value})

    def test_repr(self):
        assert repr(make_record()) == ("NuclideRecord(z=8, n=8, a=16, be_total=127.619, "
                                       "be_err=0.01, estimated=False)")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        # a sweep sends its split to worker processes by pickle
        records = [make_record(), make_record(z=82, n=126, be=1636.43022, err=0.0,
                                              estimated=True)]
        back = pickle.loads(pickle.dumps(records, protocol))
        assert back == records
        assert all(type(r) is ame.NuclideRecord for r in back)

    def test_immutable(self):
        record = make_record()
        with pytest.raises(AttributeError):
            record.z = 9
        with pytest.raises(AttributeError):
            record.note = "x"
        assert record == make_record()

    def test_equality_and_hash_are_by_fields(self):
        # as for the frozen dataclass this replaced: equal fields give equal
        # records with the hash of their field tuple
        record = make_record()
        fields = (8, 8, 16, 127.619, 0.01, False)
        assert record == make_record() and hash(record) == hash(make_record())
        assert hash(record) == hash(fields)
        assert record != make_record(err=0.02) and record != make_record(estimated=True)
        assert len({record, make_record(), make_record(z=9)}) == 2
        # unlike the dataclass, it is a tuple, and equals the tuple of its fields
        assert record == fields

    GOOD = dict(z=8, n=8, a=16, be_total=127.619, be_err=0.01, estimated=False)
    BAD = [
        (dict(a=17), "A != Z + N for Z=8 N=8 A=17"),
        (dict(be_err=-0.001), "negative uncertainty for Z=8 A=16"),
        (dict(be_total=-1.0), "negative binding energy for Z=8 A=16"),
        (dict(be_err=math.nan), "non-finite uncertainty for Z=8 A=16"),
        (dict(be_total=math.inf), "non-finite binding energy for Z=8 A=16"),
    ]
    PATHS = {
        "positional": lambda f: ame.NuclideRecord(*f.values()),
        "keyword": lambda f: ame.NuclideRecord(**f),
        "_make": lambda f: ame.NuclideRecord._make(f.values()),
        "_replace": lambda f: make_record()._replace(**f),
        # a pickle of a record that never passed the checks
        "unpickle": lambda f: pickle.loads(pickle.dumps(
            tuple.__new__(ame.NuclideRecord, tuple(f.values())))),
    }

    @pytest.mark.parametrize("path", sorted(PATHS))
    @pytest.mark.parametrize("change, message", BAD)
    def test_every_construction_path_validates(self, path, change, message):
        build = self.PATHS[path]
        assert build(self.GOOD) == make_record()
        with pytest.raises(DataIntegrityError) as exc:
            build({**self.GOOD, **change})
        assert str(exc.value) == message


class TestParsing:
    def test_unknown_edition(self):
        with pytest.raises(ConfigurationError):
            ame.parse_mass_table("", "AME1995")

    def test_full_2016_file(self, records16):
        assert len(records16) > 3000
        keys = [r.key for r in records16]
        assert len(keys) == len(set(keys))

    def test_full_2020_file(self, records20):
        assert len(records20) > 3000

    def test_be_total_is_per_nucleon_times_a(self, mass16_text, records16):
        # re-derive one record's energy from the raw fixed-width fields
        layout = ame.LAYOUTS["AME2016"]
        line = mass16_text.decode("ascii").splitlines()[layout.header_lines]
        a = int(line[layout.col_a[0]:layout.col_a[1]])
        bea = float(line[layout.col_bea[0]:layout.col_bea[1]].replace("#", "."))
        rec = records16[0]
        assert rec.a == a
        assert rec.be_total == pytest.approx(bea * a / 1000.0, rel=1e-12)

    def test_hash_marks_estimated(self, records16):
        flagged = [r for r in records16 if r.estimated]
        assert flagged, "file should contain extrapolated entries"

    @pytest.mark.parametrize("edition", sorted(ame.LAYOUTS))
    @pytest.mark.parametrize("field", ["col_bea", "col_bea_err"])
    def test_hash_in_either_field_marks_estimated(self, mass16_text, mass20_text,
                                                   edition, field):
        layout = ame.LAYOUTS[edition]
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        lines = text.decode("ascii").splitlines()
        row = next(i for i in range(layout.header_lines, len(lines)) if "#" not in lines[i])
        start, end = getattr(layout, field)
        original = lines[:row + 1]
        line = original[-1]
        spliced = original[:-1] + [line[:start] + line[start:end].replace(".", "#") + line[end:]]
        measured = ame.parse_mass_table("\n".join(original), edition)[-1]
        estimated = ame.parse_mass_table("\n".join(spliced), edition)[-1]
        assert not measured.estimated and estimated.estimated
        assert (estimated.be_total, estimated.be_err) == (measured.be_total, measured.be_err)

    def test_short_line_raises_with_line_number(self):
        bad = "\n" * ame.LAYOUTS["AME2016"].header_lines + "0 8 8 16\n"
        with pytest.raises(MassTableParseError) as exc:
            ame.parse_mass_table(bad, "AME2016")
        assert exc.value.line_no == ame.LAYOUTS["AME2016"].header_lines + 1

    def test_garbage_field_raises(self, mass16_text):
        text = mass16_text.decode("ascii").splitlines()
        line = text[ame.LAYOUTS["AME2016"].header_lines]
        col = ame.LAYOUTS["AME2016"].col_bea
        bad_line = line[:col[0]] + "x" * (col[1] - col[0]) + line[col[1]:]
        bad = "\n".join(text[:ame.LAYOUTS["AME2016"].header_lines] + [bad_line])
        with pytest.raises(MassTableParseError):
            ame.parse_mass_table(bad, "AME2016")

    @staticmethod
    def spliced(text, edition, junk):
        """The header and first five records of a shipped table, with the
        third record's fields (`junk`: column attribute -> text) replaced."""
        layout = ame.LAYOUTS[edition]
        lines = text.decode("ascii").splitlines()[:layout.header_lines + 5]
        row = layout.header_lines + 2
        for field, value in junk.items():
            start, end = getattr(layout, field)
            lines[row] = lines[row][:start] + value.rjust(end - start) + lines[row][end:]
        return "\n".join(lines), row + 1

    @pytest.mark.parametrize("edition", sorted(ame.LAYOUTS))
    @pytest.mark.parametrize("junk, message", [
        ({"col_n": "1x"}, "non-numeric N field '1x'"),
        ({"col_z": "z8"}, "non-numeric Z field 'z8'"),
        ({"col_a": "1.5"}, "non-numeric A field '1.5'"),
        ({"col_bea": "7.9x1"}, "non-numeric BE/A field '7.9x1'"),
        ({"col_bea_err": "0.1.2"}, "non-numeric BE/A uncertainty field '0.1.2'"),
        # fields are checked in column order, and the energies need A
        ({"col_a": "a", "col_bea": "b"}, "non-numeric A field 'a'"),
        ({"col_z": "z", "col_bea_err": "e"}, "non-numeric Z field 'z'"),
        ({"col_bea": "b", "col_bea_err": "e"}, "non-numeric BE/A field 'b'"),
        ({"col_bea": "nan", "col_bea_err": "e"}, "BE/A field 'nan' is not a finite energy"),
    ])
    def test_field_error_names_line_and_field(self, mass16_text, mass20_text,
                                              edition, junk, message):
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        bad, line_no = self.spliced(text, edition, junk)
        with pytest.raises(MassTableParseError) as exc:
            ame.parse_mass_table(bad, edition)
        assert str(exc.value) == f"line {line_no}: {message}"

    @pytest.mark.parametrize("edition", sorted(ame.LAYOUTS))
    @pytest.mark.parametrize("field", ["col_bea", "col_bea_err"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_value_rejected(self, mass16_text, mass20_text, tmp_path,
                                       edition, field, value):
        # float() reads nan and inf, and 1e308 keV per nucleon overflows
        # once multiplied by A (3 here); none of them may load as a record
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        bad, line_no = self.spliced(text, edition, {field: value})
        with pytest.raises(MassTableParseError) as exc:
            ame.parse_mass_table(bad, edition)
        assert exc.value.line_no == line_no
        name = "BE/A uncertainty" if field == "col_bea_err" else "BE/A"
        assert f"{name} field {value!r}" in str(exc.value)

        path = tmp_path / "mass.txt"
        path.write_text(bad)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["ingest", str(path), "--edition", edition])
        assert code == cli.EXIT_DATA
        assert stderr.getvalue().count("\n") == 1

    @pytest.mark.parametrize("edition", sorted(ame.LAYOUTS))
    def test_blank_lines_between_records_skipped(self, mass16_text, mass20_text, edition):
        # empty, short and wider-than-a-record whitespace lines, also after
        # the last record; the records and the line numbers of later errors
        # are those of the file without them
        layout = ame.LAYOUTS[edition]
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        lines = text.decode("ascii").splitlines()[:layout.header_lines + 6]
        blanks = ["", "   ", " " * (layout.min_width + 30), "\t \t" * 40]
        spaced = lines[:layout.header_lines + 1]
        for line, blank in zip(lines[layout.header_lines + 1:], blanks + [""]):
            spaced += [blank, line]
        spaced += [" " * 200, ""]
        assert (ame.parse_mass_table("\n".join(spaced), edition)
                == ame.parse_mass_table("\n".join(lines), edition))

        short = spaced + ["0 8 8 16"]
        with pytest.raises(MassTableParseError, match="line width") as exc:
            ame.parse_mass_table("\n".join(short), edition)
        assert exc.value.line_no == len(short)

    @pytest.mark.parametrize("edition", sorted(ame.LAYOUTS))
    def test_page_break_line_keeps_line_numbers(self, mass16_text, mass20_text, edition):
        # str.splitlines() also ends a line at a form feed, which shifted the
        # numbers of every later line; a whitespace-only line holding one is
        # still skipped
        layout = ame.LAYOUTS[edition]
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        lines = text.splitlines()[:layout.header_lines + 11]
        lines[layout.header_lines + 8] = b"\x0c"
        start, end = layout.col_bea
        bad = layout.header_lines + 10
        lines[bad] = lines[bad][:start] + b"xx.yyyyy".rjust(end - start) + lines[bad][end:]
        with pytest.raises(MassTableParseError) as exc:
            ame.parse_mass_table(b"\n".join(lines), edition)
        assert str(exc.value) == f"line {bad + 1}: non-numeric BE/A field 'xx.yyyyy'"
        assert len(ame.parse_mass_table(b"\n".join(lines[:bad]), edition)) == 9

    @pytest.mark.parametrize("edition", sorted(ame.LAYOUTS))
    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
    @pytest.mark.parametrize("at", [0, 30, -1])
    def test_line_break_character_in_record_rejected(self, mass16_text, mass20_text,
                                                     edition, char, at):
        # str.splitlines() split such a line in two; at its start, the
        # record was silently accepted
        layout = ame.LAYOUTS[edition]
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        lines = text.decode("ascii").splitlines()[:layout.header_lines + 5]
        row = layout.header_lines + 3
        at = at % (len(lines[row]) + 1)
        lines[row] = lines[row][:at] + char + lines[row][at:]
        for content in ("\n".join(lines), "\n".join(lines).encode("ascii")):
            with pytest.raises(MassTableParseError) as exc:
                ame.parse_mass_table(content, edition)
            assert str(exc.value) == (f"line {row + 1}: line-break character {char!r}"
                                      " inside a record")

    def test_str_is_read_as_ascii(self, mass16_text):
        # a str is read one character per column, as bytes are: a character
        # outside ASCII is unreadable, so a non-ASCII digit is no digit and
        # a non-ASCII line separator ends no line
        layout = ame.LAYOUTS["AME2016"]
        lines = mass16_text.decode("ascii").splitlines()[:layout.header_lines + 3]
        row = layout.header_lines + 1
        n1, el = layout.col_n[1], 20  # el: a column of the element symbol
        digit = lines[:row] + [lines[row][:n1 - 1] + "\u0663" + lines[row][n1:]]
        with pytest.raises(MassTableParseError) as exc:
            ame.parse_mass_table("\n".join(digit), "AME2016")
        assert exc.value.line_no == row + 1 and "non-numeric N field" in str(exc.value)
        separated = lines[:row] + [lines[row][:el] + "\u2028" + lines[row][el + 1:]]
        records = ame.parse_mass_table("\n".join(separated), "AME2016")
        assert records == ame.parse_mass_table("\n".join(lines[:row + 1]), "AME2016")

    @pytest.mark.parametrize("edition", sorted(ame.LAYOUTS))
    @pytest.mark.parametrize("field", ["col_n", "col_bea", "col_bea_err"])
    def test_unit_separator_for_a_pad_space_is_rejected(self, mass16_text, mass20_text,
                                                        tmp_path, edition, field):
        # str.strip() takes \x1f for whitespace, but int() and float() take
        # it for a character on str and on bytes alike: the line is bad, and
        # the message, on one line from `ingest`, names the field
        layout = ame.LAYOUTS[edition]
        name = {"col_n": "N", "col_bea": "BE/A", "col_bea_err": "BE/A uncertainty"}[field]
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        lines = text.splitlines()[:layout.header_lines + 5]
        row = layout.header_lines + 2
        start, end = getattr(layout, field)
        pad = start + len(lines[row][start:end]) - len(lines[row][start:end].lstrip())
        assert pad > start
        lines[row] = lines[row][:pad - 1] + b"\x1f" + lines[row][pad:]
        content = b"\n".join(lines)
        for source in (content, content.decode("ascii")):
            with pytest.raises(MassTableParseError) as exc:
                ame.parse_mass_table(source, edition)
            assert exc.value.line_no == row + 1
            assert f": non-numeric {name} field '" in str(exc.value)
        path = tmp_path / "mass.txt"
        path.write_bytes(content)
        code, stderr = cli_error(["ingest", str(path), "--edition", edition])
        assert code == cli.EXIT_DATA
        assert stderr.startswith(f"data error: line {row + 1}: non-numeric {name} field '")
        assert "\\x1f" in stderr and stderr.count("\n") == 1

    def test_a_rejected_table_never_parses_past_the_scan(self, mass16_text, monkeypatch):
        # the scan that names the bad line is the only way out of a failed
        # column pass: were it to find no bad line, the parse fails loudly
        bad, _ = self.spliced(mass16_text, "AME2016", {"col_bea": "x"})
        monkeypatch.setattr(ame, "_raise_first_bad_line", lambda content, layout: None)
        with pytest.raises(AssertionError, match="column pass rejects"):
            ame.parse_mass_table(bad, "AME2016")

    def test_bytes_and_str_inputs_agree(self, mass16_text, records16):
        assert ame.parse_mass_table(mass16_text.decode("ascii"),
                                    "AME2016") == records16


def loads(content, edition) -> bool:
    """True if the table parses into finite records, False if it is rejected
    with one of the package's input errors; any other exception, or a
    non-finite energy, fails the calling test."""
    try:
        records = ame.parse_mass_table(content, edition)
    except (MassTableParseError, DataIntegrityError, ConfigurationError):
        return False
    assert all(math.isfinite(r.be_total) and math.isfinite(r.be_err) for r in records)
    return True


EDITIONS = st.sampled_from(sorted(ame.LAYOUTS))
FIELD_TEXT = st.one_of(st.text(alphabet="0123456789 .#-+eEinfa_", max_size=12),
                       st.text(max_size=12))


class TestParserFuzz:
    @given(edition=EDITIONS, after_header=st.booleans(), content=st.binary(max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_any_bytes(self, edition, after_header, content):
        header = b"\n" * ame.LAYOUTS[edition].header_lines if after_header else b""
        loads(header + content, edition)

    @given(edition=EDITIONS, after_header=st.booleans(), content=st.text(max_size=400))
    @settings(max_examples=100, deadline=None)
    def test_any_str(self, edition, after_header, content):
        header = "\n" * ame.LAYOUTS[edition].header_lines if after_header else ""
        loads(header + content, edition)

    @given(edition=EDITIONS, line=st.integers(0, 39), start=st.integers(0, 100),
           cut=st.integers(0, 12), junk=FIELD_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_corrupted_record_line(self, mass16_text, mass20_text, tmp_path_factory,
                                   edition, line, start, cut, junk):
        # header plus 40 real records, one of them spliced: junk replaces
        # `cut` characters at `start`
        text = {"AME2016": mass16_text, "AME2020": mass20_text}[edition]
        skip = ame.LAYOUTS[edition].header_lines
        lines = text.decode("ascii").splitlines()[:skip + 40]
        lines[skip + line] = lines[skip + line][:start] + junk + lines[skip + line][start + cut:]
        corrupt = "\n".join(lines)
        loads(corrupt, edition)

        path = tmp_path_factory.getbasetemp() / "corrupt_mass.txt"
        path.write_bytes(corrupt.encode("utf-8"))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(["ingest", str(path), "--edition", edition])
        if loads(path.read_bytes(), edition):
            assert code == cli.EXIT_OK
        else:
            assert code in (cli.EXIT_USAGE, cli.EXIT_DATA)
            assert stderr.getvalue().count("\n") == 1


class TestFilterAndDiff:
    def test_filter_bounds_and_flag(self, records16, experimental16):
        assert all(r.z >= 8 and r.n >= 8 and not r.estimated
                   for r in experimental16)
        dropped = set(r.key for r in records16) - set(r.key for r in experimental16)
        assert dropped

    def test_filter_custom_bounds(self, records16):
        heavy = ame.filter_experimental(records16, z_min=50, n_min=50)
        assert heavy
        assert min(r.z for r in heavy) >= 50

    def test_diff_keys_disjoint(self, experimental16, extrapolation):
        old_keys = {r.key for r in experimental16}
        assert all(r.key not in old_keys for r in extrapolation)

    def test_diff_duplicate_input_rejected(self):
        rec = make_record()
        with pytest.raises(DataIntegrityError):
            ame.diff_new_nuclei([rec, rec], [])


class TestSplit:
    def test_partition(self, experimental16, split):
        assert len(split.train) == math.floor(0.7 * len(experimental16))
        assert len(split.train) + len(split.test) == len(experimental16)
        train_keys = {r.key for r in split.train}
        assert not train_keys & {r.key for r in split.test}

    def test_deterministic(self, experimental16, split):
        again = ame.split_dataset(experimental16, 0.7, split.split_seed)
        assert again.train == split.train and again.test == split.test

    def test_seed_changes_assignment(self, experimental16, split):
        other = ame.split_dataset(experimental16, 0.7, split.split_seed + 1)
        assert other.train != split.train

    def test_bad_ratio(self, experimental16):
        for ratio in (0.0, 1.0, -0.3):
            with pytest.raises(ConfigurationError):
                ame.split_dataset(experimental16, ratio, 0)

    def test_empty_input(self):
        with pytest.raises(ConfigurationError):
            ame.split_dataset([], 0.7, 0)

    def test_negative_seed(self, experimental16):
        with pytest.raises(ConfigurationError, match="split seed must be >= 0, got -1"):
            ame.split_dataset(experimental16, 0.7, -1)

    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           ratio=st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_split_is_a_partition_property(self, n, seed, ratio):
        records = [make_record(z=8, n=8 + i, be=100.0 + i) for i in range(n)]
        split = ame.split_dataset(records, ratio, seed)
        assert len(split.train) == math.floor(ratio * n)
        assert sorted(r.key for r in split.train + split.test) == \
            sorted(r.key for r in records)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, experimental16, tmp_path):
        path = tmp_path / "records.csv"
        ame.write_records_csv(experimental16, path)
        assert ame.read_records_csv(path) == experimental16

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(MassTableParseError):
            ame.read_records_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        records = [make_record(), make_record(z=9, n=10, be=140.5, estimated=True)]
        path = tmp_path / "records.csv"
        ame.write_records_csv(records, path)
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "\r\n" + rows[0] + "\n\n" + rows[1] + "\n")
        assert ame.read_records_csv(path) == records


HEADER = ",".join(ame.CSV_COLUMNS) + "\n"
GOOD_ROW = "8,8,16,127.619,0.01,0\n"


def cli_error(argv) -> tuple[int, str]:
    """Exit code and standard error of ``nucaug <argv>``."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


class TestStrictRecordsCsv:
    """A malformed canonical CSV is a data error naming its line, and
    `nucaug augment` exits 2 with one line instead of a traceback."""

    @pytest.mark.parametrize("row, message", [
        ("8,9", "2 fields, expected 6"),
        ("8,8,16,127.619,0.01,0,7", "7 fields, expected 6"),
        ("8,8,16,abc,0.01,0", "non-numeric be_total_mev field 'abc'"),
        ("8,8,16,127.619,,0", "non-numeric be_err_mev field ''"),
        ("8.5,8,16,127.619,0.01,0", "non-numeric z field '8.5'"),
        ("8,8,16,127.619,0.01,no", "non-numeric estimated field 'no'"),
        pytest.param("8,8,16,127.619,0.01," + "1" * 200_000, "malformed CSV row",
                     id="field-over-csv-limit"),
        # reads as a number, but augmentation keeps Z and A in int64 arrays
        ("9223372036854775628,180,9223372036854775808,0.0,0.0,0",
         "a field '9223372036854775808': does not fit a 64-bit integer"),
        ("8,8,16,inf,0.01,0", "be_total_mev field 'inf' is not a finite energy"),
        ("8,8,16,127.619,nan,0", "be_err_mev field 'nan' is not a finite energy"),
        # fields that read, in a row that is not a NuclideRecord
        ("8,8,16,-127.619,0.01,0", "negative binding energy for Z=8 A=16"),
        ("8,9,16,127.619,0.01,0", "A != Z + N for Z=8 N=9 A=16"),
        ("8,8,16,127.619,0.01,7", "estimated field '7': expected 0 or 1"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "records.csv"
        path.write_text(HEADER + GOOD_ROW + "\n" + row + "\n" + GOOD_ROW)
        with pytest.raises(MassTableParseError) as exc:
            ame.read_records_csv(path)
        assert exc.value.line_no == 4
        assert message in str(exc.value)

        code, err = cli_error(["augment", str(path), "--technique", "error",
                               "--out", str(tmp_path / "aug.csv")])
        assert code == cli.EXIT_DATA
        assert err.startswith("data error: line 4:") and err.count("\n") == 1

    @pytest.mark.parametrize("column", ["be_total_mev", "be_err_mev"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_energy_is_data_error(self, tmp_path, column, value):
        fields = dict(zip(ame.CSV_COLUMNS, GOOD_ROW.strip().split(",")))
        fields[column] = value
        path = tmp_path / "records.csv"
        path.write_text(HEADER + ",".join(fields.values()) + "\n")
        with pytest.raises(MassTableParseError) as exc:
            ame.read_records_csv(path)
        assert exc.value.line_no == 2
        assert str(exc.value) == f"line 2: {column} field {value!r} is not a finite energy"

        out = tmp_path / "aug.csv"
        code, err = cli_error(["augment", str(path), "--technique", "error",
                               "--out", str(out)])
        assert code == cli.EXIT_DATA
        assert err.count("\n") == 1
        assert not out.exists()
