import pytest

from cfx import classify
from cfx.classify import (
    MemoClassifier,
    MissingRowError,
    Rule,
    RuleClassifier,
    RuleSyntaxError,
    TableClassifier,
    load_rules,
    parse_rules,
)
from cfx.errors import InputError
from cfx.schema import Feature, FeatureSchema
from conftest import T1_ROWS, TENNIS_RULES_TEXT, table_from_function

A_SCHEMA = FeatureSchema((Feature("A", ("0", "1")),))


class TestTableClassifier:
    def test_lookup(self, t1_table):
        assert t1_table.label(("0", "1", "1")) == 1
        assert t1_table.label(("1", "0", "1")) == 0

    def test_total_coverage(self, t1_table):
        assert t1_table.coverage() == (8, 8)

    def test_partial_table_errors_on_missing_row(self, bits_schema):
        partial = TableClassifier(bits_schema, dict(T1_ROWS[:3]))
        assert partial.coverage() == (3, 8)
        with pytest.raises(MissingRowError):
            partial.label(("0", "0", "0"))

    def test_from_csv(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        lines = ["F1,F2,F3,label"]
        lines += [",".join([*vec, str(lab)]) for vec, lab in T1_ROWS]
        p.write_text("\n".join(lines) + "\n")
        clf = TableClassifier.from_csv(p, bits_schema)
        for vec, lab in T1_ROWS:
            assert clf.label(vec) == lab

    def test_from_csv_tolerates_id_column(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        p.write_text("id,F1,F2,F3,label\nr1,0,1,1,1\nr2,0,0,1,0\n")
        clf = TableClassifier.from_csv(p, bits_schema)
        assert clf.label(("0", "1", "1")) == 1
        assert clf.coverage() == (2, 8)

    def test_from_csv_duplicate_row(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,F3,label\n0,1,1,1\n0,1,1,0\n")
        with pytest.raises(InputError, match="duplicate row"):
            TableClassifier.from_csv(p, bits_schema)

    def test_from_csv_missing_columns(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,label\n0,1,1\n")
        with pytest.raises(InputError, match="missing feature columns"):
            TableClassifier.from_csv(p, bits_schema)

    def test_from_csv_bad_label(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,F3,label\n0,1,1,2\n")
        with pytest.raises(InputError, match="label must be 0 or 1"):
            TableClassifier.from_csv(p, bits_schema)

    def test_from_csv_padded_header_and_any_column_order(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        p.write_text(" label ,F3, id,F1 ,F2\n 1 ,1,r1, 0,1\n0,1,r2,0 ,0\n")
        clf = TableClassifier.from_csv(p, bits_schema)
        assert clf.rows == {("0", "1", "1"): 1, ("0", "0", "1"): 0}

    @pytest.mark.parametrize("header", ["F1,F2,F3,F2,label", "F1,F2,F3,label, label"])
    def test_from_csv_column_named_twice(self, tmp_path, bits_schema, header):
        p = tmp_path / "table.csv"
        p.write_text(header + "\n" + ",".join("0" * header.count(",")) + ",1\n")
        with pytest.raises(InputError, match="named more than once"):
            TableClassifier.from_csv(p, bits_schema)

    @pytest.mark.parametrize("row", ["0,1,1", "0,1,1,1,extra"])
    def test_from_csv_wrong_column_count(self, tmp_path, bits_schema, row):
        p = tmp_path / "table.csv"
        p.write_text(f"F1,F2,F3,label\n1,1,1,1\n{row}\n")
        with pytest.raises(InputError, match=r"table\.csv:3: wrong column count"):
            TableClassifier.from_csv(p, bits_schema)

    def test_from_csv_skips_blank_rows(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,F3,label\n\n0,1,1,1\n , , , \n  \n0,0,1,0\n")
        clf = TableClassifier.from_csv(p, bits_schema)
        assert clf.rows == {("0", "1", "1"): 1, ("0", "0", "1"): 0}

    def test_from_csv_domain_error_names_the_line(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,F3,label\n0,1,1,1\n0,2,1,0\n")
        with pytest.raises(
            InputError, match=r"table\.csv:3: value '2' not in domain of feature 'F2'"
        ):
            TableClassifier.from_csv(p, bits_schema)

    def test_from_csv_numbers_rows_by_their_first_line(self, tmp_path):
        # the quoted cell of line 2 runs on to line 3
        p = tmp_path / "q.csv"
        p.write_text('A,label\n"0\n",0\n2,1\n')
        with pytest.raises(InputError) as info:
            TableClassifier.from_csv(p, A_SCHEMA)
        assert str(info.value) == f"{p}:4: value '2' not in domain of feature 'A'"

    def test_from_csv_without_rows(self, tmp_path, bits_schema):
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,F3,label\n")
        with pytest.raises(InputError) as info:
            TableClassifier.from_csv(p, bits_schema)
        assert str(info.value) == f"{p}: truth table has no rows"

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"),
        ("F1,F2,F3\n0,1,1\n", "missing 'label' column"),
    ])
    def test_from_csv_file_errors(self, tmp_path, bits_schema, text, message):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(InputError) as info:
            TableClassifier.from_csv(p, bits_schema)
        assert str(info.value) == f"{p}: {message}"

    def test_from_csv_duplicate_across_chunks_names_the_later_line(
        self, tmp_path, bits_schema, monkeypatch
    ):
        monkeypatch.setattr(classify, "CHUNK_ROWS", 2)
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,F3,label\n0,1,1,1\n0,0,0,0\n1,1,1,1\n0,1,1,0\n")
        with pytest.raises(InputError) as info:
            TableClassifier.from_csv(p, bits_schema)
        assert str(info.value) == f"{p}:5: duplicate row for ('0', '1', '1')"

    def test_from_csv_padded_and_blank_rows_in_the_last_chunk(
        self, tmp_path, bits_schema, monkeypatch
    ):
        monkeypatch.setattr(classify, "CHUNK_ROWS", 2)
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,F3,label\n0,1,1,1\n0,0,0,0\n 1 ,1,\t1,1 \n , , , \n")
        clf = TableClassifier.from_csv(p, bits_schema)
        assert list(clf.rows.items()) == [
            (("0", "1", "1"), 1), (("0", "0", "0"), 0), (("1", "1", "1"), 1),
        ]

    def test_from_csv_bad_row_before_a_narrow_row_of_its_chunk(
        self, tmp_path, bits_schema
    ):
        # read_csv rejects line 3 while the chunk holding line 2 is read
        p = tmp_path / "table.csv"
        p.write_text("F1,F2,F3,label\n0,2,1,1\n0,1\n")
        with pytest.raises(InputError) as info:
            TableClassifier.from_csv(p, bits_schema)
        assert str(info.value) == f"{p}:2: value '2' not in domain of feature 'F2'"

    def test_from_csv_strips_a_cell_that_a_padded_domain_value_matches(self, tmp_path):
        # " a" is in the domain as read, but the cell is stripped to "a"
        p = tmp_path / "table.csv"
        p.write_text("A,label\n a,1\n")
        with pytest.raises(InputError) as info:
            TableClassifier.from_csv(p, FeatureSchema((Feature("A", (" a", "b")),)))
        assert str(info.value) == f"{p}:2: value 'a' not in domain of feature 'A'"
        both = FeatureSchema((Feature("A", (" a", "a")),))
        assert TableClassifier.from_csv(p, both).rows == {("a",): 1}

    def test_from_function_is_total(self, bits_schema):
        clf = table_from_function(
            bits_schema, lambda v: 1 if v.count("1") >= 2 else 0
        )
        assert clf.coverage() == (8, 8)
        assert clf.label(("1", "1", "0")) == 1
        assert clf.label(("1", "0", "0")) == 0

    def test_rejects_bad_vector(self, bits_schema):
        with pytest.raises(InputError):
            TableClassifier(bits_schema, {("0", "1", "2"): 1})

    def test_rejects_empty_table(self, bits_schema):
        with pytest.raises(InputError, match="no rows"):
            TableClassifier(bits_schema, {})

    def test_string_labels(self, bits_schema):
        clf = TableClassifier(bits_schema, {("0", "1", "1"): "1", ("0", "0", "1"): "0"})
        assert clf.rows == {("0", "1", "1"): 1, ("0", "0", "1"): 0}

    def test_keys_equal_as_tuples_are_duplicates(self, bits_schema):
        with pytest.raises(InputError) as info:
            TableClassifier(bits_schema, {("0", "1", "1"): 1, "011": 0})
        assert str(info.value) == "duplicate table row for ('0', '1', '1')"


class TestLabels:
    """A label is the int 0 or 1 or the string "0" or "1", kept as its int;
    ``True`` and ``1.0`` equal 1 but are refused."""

    NOT_LABELS = [True, False, 1.0, 0.0, 2, -1, "01", " 1", "true", None]

    @pytest.mark.parametrize("raw", NOT_LABELS, ids=repr)
    def test_rule_refuses(self, raw):
        with pytest.raises(InputError) as info:
            Rule(((0, "1"),), raw)
        assert str(info.value) == f"rule: label must be 0 or 1, got {raw!r}"

    @pytest.mark.parametrize("raw", NOT_LABELS, ids=repr)
    def test_default_refuses(self, raw):
        with pytest.raises(InputError) as info:
            RuleClassifier(A_SCHEMA, [], raw)
        assert str(info.value) == f"default: label must be 0 or 1, got {raw!r}"

    @pytest.mark.parametrize("raw", NOT_LABELS, ids=repr)
    def test_table_row_refuses(self, raw):
        with pytest.raises(InputError) as info:
            TableClassifier(A_SCHEMA, {("0",): 0, ("1",): raw})
        assert str(info.value) == (
            f"table row ('1',): label must be 0 or 1, got {raw!r}"
        )

    @pytest.mark.parametrize(
        "raw, label", [(0, 0), (1, 1), ("0", 0), ("1", 1)], ids=["0", "1", "'0'", "'1'"]
    )
    def test_labels_are_ints(self, raw, label):
        rule = Rule(((0, "1"),), raw)
        assert (type(rule.label), rule.label) == (int, label)
        clf = RuleClassifier(A_SCHEMA, [rule], raw)
        table = TableClassifier(A_SCHEMA, {("0",): raw, ("1",): raw})
        for backend in (clf, table):
            got = [backend.label(v) for v in (("0",), ("1",))]
            assert [(type(x), x) for x in got] == [(int, label)] * 2


class TestRuleClassifier:
    def test_tennis_labels(self, tennis_clf):
        assert tennis_clf.label(("sunny", "normal", "weak")) == 1
        assert tennis_clf.label(("overcast", "high", "strong")) == 1
        assert tennis_clf.label(("rain", "normal", "weak")) == 1
        assert tennis_clf.label(("sunny", "high", "weak")) == 0
        assert tennis_clf.label(("rain", "normal", "strong")) == 0

    def test_cross_backend_agreement_on_full_space(self, tennis_schema, tennis_clf):
        table = table_from_function(tennis_schema, tennis_clf.label)
        vectors = list(tennis_schema.iter_space())
        assert len(vectors) == 12
        for vec in vectors:
            assert table.label(vec) == tennis_clf.label(vec)

    def test_first_match_wins(self, tennis_schema):
        text = (
            "if Outlook=sunny then 0\n"
            "if Humidity=normal then 1\n"
            "default 1\n"
        )
        clf = parse_rules(text, tennis_schema)
        # first rule shadows the second on sunny entities
        assert clf.label(("sunny", "normal", "weak")) == 0
        assert clf.label(("rain", "normal", "weak")) == 1

    def test_default_alone_is_constant(self, tennis_schema):
        clf = parse_rules("default 0\n", tennis_schema)
        assert all(clf.label(v) == 0 for v in tennis_schema.iter_space())

    def test_comments_and_blank_lines(self, tennis_schema):
        text = (
            "# leading comment\n"
            "\n"
            "if Outlook=overcast then 1  # trailing comment\n"
            "default 0\n"
        )
        clf = parse_rules(text, tennis_schema)
        assert clf.label(("overcast", "high", "weak")) == 1

    def test_vector_length_checked(self, tennis_clf):
        # a short vector must not pass the tests on its missing features
        for values in (("sunny",), ("sunny", "normal", "weak", "x")):
            with pytest.raises(InputError, match="expected 3 values"):
                tennis_clf.label(values)

    def test_rule_value_outside_domain_rejected(self, tennis_schema):
        with pytest.raises(InputError, match="not in its domain"):
            RuleClassifier(tennis_schema, [Rule(((0, "hail"),), 1)], 0)

    def test_load_rules(self, tmp_path, tennis_schema):
        p = tmp_path / "tennis.rules"
        p.write_text(TENNIS_RULES_TEXT)
        clf = load_rules(p, tennis_schema)
        assert clf.label(("sunny", "normal", "weak")) == 1

    def test_load_rules_missing_file(self, tmp_path, tennis_schema):
        with pytest.raises(InputError, match="cannot read"):
            load_rules(tmp_path / "nope.rules", tennis_schema)


class TestRuleSyntaxErrors:
    def err(self, text, schema):
        with pytest.raises(RuleSyntaxError) as info:
            parse_rules(text, schema)
        return info.value

    def test_missing_default(self, tennis_schema):
        e = self.err("if Outlook=sunny then 1\n", tennis_schema)
        assert "default" in str(e)

    def test_content_after_default(self, tennis_schema):
        e = self.err("default 0\nif Outlook=sunny then 1\n", tennis_schema)
        assert e.line == 2

    def test_unknown_feature_position(self, tennis_schema):
        e = self.err("if Rain=yes then 1\ndefault 0\n", tennis_schema)
        assert (e.line, e.column) == (1, 4)
        assert "unknown feature" in str(e)

    def test_value_not_in_domain_position(self, tennis_schema):
        e = self.err("if Outlook=hail then 1\ndefault 0\n", tennis_schema)
        assert (e.line, e.column) == (1, 12)

    def test_missing_then(self, tennis_schema):
        e = self.err("if Outlook=sunny\ndefault 0\n", tennis_schema)
        assert e.line == 1
        assert "then" in str(e)

    def test_missing_equals(self, tennis_schema):
        e = self.err("if Outlook sunny then 1\ndefault 0\n", tennis_schema)
        assert "'='" in str(e)

    def test_bad_label(self, tennis_schema):
        e = self.err("if Outlook=sunny then 2\ndefault 0\n", tennis_schema)
        assert (e.line, e.column) == (1, 23)

    def test_bad_default_label(self, tennis_schema):
        e = self.err("default maybe\n", tennis_schema)
        assert (e.line, e.column) == (1, 9)

    def test_reserved_word_as_feature(self, tennis_schema):
        e = self.err("if and=1 then 1\ndefault 0\n", tennis_schema)
        assert "feature name" in str(e)

    def test_trailing_garbage(self, tennis_schema):
        e = self.err("if Outlook=sunny then 1 extra\ndefault 0\n", tennis_schema)
        assert "unexpected tokens" in str(e)

    @pytest.mark.parametrize("text, reason, line, column", [
        ("if Outlook=sunny then 1\ndefault 0 1\n", "expected: default <0|1>", 2, 1),
        ("  when Outlook=sunny then 1\ndefault 0\n", "expected 'if' or 'default'", 1, 3),
        ("if Outlook=sunny and  \ndefault 0\n", "expected feature = value", 1, 21),
        ("if Outlook=\ndefault 0\n", "expected a value after '='", 1, 4),
        ("if Outlook=sunny then\ndefault 0\n", "expected a label after 'then'", 1, 18),
        ("if Outlook=sunny or Wind=weak then 1\ndefault 0\n",
         "expected 'and' or 'then'", 1, 18),
    ])
    def test_grammar_errors_position(self, tennis_schema, text, reason, line, column):
        e = self.err(text, tennis_schema)
        assert (e.reason, e.line, e.column) == (reason, line, column)

    def test_line_numbers_skip_comments(self, tennis_schema):
        e = self.err("# comment\n\nif Rain=yes then 1\ndefault 0\n", tennis_schema)
        assert e.line == 3

    @pytest.mark.parametrize("text, line", [
        ("default 0\x0c\nif A = 1 then 1\n", 2),
        ("default 0\u2028\nif A = 1 then 1\n", 2),
        ("default 0\r\nif A = 1 then 1\r\n", 2),
        ("default 0\rif A = 1 then 1\r", 2),
    ])
    def test_lines_end_only_at_newlines(self, text, line):
        # a form feed or U+2028 is whitespace inside a line, not a line end
        e = self.err(text, A_SCHEMA)
        assert (str(e), e.line) == (f"line {line}, column 1: content after the default line", line)

    @pytest.mark.parametrize("text, line", [
        ("if A = 1 then 1\n", 2),
        ("if A = 1 then 1\r", 2),
        ("if A = 1 then 1\x0c", 1),
    ])
    def test_missing_default_names_the_last_line(self, text, line):
        e = self.err(text, A_SCHEMA)
        assert (str(e), e.line) == (f"line {line}, column 1: missing default line", line)

    def test_separator_inside_a_rule_is_whitespace(self):
        clf = parse_rules("if A = 1\u2028 then 1\ndefault 0\n", A_SCHEMA)
        assert [clf.label((v,)) for v in ("0", "1")] == [0, 1]


class TestMemoClassifier:
    def test_counts_and_cache(self):
        calls = []

        class Probe:
            def label(self, values):
                calls.append(tuple(values))
                return 1 if values[0] == "1" else 0

        memo = MemoClassifier(Probe())
        assert memo.label(("1", "0", "0")) == 1
        assert memo.label(("1", "0", "0")) == 1
        assert memo.label(("0", "0", "0")) == 0
        assert memo.queries == 3
        assert memo.backend_calls == 2
        assert calls == [("1", "0", "0"), ("0", "0", "0")]

    def test_semantically_invisible(self, t1_table, bits_schema):
        memo = MemoClassifier(t1_table)
        seq = list(bits_schema.iter_space()) * 2
        assert [memo.label(v) for v in seq] == [t1_table.label(v) for v in seq]
