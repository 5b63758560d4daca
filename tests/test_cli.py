"""Command line behavior: exit codes, payload purity, reproducibility."""

import argparse
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from cfx import aspgen, cli, search
from cfx.classify import parse_rules
from cfx.schema import Explanation, load_schema
from cfx.score import fraction_str
from conftest import GOLDEN, T1_ROWS, TENNIS_RULES_TEXT

CHILD = str(Path(__file__).parent / "fixtures" / "tennis_child.py")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
TENNIS_SAMPLE = [
    ("sunny", "normal", "weak"), ("sunny", "high", "weak"),
    ("rain", "normal", "strong"), ("rain", "high", "weak"),
    ("overcast", "high", "strong"), ("sunny", "normal", "weak"),
]


@pytest.fixture
def files(tmp_path):
    """Input files for the two standard examples."""
    bits_schema = tmp_path / "bits_schema.json"
    bits_schema.write_text(json.dumps({
        "features": [
            {"name": "F1", "domain": ["0", "1"]},
            {"name": "F2", "domain": ["0", "1"]},
            {"name": "F3", "domain": ["0", "1"]},
        ]
    }))
    e1 = tmp_path / "e1.json"
    e1.write_text(json.dumps({"id": "e", "values": ["0", "1", "1"]}))
    e7 = tmp_path / "e7.json"
    e7.write_text(json.dumps({"id": "e7", "values": ["0", "0", "1"]}))
    table1 = tmp_path / "table1.csv"
    table1.write_text(
        "F1,F2,F3,label\n"
        + "".join(",".join([*vec, str(lab)]) + "\n" for vec, lab in T1_ROWS)
    )
    tennis_schema = tmp_path / "tennis_schema.json"
    tennis_schema.write_text(json.dumps({
        "features": [
            {"name": "Outlook", "domain": ["sunny", "overcast", "rain"]},
            {"name": "Humidity", "domain": ["high", "normal"]},
            {"name": "Wind", "domain": ["strong", "weak"]},
        ]
    }))
    tennis_rules = tmp_path / "tennis.rules"
    tennis_rules.write_text(TENNIS_RULES_TEXT)
    tennis_entity = tmp_path / "tennis_e.json"
    tennis_entity.write_text(json.dumps({
        "id": "e", "values": ["sunny", "normal", "weak"]
    }))
    constraints = tmp_path / "constraints.json"
    constraints.write_text(json.dumps({
        "denials": [{"literals": [
            {"feature": "Outlook", "value": "rain"},
            {"feature": "Wind", "value": "strong"},
        ]}]
    }))
    always_one = tmp_path / "ones.rules"
    always_one.write_text("default 1\n")
    # zero weights: Outlook=overcast is never resampled, and a contingency
    # set holding it leaves Wind's conditional slice without mass
    (tmp_path / "tennis_marginals.csv").write_text(
        "feature,value,probability\n"
        "Outlook,sunny,1/2\nOutlook,overcast,0\nOutlook,rain,1/2\n"
        "Humidity,high,1/3\nHumidity,normal,2/3\n"
        "Wind,strong,1/4\nWind,weak,3/4\n"
    )
    (tmp_path / "tennis_sample.csv").write_text("id,Outlook,Humidity,Wind\n" + "".join(
        f"s{k},{','.join(vec)}\n" for k, vec in enumerate(TENNIS_SAMPLE)
    ))
    return tmp_path


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_of(err):
    last = err.strip().splitlines()[-1]
    return json.loads(last)["manifest"]


class TestClassify:
    def test_prints_label(self, capsys, files):
        code, out, err = run(capsys, [
            "classify",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
        ])
        assert code == 0
        assert out == "1\n"
        assert manifest_of(err)["command"] == "classify"

    def test_label_zero_is_success(self, capsys, files):
        code, out, _ = run(capsys, [
            "classify",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e7.json"),
            "--table", str(files / "table1.csv"),
        ])
        assert code == 0
        assert out == "0\n"

    def test_constraints_flag_is_usage_error(self, capsys, files):
        # classify labels the entity as given; no constraint applies to it
        with pytest.raises(SystemExit) as info:
            cli.main([
                "classify",
                "--schema", str(files / "bits_schema.json"),
                "--entity", str(files / "e1.json"),
                "--table", str(files / "table1.csv"),
                "--constraints", str(files / "constraints.json"),
            ])
        assert info.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestExplain:
    def argv(self, files, *extra):
        return [
            "explain",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            *extra,
        ]

    def test_json_payload(self, capsys, files):
        code, out, err = run(capsys, self.argv(files))
        assert code == 0
        payload = json.loads(out)
        assert payload["min_cardinality"] == 1
        assert [x["counterfactual"] for x in payload["explanations"]] == [
            ["0", "0", "1"],
            ["1", "0", "1"],
            ["0", "0", "0"],
        ]
        assert payload["exhausted"] is True
        m = manifest_of(err)
        assert m["classifier_calls"] == 8
        assert m["config"]["budget"] is None

    def test_stdout_reproducible(self, capsys, files):
        _, first, _ = run(capsys, self.argv(files))
        _, second, _ = run(capsys, self.argv(files))
        assert first == second

    def test_table_format(self, capsys, files):
        code, out, _ = run(capsys, self.argv(files, "--format", "table"))
        assert code == 0
        assert "s-min" in out.splitlines()[0]
        assert any("F2=1" in line for line in out.splitlines())

    def tennis_argv(self, files, *extra):
        return [
            "explain",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / "tennis.rules"),
            *extra,
        ]

    def test_json_matches_golden_bytes(self, capsys, files):
        # tennis covers all four combinations of the s- and c-minimal flags
        code, out, _ = run(capsys, self.tennis_argv(files))
        assert code == 0
        assert out == (GOLDEN / "tennis_explain.json").read_text(encoding="utf-8")

    def test_table_matches_golden_bytes(self, capsys, files):
        code, out, _ = run(capsys, self.tennis_argv(files, "--format", "table"))
        assert code == 0
        assert out == (GOLDEN / "tennis_explain_table.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_renders_without_explanation_objects(
        self, capsys, files, monkeypatch, fmt, tennis_schema, tennis_clf, tennis_entity
    ):
        # every hit is a row; no explain path may build a per-hit object
        built = []
        init = Explanation.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Explanation, "__init__", counting)
        code, out, _ = run(capsys, self.tennis_argv(files, "--format", fmt))
        assert (code, len(built)) == (0, 0)
        # the counter does see the objects the API's views build
        result = search.enumerate_counterfactuals(tennis_schema, tennis_clf, tennis_entity)
        assert len(result.explanations) == len(built) == 4

    def test_padded_table_header(self, capsys, files):
        padded = files / "padded.csv"
        text = (files / "table1.csv").read_text()
        padded.write_text(text.replace("F1,F2,F3,label", "F1 ,F2, F3,label ", 1))
        code, out, _ = run(capsys, self.argv(files)[:-1] + [str(padded)])
        assert code == 0
        _, expected, _ = run(capsys, self.argv(files))
        assert out == expected

    @pytest.mark.parametrize("text, message", [
        ("F1,F2,F3,F1,label\n0,1,1,0,1\n", "named more than once: ['F1']"),
        ("F1,F2,F3,label\n0,1,1,1\n0,0,1\n", "bad.csv:3: wrong column count"),
        ("F1,F2,F3,label\n0,1,1,1\n0,0,1,0,1\n", "bad.csv:3: wrong column count"),
    ])
    def test_malformed_table_exit_2(self, capsys, files, text, message):
        bad = files / "bad.csv"
        bad.write_text(text)
        code, out, err = run(capsys, self.argv(files)[:-1] + [str(bad)])
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert message in err

    def test_label0_entity_exit_2(self, capsys, files):
        code, out, err = run(capsys, [
            "explain",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e7.json"),
            "--table", str(files / "table1.csv"),
        ])
        assert code == 2
        assert out == ""
        assert "nothing to explain" in err

    def test_no_counterfactual_exit_3(self, capsys, files):
        code, out, _ = run(capsys, [
            "explain",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / "ones.rules"),
        ])
        assert code == 3
        payload = json.loads(out)
        assert payload["no_counterfactual"] is True
        assert payload["explanations"] == []
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_truncated_without_hits_exit_5(self, capsys, files):
        # the one granted candidate, (1,1,1), keeps label 1: nothing is proven
        code, out, _ = run(capsys, self.argv(files, "--budget", "2"))
        assert code == cli.EXIT_INCONCLUSIVE == 5
        payload = json.loads(out)
        assert payload["explanations"] == []
        assert payload["min_cardinality"] is None
        assert payload["no_counterfactual"] is False
        assert payload["exhausted"] is False
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("group", [
        {"features": ["F1", "F2"]},  # the README form
        ["F1", "F2"],  # the bare-list form
    ])
    def test_onehot_constraints_file(self, capsys, files, group):
        onehot = files / "onehot.json"
        onehot.write_text(json.dumps({"onehot": [group]}))
        code, out, _ = run(capsys, self.argv(files, "--constraints", str(onehot)))
        assert code == 0
        # of the three counterfactuals only (1,0,1) sets exactly one of F1, F2
        assert [x["counterfactual"] for x in json.loads(out)["explanations"]] == [
            ["1", "0", "1"],
        ]

    def test_constraints_flag(self, capsys, files):
        code, out, _ = run(capsys, [
            "explain",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / "tennis.rules"),
            "--constraints", str(files / "constraints.json"),
        ])
        assert code == 0
        got = {tuple(x["counterfactual"]) for x in json.loads(out)["explanations"]}
        assert got == {("sunny", "high", "weak"), ("sunny", "high", "strong")}

    def test_malformed_constraints_shape_exit_2(self, capsys, files):
        bad = files / "bad.json"
        bad.write_text(json.dumps({"denials": ["x"]}))
        code, out, err = run(capsys, self.argv(files, "--constraints", str(bad)))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "'denials' must be a list of objects" in err

    def test_missing_table_file_exit_2(self, capsys, files):
        code, _, err = run(capsys, self.argv(files)[:-1] + [str(files / "nope.csv")])
        assert code == 2
        assert "cfx:" in err

    def test_usage_error_exit_1(self, files):
        with pytest.raises(SystemExit) as info:
            cli.main(["explain", "--entity", str(files / "e1.json")])
        assert info.value.code == 1

    def test_backend_flags_are_exclusive(self, files):
        with pytest.raises(SystemExit) as info:
            cli.main([
                "explain",
                "--schema", str(files / "bits_schema.json"),
                "--entity", str(files / "e1.json"),
                "--table", str(files / "table1.csv"),
                "--rules", str(files / "tennis.rules"),
            ])
        assert info.value.code == 1

    def test_entity_from_csv_with_id(self, capsys, files):
        ents = files / "ents.csv"
        ents.write_text("id,F1,F2,F3\ne9,1,1,1\ne,0,1,1\n")
        code, out, _ = run(capsys, [
            "explain",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(ents),
            "--id", "e",
            "--table", str(files / "table1.csv"),
        ])
        assert code == 0
        assert json.loads(out)["entity"] == "e"

    def test_entity_csv_needs_id_when_ambiguous(self, capsys, files):
        ents = files / "ents.csv"
        ents.write_text("id,F1,F2,F3\ne9,1,1,1\ne,0,1,1\n")
        code, _, err = run(capsys, [
            "explain",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(ents),
            "--table", str(files / "table1.csv"),
        ])
        assert code == 2
        assert "--id" in err

    def test_id_with_json_entity_exit_2(self, capsys, files):
        # --id picks a CSV row; a JSON entity has none to pick
        code, out, err = run(capsys, self.argv(files, "--id", "nosuch"))
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert "--id" in err


class TestEntityCsv:
    """``--entity`` with a CSV file: ``--id`` must pick exactly one row."""

    def run_csv(self, capsys, files, text, *extra):
        ents = files / "ents.csv"
        ents.write_text(text)
        return run(capsys, [
            "classify",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(ents),
            "--table", str(files / "table1.csv"),
            *extra,
        ])

    def test_one_row_needs_no_id(self, capsys, files):
        code, out, _ = self.run_csv(capsys, files, "id,F1,F2,F3\ne7,0,0,1\n")
        assert (code, out) == (cli.EXIT_OK, "0\n")

    @pytest.mark.parametrize("text, count", [
        ("id,F1,F2,F3\nk,0,1,1\ne7,0,0,1\nk,0,0,1\n", 2),
        ("id,F1,F2,F3\ne9,1,1,1\ne7,0,0,1\n", 0),
    ])
    def test_id_must_match_one_row(self, capsys, files, text, count):
        code, out, err = self.run_csv(capsys, files, text, "--id", "k")
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert f"--id 'k' must match exactly one row of {files / 'ents.csv'}" in err
        assert f"matches {count}" in err

    def test_bad_value_names_file_and_line(self, capsys, files):
        code, out, err = self.run_csv(
            capsys, files, "id,F1,F2,F3\ne7,0,0,1\nk,0,q,1\n", "--id", "k"
        )
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert f"cfx: {files / 'ents.csv'}:3: value 'q' not in domain of feature 'F2'" in err

    def test_json_entity_value_named_as_entity_value(self, capsys, files):
        bad = files / "bad_e.json"
        bad.write_text(json.dumps({"id": "e", "values": ["0", 1.0, "1"]}))
        code, _, err = run(capsys, [
            "classify",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(bad),
            "--table", str(files / "table1.csv"),
        ])
        assert code == cli.EXIT_INPUT
        assert f"cfx: {bad}: entity values must be strings, got 1.0" in err


class TestNonUtf8Input:
    """Each of the seven input files, undecodable or missing, exits 2 with
    one line that names it."""

    TENNIS = ["--schema", "{d}/tennis_schema.json", "--entity", "{d}/tennis_e.json"]
    RULES = ["--rules", "{d}/tennis.rules"]
    VICTIMS = pytest.mark.parametrize("victim, argv", [
        ("tennis_schema.json", ["explain", *TENNIS, *RULES]),
        ("tennis_e.json", ["explain", *TENNIS, *RULES]),
        ("tennis_e.csv", ["explain", "--schema", "{d}/tennis_schema.json",
                          "--entity", "{d}/tennis_e.csv", *RULES]),
        ("table1.csv", ["explain", "--schema", "{d}/bits_schema.json",
                        "--entity", "{d}/e1.json", "--table", "{d}/table1.csv"]),
        ("tennis.rules", ["explain", *TENNIS, *RULES]),
        ("constraints.json", ["explain", *TENNIS, *RULES,
                              "--constraints", "{d}/constraints.json"]),
        ("tennis_marginals.csv", ["score", *TENNIS, *RULES,
                                  "--prob", "product:{d}/tennis_marginals.csv"]),
    ], ids=["schema", "entity-json", "entity-csv", "table", "rules",
            "constraints", "marginals"])

    @VICTIMS
    def test_exit_2_without_traceback(self, capsys, files, victim, argv):
        (files / "tennis_e.csv").write_text(
            "id,Outlook,Humidity,Wind\ne,sunny,normal,weak\n"
        )
        bad = files / victim
        text = bad.read_bytes()
        bad.write_bytes(text + b"\xff\n")
        code, out, err = run(capsys, [a.format(d=files) for a in argv])
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("cfx: input file is not UTF-8: ")
        # the file and the line of the bad byte, counted from the file's start
        line = text.count(b"\n") + 1
        assert err.startswith(
            f"cfx: input file is not UTF-8: {bad}:{line}: invalid start byte\n"
        )
        assert "Traceback" not in err

    @VICTIMS
    def test_missing_file_exit_2(self, capsys, files, victim, argv):
        (files / "tennis_e.csv").write_text(
            "id,Outlook,Humidity,Wind\ne,sunny,normal,weak\n"
        )
        (files / victim).unlink()
        code, out, err = run(capsys, [a.format(d=files) for a in argv])
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith(
            f"cfx: cannot read {files / victim}: No such file or directory\n"
        )


class TestLoneSurrogate:
    """A \\uXXXX escape can spell half a surrogate pair, which no output
    encoding accepts; the loader refuses it before any command runs."""

    TENNIS = ["--schema", "{d}/tennis_schema.json", "--entity", "{d}/tennis_e.json"]

    @pytest.mark.parametrize("victim, data, argv", [
        ("tennis_schema.json",
         {"features": [
             {"name": "Outlook", "domain": ["sunny", "overcast", "\ud800"]},
             {"name": "Humidity", "domain": ["high", "normal"]},
             {"name": "Wind", "domain": ["strong", "weak"]},
         ]},
         ["explain", *TENNIS, "--rules", "{d}/tennis.rules", "--format", "table"]),
        ("tennis_schema.json",
         {"features": [
             {"name": "Outlook", "domain": ["sunny", "overcast", "\ud800"]},
             {"name": "Humidity", "domain": ["high", "normal"]},
             {"name": "Wind", "domain": ["strong", "weak"]},
         ]},
         ["emit-asp", *TENNIS, "--rules", "{d}/tennis.rules"]),
        ("tennis_e.json",
         {"id": "\udc80", "values": ["sunny", "normal", "weak"]},
         ["emit-asp", *TENNIS, "--rules", "{d}/tennis.rules"]),
        ("constraints.json",
         {"denials": [{"literals": [{"feature": "Wind", "value": "\udfff"}]}]},
         ["explain", *TENNIS, "--rules", "{d}/tennis.rules",
          "--constraints", "{d}/constraints.json"]),
    ], ids=["schema-explain-table", "schema-emit-asp", "entity-id-emit-asp",
            "constraints"])
    def test_exit_2_with_one_line(self, capsys, files, victim, data, argv):
        path = files / victim
        path.write_text(json.dumps(data))  # ensure_ascii keeps the escape
        code, out, err = run(capsys, [a.format(d=files) for a in argv])
        assert code == cli.EXIT_INPUT
        assert out == ""
        message, manifest = err.splitlines()
        assert message == f"cfx: {path}: a string holds a lone surrogate escape"
        assert json.loads(manifest)["manifest"]["command"] == argv[0]

    def test_surrogate_pair_is_one_character(self, capsys, files):
        (files / "tennis_e.json").write_text(
            '{"id": "\\ud83d\\ude00", "values": ["sunny", "normal", "weak"]}'
        )
        code, out, _ = run(capsys, [
            "explain", "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / "tennis.rules"),
        ])
        assert code == cli.EXIT_OK
        assert json.loads(out)["entity"] == "\U0001f600"


class TestErrorsNameTheirFile:
    TENNIS = ["--schema", "{d}/tennis_schema.json", "--entity", "{d}/tennis_e.json"]
    RULES = ["--rules", "{d}/tennis.rules"]

    @pytest.mark.parametrize("victim, data, argv, message", [
        ("tennis_schema.json", {"features": [{"name": "a", "domain": ["x"]}]},
         ["classify", *TENNIS, *RULES], "feature 'a' needs at least two domain values"),
        ("tennis_e.json", {"id": "e", "values": ["sunny"]},
         ["classify", *TENNIS, *RULES], "expected 3 values, got 1"),
        ("constraints.json", {"actionability": [{"feature": "f99", "mode": "fixed"}]},
         ["explain", *TENNIS, *RULES, "--constraints", "{d}/constraints.json"],
         "unknown feature 'f99'"),
        ("constraints.json", {"denials": [{"literals": [{"feature": "f99", "value": "1"}]}]},
         ["score", *TENNIS, *RULES, "--prob", "uniform",
          "--condition", "{d}/constraints.json"],
         "unknown feature 'f99'"),
        ("tennis_schema.json", {"features": {"name": "a"}},
         ["classify", *TENNIS, *RULES], "'features' must be a list"),
        ("tennis_schema.json", {"features": [{"name": "a"}]},
         ["classify", *TENNIS, *RULES], "each feature needs 'name' and 'domain'"),
        ("tennis_schema.json", {"features": [{"name": None, "domain": ["x", "y"]}]},
         ["classify", *TENNIS, *RULES], "feature names must be strings, got None"),
        ("tennis_schema.json", {"features": [{"name": True, "domain": ["x", "y"]}]},
         ["classify", *TENNIS, *RULES],
         "boolean feature names are not supported; use strings"),
        ("tennis_e.json", {"values": ["sunny", "normal", "weak"]},
         ["classify", *TENNIS, *RULES], "entity JSON needs 'id' and 'values'"),
        ("tennis_e.json", {"id": None, "values": ["sunny", "normal", "weak"]},
         ["explain", *TENNIS, *RULES], "entity ids must be strings, got None"),
        ("tennis_e.json", {"id": 1.5, "values": ["sunny", "normal", "weak"]},
         ["explain", *TENNIS, *RULES], "entity ids must be strings, got 1.5"),
        ("tennis_e.json", {"id": {"a": 1}, "values": ["sunny", "normal", "weak"]},
         ["explain", *TENNIS, *RULES], "entity ids must be strings, got {'a': 1}"),
        ("constraints.json", {"actionability": [{"feature": "Wind"}]},
         ["explain", *TENNIS, *RULES, "--constraints", "{d}/constraints.json"],
         "actionability rule needs 'feature' and 'mode'"),
        ("constraints.json", {"actionability": [{"feature": None, "mode": "fixed"}]},
         ["explain", *TENNIS, *RULES, "--constraints", "{d}/constraints.json"],
         "feature names must be strings, got None"),
        ("constraints.json", {"actionability": [{"feature": "Wind", "mode": True}]},
         ["explain", *TENNIS, *RULES, "--constraints", "{d}/constraints.json"],
         "boolean actionability modes are not supported; use strings"),
        ("constraints.json",
         {"denials": [{"literals": [{"feature": "Wind", "value": ["weak"]}]}]},
         ["explain", *TENNIS, *RULES, "--constraints", "{d}/constraints.json"],
         "denial values must be strings, got ['weak']"),
        ("constraints.json", {"denials": [{"literals": [
            {"feature": "Wind", "value": "weak", "polarity": None}]}]},
         ["explain", *TENNIS, *RULES, "--constraints", "{d}/constraints.json"],
         "polarities must be strings, got None"),
        ("constraints.json", {"onehot": [[None, "Wind"]]},
         ["explain", *TENNIS, *RULES, "--constraints", "{d}/constraints.json"],
         "feature names must be strings, got None"),
    ], ids=[
        "schema", "entity", "constraints", "condition",
        "features-not-list", "feature-without-domain", "null-name", "bool-name",
        "entity-without-id", "null-id", "float-id", "object-id",
        "rule-without-mode", "null-rule-feature", "bool-mode",
        "list-denial-value", "null-polarity", "null-onehot-member",
    ])
    def test_json_errors(self, capsys, files, victim, data, argv, message):
        (files / victim).write_text(json.dumps(data))
        code, out, err = run(capsys, [a.format(d=files) for a in argv])
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.splitlines()[0] == f"cfx: {files / victim}: {message}"

    def test_rule_syntax_error(self, capsys, files):
        bad = files / "bad.rules"
        bad.write_text("if Outlook = sunny then 1\n")
        code, out, err = run(capsys, [
            "classify", *(a.format(d=files) for a in self.TENNIS), "--rules", str(bad),
        ])
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.splitlines()[0] == f"cfx: {bad}:2:1: missing default line"


class TestScore:
    def test_x_resp_payload(self, capsys, files):
        code, out, _ = run(capsys, [
            "score",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "x-resp"
        scores = {s["feature"]: s["score"] for s in payload["scores"]}
        assert scores == {"F1": "0/1", "F2": "1/1", "F3": "0/1"}

    def test_prob_uniform(self, capsys, files):
        code, out, _ = run(capsys, [
            "score",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--prob", "uniform",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "resp"
        f2 = next(s for s in payload["scores"] if s["feature"] == "F2")
        assert f2["score"] == "1/2"
        assert f2["gamma"] == {}

    def test_prob_conditioned(self, capsys, files):
        chi = files / "chi.json"
        chi.write_text(json.dumps({
            "denials": [{"literals": [
                {"feature": "F2", "value": "0"},
                {"feature": "F3", "value": "1"},
            ]}]
        }))
        code, out, _ = run(capsys, [
            "score",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--prob", "uniform",
            "--condition", str(chi),
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["condition"] == str(chi)

    def test_condition_without_prob_exit_2(self, capsys, files):
        chi = files / "chi.json"
        chi.write_text(json.dumps({"denials": [{"literals": [
            {"feature": "F2", "value": "0"},
        ]}]}))
        code, _, err = run(capsys, [
            "score",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--condition", str(chi),
        ])
        assert code == 2
        assert "--condition needs --prob" in err

    def test_bad_prob_spec_exit_2(self, capsys, files):
        code, _, err = run(capsys, [
            "score",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--prob", "gaussian",
        ])
        assert code == 2
        assert "--prob" in err

    def test_all_zero_scores_exit_3(self, capsys, files):
        code, out, _ = run(capsys, [
            "score",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / "ones.rules"),
        ])
        assert code == 3
        payload = json.loads(out)
        assert all(s["score"] == "0/1" for s in payload["scores"])

    def test_truncated_x_resp_exit_5(self, capsys, files):
        code, out, _ = run(capsys, [
            "score",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--budget", "2",
        ])
        assert code == cli.EXIT_INCONCLUSIVE
        payload = json.loads(out)
        assert payload["authoritative"] is False
        assert all(s["score"] == "0/1" for s in payload["scores"])

    def prob_argv(self, files, *extra, rules="ones.rules"):
        return [
            "score",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / rules),
            "--prob", "uniform",
            *extra,
        ]

    def test_prob_all_zero_exit_3(self, capsys, files):
        code, out, _ = run(capsys, self.prob_argv(files))
        assert code == cli.EXIT_NO_COUNTERFACTUAL
        rows = json.loads(out)["scores"]
        assert all(r["score"] == "0/1" and not r["truncated"] for r in rows)

    def test_prob_truncated_rows_exit_5(self, capsys, files):
        # --max-card 1 cuts contingency sets to size 0, so the constant
        # classifier leaves every row zero and truncated: a larger set might
        # still score
        code, out, _ = run(capsys, self.prob_argv(files, "--max-card", "1"))
        assert code == cli.EXIT_INCONCLUSIVE
        rows = json.loads(out)["scores"]
        assert all(r["score"] == "0/1" and r["truncated"] for r in rows)

    def test_prob_max_card_bounds_contingency_sets(self, capsys, files):
        # Outlook and Wind score only with a one-feature contingency set,
        # which a counterfactual of two changes allows and one does not
        argv = self.prob_argv(files, "--max-card", "1", rules="tennis.rules")
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_OK
        rows = {r["feature"]: r for r in json.loads(out)["scores"]}
        assert [(r["score"], r["truncated"]) for r in rows.values()] == [
            ("0/1", True), ("1/2", False), ("0/1", True),
        ]
        assert manifest_of(err)["config"] == {
            "max_cardinality": 1, "prob": "uniform", "condition": None,
        }
        argv = self.prob_argv(files, "--max-card", "2", rules="tennis.rules")
        code, out, _ = run(capsys, argv)
        assert code == cli.EXIT_OK
        rows = {r["feature"]: r for r in json.loads(out)["scores"]}
        assert rows["Outlook"]["score"] == "1/6"
        assert rows["Outlook"]["gamma"] == {"Wind": "strong"}
        assert rows["Wind"]["gamma"] == {"Outlook": "rain"}
        assert not any(r["truncated"] for r in rows.values())

    @pytest.mark.parametrize("inputs, prob, calls, scores", [
        (("bits_schema.json", "e1.json", "--table", "table1.csv"),
         "uniform", (14, 7), ["0/1", "1/2", "0/1"]),
        (("tennis_schema.json", "tennis_e.json", "--rules", "tennis.rules"),
         "product:tennis_marginals.csv", (13, 6), ["1/4", "1/3", "1/8"]),
        (("tennis_schema.json", "tennis_e.json", "--rules", "tennis.rules"),
         "empirical:tennis_sample.csv", (11, 6), ["1/2", "1/3", "1/2"]),
        (("tennis_schema.json", "tennis_e.json", "--rules", "tennis.rules",
          "--condition", "constraints.json"),
         "empirical:tennis_sample.csv", (13, 9), ["0/1", "1/3", "0/1"]),
    ])
    def test_prob_call_counts(self, capsys, files, inputs, prob, calls, scores):
        # label queries and cache misses of one global_resp walk per
        # feature: one query for the entity, one per nonempty contingency
        # candidate, plus, for each candidate that keeps label 1 (the empty
        # one included), one per other value of the scrutinized feature
        # with weight in its slice
        schema, entity, backend, model, *condition = inputs
        prob = prob.replace(":", f":{files}/", 1)
        code, out, err = run(capsys, [
            "score",
            "--schema", str(files / schema),
            "--entity", str(files / entity),
            backend, str(files / model),
            "--prob", prob,
            *(x if x.startswith("--") else str(files / x) for x in condition),
        ])
        assert code == cli.EXIT_OK
        assert [r["score"] for r in json.loads(out)["scores"]] == scores
        manifest = manifest_of(err)
        assert (manifest["classifier_calls"], manifest["backend_calls"]) == calls

    @pytest.mark.parametrize("extra, message", [
        (["--budget", "2"], "--budget does not apply to --prob"),
        (["--constraints", "constraints.json"], "--constraints does not apply"),
        (["--max-card", "0"], "max_cardinality must be >= 1"),
    ])
    def test_prob_rejects_unhonoured_flags(self, capsys, files, extra, message):
        extra = [str(files / x) if x.endswith(".json") else x for x in extra]
        argv = self.prob_argv(files, *extra, rules="tennis.rules")
        code, out, err = run(capsys, argv)
        assert code == cli.EXIT_INPUT
        assert out == ""
        assert message in err

    def test_prob_manifest_echoes_no_budget(self, capsys, files):
        # the default external budget caps searches; --prob runs none
        code, _, err = run(capsys, [
            "score",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--external", f"{sys.executable} {CHILD} ok",
            "--prob", "uniform",
        ])
        assert code == cli.EXIT_OK
        assert manifest_of(err)["config"] == {
            "max_cardinality": None, "prob": "uniform", "condition": None,
        }

    def test_table_format(self, capsys, files):
        code, out, _ = run(capsys, [
            "score",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--format", "table",
        ])
        assert code == 0
        assert out.splitlines()[0].startswith("feature")

    def tennis_argv(self, files, *extra):
        extra = [
            x.replace(":", f":{files}/", 1) if x.startswith(("product:", "empirical:")) else x
            for x in extra
        ]
        return [
            "score",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / "tennis.rules"),
            *extra,
        ]

    @pytest.mark.parametrize("extra, golden", [
        ((), "tennis_score_table.txt"),
        (("--max-card", "1"), "tennis_score_table_card1.txt"),
        (("--prob", "product:tennis_marginals.csv"), "tennis_prob_table.txt"),
        (("--prob", "uniform", "--max-card", "1"), "tennis_prob_table_card1.txt"),
    ])
    def test_table_format_matches_golden_bytes(self, capsys, files, extra, golden):
        code, out, _ = run(capsys, self.tennis_argv(files, "--format", "table", *extra))
        assert code == cli.EXIT_OK
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_x_resp_json_matches_golden_bytes(self, capsys, files):
        code, out, _ = run(capsys, self.tennis_argv(files))
        assert code == cli.EXIT_OK
        assert out == (GOLDEN / "tennis_score.json").read_text(encoding="utf-8")

    def test_prob_json_matches_golden_bytes(self, capsys, files, monkeypatch):
        # pins score, score_decimal, the gamma dicts and truncated; the
        # relative path keeps the echoed distribution spec stable
        monkeypatch.chdir(files)
        argv = self.tennis_argv(files)
        code, out, _ = run(capsys, [*argv, "--prob", "product:tennis_marginals.csv"])
        assert code == cli.EXIT_OK
        assert out == (GOLDEN / "tennis_prob.json").read_text(encoding="utf-8")

    def test_prob_empirical_matches_oracle(self, capsys, files):
        self.check_empirical(capsys, files)

    def test_prob_empirical_conditioned_matches_oracle(self, capsys, files):
        # constraints.json forbids Outlook=rain with Wind=strong
        self.check_empirical(
            capsys, files, "--condition", str(files / "constraints.json"),
            keep=lambda vec: (vec[0], vec[2]) != ("rain", "strong"),
        )

    def check_empirical(self, capsys, files, *extra, keep=lambda vec: True):
        argv = self.tennis_argv(files, "--prob", "empirical:tennis_sample.csv", *extra)
        code, out, _ = run(capsys, argv)
        assert code == cli.EXIT_OK
        schema = load_schema(files / "tennis_schema.json")
        label = parse_rules(TENNIS_RULES_TEXT, schema).label
        domains = [f.domain for f in schema.features]
        entity = ("sunny", "normal", "weak")
        table = oracles.condition_table(oracles.empirical_table(TENNIS_SAMPLE), keep)
        rows = json.loads(out)["scores"]
        assert [r["value"] for r in rows] == list(entity)
        for i, row in enumerate(rows):
            score, gamma, values = oracles.global_resp(domains, entity, label, i, table)
            assert row["score"] == fraction_str(score)
            assert row["gamma"] == (
                None if gamma is None else dict(zip((schema.names[j] for j in gamma), values))
            )

    @pytest.mark.parametrize("condition, message", [
        ({"denials": [{"literals": [{"feature": "Wind", "value": "weak"}]}],
          "actionability": [{"feature": "Wind", "mode": "fixed"}]},
         "only denial constraints can condition a distribution"),
        ({"onehot": []}, "holds no denial constraints"),
    ])
    def test_condition_errors_exit_2(self, capsys, files, condition, message):
        (files / "cond.json").write_text(json.dumps(condition))
        argv = self.tennis_argv(files, "--prob", "uniform", "--condition", str(files / "cond.json"))
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith(f"cfx: {files / 'cond.json'}: ")
        assert message in err

    @pytest.mark.parametrize("row, message", [
        ("Wind,calm,1/4", "marginal of 'Wind' mentions 'calm', not in its domain"),
        ("Temp,hot,1", "unknown feature 'Temp'"),
    ])
    def test_marginals_error_names_file_and_line(self, capsys, files, row, message):
        text = (files / "tennis_marginals.csv").read_text().replace("Wind,strong,1/4", row)
        (files / "marginals.csv").write_text(text)
        code, out, err = run(capsys, self.tennis_argv(files, "--prob", "product:marginals.csv"))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert f"cfx: {files / 'marginals.csv'}:7: {message}" in err

    @pytest.mark.parametrize("old, new, message", [
        ("Wind,strong,1/4\nWind,weak,3/4\n", "", "marginal of 'Wind' sums to 0.0, not 1"),
        ("Wind,weak,3/4", "Wind,weak,-1", "negative weight in marginal of 'Wind'"),
    ], ids=["no-rows", "negative-weight"])
    def test_marginal_sum_error_names_file(self, capsys, files, old, new, message):
        text = (files / "tennis_marginals.csv").read_text()
        (files / "marginals.csv").write_text(text.replace(old, new))
        code, out, err = run(capsys, self.tennis_argv(files, "--prob", "product:marginals.csv"))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert f"cfx: {files / 'marginals.csv'}: {message}\n" in err

    def test_sample_error_names_file_and_line(self, capsys, files):
        (files / "sample.csv").write_text(
            "id,Outlook,Humidity,Wind\ns0,sunny,high,weak\n\ns1,rain,q,weak\n"
        )
        code, out, err = run(capsys, self.tennis_argv(files, "--prob", "empirical:sample.csv"))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert (
            f"cfx: {files / 'sample.csv'}:4: value 'q' not in domain of feature 'Humidity'"
            in err
        )


class TestEmitAsp:
    def test_stdout_program(self, capsys, files):
        code, out, err = run(capsys, [
            "emit-asp",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--weak", "--count",
        ])
        assert code == 0
        golden = (Path(__file__).parent / "golden" / "table1_weak_count.lp").read_text()
        assert out == golden
        assert manifest_of(err)["config"]["classifier_embedding"] == "facts"

    def test_out_file_and_section_index(self, capsys, files, tmp_path):
        target = tmp_path / "program.lp"
        code, out, _ = run(capsys, [
            "emit-asp",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--out", str(target),
        ])
        assert code == 0
        index = json.loads(out)
        assert index[0]["section"] == "header"
        assert target.read_text().startswith("#include<ListAndSet>")

    def test_constraints_emit_hard_section(self, capsys, files, tmp_path):
        constraints = files / "hard.json"
        constraints.write_text(json.dumps({
            "denials": [{"literals": [
                {"feature": "F1", "value": "1"},
                {"feature": "F3", "value": "0"},
            ]}],
            "actionability": [{"feature": "F3", "mode": "fixed"}],
            "onehot": [{"features": ["F1", "F2"]}],
        }))
        argv = [
            "emit-asp",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--constraints", str(constraints),
        ]
        # the denial, the value that fixing F3 forbids, then the one-hot
        # lines: F1 and F2 not both set, not both clear
        hard = [
            "% hard constraints",
            ":- ent(E,1,X,0,tr).",
            ":- ent(E,X,Y,0,tr).",
            ":- ent(E,1,1,X,tr).",
            ":- ent(E,0,0,X,tr).",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out.endswith("\n\n" + "\n".join(hard) + "\n")
        target = tmp_path / "program.lp"
        code, index, _ = run(capsys, [*argv, "--out", str(target)])
        assert code == 0
        assert target.read_text() == out
        entry = json.loads(index)[-1]
        assert entry["section"] == "hard"
        lines = out.splitlines()
        assert lines[entry["start"] - 1 : entry["end"]] == hard
        assert entry["end"] == len(lines)

    def test_out_write_error_exit_2(self, capsys, files, tmp_path):
        target = tmp_path / "missing" / "program.lp"
        code, out, err = run(capsys, [
            "emit-asp",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--out", str(target),
        ])
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith(f"cfx: cannot write {target}: ")
        assert not target.parent.exists()

    def test_rules_embedding_default(self, capsys, files):
        code, out, err = run(capsys, [
            "emit-asp",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / "tennis.rules"),
            "--feature-tokens", "names",
            "--count",
        ])
        assert code == 0
        golden = (Path(__file__).parent / "golden" / "tennis_rules.lp").read_text()
        assert out == golden
        assert manifest_of(err)["config"]["classifier_embedding"] == "rules"

    def test_external_stub_without_backend(self, capsys, files):
        code, out, err = run(capsys, [
            "emit-asp",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--dialect", "asp-core-2",
            "--feature-tokens", "names",
            "--count",
        ])
        assert code == 0
        golden = (Path(__file__).parent / "golden" / "tennis_external.lp").read_text()
        assert out == golden
        assert manifest_of(err)["config"]["classifier_embedding"] == "external-stub"

    def test_shift_flag(self, capsys, files):
        code, out, _ = run(capsys, [
            "emit-asp",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
            "--shift",
        ])
        assert code == 0
        assert " v " not in out
        assert out.count("not ent(") == 6

    def test_facts_embedding_needs_table(self, capsys, files):
        # the backend flag picks the embedding; there is no flag to override it
        with pytest.raises(SystemExit) as info:
            cli.main([
                "emit-asp",
                "--schema", str(files / "bits_schema.json"),
                "--entity", str(files / "e1.json"),
                "--rules", str(files / "tennis.rules"),
                "--classifier", "facts",
            ])
        assert info.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_external_flag_is_usage_error(self, capsys, files):
        # emit-asp runs no classifier; the stub is emitted without a backend
        with pytest.raises(SystemExit) as info:
            cli.main([
                "emit-asp",
                "--schema", str(files / "tennis_schema.json"),
                "--entity", str(files / "tennis_e.json"),
                "--dialect", "asp-core-2",
                "--external", f"{sys.executable} {CHILD} ok",
            ])
        assert info.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_backslash_value_emits_lint_clean_program(self, capsys, files, tmp_path):
        schema = tmp_path / "path_schema.json"
        schema.write_text(json.dumps({"features": [
            {"name": "Path", "domain": ["C:\\", "tmp"]},
            {"name": "F2", "domain": ["0", "1"]},
        ]}))
        entity = tmp_path / "path_e.json"
        entity.write_text(json.dumps({"id": "e", "values": ["C:\\", "0"]}))
        table = tmp_path / "path_table.csv"
        table.write_text('Path,F2,label\n"C:\\",0,1\n"C:\\",1,1\ntmp,0,0\ntmp,1,0\n')
        code, out, _ = run(capsys, [
            "emit-asp",
            "--schema", str(schema),
            "--entity", str(entity),
            "--table", str(table),
        ])
        assert code == 0
        assert 'dom1("C:\\\\"). dom1(tmp).' in out
        assert aspgen.lint_cip(out) == []


class TestPartialTable:
    """A truth table missing rows is announced on stderr before any use."""

    NOTE = "cfx: note: truth table covers 3 of 12 vectors; queries outside it fail\n"

    def argv(self, files, command):
        table = files / "partial.csv"
        table.write_text(
            "Outlook,Humidity,Wind,label\n"
            "sunny,normal,weak,1\nsunny,high,weak,0\nrain,normal,strong,0\n"
        )
        return [
            command,
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--table", str(table),
        ]

    def test_explain_notes_then_fails_in_backend(self, capsys, files):
        code, out, err = run(capsys, self.argv(files, "explain"))
        assert (code, out) == (cli.EXIT_BACKEND, "")
        lines = err.splitlines(keepends=True)
        assert lines[0] == self.NOTE
        assert lines[1].startswith("cfx: classifier backend failure: no table row for ")

    def test_emit_asp_notes_then_refuses_facts(self, capsys, files):
        code, out, err = run(capsys, self.argv(files, "emit-asp"))
        assert (code, out) == (cli.EXIT_INPUT, "")
        lines = err.splitlines(keepends=True)
        assert lines[0] == self.NOTE
        assert lines[1].startswith("cfx: facts embedding needs a total truth table")


class TestStartup:
    @staticmethod
    def loaded(imports, modules, *flags):
        """Which of ``modules`` a fresh interpreter holds after ``imports``."""
        code = f"import sys, {imports}; print([m for m in {modules!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_cli_import_leaves_aspgen_out(self):
        # only the subcommands that run them import these
        lazy = ("cfx.aspgen", "cfx.score", "fractions", "subprocess", "select", "shlex")
        assert self.loaded("cfx.cli", lazy) == "[]\n"

    def test_no_command_imports_dataclasses(self):
        # the value classes are hand-written; these two modules cost more to
        # import than the rest of the package. -S: a .pth file of the
        # site-packages may import them on its own
        slow = ("dataclasses", "inspect")
        assert self.loaded("cfx.cli, cfx.score, cfx.aspgen", slow, "-S") == "[]\n"

    def test_emit_asp_choices_are_aspgen_constants(self):
        parser = cli.build_parser()
        (sub,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        emit = sub.choices["emit-asp"]
        actions = {a.dest: a for a in emit._actions}
        assert tuple(actions["dialect"].choices) == aspgen.DIALECTS
        tokens = actions["feature_tokens"].choices
        assert tuple(tokens) == (aspgen.INDICES, aspgen.NAMES)
        defaults = aspgen.CipOptions()
        assert actions["dialect"].default == defaults.dialect
        assert actions["feature_tokens"].default == defaults.feature_tokens


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
class TestStdoutWriteFailure:
    """A payload that stdout cannot take exits 2 with one line naming the
    reason, whether the write fails at once (unbuffered) or only when the
    buffer is flushed."""

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_exit_2(self, files, unbuffered):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        argv = [
            sys.executable, "-m", "cfx.cli", "classify",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
        ]
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env
            )
        assert result.returncode == cli.EXIT_INPUT
        reason, manifest = result.stderr.splitlines()
        assert reason == f"cfx: cannot write stdout: {os.strerror(errno.ENOSPC)}"
        assert manifest_of(manifest)["classifier_calls"] == 1


class TestExternalBackend:
    def argv(self, files, mode="ok"):
        return [
            "explain",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--external", f"{sys.executable} {CHILD} {mode}",
        ]

    def test_explain_via_wire(self, capsys, files):
        code, out, err = run(capsys, self.argv(files))
        assert code == 0
        payload = json.loads(out)
        assert payload["min_cardinality"] == 1
        m = manifest_of(err)
        assert m["config"]["budget"] == 10000  # default cap for child processes
        assert m["backend_calls"] <= m["classifier_calls"]

    def test_dead_child_exit_4(self, capsys, files):
        code, out, err = run(capsys, self.argv(files, "die"))
        assert code == 4
        assert out == ""
        assert "backend failure" in err


class TestConsoleScript:
    """The ``cfx`` console script, run as its own process.

    The target is read from ``[project.scripts]`` and called the way an
    installer-generated wrapper calls it, so the check needs no install
    and cannot pick up a ``cfx`` from another copy on PATH.
    """

    def script_target(self, name):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            return tomllib.load(fh)["project"]["scripts"][name]

    def run_script(self, target, args, cwd):
        module, _, attr = target.partition(":")
        wrapper = (
            "import importlib, sys\n"
            f"func = getattr(importlib.import_module({module!r}), {attr!r})\n"
            "sys.argv[0] = 'cfx'\n"
            "sys.exit(func())\n"
        )
        # the child imports the same cfx as this process, whatever the cwd
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        return subprocess.run(
            [sys.executable, "-c", wrapper, *args],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_python_m_runs_the_cli(self, files):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        argv = [
            sys.executable, "-m", "cfx.cli", "classify",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
        ]
        result = subprocess.run(argv, capture_output=True, text=True, cwd=files, env=env)
        assert (result.returncode, result.stdout) == (cli.EXIT_OK, "1\n")
        result = subprocess.run(argv[:3], capture_output=True, text=True, cwd=files, env=env)
        assert (result.returncode, result.stdout) == (cli.EXIT_USAGE, "")

    @pytest.mark.parametrize("extra", [
        ["explain", "--rules", "tennis.rules"],
        ["score", "--rules", "tennis.rules", "--prob", "uniform"],
        ["emit-asp", "--rules", "tennis.rules", "--weak", "--count"],
    ], ids=["explain", "score-prob", "emit-asp"])
    def test_stdout_reproducible_across_processes(self, files, extra):
        # fresh interpreters with different string hashing print the same bytes
        argv = [
            sys.executable, "-m", "cfx.cli", extra[0],
            "--schema", "tennis_schema.json", "--entity", "tennis_e.json", *extra[1:],
        ]
        outputs = []
        for seed in ("0", "12345"):
            env = {
                **os.environ,
                "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
                "PYTHONHASHSEED": seed,
            }
            result = subprocess.run(argv, capture_output=True, cwd=files, env=env)
            assert result.returncode == cli.EXIT_OK, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] and outputs[0] == outputs[1]

    def test_installed_entrypoint(self, files):
        target = self.script_target("cfx")
        assert target == "cfx.cli:entrypoint"
        argv = [
            "classify",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(files / "table1.csv"),
        ]
        result = self.run_script(target, argv, cwd=files)
        assert result.returncode == 0
        assert result.stdout == "1\n"
        assert json.loads(result.stderr.strip().splitlines()[-1])["manifest"]
        # a nonzero code returned by main() must become the exit status
        argv[argv.index("--entity") + 1] = str(files / "nope.json")
        result = self.run_script(target, argv, cwd=files)
        assert result.returncode == cli.EXIT_INPUT
        assert result.stdout == ""
