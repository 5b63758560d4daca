"""Command line behavior: exit codes, payload purity, reproducibility."""

import argparse
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import oracles
from cfx import aspgen, cli, search
from cfx.classify import MemoClassifier, parse_rules
from cfx.schema import Explanation, load_entity, load_schema
from cfx.score import UniformDistribution, fraction_str, global_resp
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


class TestCollectorPause:
    """``main`` runs with the cyclic collector off and leaves it as it found
    it, since callers such as this test process run it in their own."""

    @pytest.mark.parametrize("entity, code", [("e1.json", 0), ("missing.json", 2)])
    @pytest.mark.parametrize("was_on", [True, False])
    def test_collector_restored(self, capsys, files, monkeypatch, entity, code, was_on):
        during = []
        load = cli.load_schema

        def recording(path):
            during.append(gc.isenabled())
            return load(path)

        monkeypatch.setattr(cli, "load_schema", recording)
        before = gc.isenabled()
        (gc.enable if was_on else gc.disable)()
        try:
            got = run(capsys, [
                "classify",
                "--schema", str(files / "bits_schema.json"),
                "--entity", str(files / entity),
                "--table", str(files / "table1.csv"),
            ])[0]
            assert gc.isenabled() == was_on
        finally:
            (gc.enable if before else gc.disable)()
        assert (got, during) == (code, [False])


class KeptSpool(io.StringIO):
    """A stand-in for explain's temporary file that keeps its text when
    closed; ``fails`` names what raises, if anything: "open" (making it),
    "write" or "read"."""

    def __init__(self, fails=None):
        super().__init__()
        self.fails = fails
        self.kept = None
        self._check("open")

    def _check(self, method):
        if method == self.fails:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, text):
        self._check("write")
        return super().write(text)

    def read(self, size=-1):
        self._check("read")
        return super().read(size)

    def close(self):
        if self.kept is None:
            self.kept = self.getvalue()
        super().close()


@pytest.fixture
def spools(monkeypatch):
    """Every temporary file that explain opens in the test, each a KeptSpool."""
    made = []

    def opener(*args, **kwargs):
        made.append(KeptSpool())
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", opener)
    return made


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

    def test_payload_goes_through_one_spool(self, capsys, files, spools):
        code, out, _ = run(capsys, self.argv(files))
        assert code == 0
        assert [spool.kept for spool in spools] == [out]

    def test_table_format_prints_without_a_spool(self, capsys, files, spools):
        code, out, _ = run(capsys, self.argv(files, "--format", "table"))
        assert (code, spools) == (0, [])
        assert out.startswith("changed (original values)")

    # opening the file and writing the head come before level 1 is asked
    @pytest.mark.parametrize("method, calls", [("open", 1), ("write", 1), ("read", 8)])
    def test_spool_that_fails_exit_2(self, capsys, files, monkeypatch, method, calls):
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda *a, **k: KeptSpool(method))
        code, out, err = run(capsys, self.argv(files))
        assert (code, out) == (cli.EXIT_INPUT, "")
        reason, manifest = err.splitlines()
        assert reason == (
            "cfx: cannot hold the payload in a temporary file: "
            f"{os.strerror(errno.ENOSPC)}"
        )
        assert manifest_of(manifest)["classifier_calls"] == calls

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


class TestEmptyFlagValue:
    """A flag given the empty string names that path or command and is
    rejected, never taken as absent."""

    TENNIS = ["--schema", "{d}/tennis_schema.json", "--entity", "{d}/tennis_e.json"]
    RULES = ["--rules", "{d}/tennis.rules"]

    @pytest.mark.parametrize("argv, message", [
        (["explain", *TENNIS, "--table", ""], "cannot read '': "),
        (["explain", *TENNIS, "--rules", ""], "cannot read '': "),
        (["explain", *TENNIS, "--external", ""], "external classifier command is empty"),
        (["explain", *TENNIS, *RULES, "--constraints", ""], "cannot read '': "),
        (["score", *TENNIS, *RULES, "--condition", ""], "--condition needs --prob"),
        (["score", *TENNIS, *RULES, "--prob", "uniform", "--condition", ""],
         "cannot read '': "),
        (["emit-asp", *TENNIS, *RULES, "--out", ""], "cannot write '': "),
    ], ids=[
        "table", "rules", "external", "constraints", "condition", "prob-condition", "out",
    ])
    def test_rejected(self, capsys, files, argv, message):
        # an empty path shows as '' in the message, not as nothing
        code, out, err = run(capsys, [a.format(d=files) for a in argv])
        assert (code, out) == (cli.EXIT_INPUT, "")
        line, manifest = err.splitlines()
        assert line.startswith("cfx: " + message)
        assert manifest_of(manifest)["command"] == argv[0]


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

    def test_prob_conditioned_on_a_large_space(self, capsys, tmp_path):
        # 3^13 vectors, past the 2^20 that conditioning may scan: it stops
        # at the first one with mass, and the one-rule model's walk at
        # --max-card 1 stays small
        n = 13
        names = [f"F{i + 1}" for i in range(n)]
        (tmp_path / "schema.json").write_text(json.dumps(
            {"features": [{"name": name, "domain": ["0", "1", "2"]} for name in names]}
        ))
        (tmp_path / "e.json").write_text(json.dumps({"id": "e", "values": ["0"] * n}))
        (tmp_path / "model.rules").write_text("if F1=0 then 1\ndefault 0\n")
        (tmp_path / "chi.json").write_text(json.dumps({"denials": [{"literals": [
            {"feature": "F2", "value": "0"}, {"feature": "F3", "value": "1"},
        ]}]}))
        code, out, err = run(capsys, [
            "score",
            "--schema", str(tmp_path / "schema.json"),
            "--entity", str(tmp_path / "e.json"),
            "--rules", str(tmp_path / "model.rules"),
            "--prob", "uniform", "--max-card", "1",
            "--condition", str(tmp_path / "chi.json"),
        ])
        assert code == cli.EXIT_OK, err
        scores = {row["feature"]: row["score"] for row in json.loads(out)["scores"]}
        assert scores == {"F1": "2/3", **{name: "0/1" for name in names[1:]}}

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
         "product:tennis_marginals.csv", (11, 5), ["1/4", "1/3", "1/8"]),
        (("tennis_schema.json", "tennis_e.json", "--rules", "tennis.rules"),
         "empirical:tennis_sample.csv", (9, 5), ["1/2", "1/3", "1/2"]),
        (("tennis_schema.json", "tennis_e.json", "--rules", "tennis.rules",
          "--condition", "constraints.json"),
         "empirical:tennis_sample.csv", (8, 5), ["0/1", "1/3", "0/1"]),
    ])
    def test_prob_call_counts(self, capsys, files, inputs, prob, calls, scores):
        # label queries and cache misses of one global_resp walk per
        # feature: one query for the entity; then, for each contingency
        # candidate before the best pair of its size reaches the loss cap
        # and whose slice could still beat that pair, one query for the
        # candidate unless it is the empty one, and, if it keeps label 1,
        # one per other value of the scrutinized feature with weight in
        # its slice
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

    @pytest.mark.parametrize("command, inputs, calls", [
        ("explain", ("bits_schema.json", "e1.json", "--table", "table1.csv"), (8, 8)),
        ("explain", ("tennis_schema.json", "tennis_e.json", "--rules", "tennis.rules"),
         (12, 12)),
        ("score", ("bits_schema.json", "e1.json", "--table", "table1.csv"), (5, 5)),
        ("score", ("tennis_schema.json", "tennis_e.json", "--rules", "tennis.rules"),
         (7, 7)),
    ], ids=["explain-table1", "explain-tennis", "score-table1", "score-tennis"])
    def test_walk_call_counts(self, capsys, files, command, inputs, calls):
        # label calls of one lattice walk: the entity, then each candidate
        # once, every one for explain; score asks no index set that holds a
        # smaller minimal one: after the minimal {F2} (table1) or {Humidity}
        # (tennis) on level 1, level 2 asks only the other pair's candidates
        # (1 and 2), and level 3 holds no other set; no query repeats, so
        # both counts are the same
        schema, entity, backend, model = inputs
        code, _, err = run(capsys, [
            command,
            "--schema", str(files / schema),
            "--entity", str(files / entity),
            backend, str(files / model),
        ])
        assert code == cli.EXIT_OK
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

    @pytest.mark.parametrize("weight, message", [
        ("1e5000", ":8: cannot parse probability '1e5000'"),
        ("1e400", ": marginal of 'Wind' sums to 1e+400, not 1"),
    ], ids=["exponent-past-bound", "sum-past-float"])
    def test_huge_decimal_exponent_exit_2(self, capsys, files, weight, message):
        # an exponent past the bound is refused before Fraction builds
        # 10**exp, and a sum past a float's range is still printed
        text = (files / "tennis_marginals.csv").read_text()
        (files / "marginals.csv").write_text(text.replace("Wind,weak,3/4", f"Wind,weak,{weight}"))
        code, out, err = run(capsys, self.tennis_argv(files, "--prob", "product:marginals.csv"))
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert f"cfx: {files / 'marginals.csv'}{message}\n" in err
        assert "Traceback" not in err

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


class TestMemoOnlyWhereQueriesRepeat:
    """Only `score --prob` puts a MemoClassifier in front of the backend:
    its per-feature walks ask again what earlier ones asked, while a
    search never asks one vector twice, so a memo there would only miss."""

    @pytest.mark.parametrize("command, extra, golden, calls, memos", [
        ("classify", (), None, (1, 1), 0),
        ("explain", (), "tennis_explain.json", (12, 12), 0),
        ("score", (), "tennis_score.json", (7, 7), 0),
        ("score", ("--prob", "uniform", "--max-card", "1", "--format", "table"),
         "tennis_prob_table_card1.txt", (7, 5), 1),
    ], ids=["classify", "explain", "score", "score-prob"])
    def test_memos_built(
        self, capsys, files, monkeypatch, command, extra, golden, calls, memos
    ):
        built = []

        class Recording(cli.MemoClassifier):
            def __init__(self, backend):
                super().__init__(backend)
                built.append(self)

        monkeypatch.setattr(cli, "MemoClassifier", Recording)
        code, out, err = run(capsys, [
            command,
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--rules", str(files / "tennis.rules"),
            *extra,
        ])
        assert code == cli.EXIT_OK
        assert out == (
            "1\n" if golden is None else (GOLDEN / golden).read_text(encoding="utf-8")
        )
        manifest = manifest_of(err)
        assert (manifest["classifier_calls"], manifest["backend_calls"]) == calls
        assert len(built) == memos


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
        # the entity's query, then the first of level 1's chunk of four,
        # overcast,normal,weak, which raises: a count per chunk would read 5
        manifest = manifest_of(err)
        assert (manifest["classifier_calls"], manifest["backend_calls"]) == (2, 2)

    def test_explain_fails_after_rows_reached_the_spool(
        self, capsys, files, spools, monkeypatch
    ):
        # Table 1 without 1,1,0: the entity, level 1 (one hit, 0,0,1), then
        # level 2's 1,0,1 (a hit) and 1,1,0, which raises
        monkeypatch.setattr(search, "WRITE_ROWS", 1)
        table = files / "partial.csv"
        table.write_text("F1,F2,F3,label\n" + "".join(
            ",".join([*vec, str(lab)]) + "\n"
            for vec, lab in T1_ROWS if vec != ("1", "1", "0")
        ))
        code, out, err = run(capsys, [
            "explain",
            "--schema", str(files / "bits_schema.json"),
            "--entity", str(files / "e1.json"),
            "--table", str(table),
        ])
        assert (code, out) == (cli.EXIT_BACKEND, "")
        assert "no table row for value vector ('1', '1', '0')" in err
        manifest = manifest_of(err)
        assert (manifest["classifier_calls"], manifest["backend_calls"]) == (6, 6)
        (spool,) = spools
        assert spool.kept.count('"cardinality": ') == 2

    def test_score_counts_the_label_call_that_failed(self, capsys, files):
        code, out, err = run(capsys, self.argv(files, "score"))
        assert (code, out) == (cli.EXIT_BACKEND, "")
        assert "no table row for value vector ('overcast', 'normal', 'weak')" in err
        manifest = manifest_of(err)
        assert (manifest["classifier_calls"], manifest["backend_calls"]) == (2, 2)

    def test_classify_counts_the_backend_call_that_failed(self, capsys, files):
        argv = self.argv(files, "classify")
        # the entity's row, sunny,normal,weak, is the one left out
        Path(argv[-1]).write_text(
            "Outlook,Humidity,Wind,label\nsunny,high,weak,0\nrain,normal,strong,0\n"
        )
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_BACKEND, "")
        assert "no table row for " in err
        manifest = manifest_of(err)
        assert (manifest["classifier_calls"], manifest["backend_calls"]) == (1, 1)

    def test_emit_asp_notes_then_refuses_facts(self, capsys, files):
        code, out, err = run(capsys, self.argv(files, "emit-asp"))
        assert (code, out) == (cli.EXIT_INPUT, "")
        lines = err.splitlines(keepends=True)
        assert lines[0] == self.NOTE
        assert lines[1].startswith("cfx: facts embedding needs a total truth table")


    @pytest.mark.parametrize("missing, code", [
        (None, cli.EXIT_OK), (("sunny", "high", "weak"), cli.EXIT_BACKEND),
    ])
    def test_prob_fails_only_on_a_query_it_makes(self, capsys, files, missing, code):
        # the empirical walk asks these five vectors; the branch and bound
        # passes over ("overcast", "normal", "weak"), whose Wind slice holds
        # no sample vector, so the table need not have it
        asked = [
            (("rain", "normal", "strong"), 0), (("rain", "normal", "weak"), 1),
            (("sunny", "high", "weak"), 0), (("sunny", "normal", "strong"), 1),
            (("sunny", "normal", "weak"), 1),
        ]
        table = files / "partial.csv"
        table.write_text("Outlook,Humidity,Wind,label\n" + "".join(
            ",".join([*vec, str(lab)]) + "\n" for vec, lab in asked if vec != missing
        ))
        got, out, err = run(capsys, [
            "score",
            "--schema", str(files / "tennis_schema.json"),
            "--entity", str(files / "tennis_e.json"),
            "--table", str(table),
            "--prob", f"empirical:{files / 'tennis_sample.csv'}",
        ])
        assert got == code
        assert err.startswith("cfx: note: truth table covers ")
        if missing is None:
            scores = [r["score"] for r in json.loads(out)["scores"]]
            assert scores == ["1/2", "1/3", "1/2"]
        else:
            assert out == ""
            assert "no table row for " in err


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

    def test_explain_copy_out_exit_2(self, files):
        # the payload reaches the spool whole; the copy to stdout fails
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        argv = [
            sys.executable, "-m", "cfx.cli", "explain",
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
        assert manifest_of(manifest)["classifier_calls"] == 8


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

    def test_child_dying_inside_a_chunk_exit_4(self, capsys, files):
        # the entity's query and two of the four on level 1 are answered
        code, out, err = run(capsys, self.argv(files, "die-after 3"))
        assert code == 4
        assert out == ""
        assert "exited" in err and "unanswered" in err
        # the third level-1 query is counted, though its reply never came;
        # the handshake, the entity and level 1's chunk took one write each
        m = manifest_of(err)
        assert (m["classifier_calls"], m["backend_calls"]) == (4, 4)
        assert m["external_writes"] == 3

    def test_child_dying_after_a_hit_exit_4(self, capsys, files, spools, monkeypatch):
        # the entity and level 1 (one hit, sunny,high,weak) are answered;
        # level 2's first query, overcast,high,weak, is not
        monkeypatch.setattr(search, "WRITE_ROWS", 1)
        code, out, err = run(capsys, self.argv(files, "die-after 5"))
        assert (code, out) == (cli.EXIT_BACKEND, "")
        assert "exited" in err and "unanswered" in err
        m = manifest_of(err)
        assert (m["classifier_calls"], m["backend_calls"]) == (6, 6)
        (spool,) = spools
        assert spool.kept.count('"cardinality": ') == 1

    def test_unsplittable_command_exit_2(self, capsys, files):
        argv = self.argv(files)
        argv[-1] = "python 'x"
        code, out, err = run(capsys, argv)
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "No closing quotation" in err

    def test_manifest_counts_writes(self, capsys, files):
        code, out, err = run(capsys, self.argv(files))
        assert code == 0
        m = manifest_of(err)
        # 11 candidates on three levels: the handshake, the entity's query
        # and one write per level carry all 12 queries
        assert (m["classifier_calls"], m["backend_calls"]) == (12, 12)
        assert m["external_writes"] == 5
        keys = list(m)
        assert keys.index("external_writes") == keys.index("backend_calls") + 1

    def test_no_writes_count_for_in_process_backends(self, capsys, files):
        argv = self.argv(files)
        argv[-2:] = ["--rules", str(files / "tennis.rules")]
        code, out, err = run(capsys, argv)
        assert code == 0
        assert "external_writes" not in manifest_of(err)


WIDE_CHILD = str(Path(__file__).parent / "fixtures" / "wide_child.py")
# the classifier of tests/fixtures/wide_child.py
WIDE_RULES = """\
if F2=v2 and F5=v2 and F7=v2 then 0
if F8=v1 and F3=v2 then 0
default 1
"""


class TestChildSeesWhatIsAsked:
    """Queries sent ahead of their replies are exactly the ones the engine
    asks: the child records the manifest's backend calls, in walk order, and
    stdout is the payload an in-process backend gives."""

    WIDE = 8  # 3**8 vectors: levels 3 and up span several chunks

    @pytest.fixture
    def wide(self, tmp_path):
        schema = tmp_path / "wide_schema.json"
        schema.write_text(json.dumps({"features": [
            {"name": f"F{i + 1}", "domain": ["v0", "v1", "v2"]} for i in range(self.WIDE)
        ]}))
        entity = tmp_path / "wide_e.json"
        entity.write_text(json.dumps({"id": "w", "values": ["v0"] * self.WIDE}))
        rules = tmp_path / "wide.rules"
        rules.write_text(WIDE_RULES)
        return schema, entity, rules

    def walk_order(self, schema_path, entity_path, rules_path, budget, denials=(), prune=None):
        """The vectors the walk asks, the entity first: those tests/oracles.py's
        walk asks with the labels of the rules the child answers by."""
        schema = load_schema(schema_path)
        values = tuple(json.loads(Path(entity_path).read_text())["values"])
        label = parse_rules(Path(rules_path).read_text(), schema).label
        others = [tuple(v for v in f.domain if v != x) for f, x in zip(schema, values)]
        admissible = oracles.permitted(denials, [])
        return oracles.walk(others, values, label, admissible, budget=budget, prune=prune)[1]

    def check(self, capsys, tmp_path, command, child, schema, entity, rules, budget,
              constraints=None, denials=(), prune=None):
        record = tmp_path / "queries.txt"
        record.unlink(missing_ok=True)
        common = [command, "--schema", str(schema), "--entity", str(entity)]
        if budget is not None:
            common += ["--budget", str(budget)]
        if constraints is not None:
            common += ["--constraints", str(constraints)]
        code, out, err = run(
            capsys, [*common, "--external", f"{sys.executable} {child} record {record}"]
        )
        m = manifest_of(err)
        assert m["backend_calls"] == m["classifier_calls"]  # every vector asked once
        want = self.walk_order(schema, entity, rules, m["config"]["budget"], denials, prune)
        assert record.read_text().splitlines() == [",".join(v) for v in want]
        in_process = run(
            capsys, [*common, "--budget", str(m["config"]["budget"]), "--rules", str(rules)]
        )
        assert (code, out) == in_process[:2]
        return m

    @pytest.mark.parametrize("budget", [1, 2, 200, 385, None])
    def test_explain_wide(self, capsys, tmp_path, wide, budget):
        # 1 + 16 + 112 calls reach level 3, whose first chunk of 256 ends at
        # call 385; 200 cuts that chunk; None walks all 6,561 vectors
        m = self.check(capsys, tmp_path, "explain", WIDE_CHILD, *wide, budget)
        assert m["backend_calls"] == (3**self.WIDE if budget is None else budget)

    def test_explain_wide_denied(self, capsys, tmp_path, wide):
        # F1 = v1 with F4 != v0: only index sets that change both features
        # have their candidates checked, and the child sees the queries, and
        # the writes, of a walk that checks every candidate
        constraints = tmp_path / "denial.json"
        constraints.write_text(json.dumps({"denials": [{"literals": [
            {"feature": "F1", "value": "v1"},
            {"feature": "F4", "value": "v0", "polarity": "ne"},
        ]}]}))
        denials = [[(0, "v1", "eq"), (3, "v0", "ne")]]
        m = self.check(capsys, tmp_path, "explain", WIDE_CHILD, *wide, None,
                       constraints, denials)
        # 3**8 vectors less the 3**6 * 2 the denial forbids; 44 writes, as
        # when every candidate was checked
        assert (m["backend_calls"], m["external_writes"]) == (5103, 44)

    def test_score_wide(self, capsys, tmp_path, wide):
        # every index set holding {F3, F8} or {F2, F5, F7}, the minimal
        # ones, asks nothing, and level 7 holds no other set: 2,577 of the
        # 6,561 vectors are asked
        m = self.check(capsys, tmp_path, "score", WIDE_CHILD, *wide, None,
                       prune=search.WITNESSES)
        assert m["backend_calls"] == 2577

    def test_score_prob_wide(self, capsys, tmp_path, wide):
        schema_path, entity_path, rules = wide
        record = tmp_path / "queries.txt"
        common = ["score", "--schema", str(schema_path), "--entity", str(entity_path),
                  "--prob", "uniform"]
        code, out, err = run(
            capsys, [*common, "--external", f"{sys.executable} {WIDE_CHILD} record {record}"]
        )
        m = manifest_of(err)
        # global_resp announces nothing: the handshake, then one write per
        # query, each asked alone
        assert m["external_writes"] == m["backend_calls"] + 1
        # the backend calls of the same global_resp calls in process
        schema = load_schema(schema_path)
        entity = load_entity(entity_path, schema)
        asked = []
        rule_clf = parse_rules(WIDE_RULES, schema)

        class Recording:
            def label(self, values):
                asked.append(values)
                return rule_clf.label(values)

        memo = MemoClassifier(Recording())
        dist = UniformDistribution(schema)
        for i in range(len(schema)):
            global_resp(schema, memo, entity, i, dist)
        assert m["backend_calls"] == len(asked)
        assert record.read_text().splitlines() == [",".join(v) for v in asked]
        assert (code, out) == run(capsys, [*common, "--rules", str(rules)])[:2]

    def test_explain_tennis(self, capsys, tmp_path, files):
        tennis = (files / "tennis_schema.json", files / "tennis_e.json",
                  files / "tennis.rules")
        m = self.check(capsys, tmp_path, "explain", CHILD, *tennis, None)
        assert m["backend_calls"] == 12


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
