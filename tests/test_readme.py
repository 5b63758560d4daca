"""The README's Python walkthrough runs as written against the package, and
its file-format examples and command synopsis are what the loaders and the
argument parser accept."""

import json
import re
import shlex
from pathlib import Path

from cfx import cli
from cfx.classify import parse_rules
from cfx.constrain import constraints_from_dict
from cfx.schema import entity_from_dict, schema_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def blocks(lang, heading=None):
    """The ``lang`` code blocks of the README, or of its ``## heading``
    section alone."""
    text = TEXT
    if heading is not None:
        text = re.search(rf"^## {heading}\n(.*?)(?=^## |\Z)", TEXT, re.M | re.S)[1]
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


# the File formats examples: schema and constraints blocks, and the entity,
# which is inline code in the prose; and the Rule DSL example
SCHEMA_JSON, CONSTRAINTS_JSON = blocks("json", "File formats")
ENTITY_JSON = re.search(r"Entity JSON is\s+`(\{.*?\})`", TEXT, re.S)[1]
[RULES] = blocks("text", "Rule DSL")
SYNOPSIS = [
    line for block in blocks("sh") for line in block.splitlines()
    if line.startswith("cfx ")
]


def test_python_blocks_run():
    code_blocks = blocks("python")
    assert code_blocks, "README has no python block"
    for code in code_blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_file_format_examples_load():
    schema = schema_from_dict(json.loads(SCHEMA_JSON))
    assert schema.feature(schema.index_of("Age")).ordered
    entity = entity_from_dict(json.loads(ENTITY_JSON), schema)
    cs = constraints_from_dict(json.loads(CONSTRAINTS_JSON), schema)
    assert (len(cs.denials), len(cs.actionability), len(cs.onehot)) == (1, 1, 1)
    assert cs.admissible(entity.values)


def test_rule_dsl_example_parses():
    schema = schema_from_dict(json.loads(SCHEMA_JSON))
    clf = parse_rules(RULES, schema)
    assert len(clf.rules) == 3
    assert clf.label(("sunny", "normal", "weak", "25", "1", "0")) == 1
    assert clf.label(("sunny", "high", "weak", "25", "1", "0")) == 0


def test_command_synopsis_parses():
    assert [line.split()[1] for line in SYNOPSIS] == [
        "classify", "explain", "score", "emit-asp"
    ]
    parser = cli.build_parser()
    for line in SYNOPSIS:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]


def test_command_synopsis_runs_on_the_examples(tmp_path, monkeypatch, capsys):
    # the synopsis's files, written from the examples; the table is the
    # rule list's labels over the whole space
    schema = schema_from_dict(json.loads(SCHEMA_JSON))
    clf = parse_rules(RULES, schema)
    table = [",".join([*schema.names, "label"])]
    table += [",".join([*vec, str(clf.label(vec))]) for vec in schema.iter_space()]
    for name, text in [
        ("schema.json", SCHEMA_JSON),
        ("e.json", ENTITY_JSON),
        ("model.rules", RULES),
        ("model.csv", "\n".join(table) + "\n"),
    ]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in SYNOPSIS:
        assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK, line
        assert capsys.readouterr().out
