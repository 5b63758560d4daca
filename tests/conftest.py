"""Shared fixtures: two 3-bit truth tables and the play-tennis tree."""

from fractions import Fraction
from pathlib import Path

import pytest

from cfx.classify import TableClassifier, parse_rules
from cfx.schema import Feature, FeatureSchema

GOLDEN = Path(__file__).parent / "golden"

# presentation order of the rows matters: fact sections preserve it
T1_ROWS = [
    (("0", "1", "1"), 1),
    (("1", "1", "1"), 1),
    (("1", "1", "0"), 1),
    (("1", "0", "1"), 0),
    (("1", "0", "0"), 1),
    (("0", "1", "0"), 1),
    (("0", "0", "1"), 0),
    (("0", "0", "0"), 0),
]

T2_ROWS = [
    (("0", "1", "1"), 1),
    (("1", "1", "1"), 1),
    (("1", "1", "0"), 0),
    (("1", "0", "1"), 1),
    (("1", "0", "0"), 0),
    (("0", "1", "0"), 1),
    (("0", "0", "1"), 0),
    (("0", "0", "0"), 1),
]

TENNIS_RULES_TEXT = """\
# positive paths of the play-tennis decision tree
if Humidity=normal and Outlook=sunny then 1
if Outlook=overcast then 1
if Wind=weak and Outlook=rain then 1
default 0
"""


def section(program, name):
    """The section of an emitted program named ``name``."""
    [found] = [s for s in program.sections if s.name == name]
    return found


def prob(dist, values):
    """The probability ``dist`` gives ``values``: its weight over the sum of
    the weights of the whole space."""
    total = sum(map(dist.weight, dist.schema.iter_space()))
    return Fraction(dist.weight(values), total)


def s_values(result):
    """The counterfactual values of the rows a full walk flags s-minimal."""
    return {x.counterfactual.values for x, s in zip(result.explanations, result.s_flags) if s}


def table_from_function(schema, fn):
    """A total truth table: ``fn``'s label for every vector of the space."""
    return TableClassifier(schema, {vec: fn(vec) for vec in schema.iter_space()})


@pytest.fixture
def bits_schema():
    return FeatureSchema((
        Feature("F1", ("0", "1")),
        Feature("F2", ("0", "1")),
        Feature("F3", ("0", "1")),
    ))


@pytest.fixture
def t1_table(bits_schema):
    return TableClassifier(bits_schema, dict(T1_ROWS))


@pytest.fixture
def t2_table(bits_schema):
    return TableClassifier(bits_schema, dict(T2_ROWS))


@pytest.fixture
def e1(bits_schema):
    return bits_schema.entity("e", ("0", "1", "1"))


@pytest.fixture
def tennis_schema():
    return FeatureSchema((
        Feature("Outlook", ("sunny", "overcast", "rain")),
        Feature("Humidity", ("high", "normal")),
        Feature("Wind", ("strong", "weak")),
    ))


@pytest.fixture
def tennis_clf(tennis_schema):
    return parse_rules(TENNIS_RULES_TEXT, tennis_schema)


@pytest.fixture
def tennis_entity(tennis_schema):
    return tennis_schema.entity("e", ("sunny", "normal", "weak"))
