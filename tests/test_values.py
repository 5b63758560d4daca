"""The package's value classes: construction, equality, hashing, repr and
the checks their constructors make."""

from fractions import Fraction

import pytest

from cfx import aspgen, classify, constrain, schema, score, search
from cfx.errors import InputError

BITS = schema.FeatureSchema((
    schema.Feature("a", ("0", "1")),
    schema.Feature("b", ("0", "1")),
    schema.Feature("c", ("lo", "hi")),
))
ENTITY = schema.Entity("e", ("1", "0", "lo"))
EXPLANATION = schema.Explanation(((0, "1"),), schema.Entity("e", ("0", "0", "lo")))

# class: (keyword arguments without the defaulted ones, the defaults, one
# changed argument, hashable). The classes without a hash hold lists or are
# counted into.
CASES = {
    schema.Feature: (
        {"name": "a", "domain": ("0", "1")}, {"ordered": False}, {"name": "b"}, True,
    ),
    schema.FeatureSchema: ({"features": BITS.features}, {}, {"features": BITS.features[:2]}, True),
    schema.Entity: ({"id": "e", "values": ("1", "0")}, {}, {"id": "f"}, True),
    schema.Explanation: (
        {"changed": ((0, "1"),), "counterfactual": ENTITY}, {}, {"changed": ()}, True,
    ),
    constrain.DenialLiteral: (
        {"feature": 0, "value": "1"}, {"polarity": constrain.EQ}, {"value": "0"}, True,
    ),
    constrain.DenialConstraint: (
        {"literals": (constrain.DenialLiteral(0, "1"),)}, {}, {"literals": ()}, True,
    ),
    constrain.ActionabilityRule: (
        {"feature": 0, "mode": constrain.FIXED}, {}, {"mode": constrain.FREE}, True,
    ),
    constrain.OneHotGroup: ({"members": (0, 1)}, {}, {"members": (1, 0)}, True),
    constrain.ConstraintSet: (
        {"schema": BITS},
        {"denials": (), "actionability": (), "onehot": ()},
        {"onehot": (constrain.OneHotGroup((0, 1)),)},
        True,
    ),
    search.SearchConfig: ({}, {"max_cardinality": None, "budget": None}, {"budget": 5}, True),
    search.SearchStats: (
        {}, {"classifier_calls": 0, "levels_explored": 0}, {"levels_explored": 2}, False,
    ),
    search.SearchResult: (
        {
            "entity": ENTITY,
            "hits": [((0,), ("0", "0", "lo"), True)],
            "stats": search.SearchStats(2, 1),
            "exhausted": True,
        },
        {},
        {"exhausted": False},
        False,
    ),
    classify.Rule: ({"conditions": ((0, "1"),), "label": 1}, {}, {"label": 0}, True),
    score.FeatureScore: (
        {"feature": 0, "score": Fraction(1), "witness": EXPLANATION},
        {},
        {"witness": None},
        True,
    ),
    score.RespReport: (
        {
            "entity": ENTITY,
            "scores": [score.FeatureScore(0, Fraction(1), EXPLANATION)],
            "authoritative": True,
        },
        {},
        {"scores": []},
        False,
    ),
    score.GlobalScore: (
        {
            "feature": 0,
            "score": Fraction(1, 2),
            "gamma": (1,),
            "gamma_values": ("1",),
            "truncated": False,
        },
        {},
        {"gamma": None},
        True,
    ),
    aspgen.CipOptions: (
        {},
        {
            "dialect": aspgen.DLV_COMPLEX,
            "classifier_embedding": aspgen.FACTS,
            "include_weak": False,
            "include_count": False,
            "shift": False,
            "feature_tokens": aspgen.INDICES,
            "hard_constraints": None,
        },
        {"hard_constraints": constrain.ConstraintSet(BITS)},
        True,
    ),
    aspgen.Section: (
        {"name": "facts", "comment": None, "lines": ["p(1)."]}, {}, {"comment": "facts"}, False,
    ),
    aspgen.CipProgram: (
        {"sections": [aspgen.Section("facts", None, ["p(1)."])]}, {}, {"sections": []}, False,
    ),
    aspgen.Diagnostic: ({"kind": "parse-error", "message": "m"}, {}, {"message": "n"}, True),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
class TestValueClass:
    def test_keywords_and_defaults(self, cls):
        given, defaults, _, _ = CASES[cls]
        obj = cls(**given)
        assert set(cls.__slots__) == {*given, *defaults}
        assert {name: getattr(obj, name) for name in cls.__slots__} == {**given, **defaults}
        assert not hasattr(obj, "__dict__")

    def test_positional_in_field_order(self, cls):
        given, defaults, _, _ = CASES[cls]
        fields = {**given, **defaults}
        assert cls(*[fields[name] for name in cls.__slots__]) == cls(**given)

    def test_equality(self, cls):
        given, defaults, changed, _ = CASES[cls]
        obj = cls(**given)
        assert obj == cls(**given)
        assert not obj != cls(**given)
        assert obj != cls(**{**given, **changed})
        # a value is not a tuple of its fields
        fields = {**given, **defaults}
        assert obj != tuple(fields[name] for name in cls.__slots__)

    def test_hash(self, cls):
        given, _, changed, hashable = CASES[cls]
        obj = cls(**given)
        if hashable:
            assert hash(obj) == hash(cls(**given))
            assert len({obj, cls(**given), cls(**{**given, **changed})}) == 2
        else:
            with pytest.raises(TypeError):
                hash(obj)

    def test_repr_names_every_field(self, cls):
        given, defaults, _, _ = CASES[cls]
        fields = {**given, **defaults}
        inner = ", ".join(f"{name}={fields[name]!r}" for name in cls.__slots__)
        assert repr(cls(**given)) == f"{cls.__name__}({inner})"


LIT = constrain.DenialLiteral
ONEHOT = constrain.OneHotGroup
RULE = constrain.ActionabilityRule


@pytest.mark.parametrize("build, message", [
    (lambda: schema.FeatureSchema(()), "schema needs at least one feature"),
    (
        lambda: schema.FeatureSchema((schema.Feature("1a", ("0", "1")),)),
        "feature name '1a' is not an identifier",
    ),
    (
        lambda: schema.FeatureSchema(BITS.features[:1] * 2),
        "duplicate feature name 'a'",
    ),
    (
        lambda: schema.FeatureSchema((schema.Feature("a", ("0",)),)),
        "feature 'a' needs at least two domain values",
    ),
    (
        lambda: schema.FeatureSchema((schema.Feature("a", ("0", "0")),)),
        "feature 'a' has duplicate domain values",
    ),
    (
        lambda: schema.FeatureSchema((schema.Feature("a", ("0", "")),)),
        "feature 'a' has a non-string or empty domain value",
    ),
    (lambda: schema.Entity("", ("0",)), "entity id must be non-empty"),
    (
        lambda: constrain.ConstraintSet(BITS, denials=(constrain.DenialConstraint(()),)),
        "denial constraint with no literals",
    ),
    (
        lambda: constrain.ConstraintSet(
            BITS, denials=(constrain.DenialConstraint((LIT(0, "1", "lt"),)),)
        ),
        "bad polarity 'lt'",
    ),
    (
        lambda: constrain.ConstraintSet(
            BITS, denials=(constrain.DenialConstraint((LIT(0, "2"),)),)
        ),
        "denial tests 'a' against '2', not in its domain",
    ),
    (
        lambda: constrain.ConstraintSet(BITS, denials=(constrain.DenialConstraint((LIT(3, "1"),)),)),
        "feature index 3 out of range",
    ),
    (
        lambda: constrain.ConstraintSet(BITS, actionability=(RULE(0, "up"),)),
        "bad actionability mode 'up'",
    ),
    (
        lambda: constrain.ConstraintSet(
            BITS, actionability=(RULE(0, constrain.FIXED), RULE(0, constrain.FREE))
        ),
        "two actionability rules for 'a'",
    ),
    (
        lambda: constrain.ConstraintSet(
            BITS, actionability=(RULE(2, constrain.INCREASE_ONLY),)
        ),
        "directional actionability on 'c' needs an ordered domain",
    ),
    (
        lambda: constrain.ConstraintSet(BITS, onehot=(ONEHOT((0,)),)),
        "one-hot group needs at least two members",
    ),
    (
        lambda: constrain.ConstraintSet(BITS, onehot=(ONEHOT((0, 0)),)),
        "one-hot group repeats a member",
    ),
    (
        lambda: constrain.ConstraintSet(BITS, onehot=(ONEHOT((0, 2)),)),
        "one-hot member 'c' must have domain {0,1}",
    ),
    (lambda: search.SearchConfig(max_cardinality=0), "max_cardinality must be >= 1"),
    (lambda: search.SearchConfig(budget=0), "budget must be >= 1"),
    (lambda: classify.Rule((), 2), "rule: label must be 0 or 1, got 2"),
    (lambda: aspgen.CipOptions(dialect="clingo"), "unknown dialect 'clingo'"),
    (
        lambda: aspgen.CipOptions(classifier_embedding="net"),
        "unknown embedding 'net'",
    ),
    (
        lambda: aspgen.CipOptions(feature_tokens="ids"),
        "unknown feature token style 'ids'",
    ),
    (
        lambda: aspgen.CipOptions(classifier_embedding=aspgen.EXTERNAL_STUB),
        "the external classifier stub needs the asp-core-2 dialect",
    ),
])
def test_constructor_checks(build, message):
    with pytest.raises(InputError) as info:
        build()
    assert str(info.value) == message
