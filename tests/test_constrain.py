import json

import pytest

from cfx.constrain import (
    ActionabilityRule,
    ConstraintSet,
    DenialConstraint,
    DenialLiteral,
    OneHotGroup,
    constraints_from_dict,
    empty,
    load_constraints,
)
from cfx.errors import InputError
from cfx.schema import Feature, FeatureSchema


@pytest.fixture
def loan_schema():
    # ordered Age domain for the directional rules; two binary indicators
    return FeatureSchema((
        Feature("Age", ("20", "25", "28", "30", "35"), ordered=True),
        Feature("Income", ("low", "high")),
        Feature("b1", ("0", "1")),
        Feature("b2", ("0", "1")),
    ))


class TestDenial:
    def test_matching_candidate_is_inadmissible(self, tennis_schema):
        chi = DenialConstraint((
            DenialLiteral(0, "rain"),
            DenialLiteral(2, "strong"),
        ))
        cs = ConstraintSet(tennis_schema, denials=(chi,))
        orig = ("sunny", "normal", "weak")
        assert not cs.admissible(orig, ("rain", "normal", "strong"))
        assert cs.admissible(orig, ("rain", "normal", "weak"))
        assert cs.admissible(orig, ("sunny", "high", "strong"))

    def test_satisfies_denial_semantics(self):
        chi = DenialConstraint((
            DenialLiteral(0, "rain"),
            DenialLiteral(2, "strong"),
        ))
        assert chi.matches(("rain", "high", "strong"))
        assert not chi.matches(("sunny", "high", "strong"))
        assert not chi.matches(("rain", "high", "weak"))

    def test_ne_polarity(self, tennis_schema):
        # forbid: Outlook != overcast and Wind = strong
        chi = DenialConstraint((
            DenialLiteral(0, "overcast", "ne"),
            DenialLiteral(2, "strong"),
        ))
        cs = ConstraintSet(tennis_schema, denials=(chi,))
        orig = ("sunny", "normal", "weak")
        assert not cs.admissible(orig, ("rain", "normal", "strong"))
        assert cs.admissible(orig, ("overcast", "normal", "strong"))

    def test_single_always_false_literal(self, tennis_schema):
        chi = DenialConstraint((DenialLiteral(0, "overcast"),))
        for vec in tennis_schema.iter_space():
            assert chi.matches(vec) == (vec[0] == "overcast")

    def test_validation(self, tennis_schema):
        with pytest.raises(InputError, match="no literals"):
            ConstraintSet(tennis_schema, denials=(DenialConstraint(()),))
        with pytest.raises(InputError, match="not in its domain"):
            ConstraintSet(
                tennis_schema,
                denials=(DenialConstraint((DenialLiteral(0, "hail"),)),),
            )
        with pytest.raises(InputError, match="polarity"):
            ConstraintSet(
                tennis_schema,
                denials=(DenialConstraint((DenialLiteral(0, "rain", "xor"),)),),
            )
        with pytest.raises(InputError, match="out of range"):
            ConstraintSet(
                tennis_schema,
                denials=(DenialConstraint((DenialLiteral(7, "rain"),)),),
            )


class TestActionability:
    def test_increase_only(self, loan_schema):
        cs = ConstraintSet(
            loan_schema, actionability=(ActionabilityRule(0, "increase-only"),)
        )
        orig = ("28", "low", "1", "0")
        assert not cs.admissible(orig, ("25", "low", "1", "0"))
        assert cs.admissible(orig, ("30", "low", "1", "0"))
        assert cs.admissible(orig, ("28", "high", "1", "0"))

    def test_decrease_only(self, loan_schema):
        cs = ConstraintSet(
            loan_schema, actionability=(ActionabilityRule(0, "decrease-only"),)
        )
        orig = ("28", "low", "1", "0")
        assert cs.admissible(orig, ("20", "low", "1", "0"))
        assert not cs.admissible(orig, ("35", "low", "1", "0"))

    def test_fixed(self, loan_schema):
        cs = ConstraintSet(loan_schema, actionability=(ActionabilityRule(1, "fixed"),))
        orig = ("28", "low", "1", "0")
        assert not cs.admissible(orig, ("28", "high", "1", "0"))
        assert cs.admissible(orig, ("35", "low", "1", "0"))

    def test_free_is_noop(self, loan_schema):
        cs = ConstraintSet(loan_schema, actionability=(ActionabilityRule(1, "free"),))
        orig = ("28", "low", "1", "0")
        assert cs.admissible(orig, ("28", "high", "1", "0"))

    def test_directional_needs_ordered_domain(self, loan_schema):
        with pytest.raises(InputError, match="ordered"):
            ConstraintSet(
                loan_schema, actionability=(ActionabilityRule(1, "increase-only"),)
            )

    def test_unknown_mode(self, loan_schema):
        with pytest.raises(InputError, match="mode"):
            ConstraintSet(
                loan_schema, actionability=(ActionabilityRule(0, "sideways"),)
            )

    def test_two_rules_for_one_feature(self, loan_schema):
        with pytest.raises(InputError, match="two actionability rules"):
            ConstraintSet(
                loan_schema,
                actionability=(
                    ActionabilityRule(0, "fixed"),
                    ActionabilityRule(0, "free"),
                ),
            )


class TestOneHot:
    def test_exactly_one(self, loan_schema):
        cs = ConstraintSet(loan_schema, onehot=(OneHotGroup((2, 3)),))
        orig = ("28", "low", "1", "0")
        assert cs.admissible(orig, ("28", "low", "0", "1"))
        assert not cs.admissible(orig, ("28", "low", "1", "1"))
        assert not cs.admissible(orig, ("28", "low", "0", "0"))

    def test_members_must_be_binary(self, loan_schema):
        with pytest.raises(InputError, match="domain"):
            ConstraintSet(loan_schema, onehot=(OneHotGroup((0, 2)),))

    def test_needs_two_members(self, loan_schema):
        with pytest.raises(InputError, match="two members"):
            ConstraintSet(loan_schema, onehot=(OneHotGroup((2,)),))

    def test_no_duplicate_members(self, loan_schema):
        with pytest.raises(InputError, match="repeats"):
            ConstraintSet(loan_schema, onehot=(OneHotGroup((2, 2)),))


class TestCombined:
    def test_empty_set_always_admissible(self, tennis_schema):
        cs = empty(tennis_schema)
        assert cs.is_empty()
        orig = ("sunny", "normal", "weak")
        for vec in tennis_schema.iter_space():
            assert cs.admissible(orig, vec)

    def test_monotone_pruning(self, tennis_schema):
        # a superset of constraints admits a subset of candidates
        small = ConstraintSet(
            tennis_schema,
            denials=(DenialConstraint((DenialLiteral(0, "rain"),)),),
        )
        big = ConstraintSet(
            tennis_schema,
            denials=(
                DenialConstraint((DenialLiteral(0, "rain"),)),
                DenialConstraint((DenialLiteral(2, "strong"),)),
            ),
        )
        orig = ("sunny", "normal", "weak")
        admitted_small = {v for v in tennis_schema.iter_space() if small.admissible(orig, v)}
        admitted_big = {v for v in tennis_schema.iter_space() if big.admissible(orig, v)}
        assert admitted_big <= admitted_small


class TestLoading:
    DOC = {
        "denials": [
            {
                "literals": [
                    {"feature": "Outlook", "value": "rain", "polarity": "eq"},
                    {"feature": "Wind", "value": "strong"},
                ]
            }
        ],
        "actionability": [{"feature": "Humidity", "mode": "fixed"}],
        "onehot": [],
    }

    def test_from_dict(self, tennis_schema):
        cs = constraints_from_dict(self.DOC, tennis_schema)
        assert len(cs.denials) == 1
        assert cs.denials[0].literals[0] == DenialLiteral(0, "rain", "eq")
        assert cs.actionability == (ActionabilityRule(1, "fixed"),)
        orig = ("sunny", "normal", "weak")
        assert not cs.admissible(orig, ("rain", "normal", "strong"))

    def test_from_file(self, tmp_path, tennis_schema):
        p = tmp_path / "constraints.json"
        p.write_text(json.dumps(self.DOC))
        cs = load_constraints(p, tennis_schema)
        assert not cs.is_empty()

    def test_unknown_feature(self, tennis_schema):
        doc = {"actionability": [{"feature": "Rainfall", "mode": "fixed"}]}
        with pytest.raises(InputError, match="unknown feature"):
            constraints_from_dict(doc, tennis_schema)

    def test_literal_needs_feature_and_value(self, tennis_schema):
        doc = {"denials": [{"literals": [{"feature": "Outlook"}]}]}
        with pytest.raises(InputError, match="'feature' and 'value'"):
            constraints_from_dict(doc, tennis_schema)

    def test_onehot_must_be_lists(self, tennis_schema):
        doc = {"onehot": ["Outlook"]}
        with pytest.raises(InputError, match="lists"):
            constraints_from_dict(doc, tennis_schema)

    def test_top_level_must_be_object(self, tennis_schema):
        with pytest.raises(InputError, match="object"):
            constraints_from_dict([], tennis_schema)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"denials": ["x"]}, "'denials' must be a list of objects"),
            ({"denials": {"a": 1}}, "'denials' must be a list"),
            ({"denials": [{"literals": 5}]}, "'literals' must be a list"),
            ({"denials": [{"literals": ["Outlook"]}]}, "'literals' must be a list of"),
            ({"actionability": 5}, "'actionability' must be a list"),
            ({"actionability": ["Outlook"]}, "'actionability' must be a list of"),
            ({"onehot": 5}, "'onehot' must be a list"),
            ({"onehot": {"features": ["Outlook"]}}, "'onehot' must be a list"),
        ],
    )
    def test_sections_must_be_lists(self, tennis_schema, doc, message):
        with pytest.raises(InputError, match=message):
            constraints_from_dict(doc, tennis_schema)
