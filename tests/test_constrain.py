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
        assert not cs.admissible(("rain", "normal", "strong"))
        assert cs.admissible(("rain", "normal", "weak"))
        assert cs.admissible(("sunny", "high", "strong"))

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
        assert not cs.admissible(("rain", "normal", "strong"))
        assert cs.admissible(("overcast", "normal", "strong"))

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
    ORIG = ("28", "low", "1", "0")

    def test_increase_only(self, loan_schema):
        cs = ConstraintSet(
            loan_schema, actionability=(ActionabilityRule(0, "increase-only"),)
        )
        assert cs.alternatives(self.ORIG) == [
            ("30", "35"), ("high",), ("0",), ("1",)
        ]

    def test_decrease_only(self, loan_schema):
        cs = ConstraintSet(
            loan_schema, actionability=(ActionabilityRule(0, "decrease-only"),)
        )
        assert cs.alternatives(self.ORIG)[0] == ("20", "25")

    def test_fixed(self, loan_schema):
        cs = ConstraintSet(loan_schema, actionability=(ActionabilityRule(1, "fixed"),))
        assert cs.alternatives(self.ORIG) == [
            ("20", "25", "30", "35"), (), ("0",), ("1",)
        ]
        # the walk never builds such a candidate; admissible reads no rule
        assert cs.admissible(("28", "high", "1", "0"))

    def test_free_is_noop(self, loan_schema):
        cs = ConstraintSet(loan_schema, actionability=(ActionabilityRule(1, "free"),))
        assert cs.alternatives(self.ORIG) == empty(loan_schema).alternatives(self.ORIG)

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
        assert cs.admissible(("28", "low", "0", "1"))
        assert not cs.admissible(("28", "low", "1", "1"))
        assert not cs.admissible(("28", "low", "0", "0"))

    def test_members_must_be_binary(self, loan_schema):
        with pytest.raises(InputError, match="domain"):
            ConstraintSet(loan_schema, onehot=(OneHotGroup((0, 2)),))

    def test_needs_two_members(self, loan_schema):
        with pytest.raises(InputError, match="two members"):
            ConstraintSet(loan_schema, onehot=(OneHotGroup((2,)),))

    def test_no_duplicate_members(self, loan_schema):
        with pytest.raises(InputError, match="repeats"):
            ConstraintSet(loan_schema, onehot=(OneHotGroup((2, 2)),))


class TestMayReject:
    """``may_reject`` reads only the changed-index set and the original."""

    @pytest.mark.parametrize("changed, bites", [
        ((1,), False),    # Outlook stays sunny: the rain literal fails
        ((0,), True),     # Wind stays weak, which is not strong
        ((0, 1), True),
        ((2,), False),    # Outlook stays sunny
        ((0, 2), True),   # both literals are on changed features
    ])
    def test_denial_literals_on_unchanged_features(self, tennis_schema, changed, bites):
        # forbid: Outlook = rain and Wind != strong
        chi = DenialConstraint((DenialLiteral(0, "rain"), DenialLiteral(2, "strong", "ne")))
        cs = ConstraintSet(tennis_schema, denials=(chi,))
        assert cs.may_reject(changed, ("sunny", "normal", "weak")) is bites

    @pytest.mark.parametrize("original, changed, bites", [
        (("28", "low", "0", "1"), (0, 1), False),
        (("28", "low", "0", "1"), (0, 3), True),   # a member changes
        (("28", "low", "1", "1"), (0,), True),     # the original breaks it
        (("28", "low", "0", "0"), (), True),
    ])
    def test_onehot(self, loan_schema, original, changed, bites):
        cs = ConstraintSet(loan_schema, onehot=(OneHotGroup((2, 3)),))
        assert cs.may_reject(changed, original) is bites

    def test_actionability_alone_never_bites(self, loan_schema):
        cs = ConstraintSet(loan_schema, actionability=(ActionabilityRule(0, "fixed"),))
        assert not cs.may_reject((0, 1, 2, 3), ("28", "low", "0", "1"))


class TestCombined:
    def test_empty_set_always_admissible(self, tennis_schema):
        cs = empty(tennis_schema)
        assert cs.is_empty()
        for vec in tennis_schema.iter_space():
            assert cs.admissible(vec)

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
        admitted_small = {v for v in tennis_schema.iter_space() if small.admissible(v)}
        admitted_big = {v for v in tennis_schema.iter_space() if big.admissible(v)}
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
        assert not cs.admissible(("rain", "normal", "strong"))

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
