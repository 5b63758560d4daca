"""Distributions and the probabilistic responsibility score."""

from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

import oracles
from cfx.classify import MemoClassifier, Rule, RuleClassifier
from cfx.constrain import DenialConstraint, DenialLiteral
from cfx.errors import InputError, NothingToExplainError
from cfx.schema import Entity, Feature, FeatureSchema
from cfx.score import (
    SPACE_ENUMERATION_LIMIT,
    ConditionError,
    ConditionedDistribution,
    Distribution,
    EmpiricalDistribution,
    ProductDistribution,
    UniformDistribution,
    ZeroMassError,
    global_resp,
    local_resp,
)
from conftest import prob, table_from_function


def total_mass(dist, schema):
    return sum((prob(dist, v) for v in schema.iter_space()), Fraction(0))


# Distribution.conditional trusts its caller to pass in-domain values, so
# both scores must reject an entity outside its domain before conditioning
DISTRIBUTIONS = pytest.mark.parametrize("make_dist", [
    UniformDistribution,
    lambda schema: ProductDistribution(
        schema, [{"0": Fraction(1, 2), "1": Fraction(1, 2)}] * len(schema)
    ),
    lambda schema: EmpiricalDistribution(schema, [("0", "1", "1")]),
], ids=["uniform", "product", "empirical"])
OUTSIDE = Entity("e", ("0", "2", "1"))
OUTSIDE_MESSAGE = "value '2' not in domain of feature 'F2'"


class TestUniform:
    def test_pointwise_and_total(self, bits_schema):
        dist = UniformDistribution(bits_schema)
        assert prob(dist, ("0", "1", "1")) == Fraction(1, 8)
        assert total_mass(dist, bits_schema) == 1

    def test_conditional_is_uniform(self, bits_schema):
        dist = UniformDistribution(bits_schema)
        # one integer weight per value, in domain order
        cond = dist.conditional(("0", "1", "1"), 1)
        assert list(cond.items()) == [("0", 1), ("1", 1)]
        assert all(type(w) is int for w in cond.values())

    def test_conditional_equals_the_base_method(self, tennis_schema):
        # each override skips weight calls, and nothing else; an index out
        # of range, -1 included, is refused alike by every distribution
        uniform = UniformDistribution(tennis_schema)
        dists = [
            uniform,
            ProductDistribution(tennis_schema, [
                {"sunny": Fraction(1, 2), "overcast": 0, "rain": Fraction(1, 2)},
                {"high": Fraction(1, 3), "normal": Fraction(2, 3)},
                {"strong": Fraction(1, 4), "weak": Fraction(3, 4)},
            ]),
            EmpiricalDistribution(tennis_schema, [("sunny", "high", "weak")] * 2),
            ConditionedDistribution(uniform, [
                DenialConstraint((DenialLiteral(0, "rain"), DenialLiteral(2, "strong")))
            ]),
        ]
        values = ("sunny", "high", "weak")
        for dist in dists:
            for vec in tennis_schema.iter_space():
                for index in range(len(tennis_schema)):
                    got = dist.conditional(vec, index)
                    want = Distribution.conditional(dist, vec, index)
                    assert list(got.items()) == list(want.items())
            for index in (-1, len(tennis_schema)):
                for call in (
                    lambda: dist.conditional(values, index),
                    lambda: Distribution.conditional(dist, values, index),
                    lambda: dist.loss_cap(index, "weak"),
                    lambda: Distribution.loss_cap(dist, index, "weak"),
                ):
                    with pytest.raises(InputError) as info:
                        call()
                    assert str(info.value) == f"feature index {index} out of range"


class TestProduct:
    def test_probability_is_marginal_product(self, bits_schema):
        dist = ProductDistribution(
            bits_schema,
            [
                {"0": Fraction(1, 4), "1": Fraction(3, 4)},
                {"0": Fraction(1, 2), "1": Fraction(1, 2)},
                {"0": Fraction(1, 3), "1": Fraction(2, 3)},
            ],
        )
        assert prob(dist, ("1", "0", "1")) == Fraction(3, 4) * Fraction(1, 2) * Fraction(2, 3)
        assert total_mass(dist, bits_schema) == 1

    def test_near_one_sums_renormalized_exactly(self, bits_schema):
        # floats that only approximately sum to 1 are accepted and fixed
        third = 1.0 / 3.0
        dist = ProductDistribution(
            bits_schema,
            [
                {"0": third, "1": 2 * third},
                {"0": 0.5, "1": 0.5},
                {"0": 0.5, "1": 0.5},
            ],
        )
        assert total_mass(dist, bits_schema) == 1

    def test_marginal_sum_tolerance(self, bits_schema):
        with pytest.raises(InputError, match="sums to"):
            ProductDistribution(
                bits_schema,
                [
                    {"0": "0.4", "1": "0.4"},
                    {"0": "0.5", "1": "0.5"},
                    {"0": "0.5", "1": "0.5"},
                ],
            )

    def test_negative_weight_rejected(self, bits_schema):
        with pytest.raises(InputError, match="negative"):
            ProductDistribution(
                bits_schema,
                [
                    {"0": Fraction(3, 2), "1": Fraction(-1, 2)},
                    {"0": "0.5", "1": "0.5"},
                    {"0": "0.5", "1": "0.5"},
                ],
            )

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_weight_rejected(self, bits_schema, weight):
        with pytest.raises(InputError, match="cannot parse probability"):
            ProductDistribution(
                bits_schema,
                [
                    {"0": weight, "1": 0.5},
                    {"0": "0.5", "1": "0.5"},
                    {"0": "0.5", "1": "0.5"},
                ],
            )

    def test_float_weights_read_as_decimals(self, bits_schema):
        dist = ProductDistribution(
            bits_schema,
            [{"0": 0.1, "1": 0.9}, {"0": 0.5, "1": 0.5}, {"0": 0.25, "1": 0.75}],
        )
        assert prob(dist, ("0", "0", "0")) == Fraction(1, 80)
        assert prob(dist, ("1", "1", "1")) == Fraction(27, 80)

    def test_unknown_value_rejected(self, bits_schema):
        with pytest.raises(InputError, match="not in its domain"):
            ProductDistribution(
                bits_schema,
                [
                    {"2": Fraction(1)},
                    {"0": "0.5", "1": "0.5"},
                    {"0": "0.5", "1": "0.5"},
                ],
            )

    def test_missing_value_means_zero(self, bits_schema):
        dist = ProductDistribution(
            bits_schema,
            [
                {"0": Fraction(1)},
                {"0": "0.5", "1": "0.5"},
                {"0": "0.5", "1": "0.5"},
            ],
        )
        assert prob(dist, ("1", "0", "0")) == 0
        assert total_mass(dist, bits_schema) == 1

    def test_from_csv(self, tmp_path, bits_schema):
        p = tmp_path / "marginals.csv"
        p.write_text(
            "feature,value,probability\n"
            "F1,0,1/4\nF1,1,3/4\n"
            "F2,0,0.5\nF2,1,0.5\n"
            "F3,0,1/3\nF3,1,2/3\n"
        )
        dist = ProductDistribution.from_csv(p, bits_schema)
        assert prob(dist, ("0", "0", "0")) == Fraction(1, 4) * Fraction(1, 2) * Fraction(1, 3)

    def test_from_csv_bad_header(self, tmp_path, bits_schema):
        p = tmp_path / "marginals.csv"
        p.write_text("feat,val,p\nF1,0,1\n")
        with pytest.raises(InputError, match="header"):
            ProductDistribution.from_csv(p, bits_schema)

    def test_from_csv_skips_blank_rows(self, tmp_path, bits_schema):
        p = tmp_path / "m.csv"
        p.write_text(
            "feature,value,probability\n\nF1,0,1/4\n , , \nF1,1,3/4\n"
            "F2,0,1/2\nF2,1,1/2\nF3,0,1\n"
        )
        dist = ProductDistribution.from_csv(p, bits_schema)
        assert prob(dist, ("0", "0", "0")) == Fraction(1, 8)

    @pytest.mark.parametrize("rows, message", [
        ("Outlook,sunny\n", "m.csv:2: wrong column count"),
        ("Outlook,sunny,1/2\nOutlook,sunny,1/2\n", "m.csv:3: duplicate entry for 'sunny'"),
    ])
    def test_from_csv_row_errors(self, tmp_path, tennis_schema, rows, message):
        p = tmp_path / "m.csv"
        p.write_text("feature,value,probability\n" + rows)
        with pytest.raises(InputError) as info:
            ProductDistribution.from_csv(p, tennis_schema)
        assert str(info.value) == f"{tmp_path}/{message}"

    def test_one_marginal_per_feature(self, bits_schema):
        with pytest.raises(InputError) as info:
            ProductDistribution(bits_schema, [{"0": 1}] * 2)
        assert str(info.value) == "need one marginal per feature"

    @pytest.mark.parametrize("weight, want", [
        (Fraction(1, 4), Fraction(1, 4)),
        (1, Fraction(1)),
        ("1/4", Fraction(1, 4)),
        (" 0.25 ", Fraction(1, 4)),
        (0.25, Fraction(1, 4)),
        (0.1, Fraction(1, 10)),
        (Decimal("0.25"), None),
        (None, None),
        ("1/0", None),
        ("", None),
    ], ids=["fraction", "int", "str", "str-decimal", "float", "float-decimal",
            "decimal", "none", "zero-denominator", "empty"])
    def test_one_parse_per_weight_type(self, weight, want):
        # Fraction, int, str and float weights parse, a float as its decimal
        # text; any other type, and any text that is no number, is refused
        schema = FeatureSchema((Feature("F1", ("0", "1")),))
        marginal = {"0": weight, "1": Fraction(1) - (want or 0)}
        if want is None:
            with pytest.raises(InputError) as info:
                ProductDistribution(schema, [marginal])
            shown = str(weight) if isinstance(weight, float) else weight
            assert str(info.value) == f"marginal of 'F1': cannot parse probability {shown!r}"
        else:
            dist = ProductDistribution(schema, [marginal])
            assert prob(dist, ("0",)) == want

    def test_integer_and_unparsable_weights(self, bits_schema):
        dist = ProductDistribution(bits_schema, [{"0": 1, "1": 0}] * 3)
        assert prob(dist, ("0", "0", "0")) == 1
        with pytest.raises(InputError) as info:
            ProductDistribution(bits_schema, [{"0": None}] + [{"0": 1}] * 2)
        assert str(info.value) == "marginal of 'F1': cannot parse probability None"


class TestEmpirical:
    def test_frequencies(self, bits_schema):
        sample = [
            ("0", "1", "1"),
            ("0", "1", "1"),
            ("1", "0", "1"),
            ("0", "0", "1"),
        ]
        dist = EmpiricalDistribution(bits_schema, sample)
        assert prob(dist, ("0", "1", "1")) == Fraction(1, 2)
        assert prob(dist, ("1", "1", "1")) == 0
        assert total_mass(dist, bits_schema) == 1

    def test_accepts_entities(self, bits_schema, e1):
        dist = EmpiricalDistribution(bits_schema, [e1, e1])
        assert prob(dist, e1.values) == 1

    def test_empty_sample_rejected(self, bits_schema):
        with pytest.raises(InputError, match="empty"):
            EmpiricalDistribution(bits_schema, [])

    def test_zero_mass_conditional_slice(self, bits_schema):
        # no sampled vector has F2=0 and F3=1: every weight of the slice is 0
        dist = EmpiricalDistribution(bits_schema, [("0", "1", "1")])
        weights = dist.conditional(("1", "0", "1"), 0)
        assert list(weights.items()) == [("0", 0), ("1", 0)]
        assert all(type(w) is int for w in weights.values())


class TestConditioned:
    def chi(self):
        # forbid F2=0 with F3=1
        return DenialConstraint((DenialLiteral(1, "0"), DenialLiteral(2, "1")))

    def test_excluded_entity_has_zero_mass(self, bits_schema):
        dist = ConditionedDistribution(
            UniformDistribution(bits_schema), [self.chi()]
        )
        assert prob(dist, ("0", "0", "1")) == 0

    def test_kept_entity_renormalized(self, bits_schema):
        dist = ConditionedDistribution(
            UniformDistribution(bits_schema), [self.chi()]
        )
        # 6 of 8 vectors survive the denial
        assert prob(dist, ("0", "1", "1")) == Fraction(1, 6)
        assert total_mass(dist, bits_schema) == 1

    def test_mass_zero_outside_event_everywhere(self, bits_schema):
        chi = self.chi()
        dist = ConditionedDistribution(UniformDistribution(bits_schema), [chi])
        for vec in bits_schema.iter_space():
            if chi.matches(vec):
                assert prob(dist, vec) == 0
            else:
                assert prob(dist, vec) > 0

    def test_zero_mass_event_rejected(self, bits_schema):
        everything = [
            DenialConstraint((DenialLiteral(0, "0"),)),
            DenialConstraint((DenialLiteral(0, "1"),)),
        ]
        with pytest.raises(ZeroMassError, match="zero mass"):
            ConditionedDistribution(UniformDistribution(bits_schema), everything)

    def test_space_too_large_to_condition(self):
        # a space past the scan limit conditions as soon as a vector with
        # mass turns up; only a scan cut off at the limit, which proves
        # nothing, is refused, and it says where it stopped
        schema = FeatureSchema(tuple(Feature(f"F{i + 1}", ("0", "1")) for i in range(21)))
        assert schema.space_size() == 2 * SPACE_ENUMERATION_LIMIT == 1 << 21
        dist = ConditionedDistribution(UniformDistribution(schema), [self.chi()])
        # label 1 iff F1 = 0 and F3 = 0; the denial forbids F2 = 0 with F3 = 1
        clf = RuleClassifier(schema, [Rule(((0, "0"), (2, "0")), 1)], 0)
        entity = schema.entity("e", ("0",) * 21)
        first = global_resp(schema, clf, entity, 0, dist, max_gamma=0)
        assert (first.score, first.gamma, first.truncated) == (Fraction(1, 2), (), False)
        # resampling F3 can only reach F3 = 1, which the denial forbids
        third = global_resp(schema, clf, entity, 2, dist, max_gamma=0)
        assert (third.score, third.gamma, third.truncated) == (0, None, True)
        first_value = DenialConstraint((DenialLiteral(0, "0"),))
        with pytest.raises(InputError) as info:
            ConditionedDistribution(UniformDistribution(schema), [first_value])
        assert type(info.value) is InputError
        assert str(info.value) == (
            "conditioning event: none of the first 1048576 support vectors has "
            "mass; the scan stops there, so nothing is proven"
        )

    def test_scan_stops_at_the_first_vector_with_mass(self, bits_schema):
        class OneThenFail(UniformDistribution):
            def support(self):
                yield ("1", "1", "1")
                raise AssertionError("scanned past the first vector with mass")

        dist = ConditionedDistribution(OneThenFail(bits_schema), [self.chi()])
        assert dist.weight(("1", "0", "1")) == 0
        assert dist.weight(("1", "1", "1")) == 1

    def test_conditioning_twice_scans_the_sample(self):
        # a conditioned distribution's support is its base's: conditioning
        # it again scans the two sampled vectors, not 2**21 of the space
        schema = FeatureSchema(tuple(Feature(f"F{i + 1}", ("0", "1")) for i in range(21)))
        sample = [("1", "0", *"0" * 19), ("1", "1", *"0" * 19)]
        emp = EmpiricalDistribution(schema, sample)
        deny_f3 = DenialConstraint((DenialLiteral(2, "1"),))
        deny_f4 = DenialConstraint((DenialLiteral(3, "1"),))
        nested = ConditionedDistribution(ConditionedDistribution(emp, [deny_f3]), [deny_f4])
        flat = ConditionedDistribution(emp, [deny_f3, deny_f4])
        for vec in sample:
            for i in range(len(schema)):
                assert nested.conditional(vec, i) == flat.conditional(vec, i), (vec, i)

    def test_agrees_with_oracle_table(self, bits_schema):
        chi = self.chi()
        dist = ConditionedDistribution(UniformDistribution(bits_schema), [chi])
        domains = [f.domain for f in bits_schema]
        table = oracles.condition_table(
            oracles.uniform_table(domains), lambda v: not chi.matches(v)
        )
        for vec in bits_schema.iter_space():
            assert prob(dist, vec) == oracles.prob_of(table, vec)


class TestLocalResp:
    def test_table1_f2_empty_gamma(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        score = local_resp(bits_schema, t1_table, e1, 1, (), (), dist)
        assert score == Fraction(1, 2)

    def test_no_flip_means_zero(self, bits_schema, e1):
        ones = table_from_function(bits_schema, lambda v: 1)
        dist = UniformDistribution(bits_schema)
        assert local_resp(bits_schema, ones, e1, 1, (), (), dist) == 0

    def test_condition_1_fstar_in_gamma(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        with pytest.raises(ConditionError) as info:
            local_resp(bits_schema, t1_table, e1, 1, (1,), ("0",), dist)
        assert info.value.condition == 1

    def test_condition_1_duplicate_gamma(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        with pytest.raises(ConditionError) as info:
            local_resp(bits_schema, t1_table, e1, 1, (0, 0), ("1", "1"), dist)
        assert info.value.condition == 1

    def test_condition_2_value_equal_to_current(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        with pytest.raises(ConditionError) as info:
            local_resp(bits_schema, t1_table, e1, 1, (0,), ("0",), dist)
        assert info.value.condition == 2

    def test_condition_2_value_outside_domain(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        with pytest.raises(ConditionError) as info:
            local_resp(bits_schema, t1_table, e1, 1, (0,), ("2",), dist)
        assert info.value.condition == 2
        assert str(info.value) == "value '2' not in domain of 'F1'"

    def test_condition_2_one_value_per_feature(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        with pytest.raises(ConditionError) as info:
            local_resp(bits_schema, t1_table, e1, 1, (0, 2), ("1",), dist)
        assert info.value.condition == 2
        assert str(info.value) == "one new value per contingency feature required"

    @DISTRIBUTIONS
    def test_entity_outside_domain_rejected(self, bits_schema, t1_table, make_dist):
        with pytest.raises(InputError) as info:
            local_resp(bits_schema, t1_table, OUTSIDE, 0, (), (), make_dist(bits_schema))
        assert type(info.value) is InputError
        assert str(info.value) == OUTSIDE_MESSAGE

    def test_condition_4_entity_label(self, bits_schema, t1_table):
        dist = UniformDistribution(bits_schema)
        e7 = bits_schema.entity("e7", ("0", "0", "1"))
        with pytest.raises(ConditionError) as info:
            local_resp(bits_schema, t1_table, e7, 0, (), (), dist)
        assert info.value.condition == 4

    def test_condition_4_contingency_flips_label(self, bits_schema, t1_table, e1):
        # setting F2=0 on e1 gives (0,0,1), label 0: not a legal contingency
        dist = UniformDistribution(bits_schema)
        with pytest.raises(ConditionError) as info:
            local_resp(bits_schema, t1_table, e1, 0, (1,), ("0",), dist)
        assert info.value.condition == 4

    def test_empirical_zero_slice_raises(self, bits_schema, t1_table, e1):
        dist = EmpiricalDistribution(bits_schema, [("0", "1", "1")])
        clf = MemoClassifier(t1_table)
        # conditional of F1 given F2=0 (after the contingency) has no sample;
        # only the entity and the primed vector are asked
        with pytest.raises(ZeroMassError, match="no probability mass on the slice"):
            local_resp(bits_schema, clf, e1, 0, (2,), ("0",), dist)
        assert clf.queries == 2

    def test_gamma_damping(self, bits_schema):
        # classifier 0 only at (1,0,1): flipping F1 alone keeps label 1,
        # fixing F2=0 first makes the F1 resample flip half the time
        clf = table_from_function(
            bits_schema, lambda v: 0 if v == ("1", "0", "1") else 1
        )
        e = bits_schema.entity("e", ("0", "1", "1"))
        dist = UniformDistribution(bits_schema)
        score = local_resp(bits_schema, clf, e, 0, (1,), ("0",), dist)
        assert score == Fraction(1, 4)


class TestGlobalResp:
    def test_table1_f2_uniform(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        result = global_resp(bits_schema, t1_table, e1, 1, dist)
        assert result.score == Fraction(1, 2)
        assert result.gamma == ()
        assert not result.truncated

    def test_both_flip_toy(self):
        schema = FeatureSchema((Feature("F1", ("0", "1")), Feature("F2", ("0", "1"))))
        clf = table_from_function(
            schema, lambda v: 0 if v == ("0", "0") else 1
        )
        e = schema.entity("e", ("1", "1"))
        dist = UniformDistribution(schema)
        result = global_resp(schema, clf, e, 0, dist)
        assert result.score == Fraction(1, 4)
        assert result.gamma == (1,)
        assert result.gamma_values == ("0",)

    def test_never_flipping_feature_scores_zero(self, bits_schema):
        # label depends on F1 only; F2 can never matter
        clf = table_from_function(
            bits_schema, lambda v: 1 if v[0] == "0" else 0
        )
        e = bits_schema.entity("e", ("0", "1", "1"))
        dist = UniformDistribution(bits_schema)
        result = global_resp(bits_schema, clf, e, 1, dist)
        assert result.score == 0
        assert result.gamma is None
        assert not result.truncated

    def test_max_gamma_truncation_flagged(self):
        schema = FeatureSchema((Feature("F1", ("0", "1")), Feature("F2", ("0", "1"))))
        clf = table_from_function(
            schema, lambda v: 0 if v == ("0", "0") else 1
        )
        e = schema.entity("e", ("1", "1"))
        dist = UniformDistribution(schema)
        result = global_resp(schema, clf, e, 0, dist, max_gamma=0)
        assert result.score == 0
        assert result.truncated

    def test_negative_max_gamma_rejected(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        with pytest.raises(InputError) as info:
            global_resp(bits_schema, t1_table, e1, 0, dist, max_gamma=-1)
        assert str(info.value) == "max_gamma must be >= 0"

    @DISTRIBUTIONS
    def test_entity_outside_domain_rejected(self, bits_schema, t1_table, make_dist):
        with pytest.raises(InputError) as info:
            global_resp(bits_schema, t1_table, OUTSIDE, 0, make_dist(bits_schema))
        assert type(info.value) is InputError
        assert str(info.value) == OUTSIDE_MESSAGE

    def test_label0_entity_rejected(self, bits_schema, t1_table):
        dist = UniformDistribution(bits_schema)
        with pytest.raises(NothingToExplainError):
            global_resp(
                bits_schema, t1_table, bits_schema.entity("e7", ("0", "0", "1")), 0, dist
            )

    def test_empirical_skips_massless_pairs(self, bits_schema, t1_table, e1):
        # sample misses most slices; the maximization must not crash
        dist = EmpiricalDistribution(
            bits_schema,
            [("0", "1", "1"), ("0", "0", "1"), ("1", "1", "1")],
        )
        result = global_resp(bits_schema, t1_table, e1, 1, dist)
        # slice F1=0,F3=1 holds e1 (label 1) and e7 (label 0), half mass each
        assert result.score == Fraction(1, 2)

    def test_conditioned_distribution_changes_score(self, bits_schema, t1_table, e1):
        # forbid F2=0 ^ F3=1: resampling F2 on e1 can no longer reach (0,0,1)
        chi = DenialConstraint((DenialLiteral(1, "0"), DenialLiteral(2, "1")))
        dist = ConditionedDistribution(UniformDistribution(bits_schema), [chi])
        result = global_resp(bits_schema, t1_table, e1, 1, dist)
        uncond = global_resp(
            bits_schema, t1_table, e1, 1, UniformDistribution(bits_schema)
        )
        assert uncond.score == Fraction(1, 2)
        assert result.score != uncond.score

    def test_matches_oracle_on_product_distribution(self, bits_schema, t1_table, e1):
        marginals = [
            {"0": Fraction(1, 4), "1": Fraction(3, 4)},
            {"0": Fraction(2, 5), "1": Fraction(3, 5)},
            {"0": Fraction(1, 2), "1": Fraction(1, 2)},
        ]
        dist = ProductDistribution(bits_schema, marginals)
        domains = [f.domain for f in bits_schema]
        table = oracles.product_table(domains, [
            {v: m[v] for v in d} for m, d in zip(marginals, domains)
        ])
        for f_star in range(3):
            got = global_resp(bits_schema, t1_table, e1, f_star, dist)
            assert (got.score, got.gamma, got.gamma_values) == oracles.global_resp(
                domains, e1.values, t1_table.label, f_star, table
            )

    @pytest.mark.parametrize("n", range(3, 8))
    def test_threshold_model_closed_form(self, n):
        # label 1 iff at most h = n // 2 features leave "0", from the all-"0"
        # entity, one memo for all features as in `score --prob uniform`.
        # The first size with a positive score is h: one more change flips
        # the label, so resampling f* loses 2 of its 3 values. Every such
        # candidate reaches the uniform cap (2, 3), so the first of them ends
        # the size. Each candidate of a smaller size asks itself and f*'s two
        # other values: it loses nothing, but the bound cannot know that
        # before the labels.
        # With A(m, j) = sum over s <= j of C(m, s) 2^s:
        #   queries       3n (A(n-1, h-1) + 1)
        #   backend calls A(n, h) + 2n - h
        h = n // 2
        schema = FeatureSchema(tuple(
            Feature(f"F{i}", ("0", "1", "2")) for i in range(n)
        ))
        memo = MemoClassifier(table_from_function(
            schema, lambda v: int(n - v.count("0") <= h)
        ))
        entity = schema.entity("e", ("0",) * n)
        dist = UniformDistribution(schema)
        scores = [global_resp(schema, memo, entity, f, dist) for f in range(n)]

        def a(m, j):
            return sum(comb(m, s) * 2**s for s in range(j + 1))

        assert memo.queries == 3 * n * (a(n - 1, h - 1) + 1)
        assert memo.backend_calls == a(n, h) + 2 * n - h
        for f, got in enumerate(scores):
            assert got.score == Fraction(2, 3 * (h + 1))
            # the first candidate of size h: the first h other features at "1"
            assert got.gamma == tuple(i for i in range(n) if i != f)[:h]
            assert set(got.gamma_values) == {"1"}
            assert not got.truncated
