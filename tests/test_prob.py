"""Distributions and the probabilistic responsibility score."""

from fractions import Fraction

import pytest

import oracles
from cfx.classify import TableClassifier
from cfx.constrain import DenialConstraint, DenialLiteral
from cfx.errors import InputError, NothingToExplainError
from cfx.schema import Feature, FeatureSchema
from cfx.score import (
    ConditionError,
    ConditionedDistribution,
    EmpiricalDistribution,
    ProductDistribution,
    UniformDistribution,
    ZeroMassError,
    global_resp,
    local_resp,
)


def total_mass(dist, schema):
    return sum((dist.prob(v) for v in schema.iter_space()), Fraction(0))


class TestUniform:
    def test_pointwise_and_total(self, bits_schema):
        dist = UniformDistribution(bits_schema)
        assert dist.prob(("0", "1", "1")) == Fraction(1, 8)
        assert total_mass(dist, bits_schema) == 1

    def test_conditional_is_uniform(self, bits_schema):
        dist = UniformDistribution(bits_schema)
        cond = dist.conditional(("0", "1", "1"), 1)
        assert cond == {"0": Fraction(1, 2), "1": Fraction(1, 2)}


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
        assert dist.prob(("1", "0", "1")) == Fraction(3, 4) * Fraction(1, 2) * Fraction(2, 3)
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
        assert dist.prob(("1", "0", "0")) == 0
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
        assert dist.prob(("0", "0", "0")) == Fraction(1, 4) * Fraction(1, 2) * Fraction(1, 3)

    def test_from_csv_bad_header(self, tmp_path, bits_schema):
        p = tmp_path / "marginals.csv"
        p.write_text("feat,val,p\nF1,0,1\n")
        with pytest.raises(InputError, match="header"):
            ProductDistribution.from_csv(p, bits_schema)


class TestEmpirical:
    def test_frequencies(self, bits_schema):
        sample = [
            ("0", "1", "1"),
            ("0", "1", "1"),
            ("1", "0", "1"),
            ("0", "0", "1"),
        ]
        dist = EmpiricalDistribution(bits_schema, sample)
        assert dist.prob(("0", "1", "1")) == Fraction(1, 2)
        assert dist.prob(("1", "1", "1")) == 0
        assert total_mass(dist, bits_schema) == 1

    def test_accepts_entities(self, bits_schema, e1):
        dist = EmpiricalDistribution(bits_schema, [e1, e1])
        assert dist.prob(e1.values) == 1

    def test_empty_sample_rejected(self, bits_schema):
        with pytest.raises(InputError, match="empty"):
            EmpiricalDistribution(bits_schema, [])

    def test_zero_mass_conditional_slice(self, bits_schema):
        dist = EmpiricalDistribution(bits_schema, [("0", "1", "1")])
        with pytest.raises(ZeroMassError):
            dist.conditional(("1", "0", "1"), 0)


class TestConditioned:
    def chi(self):
        # forbid F2=0 with F3=1
        return DenialConstraint((DenialLiteral(1, "0"), DenialLiteral(2, "1")))

    def test_excluded_entity_has_zero_mass(self, bits_schema):
        dist = ConditionedDistribution(
            UniformDistribution(bits_schema), [self.chi()]
        )
        assert dist.prob(("0", "0", "1")) == 0

    def test_kept_entity_renormalized(self, bits_schema):
        dist = ConditionedDistribution(
            UniformDistribution(bits_schema), [self.chi()]
        )
        # 6 of 8 vectors survive the denial
        assert dist.prob(("0", "1", "1")) == Fraction(1, 6)
        assert total_mass(dist, bits_schema) == 1

    def test_mass_zero_outside_event_everywhere(self, bits_schema):
        chi = self.chi()
        dist = ConditionedDistribution(UniformDistribution(bits_schema), [chi])
        for vec in bits_schema.iter_space():
            if chi.matches(vec):
                assert dist.prob(vec) == 0
            else:
                assert dist.prob(vec) > 0

    def test_zero_mass_event_rejected(self, bits_schema):
        everything = [
            DenialConstraint((DenialLiteral(0, "0"),)),
            DenialConstraint((DenialLiteral(0, "1"),)),
        ]
        with pytest.raises(ZeroMassError, match="zero mass"):
            ConditionedDistribution(UniformDistribution(bits_schema), everything)

    def test_agrees_with_oracle_table(self, bits_schema):
        chi = self.chi()
        dist = ConditionedDistribution(UniformDistribution(bits_schema), [chi])
        domains = [f.domain for f in bits_schema]
        table = oracles.condition_table(
            oracles.uniform_table(domains), lambda v: not chi.matches(v)
        )
        for vec in bits_schema.iter_space():
            assert dist.prob(vec) == oracles.prob_of(table, vec)


class TestLocalResp:
    def test_table1_f2_empty_gamma(self, bits_schema, t1_table, e1):
        dist = UniformDistribution(bits_schema)
        score = local_resp(bits_schema, t1_table, e1, 1, (), (), dist)
        assert score == Fraction(1, 2)

    def test_no_flip_means_zero(self, bits_schema, e1):
        ones = TableClassifier.from_function(bits_schema, lambda v: 1)
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
        # conditional of F1 given F2=0 (after the contingency) has no sample
        with pytest.raises(ZeroMassError):
            local_resp(bits_schema, t1_table, e1, 0, (2,), ("0",), dist)

    def test_gamma_damping(self, bits_schema):
        # classifier 0 only at (1,0,1): flipping F1 alone keeps label 1,
        # fixing F2=0 first makes the F1 resample flip half the time
        clf = TableClassifier.from_function(
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
        clf = TableClassifier.from_function(
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
        clf = TableClassifier.from_function(
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
        clf = TableClassifier.from_function(
            schema, lambda v: 0 if v == ("0", "0") else 1
        )
        e = schema.entity("e", ("1", "1"))
        dist = UniformDistribution(schema)
        result = global_resp(schema, clf, e, 0, dist, max_gamma=0)
        assert result.score == 0
        assert result.truncated

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
