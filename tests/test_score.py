"""Deterministic responsibility scores."""

import tracemalloc
from fractions import Fraction

import pytest

import oracles
from cfx.constrain import ConstraintSet, DenialConstraint, DenialLiteral
from cfx.errors import NothingToExplainError
from cfx.schema import Feature, FeatureSchema
from cfx.score import fraction_str, max_resp_features, x_resp
from cfx.search import SearchConfig, enumerate_counterfactuals
from conftest import table_from_function


def by_name(report, schema):
    return {schema.feature(fs.feature).name: fs for fs in report.scores}


class TestTable1:
    def test_scores(self, bits_schema, t1_table, e1):
        report = x_resp(bits_schema, t1_table, e1)
        scores = by_name(report, bits_schema)
        assert scores["F1"].score == 0
        assert scores["F2"].score == 1
        assert scores["F3"].score == 0
        assert report.authoritative

    def test_flags_and_witness(self, bits_schema, t1_table, e1):
        scores = by_name(x_resp(bits_schema, t1_table, e1), bits_schema)
        f2 = scores["F2"]
        assert f2.counterfactual_value_explanation
        assert f2.actual_value_explanation
        assert f2.witness.counterfactual.values == ("0", "0", "1")
        assert f2.witness.changed == ((1, "1"),)
        f1 = scores["F1"]
        assert not f1.actual_value_explanation
        assert f1.witness is None

    def test_max_resp_features(self, bits_schema, t1_table, e1):
        assert max_resp_features(bits_schema, t1_table, e1) == {1}

    def test_json(self, bits_schema, t1_table, e1):
        payload = x_resp(bits_schema, t1_table, e1).to_json_dict(bits_schema)
        f2 = payload["scores"][1]
        assert f2["feature"] == "F2"
        assert f2["score"] == "1/1"
        assert f2["score_decimal"] == 1.0
        assert f2["counterfactual_value_explanation"] is True
        assert f2["witness"]["changed"] == {"F2": "1"}
        f1 = payload["scores"][0]
        assert f1["score"] == "0/1"
        assert f1["witness"] is None


class TestTable2:
    def test_scores(self, bits_schema, t2_table, e1):
        scores = by_name(x_resp(bits_schema, t2_table, e1), bits_schema)
        assert scores["F2"].score == 1
        assert scores["F1"].score == Fraction(1, 2)
        assert scores["F3"].score == Fraction(1, 2)

    def test_half_score_witness_is_the_pair(self, bits_schema, t2_table, e1):
        scores = by_name(x_resp(bits_schema, t2_table, e1), bits_schema)
        # F1 and F3 share the {F1,F3} s-explanation reaching (1,1,0)
        for name in ("F1", "F3"):
            w = scores[name].witness
            assert w.counterfactual.values == ("1", "1", "0")
            assert w.changed_indices == {0, 2}

    def test_against_oracle(self, bits_schema, t2_table, e1):
        report = x_resp(bits_schema, t2_table, e1)
        domains = [f.domain for f in bits_schema]
        expected = oracles.x_resp(domains, e1.values, t2_table.label)
        assert [fs.score for fs in report.scores] == expected


class TestTennis:
    def test_max_resp_is_humidity(self, tennis_schema, tennis_clf, tennis_entity):
        top = max_resp_features(tennis_schema, tennis_clf, tennis_entity)
        assert top == {tennis_schema.index_of("Humidity")}

    def test_scores(self, tennis_schema, tennis_clf, tennis_entity):
        scores = by_name(x_resp(tennis_schema, tennis_clf, tennis_entity), tennis_schema)
        assert scores["Humidity"].score == 1
        assert scores["Outlook"].score == Fraction(1, 2)
        assert scores["Wind"].score == Fraction(1, 2)

    def test_denial_constraint_changes_wind_score(
        self, tennis_schema, tennis_clf, tennis_entity
    ):
        # banning rain+strong removes the {Outlook,Wind} s-explanation
        cs = ConstraintSet(
            tennis_schema,
            denials=(
                DenialConstraint((DenialLiteral(0, "rain"), DenialLiteral(2, "strong"))),
            ),
        )
        scores = by_name(
            x_resp(tennis_schema, tennis_clf, tennis_entity, cs), tennis_schema
        )
        assert scores["Humidity"].score == 1
        assert scores["Outlook"].score == 0
        assert scores["Wind"].score == 0
        assert max_resp_features(
            tennis_schema, tennis_clf, tennis_entity, cs
        ) == {tennis_schema.index_of("Humidity")}


class TestEdges:
    def test_no_counterfactual_all_zero(self, bits_schema, e1):
        ones = table_from_function(bits_schema, lambda v: 1)
        report = x_resp(bits_schema, ones, e1)
        assert all(fs.score == 0 for fs in report.scores)
        assert max_resp_features(bits_schema, ones, e1) == frozenset()

    def test_label0_entity_rejected(self, bits_schema, t1_table):
        with pytest.raises(NothingToExplainError):
            x_resp(bits_schema, t1_table, bits_schema.entity("e7", ("0", "0", "1")))

    def test_truncated_report_not_authoritative(self, bits_schema, t1_table, e1):
        report = x_resp(
            bits_schema, t1_table, e1, config=SearchConfig(max_cardinality=1)
        )
        assert not report.authoritative

    def test_every_singleton_counterfactual_scores_one(self, bits_schema, e1):
        only = table_from_function(
            bits_schema, lambda v: 1 if v == ("0", "1", "1") else 0
        )
        report = x_resp(bits_schema, only, e1)
        assert all(fs.score == 1 for fs in report.scores)
        assert max_resp_features(bits_schema, only, e1) == {0, 1, 2}

    def test_scores_are_reciprocals_or_zero(self):
        # 4-feature single-deep counterfactual: score 1/4 appears
        schema = FeatureSchema(tuple(
            Feature(f"F{i}", ("0", "1")) for i in range(1, 5)
        ))
        deep = table_from_function(
            schema, lambda v: 0 if v == ("1", "0", "0", "1") else 1
        )
        e = schema.entity("e", ("0", "1", "1", "0"))
        report = x_resp(schema, deep, e)
        assert [fs.score for fs in report.scores] == [Fraction(1, 4)] * 4


class TestReadersKeepWhatTheyReturn:
    """x_resp and max_resp_features read the walk's rows as they come and
    keep only the rows and index sets they return, not every hit."""

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("reader", [x_resp, max_resp_features])
    def test_peak_under_a_tenth_of_the_collector(self, reader):
        # the threshold model of bench/scale.py's rung 8: 4,864 hits
        n, h = 8, 4
        schema = FeatureSchema(tuple(Feature(f"F{i}", ("0", "1", "2")) for i in range(n)))
        table = table_from_function(schema, lambda v: int(n - v.count("0") <= h))
        entity = schema.entity("e", ("0",) * n)
        collector = self.peak(lambda: enumerate_counterfactuals(schema, table, entity))
        assert self.peak(lambda: reader(schema, table, entity)) < collector / 10


def test_fraction_str():
    assert fraction_str(Fraction(1, 2)) == "1/2"
    assert fraction_str(Fraction(0)) == "0/1"
    assert fraction_str(Fraction(1)) == "1/1"
