import time
from math import comb

import pytest

import oracles
from cfx import search
from cfx.classify import MemoClassifier
from cfx.constrain import ActionabilityRule, ConstraintSet, DenialConstraint, DenialLiteral
from cfx.errors import InputError, NothingToExplainError
from cfx.schema import Feature, FeatureSchema
from cfx.search import (
    SearchConfig,
    SearchStats,
    SearchTruncatedError,
    Walk,
    c_explanations,
    enumerate_counterfactuals,
    s_explanations,
)
from cfx.score import x_resp
from conftest import s_values, table_from_function


def cf_values(result):
    return [x.counterfactual.values for x in result.explanations]


class TestTable1:
    def test_counterfactual_set(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(bits_schema, t1_table, e1)
        assert set(cf_values(result)) == {
            ("1", "0", "1"),
            ("0", "0", "1"),
            ("0", "0", "0"),
        }
        assert result.exhausted
        assert result.min_cardinality == 1

    def test_canonical_order(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(bits_schema, t1_table, e1)
        assert cf_values(result) == [
            ("0", "0", "1"),
            ("1", "0", "1"),
            ("0", "0", "0"),
        ]
        assert [x.cardinality for x in result.explanations] == [1, 2, 2]

    def test_minimality_flags(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(bits_schema, t1_table, e1)
        assert result.s_flags == [True, False, False]
        assert result.c_flags == [True, False, False]
        only = result.c_set[0]
        assert only.counterfactual.values == ("0", "0", "1")
        assert only.changed == ((1, "1"),)

    def test_wrappers(self, bits_schema, t1_table, e1):
        cset = c_explanations(bits_schema, t1_table, e1)
        sset = s_explanations(bits_schema, t1_table, e1)
        assert [x.counterfactual.values for x in cset] == [("0", "0", "1")]
        assert sset == cset

    def test_against_oracle(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(bits_schema, t1_table, e1)
        domains = [f.domain for f in bits_schema]
        cfs = oracles.counterfactuals(domains, e1.values, t1_table.label)
        assert set(cf_values(result)) == {cand for cand, _ in cfs}
        assert s_values(result) == {
            cand for cand, _ in oracles.s_minimal(cfs)
        }
        assert {x.counterfactual.values for x in result.c_set} == {
            cand for cand, _ in oracles.c_minimal(cfs)
        }


class TestTable2:
    def test_sets(self, bits_schema, t2_table, e1):
        result = enumerate_counterfactuals(bits_schema, t2_table, e1)
        assert set(cf_values(result)) == {
            ("1", "1", "0"),
            ("1", "0", "0"),
            ("0", "0", "1"),
        }
        assert s_values(result) == {
            ("0", "0", "1"),
            ("1", "1", "0"),
        }
        assert [x.counterfactual.values for x in result.c_set] == [("0", "0", "1")]

    def test_s_not_c(self, bits_schema, t2_table, e1):
        # the {F1,F3} explanation is subset-minimal yet not cardinality-minimal
        result = enumerate_counterfactuals(bits_schema, t2_table, e1)
        by_values = {x.counterfactual.values: (s, c) for x, s, c in zip(
            result.explanations, result.s_flags, result.c_flags
        )}
        assert by_values[("1", "1", "0")] == (True, False)
        assert by_values[("0", "0", "1")] == (True, True)
        assert by_values[("1", "0", "0")] == (False, False)


class TestTennis:
    def test_counterfactuals_with_distances(self, tennis_schema, tennis_clf, tennis_entity):
        result = enumerate_counterfactuals(tennis_schema, tennis_clf, tennis_entity)
        expected = {
            ("sunny", "high", "weak"): 1,
            ("sunny", "high", "strong"): 2,
            ("rain", "normal", "strong"): 2,
            ("rain", "high", "strong"): 3,
        }
        assert {
            x.counterfactual.values: x.cardinality for x in result.explanations
        } == expected

    def test_minimal_sets(self, tennis_schema, tennis_clf, tennis_entity):
        result = enumerate_counterfactuals(tennis_schema, tennis_clf, tennis_entity)
        assert [x.counterfactual.values for x in result.c_set] == [
            ("sunny", "high", "weak")
        ]
        assert s_values(result) == {
            ("sunny", "high", "weak"),
            ("rain", "normal", "strong"),
        }

    def test_denial_removes_rain_strong_keeps_c_set(
        self, tennis_schema, tennis_clf, tennis_entity
    ):
        cs = ConstraintSet(
            tennis_schema,
            denials=(
                DenialConstraint((DenialLiteral(0, "rain"), DenialLiteral(2, "strong"))),
            ),
        )
        result = enumerate_counterfactuals(
            tennis_schema, tennis_clf, tennis_entity, cs
        )
        assert set(cf_values(result)) == {
            ("sunny", "high", "weak"),
            ("sunny", "high", "strong"),
        }
        assert [x.counterfactual.values for x in result.c_set] == [
            ("sunny", "high", "weak")
        ]

    def test_constraint_monotonicity(self, tennis_schema, tennis_clf, tennis_entity):
        cs = ConstraintSet(
            tennis_schema,
            denials=(
                DenialConstraint((DenialLiteral(0, "rain"), DenialLiteral(2, "strong"))),
            ),
        )
        free = enumerate_counterfactuals(tennis_schema, tennis_clf, tennis_entity)
        tied = enumerate_counterfactuals(tennis_schema, tennis_clf, tennis_entity, cs)
        assert set(cf_values(tied)) <= set(cf_values(free))


class TestModesAndConfig:
    def test_levelwise_matches_oracle(self, tennis_schema, tennis_clf, tennis_entity):
        result = enumerate_counterfactuals(tennis_schema, tennis_clf, tennis_entity)
        domains = [f.domain for f in tennis_schema]
        cfs = oracles.counterfactuals(domains, tennis_entity.values, tennis_clf.label)
        s_vals = {cand for cand, _ in oracles.s_minimal(cfs)}
        c_vals = {cand for cand, _ in oracles.c_minimal(cfs)}
        got = cf_values(result)
        assert got == oracles.canonical_order(
            domains, tennis_entity.values, [cand for cand, _ in cfs]
        )
        assert result.s_flags == [v in s_vals for v in got]
        assert result.c_flags == [v in c_vals for v in got]
        assert result.exhausted

    def test_stop_at_first_hit_is_authoritative(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(
            bits_schema, t1_table, e1, stop_at_first_hit=True
        )
        assert result.exhausted
        assert cf_values(result) == [("0", "0", "1")]
        assert result.stats.levels_explored == 1
        # precondition + the three distance-1 candidates
        assert result.stats.classifier_calls == 4

    def test_full_walk_call_count(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(bits_schema, t1_table, e1)
        # 1 precondition + 3 + 3 + 1 candidates
        assert result.stats.classifier_calls == 8
        assert result.stats.levels_explored == 3

    def test_max_cardinality_truncates(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(
            bits_schema, t1_table, e1, config=SearchConfig(max_cardinality=1)
        )
        assert cf_values(result) == [("0", "0", "1")]
        assert not result.exhausted

    def test_max_cardinality_at_n_is_exhaustive(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(
            bits_schema, t1_table, e1, config=SearchConfig(max_cardinality=3)
        )
        assert result.exhausted

    def test_a_bound_covering_every_movable_feature_is_exhaustive(self, bits_schema, e1):
        # only F3 decides the label, and F3 is fixed: no set holds more
        # than F1 and F2, so a bound of 2 asks every set there is
        table = table_from_function(bits_schema, lambda v: int(v[2] == "1"))
        cs = ConstraintSet(bits_schema, actionability=(ActionabilityRule(2, "fixed"),))
        config = SearchConfig(max_cardinality=2)
        result = enumerate_counterfactuals(bits_schema, table, e1, cs, config)
        assert (result.exhausted, result.no_counterfactual) == (True, True)
        assert result.stats == SearchStats(4, 2)
        assert c_explanations(bits_schema, table, e1, cs, config) == []
        cut = enumerate_counterfactuals(
            bits_schema, table, e1, cs, SearchConfig(max_cardinality=1)
        )
        assert not cut.exhausted

    def test_budget_truncates(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(
            bits_schema, t1_table, e1, config=SearchConfig(budget=3)
        )
        assert not result.exhausted
        assert result.stats.classifier_calls <= 3

    def test_budget_of_one_fails_precondition_check(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(
            bits_schema, t1_table, e1, config=SearchConfig(budget=1)
        )
        # the single grant goes to the precondition; nothing else runs
        assert result.stats.classifier_calls == 1
        assert result.explanations == []
        assert not result.exhausted
        assert not result.no_counterfactual

    def test_truncated_wrappers_raise(self, bits_schema, t1_table, e1):
        with pytest.raises(SearchTruncatedError):
            c_explanations(
                bits_schema, t1_table, e1, config=SearchConfig(budget=2)
            )
        with pytest.raises(SearchTruncatedError):
            s_explanations(
                bits_schema, t1_table, e1, config=SearchConfig(max_cardinality=1)
            )

    def test_label0_entity_rejected(self, bits_schema, t1_table):
        e7 = bits_schema.entity("e7", ("0", "0", "1"))
        with pytest.raises(NothingToExplainError):
            enumerate_counterfactuals(bits_schema, t1_table, e7)

    def test_no_counterfactual_marker(self, bits_schema, e1):
        ones = table_from_function(bits_schema, lambda v: 1)
        result = enumerate_counterfactuals(bits_schema, ones, e1)
        assert result.explanations == []
        assert result.no_counterfactual
        assert result.min_cardinality is None
        assert c_explanations(bits_schema, ones, e1) == []

    def test_every_single_flip_counterfactual(self, bits_schema, e1):
        # only the original keeps label 1: every singleton is a c-explanation
        only = table_from_function(
            bits_schema, lambda v: 1 if v == ("0", "1", "1") else 0
        )
        result = enumerate_counterfactuals(bits_schema, only, e1)
        assert sum(result.c_flags) == 3
        assert all(x.cardinality == 1 for x in result.c_set)

    def test_bad_config_rejected(self):
        with pytest.raises(InputError):
            SearchConfig(max_cardinality=0)
        with pytest.raises(InputError):
            SearchConfig(budget=0)

    def test_admissibility_filtered_before_classify(
        self, tennis_schema, tennis_clf, tennis_entity
    ):
        # denials that ban the whole space leave only the precondition call
        cs = ConstraintSet(
            tennis_schema,
            denials=tuple(
                DenialConstraint((DenialLiteral(0, v),))
                for v in ("sunny", "overcast", "rain")
            ),
        )
        memo = MemoClassifier(tennis_clf)
        result = enumerate_counterfactuals(tennis_schema, memo, tennis_entity, cs)
        assert result.stats.classifier_calls == 1
        assert memo.queries == 1
        assert result.no_counterfactual

    def test_memo_keeps_budget_semantics(self, bits_schema, t1_table, e1):
        # a warm cache must not change issued-call accounting
        memo = MemoClassifier(t1_table)
        for vec in bits_schema.iter_space():
            memo.label(vec)
        result = enumerate_counterfactuals(bits_schema, memo, e1)
        assert result.stats.classifier_calls == 8
        assert memo.backend_calls == 8  # no new backend work


class TestScale:
    def test_full_enumeration_n10_closed_form(self):
        # label 1 iff at least half of the ten features are "0"; from the
        # all-"0" entity a counterfactual changes k >= 6 features, each to
        # "1" or "2": sum over k of C(10,k) 2^k hits, the k = 6 ones minimal
        n = 10
        schema = FeatureSchema(tuple(
            Feature(f"F{i}", ("0", "1", "2")) for i in range(n)
        ))
        clf = table_from_function(
            schema, lambda v: int(2 * v.count("0") >= n)
        )
        entity = schema.entity("e", ("0",) * n)

        started = time.perf_counter()
        result = enumerate_counterfactuals(schema, clf, entity)
        elapsed = time.perf_counter() - started

        assert result.exhausted
        assert len(result.explanations) == 46464 == sum(
            comb(n, k) * 2**k for k in range(6, n + 1)
        )
        six = [x.cardinality == 6 for x in result.explanations]
        assert sum(six) == 13440 == comb(n, 6) * 2**6
        assert result.s_flags == six
        assert result.c_flags == six
        # canonical order (cardinality, index set, domain ranks), strictly
        # increasing, so the hits are also distinct
        keys = []
        for x in result.explanations:
            cf = x.counterfactual.values
            idxs = tuple(i for i, v in enumerate(cf) if v != "0")
            assert x.changed == tuple((i, "0") for i in idxs)
            keys.append((len(idxs), idxs, tuple(int(cf[i]) for i in idxs)))
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # about 0.5 s with s-flags settled per index set; a pairwise
        # comparison of all hits takes tens of seconds here
        assert elapsed < 10.0, f"n=10 full enumeration took {elapsed:.1f} s"


class TestResultShape:
    def test_json_payload(self, bits_schema, t1_table, e1):
        payload = enumerate_counterfactuals(
            bits_schema, t1_table, e1
        ).to_json_dict(bits_schema)
        assert payload["entity"] == "e"
        assert payload["values"] == ["0", "1", "1"]
        assert payload["min_cardinality"] == 1
        assert payload["exhausted"] is True
        assert payload["no_counterfactual"] is False
        first = payload["explanations"][0]
        assert first == {
            "changed": {"F2": "1"},
            "counterfactual": ["0", "0", "1"],
            "cardinality": 1,
            "s_minimal": True,
            "c_minimal": True,
        }
        assert payload["stats"]["classifier_calls"] == 8

    def test_one_row_per_hit(self, bits_schema, t1_table, e1):
        # (changed-index set, counterfactual values, s-minimal), walk order
        result = enumerate_counterfactuals(bits_schema, t1_table, e1)
        assert result.hits == [
            ((1,), ("0", "0", "1"), True),
            ((0, 1), ("1", "0", "1"), False),
            ((1, 2), ("0", "0", "0"), False),
        ]

    def test_counterfactual_entities_keep_id(self, bits_schema, t1_table, e1):
        result = enumerate_counterfactuals(bits_schema, t1_table, e1)
        assert all(x.counterfactual.id == "e" for x in result.explanations)


class TestWalk:
    def test_rows_come_as_they_are_found(self, bits_schema, t1_table, e1):
        # the entity's label is asked when the walk is built; the first row
        # comes right after its own query, the second of level 1's three
        memo = MemoClassifier(t1_table)
        walk = Walk(bits_schema, memo, e1)
        assert memo.queries == 1
        rows = iter(walk)
        assert next(rows) == ((1,), ("0", "0", "1"), True)
        assert memo.queries == 3
        assert (walk.stats, walk.exhausted) == (None, None)
        rest = list(rows)
        assert memo.queries == 8
        result = enumerate_counterfactuals(bits_schema, t1_table, e1)
        assert [((1,), ("0", "0", "1"), True), *rest] == result.hits
        assert (walk.stats, walk.exhausted) == (result.stats, result.exhausted)

    def test_label_zero_entity_refused_when_built(self, bits_schema, t1_table):
        with pytest.raises(NothingToExplainError):
            Walk(bits_schema, t1_table, bits_schema.entity("z", ("0", "0", "0")))

    @pytest.mark.parametrize("budget", [1, 3, 5])
    def test_truncated_walk_ends_as_the_collector(self, bits_schema, t1_table, e1, budget):
        cfg = SearchConfig(budget=budget)
        walk = Walk(bits_schema, t1_table, e1, config=cfg)
        rows = list(walk)
        result = enumerate_counterfactuals(bits_schema, t1_table, e1, config=cfg)
        assert (rows, walk.stats, walk.exhausted) == (
            result.hits, result.stats, result.exhausted
        )
        assert walk.exhausted is False


class TestPrunedWalk:
    """Four binary features from 0000; a vector has label 0 iff it changes
    {F1, F4}, {F2, F4}, {F3, F4} or {F1, F2, F3}: the pairs cover every
    feature on level 2, yet {F1, F2, F3} is s-minimal on level 3."""

    @pytest.fixture
    def case(self):
        schema = FeatureSchema(tuple(Feature(f"F{i + 1}", ("0", "1")) for i in range(4)))

        def label(vec):
            ones = {i for i, v in enumerate(vec) if v == "1"}
            return int(not any(m <= ones for m in ({0, 3}, {1, 3}, {2, 3}, {0, 1, 2})))

        table = table_from_function(schema, label)
        return schema, table, schema.entity("z", ("0",) * 4)

    def test_s_set_walk_goes_past_the_cover(self, case):
        schema, table, entity = case
        memo = MemoClassifier(table)
        got = ["".join(x.counterfactual.values) for x in s_explanations(schema, memo, entity)]
        assert got == ["1001", "0101", "0011", "1110"]
        # the entity, 4 + 6 candidates, then {F1, F2, F3} alone on level 3;
        # level 4 holds no set left
        assert memo.queries == 12

    def test_witness_walk_stops_at_the_cover(self, case):
        schema, table, entity = case
        memo = MemoClassifier(table)
        walk = Walk(schema, memo, entity, prune=search.WITNESSES)
        rows = [idxs for idxs, _, _ in walk]
        assert rows == [(0, 3), (1, 3), (2, 3)]
        assert (walk.stats, walk.exhausted) == (SearchStats(11, 2), True)
        assert memo.queries == 11

    @pytest.mark.parametrize("prune, bound, exhausted", [
        # level 3 still holds {F1, F2, F3}, which no minimal pair is inside
        (search.S_SET, 2, False),
        # the pairs cover every feature after level 2
        (search.WITNESSES, 2, True),
        # level 4's only set holds {F1, F4}
        (search.S_SET, 3, True),
    ])
    def test_a_bound_is_checked_against_the_level_past_it(
        self, case, prune, bound, exhausted
    ):
        schema, table, entity = case
        walk = Walk(schema, table, entity, config=SearchConfig(bound), prune=prune)
        free = Walk(schema, table, entity, prune=prune)
        rows, free_rows = list(walk), list(free)
        assert walk.exhausted is exhausted
        assert (rows == free_rows) is exhausted
        assert walk.stats.levels_explored == bound

    def test_table1_bound_past_the_last_minimal_set(self, bits_schema, t1_table, e1):
        # from 011 the minimal {F2} lies inside level 3's only set, so a
        # walk cut at 2 missed nothing
        config = SearchConfig(max_cardinality=2)
        assert s_explanations(bits_schema, t1_table, e1, config=config) == (
            s_explanations(bits_schema, t1_table, e1)
        )
        report = x_resp(bits_schema, t1_table, e1, config=config)
        assert report.authoritative
        assert report == x_resp(bits_schema, t1_table, e1)

    def test_unknown_prune_refused(self, case):
        schema, table, entity = case
        with pytest.raises(ValueError, match="prune must be"):
            Walk(schema, table, entity, prune="s")
