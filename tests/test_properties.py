"""Randomized invariants over small feature spaces.

Each property draws a schema of one to four features with two or three
values apiece, keeping the product space small enough to enumerate.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cfx.classify import MemoClassifier, TableClassifier
from cfx.constrain import ConstraintSet, DenialConstraint, DenialLiteral
from cfx.schema import (
    Entity,
    Explanation,
    Feature,
    FeatureSchema,
    Intervention,
    apply_intervention,
    diff,
    leq_s,
)
from cfx.score import (
    ProductDistribution,
    UniformDistribution,
    global_resp,
    max_resp_features,
    x_resp,
)
from cfx.search import enumerate_counterfactuals
from cfx import aspgen


def schemas(max_features=4, max_values=3):
    def build(shape):
        return FeatureSchema(tuple(
            Feature(f"F{i + 1}", tuple(str(v) for v in range(k)))
            for i, k in enumerate(shape)
        ))

    return st.lists(
        st.integers(2, max_values), min_size=1, max_size=max_features
    ).map(tuple).map(build)


@st.composite
def classified_spaces(draw):
    """A schema, a total truth table over it, and a label-1 entity."""
    schema = draw(schemas(max_features=3))
    space = list(schema.iter_space())
    labels = draw(st.lists(
        st.integers(0, 1), min_size=len(space), max_size=len(space)
    ))
    if 1 not in labels:
        labels[draw(st.integers(0, len(labels) - 1))] = 1
    table = dict(zip(space, labels))
    ones = [vec for vec, lab in table.items() if lab == 1]
    entity = Entity("e", draw(st.sampled_from(ones)))
    return schema, table, entity


@st.composite
def vectors(draw):
    schema = draw(schemas())
    vals = tuple(draw(st.sampled_from(f.domain)) for f in schema.features)
    return schema, vals


class TestSchemaAlgebra:
    @given(vectors(), st.data())
    def test_apply_diff_round_trip(self, pair, data):
        schema, vals = pair
        entity = Entity("e", vals)
        other = Entity("e", tuple(
            data.draw(st.sampled_from(f.domain)) for f in schema.features
        ))
        exp = diff(schema, entity, other)
        assert all(entity.values[i] == v for i, v in exp.changed)
        iv = Intervention.of(
            (i, other.values[i]) for i in exp.changed_indices
        )
        assert apply_intervention(schema, entity, iv).values == other.values

    @given(vectors(), st.data())
    def test_leq_s_partial_order(self, pair, data):
        schema, vals = pair
        n = len(schema.features)
        entity = Entity("d", vals)

        def explanation(indices):
            return Explanation(
                changed=tuple((i, vals[i]) for i in sorted(indices)),
                counterfactual=entity,
            )

        subsets = st.sets(st.integers(0, n - 1), max_size=n)
        a = explanation(data.draw(subsets))
        b = explanation(data.draw(subsets))
        c = explanation(data.draw(subsets))
        assert leq_s(a, a)
        if leq_s(a, b) and leq_s(b, a):
            assert a.changed_indices == b.changed_indices
        if leq_s(a, b) and leq_s(b, c):
            assert leq_s(a, c)


class TestSearchInvariants:
    @settings(max_examples=60, deadline=None)
    @given(classified_spaces())
    def test_matches_brute_force(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        result = enumerate_counterfactuals(schema, clf, entity)
        domains = [f.domain for f in schema.features]
        cfs = oracles.counterfactuals(domains, entity.values, table.__getitem__)
        want_s = {vec for vec, _ in oracles.s_minimal(cfs)}
        want_c = {vec for vec, _ in oracles.c_minimal(cfs)}
        got_s = {x.counterfactual.values for x in result.s_set}
        got_c = {x.counterfactual.values for x in result.c_set}
        assert got_s == want_s
        assert got_c == want_c

    @settings(max_examples=60, deadline=None)
    @given(classified_spaces())
    def test_c_set_inside_s_set_with_min_cardinality(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        result = enumerate_counterfactuals(schema, clf, entity)
        if result.no_counterfactual:
            return
        low = min(x.cardinality for x in result.explanations)
        assert result.min_cardinality == low
        c_vals = {x.counterfactual.values for x in result.c_set}
        s_vals = {x.counterfactual.values for x in result.s_set}
        assert c_vals <= s_vals
        for x, is_c in zip(result.explanations, result.c_flags):
            assert is_c == (x.cardinality == low)

    @settings(max_examples=40, deadline=None)
    @given(classified_spaces())
    def test_levelwise_agrees_with_oracle(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        result = enumerate_counterfactuals(schema, clf, entity)
        domains = [f.domain for f in schema.features]
        cfs = oracles.counterfactuals(domains, entity.values, table.__getitem__)
        s_vals = {cand for cand, _ in oracles.s_minimal(cfs)}
        c_vals = {cand for cand, _ in oracles.c_minimal(cfs)}
        got = [x.counterfactual.values for x in result.explanations]
        assert got == oracles.canonical_order(
            domains, entity.values, [cand for cand, _ in cfs]
        )
        assert result.s_flags == [v in s_vals for v in got]
        assert result.c_flags == [v in c_vals for v in got]

    @settings(max_examples=40, deadline=None)
    @given(classified_spaces())
    def test_memo_is_invisible(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        memo = MemoClassifier(clf)
        plain = enumerate_counterfactuals(schema, clf, entity)
        cached = enumerate_counterfactuals(schema, memo, entity)
        assert [x.counterfactual.values for x in plain.explanations] == [
            x.counterfactual.values for x in cached.explanations
        ]
        assert memo.backend_calls <= memo.queries

    @settings(max_examples=40, deadline=None)
    @given(classified_spaces(), st.data())
    def test_denials_only_shrink(self, case, data):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        free = enumerate_counterfactuals(schema, clf, entity)
        idx = data.draw(st.integers(0, len(schema.features) - 1))
        value = data.draw(st.sampled_from(schema.features[idx].domain))
        chi = ConstraintSet(
            schema, denials=(DenialConstraint((DenialLiteral(idx, value),)),)
        )
        held = enumerate_counterfactuals(schema, clf, entity, constraints=chi)
        cfs = oracles.counterfactuals(
            domains=[f.domain for f in schema.features],
            values=entity.values,
            label=table.__getitem__,
            admissible=lambda vec: vec[idx] != value,
        )
        want = {vec for vec, _ in oracles.s_minimal(cfs)}
        assert {x.counterfactual.values for x in held.s_set} == want
        for x in held.explanations:
            assert x.counterfactual.values[idx] != value
        all_free = {tuple(vec) for vec, _ in cfs}
        assert {x.counterfactual.values for x in held.explanations} <= all_free
        assert free.exhausted and held.exhausted


class TestScoreInvariants:
    @settings(max_examples=60, deadline=None)
    @given(classified_spaces())
    def test_x_resp_matches_brute_force(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        report = x_resp(schema, clf, entity)
        want = oracles.x_resp(
            [f.domain for f in schema.features], entity.values, table.__getitem__
        )
        assert [fs.score for fs in report.scores] == want

    @settings(max_examples=60, deadline=None)
    @given(classified_spaces())
    def test_max_resp_features_attain_the_maximum(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        winners = max_resp_features(schema, clf, entity)
        report = x_resp(schema, clf, entity)
        top = max(fs.score for fs in report.scores)
        if top > 0:
            assert winners == frozenset(
                fs.feature for fs in report.scores if fs.score == top
            )
        else:
            assert winners == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(classified_spaces())
    def test_scores_bounded_and_witnessed(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        report = x_resp(schema, clf, entity)
        for fs in report.scores:
            assert Fraction(0) <= fs.score <= Fraction(1)
            if fs.score > 0:
                assert fs.witness is not None
                assert fs.feature in fs.witness.changed_indices
                assert fs.witness.cardinality == Fraction(1, fs.score)
            else:
                assert fs.witness is None

    @settings(max_examples=60, deadline=None)
    @given(classified_spaces(), st.sampled_from([None, 0, 1]), st.data())
    def test_global_resp_matches_brute_force(self, case, max_gamma, data):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        domains = [f.domain for f in schema.features]
        if data.draw(st.booleans(), label="uniform"):
            dist = UniformDistribution(schema)
            dist_table = oracles.uniform_table(domains)
        else:
            # zero weights leave some conditional slices without mass
            marginals = []
            for f in schema.features:
                weights = data.draw(st.lists(
                    st.integers(0, 3), min_size=len(f.domain), max_size=len(f.domain)
                ).filter(any))
                marginals.append({
                    v: Fraction(w, sum(weights)) for v, w in zip(f.domain, weights)
                })
            dist = ProductDistribution(schema, marginals)
            dist_table = oracles.product_table(domains, marginals)
        n = len(schema.features)
        for f_star in range(n):
            got = global_resp(schema, clf, entity, f_star, dist, max_gamma)
            assert (got.score, got.gamma, got.gamma_values) == oracles.global_resp(
                domains, entity.values, table.__getitem__, f_star, dist_table,
                max_gamma,
            )
            assert got.truncated == (
                got.score == 0 and max_gamma is not None and max_gamma < n - 1
            )


class TestEmissionInvariants:
    @settings(max_examples=25, deadline=None)
    @given(classified_spaces(), st.booleans(), st.booleans())
    def test_emitted_programs_lint_clean(self, case, weak, shift):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        program = aspgen.emit_cip(
            schema, entity, clf,
            options=aspgen.CipOptions(include_weak=weak, include_count=True, shift=shift),
        )
        assert aspgen.lint_cip(program.text) == []

    @settings(max_examples=25, deadline=None)
    @given(classified_spaces())
    def test_shift_is_idempotent(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        program = aspgen.emit_cip(schema, entity, clf)
        once = aspgen.shift_disjunctive_rule(program)
        assert aspgen.shift_disjunctive_rule(once) is once


class TestInterventionOrder:
    @given(vectors(), st.data())
    def test_of_normalizes_regardless_of_input_order(self, pair, data):
        schema, vals = pair
        n = len(schema.features)
        idxs = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        pairs = [
            (i, data.draw(st.sampled_from(schema.features[i].domain)))
            for i in idxs
        ]
        shuffled = data.draw(st.permutations(pairs))
        assert Intervention.of(shuffled) == Intervention.of(pairs)
