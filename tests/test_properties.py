"""Randomized invariants over small feature spaces.

Each property draws a schema of one to four features with two or three
values apiece, keeping the product space small enough to enumerate.
"""

import csv
import io
import json
import math
import re
import tempfile
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import prob, s_values, section
from cfx import search
from cfx import schema as schema_module
from cfx.classify import MemoClassifier, Rule, RuleClassifier, TableClassifier
from cfx.errors import InputError
from cfx.constrain import (
    EQ,
    FIXED,
    FREE,
    MODES,
    NE,
    ActionabilityRule,
    ConstraintSet,
    DenialConstraint,
    DenialLiteral,
    OneHotGroup,
)
from cfx.schema import (
    Entity,
    Feature,
    FeatureSchema,
)
from cfx.score import (
    ConditionedDistribution,
    Distribution,
    EmpiricalDistribution,
    GlobalScore,
    ProductDistribution,
    UniformDistribution,
    ZeroMassError,
    global_resp,
    max_resp_features,
    x_resp,
)
from cfx.search import (
    SearchConfig,
    SearchStats,
    enumerate_counterfactuals,
    s_explanations,
    set_candidates,
)
from cfx import aspgen


def schemas(max_features=4, max_values=3, ordered=False):
    """Features F1, F2, ... over the values "0", "1", ...; with ``ordered``
    every domain is ordered, its values in a drawn order."""

    def domains(shape):
        plain = [tuple(str(v) for v in range(k)) for k in shape]
        if not ordered:
            return st.just(plain)
        return st.tuples(*(st.permutations(d).map(tuple) for d in plain))

    def build(domains):
        return FeatureSchema(tuple(
            Feature(f"F{i + 1}", d, ordered=ordered) for i, d in enumerate(domains)
        ))

    return st.lists(
        st.integers(2, max_values), min_size=1, max_size=max_features
    ).flatmap(domains).map(build)


@st.composite
def classified_spaces(draw, ordered=False, max_features=3):
    """A schema, a total truth table over it, and a label-1 entity."""
    schema = draw(schemas(max_features=max_features, ordered=ordered))
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


def draw_marginals(data, schema):
    """Per-feature marginals with small integer weights, zeros included."""
    marginals = []
    for f in schema.features:
        weights = data.draw(st.lists(
            st.integers(0, 3), min_size=len(f.domain), max_size=len(f.domain)
        ).filter(any))
        marginals.append({
            v: Fraction(w, sum(weights)) for v, w in zip(f.domain, weights)
        })
    return marginals


def draw_denials(data, domains, most=2):
    """One to ``most`` denials of one to ``most`` literals each, and the
    test's own reading of them: a predicate true on the vectors no denial
    forbids."""
    literal = st.integers(0, len(domains) - 1).flatmap(lambda i: st.tuples(
        st.just(i), st.sampled_from(domains[i]), st.sampled_from((EQ, NE))
    ))
    denials = data.draw(st.lists(
        st.lists(literal, min_size=1, max_size=most), min_size=1, max_size=most
    ))
    chis = [DenialConstraint(tuple(DenialLiteral(*lit) for lit in chi)) for chi in denials]

    def keep(vec):
        return not any(
            all((vec[i] == v) == (polarity == EQ) for i, v, polarity in chi)
            for chi in denials
        )

    return chis, keep


def draw_constraints(data, schema, values):
    """Denials of ``eq`` and ``ne`` literals, one-hot groups over the binary
    features and actionability rules of every mode (so every domain must be
    ordered), as a ConstraintSet, with the test's own reading of them from
    tests/oracles.py: each feature's alternatives to ``values``, and a
    predicate true on the admissible vectors."""
    domains = [f.domain for f in schema.features]
    n = len(domains)
    chis, keep = [], lambda vec: True
    if data.draw(st.booleans(), label="denied"):
        chis, keep = draw_denials(data, domains)
    binary = [i for i, d in enumerate(domains) if set(d) == {"0", "1"}]
    groups = []
    if len(binary) >= 2:
        groups = data.draw(st.lists(
            st.lists(st.sampled_from(binary), min_size=2, max_size=len(binary), unique=True),
            max_size=2,
        ))
    modes = {
        i: data.draw(st.sampled_from(MODES))
        for i in sorted(data.draw(st.sets(st.integers(0, n - 1))))
    }
    cs = ConstraintSet(
        schema,
        denials=tuple(chis),
        actionability=tuple(ActionabilityRule(*rule) for rule in modes.items()),
        onehot=tuple(OneHotGroup(tuple(g)) for g in groups),
    )
    onehot = oracles.permitted([], groups)
    actionable = oracles.actionable(domains, values, modes)
    return (
        cs,
        oracles.alternatives(domains, values, modes),
        lambda vec: keep(vec) and onehot(vec) and actionable(vec),
    )


def draw_base(data, schema):
    """A uniform, product or empirical distribution and its probability
    table from tests/oracles.py."""
    domains = [f.domain for f in schema.features]
    kind = data.draw(st.sampled_from(("uniform", "product", "empirical")))
    if kind == "uniform":
        dist, table = UniformDistribution(schema), oracles.uniform_table(domains)
    elif kind == "product":
        # zero weights leave some conditional slices without mass
        marginals = draw_marginals(data, schema)
        dist = ProductDistribution(schema, marginals)
        table = oracles.product_table(domains, marginals)
    else:
        vectors = st.tuples(*map(st.sampled_from, domains))
        sample = data.draw(st.lists(vectors, min_size=1, max_size=6))
        dist = EmpiricalDistribution(schema, sample)
        table = oracles.empirical_table(sample)
    return dist, table


def draw_distribution(data, schema):
    """A distribution of ``draw_base``, perhaps conditioned on drawn
    denials, and its probability table from tests/oracles.py.

    When the denials leave no mass, checks that conditioning refuses them
    and returns ``(None, None)``.
    """
    dist, table = draw_base(data, schema)
    if not data.draw(st.booleans(), label="conditioned"):
        return dist, table
    chis, keep = draw_denials(data, [f.domain for f in schema.features])
    table = oracles.condition_table(table, keep)
    if table is None:
        with pytest.raises(ZeroMassError, match="conditioning event has zero mass"):
            ConditionedDistribution(dist, chis)
        return None, None
    return ConditionedDistribution(dist, chis), table


@st.composite
def rule_lists(draw):
    """A schema, a rule list over it, a default, and vectors to label.

    Rules may have no conditions or test one feature twice, against the
    same value or against two (a rule that can never fire); vectors may
    hold values outside a feature's domain.
    """
    schema = draw(schemas())
    n = len(schema.features)
    condition = st.integers(0, n - 1).flatmap(lambda i: st.tuples(
        st.just(i), st.sampled_from(schema.features[i].domain)
    ))
    rules = draw(st.lists(
        st.builds(Rule, st.lists(condition, max_size=4).map(tuple), st.integers(0, 1)),
        max_size=8,
    ))
    default = draw(st.integers(0, 1))
    queries = draw(st.lists(
        st.tuples(*(st.sampled_from(f.domain + ("2", "?")) for f in schema.features)),
        min_size=1, max_size=6,
    ))
    return schema, rules, default, queries


@st.composite
def embeddable_rule_lists(draw):
    """A schema of at most 3 features of at most 3 values, and a rule list
    that the `--rules` embedding takes: one label on every rule and the
    opposite default. A rule may test nothing, or one feature twice,
    against the same value or against two (a rule that can never fire)."""
    n = draw(st.integers(1, 3))
    values = st.lists(
        st.sampled_from(EMITTED_VALUES), min_size=2, max_size=3, unique=True
    ).map(tuple)
    schema = FeatureSchema(tuple(
        Feature(f"F{i + 1}", draw(st.just(("0", "1")) | values)) for i in range(n)
    ))
    condition = st.integers(0, n - 1).flatmap(lambda i: st.tuples(
        st.just(i), st.sampled_from(schema.features[i].domain)
    ))
    label = draw(st.integers(0, 1))
    rules = draw(st.lists(
        st.lists(condition, max_size=3).map(lambda c: Rule(tuple(c), label)),
        min_size=1, max_size=4,
    ))
    return schema, rules, 1 - label


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
        got_s = s_values(result)
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
        s_vals = s_values(result)
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
        assert all(s or not c for s, c in zip(result.s_flags, result.c_flags))

    @settings(max_examples=100, deadline=None)
    @given(classified_spaces(ordered=True), st.data())
    def test_actionability_agrees_with_oracle(self, case, data):
        schema, table, entity = case
        n = len(schema)
        modes = {
            i: data.draw(st.sampled_from(MODES))
            for i in sorted(data.draw(st.sets(st.integers(0, n - 1))))
        }
        cs = ConstraintSet(
            schema, actionability=tuple(ActionabilityRule(*r) for r in modes.items())
        )
        result = enumerate_counterfactuals(
            schema, TableClassifier(schema, table), entity, cs
        )
        domains = [f.domain for f in schema.features]
        cfs = oracles.counterfactuals(
            domains, entity.values, table.__getitem__,
            oracles.actionable(domains, entity.values, modes),
        )
        s_vals = {cand for cand, _ in oracles.s_minimal(cfs)}
        c_vals = {cand for cand, _ in oracles.c_minimal(cfs)}
        got = [x.counterfactual.values for x in result.explanations]
        assert got == oracles.canonical_order(
            domains, entity.values, [cand for cand, _ in cfs]
        )
        assert result.s_flags == [v in s_vals for v in got]
        assert result.c_flags == [v in c_vals for v in got]
        assert result.exhausted

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
        assert s_values(held) == want
        for x in held.explanations:
            assert x.counterfactual.values[idx] != value
        all_free = {tuple(vec) for vec, _ in cfs}
        assert {x.counterfactual.values for x in held.explanations} <= all_free
        assert free.exhausted and held.exhausted

    @settings(max_examples=60, deadline=None)
    @given(classified_spaces(), st.data())
    def test_budget_truncates_to_a_prefix(self, case, data):
        schema, table, entity = case
        n = len(schema)
        clf = TableClassifier(schema, table)
        denials = tuple(
            DenialConstraint((DenialLiteral(i, data.draw(
                st.sampled_from(schema.features[i].domain)
            )),))
            for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2))
        )
        actionability = tuple(
            ActionabilityRule(i, FIXED)
            for i in sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=1)))
        )
        cs = ConstraintSet(schema, denials, actionability)
        max_card = data.draw(st.none() | st.integers(1, n))
        stop = data.draw(st.booleans())

        def run(budget):
            return enumerate_counterfactuals(
                schema, clf, entity, cs, SearchConfig(max_card, budget),
                stop_at_first_hit=stop,
            )

        full = run(None)
        calls = full.stats.classifier_calls
        # the level of each admissible candidate, in walk order; a budget
        # of b grants the entity's call and b - 1 of them, so the walk stops
        # on the b-th
        values = entity.values
        levels = [
            k
            for k in range(1, (max_card or n) + 1)
            for _, cand in oracles.level_candidates(cs.alternatives(values), values, k)
            if cs.admissible(cand)
        ]
        for b in range(1, calls + 2):
            cut = run(b)
            k = len(cut.explanations)
            assert cut.explanations == full.explanations[:k]
            assert cut.s_flags == full.s_flags[:k]
            assert cut.c_flags == full.c_flags[:k]
            assert cut.stats.classifier_calls == min(b, calls)
            assert cut.exhausted == (full.exhausted and b >= calls)
            assert cut.stats.levels_explored == (
                levels[b - 1] if b < calls else full.stats.levels_explored
            )


    @settings(max_examples=200, deadline=None)
    @given(schemas(), st.data())
    def test_level_candidates_match_splice_reference(self, schema, data):
        # a level's candidates are set_candidates over the combinations of
        # the features with alternatives; empty alternatives included:
        # global_resp empties the scrutinized feature's, an actionability
        # rule may empty any
        domains = [f.domain for f in schema.features]
        values = data.draw(st.tuples(*map(st.sampled_from, domains)))
        alternatives = [
            data.draw(st.lists(
                st.sampled_from(d).filter(lambda x, v=v: x != v), unique=True
            ))
            for d, v in zip(domains, values)
        ]
        movable = [i for i, alts in enumerate(alternatives) if alts]
        for k in range(len(values) + 1):
            assert list(set_candidates(
                alternatives, values, combinations(movable, k)
            )) == list(oracles.level_candidates(alternatives, values, k))

    @settings(max_examples=150, deadline=None)
    @given(classified_spaces(), st.data())
    def test_announced_vectors_are_asked_next(self, case, data):
        # chunks of one to five candidates, so levels span several of them,
        # behind a memo warmed with some vectors, which it must not announce
        schema, table, entity = case
        n = len(schema)
        denials = tuple(
            DenialConstraint((DenialLiteral(i, data.draw(
                st.sampled_from(schema.features[i].domain)
            )),))
            for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2))
        )
        actionability = tuple(
            ActionabilityRule(i, FIXED)
            for i in sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=1)))
        )
        cs = ConstraintSet(schema, denials, actionability)
        config = SearchConfig(
            data.draw(st.none() | st.integers(1, n)),
            data.draw(st.none() | st.integers(1, len(table) + 1)),
        )
        stop = data.draw(st.booleans())
        warm = data.draw(st.lists(st.sampled_from(sorted(table)), max_size=4))

        def run(backend):
            memo = MemoClassifier(backend)
            for vec in warm:
                memo.label(vec)
            result = enumerate_counterfactuals(
                schema, memo, entity, cs, config, stop_at_first_hit=stop
            )
            return result, memo

        backend = AnnouncingTable(table)
        with mock.patch.object(search, "ASK_AHEAD", data.draw(st.integers(1, 5))):
            announced, memo = run(backend)
        plain, plain_memo = run(TableClassifier(schema, table))
        assert not backend.pending
        warmed = len(set(warm))
        # the entity's label, unless the warm-up asked it, is asked unannounced
        assert backend.asked[warmed:] == [
            *([] if entity.values in warm else [entity.values]), *backend.announced
        ]
        assert (announced.hits, announced.stats, announced.exhausted) == (
            plain.hits, plain.stats, plain.exhausted
        )
        assert (memo.queries, memo.backend_calls) == (
            plain_memo.queries, plain_memo.backend_calls
        )


class TestWalkSettlesEachIndexSetOnce:
    """The walk decides admissibility, dominance and, over a rule list, the
    label of a whole space once per index set; what it asks and yields is
    that of tests/oracles.py's walk, which checks every candidate."""

    @settings(max_examples=300, deadline=None)
    @given(schemas(ordered=True), st.data())
    def test_a_set_cleared_holds_only_admissible_candidates(self, schema, data):
        domains = [f.domain for f in schema.features]
        values = data.draw(st.tuples(*map(st.sampled_from, domains)))
        cs, alternatives, admissible = draw_constraints(data, schema, values)
        for k in range(len(values) + 1):
            for idxs in combinations(range(len(values)), k):
                if cs.may_reject(idxs, values):
                    continue
                only = [alternatives[i] if i in idxs else () for i in range(len(values))]
                for _, cand in oracles.level_candidates(only, values, k):
                    assert admissible(cand)

    @settings(max_examples=300, deadline=None)
    @given(classified_spaces(ordered=True, max_features=4), st.data())
    def test_walk_matches_reference(self, case, data):
        # budgets, bounds, both stops and both prunings, in chunks of one
        # to five candidates, so levels span several of them
        schema, table, entity = case
        cs, alternatives, admissible = draw_constraints(data, schema, entity.values)
        max_card = data.draw(st.none() | st.integers(1, len(schema)))
        budget = data.draw(st.none() | st.integers(1, len(table) + 1))
        stop = data.draw(st.booleans())
        prune = data.draw(st.sampled_from((None, search.S_SET, search.WITNESSES)))
        asked = []

        def label(values):
            asked.append(values)
            return table[values]

        with mock.patch.object(search, "ASK_AHEAD", data.draw(st.integers(1, 5))):
            walk = search.Walk(
                schema, SimpleNamespace(label=label), entity, cs,
                SearchConfig(max_card, budget), stop_at_first_hit=stop, prune=prune,
            )
            rows = list(walk)
        want_rows, want_asked, levels, exhausted = oracles.walk(
            alternatives, entity.values, table.__getitem__, admissible,
            max_card, budget, stop, prune,
        )
        assert (rows, asked) == (want_rows, want_asked)
        assert walk.stats == SearchStats(len(asked), levels)
        assert walk.exhausted == exhausted

    @settings(max_examples=200, deadline=None)
    @given(rule_lists(), st.data())
    def test_a_rule_list_walk_answers_as_its_truth_table(self, case, data):
        # a set whose space reads one label asks nothing: the rows, flags,
        # stops and levels of the walk over the rule list's truth table,
        # which offers no verdict, from no more labels; and what it asks is
        # what the reference walk told each set's verdict asks, in chunks
        # of one to five, under every budget
        schema, rules, default, _ = case
        clf = RuleClassifier(schema, rules, default)
        table = {vec: clf.label(vec) for vec in schema.iter_space()}
        ones = [vec for vec, lab in table.items() if lab == 1]
        if not ones:
            return
        entity = Entity("e", data.draw(st.sampled_from(ones)))
        n, values = len(schema), entity.values
        chis, admissible = (), None
        if data.draw(st.booleans(), label="denied"):
            chis, admissible = draw_denials(data, [f.domain for f in schema.features])
        fixed = data.draw(st.sets(st.integers(0, n - 1), max_size=1))
        cs = ConstraintSet(
            schema, tuple(chis), tuple(ActionabilityRule(i, FIXED) for i in sorted(fixed))
        )
        alternatives = cs.alternatives(values)
        max_card = data.draw(st.none() | st.integers(1, n))
        stop = data.draw(st.booleans())
        prune = data.draw(st.sampled_from((None, search.S_SET, search.WITNESSES)))

        def walk(backend, budget=None):
            """(rows, asked, levels explored, exhausted) of one walk."""
            asked = []
            recorder = SimpleNamespace(label=lambda vec: asked.append(vec) or backend.label(vec))
            if hasattr(backend, "space_label"):
                recorder.space_label = backend.space_label
            with mock.patch.object(search, "ASK_AHEAD", data.draw(st.integers(1, 5))):
                w = search.Walk(
                    schema, recorder, entity, cs, SearchConfig(max_card, budget),
                    stop_at_first_hit=stop, prune=prune,
                )
                rows = list(w)
            assert w.stats.classifier_calls == len(asked)
            return rows, asked, w.stats.levels_explored, w.exhausted

        def known(idxs):
            return clf.space_label(
                [alternatives[i] if i in idxs else (v,) for i, v in enumerate(values)]
            )

        def reference(budget=None):
            return oracles.walk(
                alternatives, values, table.__getitem__, admissible, max_card, budget,
                stop, prune, known,
            )

        full = walk(clf)
        assert full == reference()
        rows, asked, levels, exhausted = full
        plain = walk(TableClassifier(schema, table))
        assert (plain[0], plain[2], plain[3]) == (rows, levels, exhausted)
        assert len(asked) <= len(plain[1])
        # a budget of b grants the entity's call and b - 1 more: the walk
        # stops where the next label would have to be asked, on its level
        calls = len(asked)
        for b in range(1, calls + 2):
            cut = walk(clf, b)
            assert cut == reference(b)
            assert cut[0] == rows[:len(cut[0])]
            assert len(cut[1]) == min(b, calls)
            assert cut[3] == (exhausted and b >= calls)
            assert cut[2] == (
                len(oracles.changed_set(values, asked[b])) if b < calls else levels
            )
            # the truth table's walk on the same budget gets no further
            plain_rows = walk(TableClassifier(schema, table), b)[0]
            assert plain_rows == cut[0][:len(plain_rows)]

    @settings(max_examples=300, deadline=None)
    @given(classified_spaces(ordered=True, max_features=4), st.data())
    def test_pruned_walks_answer_as_the_full_walk(self, case, data):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        cs, _, admissible = draw_constraints(data, schema, entity.values)
        max_card = data.draw(st.none() | st.integers(1, len(schema)))
        config = SearchConfig(max_card)
        full = enumerate_counterfactuals(schema, clf, entity, cs, config)
        smin = [row for row in full.hits if row[2]]
        if full.exhausted:
            assert [x.counterfactual.values for x in s_explanations(
                schema, clf, entity, cs, config
            )] == [cand for _, cand, _ in smin]
        first = {}
        for row in smin:
            for i in row[0]:
                first.setdefault(i, row)
        report = x_resp(schema, clf, entity, cs, config)
        assert [
            (fs.score, fs.witness and fs.witness.counterfactual.values)
            for fs in report.scores
        ] == [
            (Fraction(1, len(first[i][0])), first[i][1]) if i in first else (0, None)
            for i in range(len(schema))
        ]
        # the pruned walk's stops prove more than a bound lets the full walk
        if max_card is None:
            assert report.authoritative == full.exhausted
        assert report.authoritative >= full.exhausted
        if report.authoritative:
            assert [fs.score for fs in report.scores] == oracles.x_resp(
                [f.domain for f in schema.features], entity.values,
                table.__getitem__, admissible,
            )

    @settings(max_examples=300, deadline=None)
    @given(classified_spaces(ordered=True, max_features=4), st.data())
    def test_a_bounded_pruned_walk_is_exhausted_iff_nothing_lies_past_it(
        self, case, data
    ):
        # a pruned walk cut by max_cardinality looks at the level past its
        # bound: exhausted exactly when the unbounded walk ends within the
        # bound, and then it answers as that walk and as brute force does
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        cs, _, admissible = draw_constraints(data, schema, entity.values)
        prune = data.draw(st.sampled_from((search.S_SET, search.WITNESSES)))
        max_card = data.draw(st.integers(1, len(schema)))
        walk = search.Walk(schema, clf, entity, cs, SearchConfig(max_card), prune=prune)
        rows = list(walk)
        free = search.Walk(schema, clf, entity, cs, prune=prune)
        free_rows = list(free)
        assert rows == [row for row in free_rows if len(row[0]) <= max_card]
        assert walk.exhausted == (free.stats.levels_explored <= max_card)
        if not walk.exhausted:
            return
        assert (rows, walk.stats) == (free_rows, free.stats)
        domains = [f.domain for f in schema.features]
        cfs = oracles.counterfactuals(domains, entity.values, table.__getitem__, admissible)
        if prune == search.S_SET:
            assert [cand for _, cand, _ in rows] == oracles.canonical_order(
                domains, entity.values, [cand for cand, _ in oracles.s_minimal(cfs)]
            )
        report = x_resp(schema, clf, entity, cs, SearchConfig(max_card))
        assert report.authoritative
        assert [fs.score for fs in report.scores] == oracles.x_resp(
            domains, entity.values, table.__getitem__, admissible
        )


class AnnouncingTable:
    """A truth table taking announcements; each ``label`` call checks that
    it asks the oldest vector announced and not yet asked, if there is one."""

    def __init__(self, table):
        self.table = table
        self.pending = deque()
        self.announced = []
        self.asked = []

    def announce(self, vectors):
        vectors = list(vectors)
        self.pending.extend(vectors)
        self.announced.extend(vectors)

    def label(self, values):
        if self.pending:
            assert values == self.pending.popleft()
        self.asked.append(values)
        return self.table[values]


class TestScoreInvariants:
    @settings(max_examples=60, deadline=None)
    @given(classified_spaces())
    def test_x_resp_matches_brute_force(self, case):
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        report = x_resp(schema, clf, entity)
        domains = [f.domain for f in schema.features]
        want = oracles.x_resp(domains, entity.values, table.__getitem__)
        assert [fs.score for fs in report.scores] == want
        # each witness is the first s-minimal counterfactual in walk order
        # that changes the feature
        cfs = oracles.counterfactuals(domains, entity.values, table.__getitem__)
        s_min = oracles.canonical_order(
            domains, entity.values, [cand for cand, _ in oracles.s_minimal(cfs)]
        )
        for fs in report.scores:
            first = next(
                (c for c in s_min if fs.feature in oracles.changed_set(entity.values, c)),
                None,
            )
            assert (fs.witness and fs.witness.counterfactual.values) == first

    @settings(max_examples=100, deadline=None)
    @given(classified_spaces(), st.data())
    def test_max_resp_features_attain_the_maximum(self, case, data):
        # a truncated walk included: both read the same levels up to the
        # first one with hits
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        config = SearchConfig(
            max_cardinality=data.draw(st.none() | st.integers(1, len(schema))),
            budget=data.draw(st.none() | st.integers(1, len(table) + 1)),
        )
        winners = max_resp_features(schema, clf, entity, config=config)
        report = x_resp(schema, clf, entity, config=config)
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

    @settings(max_examples=100, deadline=None)
    @given(classified_spaces(), st.sampled_from([None, 0, 1]), st.data())
    def test_global_resp_matches_brute_force(self, case, max_gamma, data):
        # results only: the oracle also asks zero-weight slice values
        schema, table, entity = case
        clf = TableClassifier(schema, table)
        domains = [f.domain for f in schema.features]
        dist, dist_table = draw_distribution(data, schema)
        if dist is None:
            return
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

    @settings(max_examples=150, deadline=None)
    @given(classified_spaces(), st.sampled_from([None, 0, 1]), st.data())
    def test_global_resp_bound_only_drops_queries(self, case, max_gamma, data):
        # the branch and bound asks a subset of the plain walk's labels, in
        # the same order, and returns the same score, truncated included
        schema, table, entity = case
        domains = [f.domain for f in schema.features]
        dist, _ = draw_distribution(data, schema)
        if dist is None:
            return

        def recorded(log):
            def label(values):
                log.append(tuple(values))
                return table[tuple(values)]
            return label

        for f_star in range(len(schema)):
            asked, reference = [], []
            clf = SimpleNamespace(label=recorded(asked))
            got = global_resp(schema, clf, entity, f_star, dist, max_gamma)
            want = oracles.unpruned_global_resp(
                domains, entity.values, recorded(reference), f_star,
                dist.conditional, max_gamma,
            )
            assert got == GlobalScore(f_star, *want)
            rest = iter(reference)
            assert all(vec in rest for vec in asked)  # in-order subsequence

    @settings(max_examples=150, deadline=None)
    @given(rule_lists(), st.sampled_from([None, 0, 1]), st.data())
    def test_global_resp_over_rule_lists_matches_brute_force(self, case, max_gamma, data):
        # a rule list rules out whole contingency sets: the same scores as
        # brute force and as the plain walk, whose labels it asks a subset
        # of, in order
        schema, rules, default, _ = case
        clf = RuleClassifier(schema, rules, default)
        plain = [(r.conditions, r.label) for r in rules]

        def label(values):
            return oracles.first_match(plain, default, values)

        ones = [vec for vec in schema.iter_space() if label(vec) == 1]
        if not ones:
            return
        entity = Entity("e", data.draw(st.sampled_from(ones)))
        domains = [f.domain for f in schema.features]
        dist, table = draw_distribution(data, schema)
        if dist is None:
            return

        def recorded(log):
            def ask(values):
                log.append(tuple(values))
                return label(values)
            return ask

        for f_star in range(len(schema)):
            asked, reference = [], []
            rule_list = SimpleNamespace(
                label=recorded(asked), space_label=clf.space_label
            )
            got = global_resp(schema, rule_list, entity, f_star, dist, max_gamma)
            assert (got.score, got.gamma, got.gamma_values) == oracles.global_resp(
                domains, entity.values, label, f_star, table, max_gamma
            )
            want = oracles.unpruned_global_resp(
                domains, entity.values, recorded(reference), f_star,
                dist.conditional, max_gamma,
            )
            assert got == GlobalScore(f_star, *want)
            rest = iter(reference)
            assert all(vec in rest for vec in asked)  # in-order subsequence
            memo = MemoClassifier(clf)
            assert global_resp(schema, memo, entity, f_star, dist, max_gamma) == got

    @settings(max_examples=200, deadline=None)
    @given(classified_spaces(), st.data())
    def test_conditioning_verdict_matches_a_full_sweep(self, case, data):
        # conditioning stops at the first support vector with mass, yet
        # refuses exactly when a sweep of the whole space finds no mass;
        # bases include zero-weight product values, samples and an already
        # conditioned distribution
        schema, labels, entity = case
        domains = [f.domain for f in schema.features]
        base, table = draw_base(data, schema)
        if data.draw(st.booleans(), label="twice"):
            chis, keep = draw_denials(data, domains)
            if not sum(base.weight(v) for v in schema.iter_space() if keep(v)):
                with pytest.raises(ZeroMassError, match="conditioning event has zero mass"):
                    ConditionedDistribution(base, chis)
                return
            base = ConditionedDistribution(base, chis)
            table = oracles.condition_table(table, keep)
        chis, keep = draw_denials(data, domains)
        swept = sum(base.weight(v) for v in schema.iter_space() if keep(v))
        table = oracles.condition_table(table, keep)
        assert (swept == 0) == (table is None)
        if not swept:
            with pytest.raises(ZeroMassError, match="conditioning event has zero mass"):
                ConditionedDistribution(base, chis)
            return
        dist = ConditionedDistribution(base, chis)
        clf = TableClassifier(schema, labels)
        for f_star in range(len(schema)):
            got = global_resp(schema, clf, entity, f_star, dist)
            assert (got.score, got.gamma, got.gamma_values) == oracles.global_resp(
                domains, entity.values, labels.__getitem__, f_star, table
            )

    @settings(max_examples=200, deadline=None)
    @given(schemas(), st.data())
    def test_loss_cap_bounds_every_slice(self, schema, data):
        # no slice with mass loses a larger share off `own` than the cap;
        # uniform and product slices with mass lose exactly the cap
        dist, _ = draw_distribution(data, schema)
        if dist is None:
            return
        exact = type(dist) in (UniformDistribution, ProductDistribution)
        for index, f in enumerate(schema.features):
            for own in f.domain:
                cap = Fraction(*dist.loss_cap(index, own))
                for values in schema.iter_space():
                    if values[index] != own:
                        continue
                    weights = dist.conditional(values, index)
                    total = sum(weights.values())
                    if not total:
                        continue
                    share = Fraction(total - weights[own], total)
                    assert share == cap if exact else share <= cap

    @settings(max_examples=200, deadline=None)
    @given(schemas(max_features=3), st.data())
    def test_set_cap_bounds_every_slice_of_its_set(self, schema, data):
        # conditioned on eq and ne denials, once or twice: each contingency
        # set's slices are the distribution's own, and no slice with mass
        # loses a larger share off the entity's value than the set's cap
        domains = [f.domain for f in schema.features]
        dist, _ = draw_base(data, schema)
        for _ in range(data.draw(st.integers(1, 2), label="conditionings")):
            chis, _ = draw_denials(data, domains, most=3)
            try:
                dist = ConditionedDistribution(dist, chis)
            except ZeroMassError:
                return
        values = data.draw(st.tuples(*map(st.sampled_from, domains)))
        n = len(domains)
        for index in range(n):
            own = values[index]
            others = [i for i in range(n) if i != index]
            for size in range(n):
                for gamma in combinations(others, size):
                    lost, total, conditional = dist.contingency(gamma, values, index)
                    cap = Fraction(lost, total)
                    alternatives = [
                        tuple(v for v in d if v != values[i]) if i in gamma else ()
                        for i, d in enumerate(domains)
                    ]
                    for _, primed in oracles.level_candidates(alternatives, values, size):
                        weights = (conditional or dist.conditional)(primed, index)
                        want = Distribution.conditional(dist, primed, index)
                        assert list(weights.items()) == list(want.items())
                        mass = sum(weights.values())
                        if mass:
                            assert Fraction(mass - weights[own], mass) <= cap

    @settings(max_examples=200, deadline=None)
    @given(schemas(), st.data())
    def test_distributions_match_oracle(self, schema, data):
        # every distribution, plain or conditioned on denials, against the
        # probability tables of tests/oracles.py
        domains = [f.domain for f in schema.features]
        dist, table = draw_distribution(data, schema)
        if dist is None:
            return
        for vec in schema.iter_space():
            assert prob(dist, vec) == oracles.prob_of(table, vec)
        values = data.draw(st.tuples(*map(st.sampled_from, domains)))
        for index, domain in enumerate(domains):
            want = oracles.conditional(table, values, index)
            weights = dist.conditional(values, index)
            assert list(weights) == list(domain)
            assert all(type(w) is int for w in weights.values())
            if want is None:
                assert list(weights.items()) == [(v, 0) for v in domain]
                continue
            total = sum(weights.values())
            assert {v: Fraction(w, total) for v, w in weights.items() if w} == {
                v: p for v, p in want.items() if p
            }


    @settings(max_examples=200, deadline=None)
    @given(schemas(), st.data())
    def test_product_conditional_equals_weights(self, schema, data):
        # exact integers, in domain order: the one-product shortcut against
        # the weight of each vector of the slice; a zero marginal weight on
        # another feature's value leaves the slice without mass, all zero
        domains = [f.domain for f in schema.features]
        dist = ProductDistribution(schema, draw_marginals(data, schema))
        values = data.draw(st.tuples(*map(st.sampled_from, domains)))
        for index, domain in enumerate(domains):
            want = {
                v: dist.weight(values[:index] + (v,) + values[index + 1:])
                for v in domain
            }
            got = dist.conditional(values, index)
            assert list(got.items()) == list(want.items())
            assert all(type(w) is int for w in got.values())

    @settings(max_examples=200, deadline=None)
    @given(schemas(max_features=3), st.data())
    def test_conditioned_slice_is_the_base_slice_with_denied_values_zeroed(
        self, schema, data
    ):
        # against the generic slice, one weight call per value; denials may
        # test the scrutinized feature, or one feature twice. The base's
        # slice, which a uniform base shares between calls, stays as it was
        base, _ = draw_base(data, schema)
        chis, _ = draw_denials(data, [f.domain for f in schema.features], most=3)
        try:
            dist = ConditionedDistribution(base, chis)
        except ZeroMassError:
            return
        for values in schema.iter_space():
            for index in range(len(schema)):
                before = list(base.conditional(values, index).items())
                got = dist.conditional(values, index)
                want = Distribution.conditional(dist, values, index)
                assert list(got.items()) == list(want.items())
                assert list(base.conditional(values, index).items()) == before
        for index in (-1, len(schema)):
            with pytest.raises(InputError, match="out of range"):
                dist.conditional(values, index)

    def test_product_conditional_zero_mass_on_another_feature(self):
        schema = FeatureSchema((
            Feature("A", ("a0", "a1")), Feature("B", ("b0", "b1", "b2")),
        ))
        dist = ProductDistribution(schema, [
            {"a0": Fraction(1, 3), "a1": Fraction(2, 3)},
            {"b0": Fraction(0), "b1": Fraction(1, 4), "b2": Fraction(3, 4)},
        ])
        empty = dist.conditional(("a1", "b0"), 0)
        assert list(empty.items()) == [("a0", 0), ("a1", 0)]
        assert all(type(w) is int for w in empty.values())
        assert dist.conditional(("a1", "b2"), 0) == {"a0": 1 * 3, "a1": 2 * 3}
        assert dist.conditional(("a1", "b0"), 1) == {"b0": 0, "b1": 2, "b2": 6}


class TestRuleListInvariants:
    @settings(max_examples=300, deadline=None)
    @given(rule_lists(), st.data())
    def test_may_label_zero_never_rules_out_a_label_zero(self, case, data):
        # dead rules, rules testing nothing and both defaults; pools of one
        # value up to the whole domain, in any order, perhaps with a value
        # outside it
        schema, rules, default, _ = case
        clf = RuleClassifier(schema, rules, default)
        plain = [(r.conditions, r.label) for r in rules]
        pools = [
            data.draw(st.lists(
                st.sampled_from(f.domain + ("?",)), min_size=1,
                max_size=len(f.domain) + 1, unique=True,
            ))
            for f in schema.features
        ]
        labels = {oracles.first_match(plain, default, vec) for vec in product(*pools)}
        verdict = clf.space_label(pools)
        # exact when it speaks: every vector of the space reads the verdict,
        # so a space holding a label 0 never reads 1
        if verdict is not None:
            assert labels == {verdict}
        # a space of one vector is always told
        if all(len(pool) == 1 for pool in pools):
            assert {verdict} == labels

    @settings(max_examples=300, deadline=None)
    @given(rule_lists())
    @example((
        FeatureSchema((Feature("F1", ("0", "1")), Feature("F2", ("0", "1")))),
        [
            Rule(((0, "0"), (0, "1")), 1),
            Rule(((1, "1"), (1, "1")), 0),
            Rule((), 1),
        ],
        0,
        [("0", "1"), ("1", "0"), ("?", "1"), ("0", "?")],
    ))
    @example((FeatureSchema((Feature("F1", ("0", "1")),)), [], 1, [("0",), ("?",)]))
    def test_compiled_rules_match_first_match_loop(self, case):
        schema, rules, default, queries = case
        clf = RuleClassifier(schema, rules, default)
        plain = [(r.conditions, r.label) for r in rules]
        for values in queries:
            assert clf.label(values) == oracles.first_match(plain, default, values)

    @settings(max_examples=200, deadline=None)
    @given(embeddable_rule_lists())
    def test_emitted_rules_section_labels_every_vector_alike(self, case):
        # the `--rules` embedding's meaning, by bottom-up evaluation: one
        # label per vector, the classifier's and the first-match loop's
        schema, rules, default = case
        clf = RuleClassifier(schema, rules, default)
        entity = Entity("e", tuple(f.domain[0] for f in schema.features))
        program = aspgen.emit_cip(
            schema, entity, clf, aspgen.CipOptions(classifier_embedding=aspgen.RULES)
        )
        model = oracles.rules_section_model(
            section(program, "classifier").lines, section(program, "domains").lines
        )
        back = [
            {c: v for v, c in aspgen.render_constants(f.domain).items()}
            for f in schema.features
        ]
        labels = {}
        for *consts, label in model:
            vec = tuple(map(dict.__getitem__, back, consts))
            assert vec not in labels
            labels[vec] = label
        plain = [(r.conditions, r.label) for r in rules]
        assert set(labels) == set(schema.iter_space())
        for vec in schema.iter_space():
            assert labels[vec] == clf.label(vec) == oracles.first_match(plain, default, vec)


# Constants the emitter passes through, lowercases (Yes collides with yes)
# or quotes with backslash escapes; "_"-led tokens are solver variables
# or no constants at all, so they are quoted too.
EMITTED_VALUES = (
    "a", "0", "12", "Yes", "yes", "X", "a b", 'say "hi"', "C:\\", "50%", "x.y", "a,b",
    "_", "_x", "_1",
)
EMITTED_NAMES = ("F1", "age", "Yes", "yes", "X", "_f")


@st.composite
def emission_cases(draw):
    """Everything ``emit_cip`` accepts: schema, entity, classifier, options."""
    n = draw(st.integers(1, 3))
    names = draw(st.lists(
        st.sampled_from(EMITTED_NAMES), min_size=n, max_size=n, unique=True
    ))
    binary = st.just(("0", "1"))
    tricky = st.lists(
        st.sampled_from(EMITTED_VALUES), min_size=2, max_size=3, unique=True
    ).map(tuple)
    schema = FeatureSchema(tuple(
        Feature(name, draw(binary | tricky), ordered=draw(st.booleans()))
        for name in names
    ))
    entity = Entity(
        draw(st.sampled_from(EMITTED_VALUES)),
        tuple(draw(st.sampled_from(f.domain)) for f in schema.features),
    )

    embedding = draw(st.sampled_from(aspgen.EMBEDDINGS))
    if embedding == aspgen.FACTS:
        space = list(schema.iter_space())
        labels = draw(st.lists(
            st.integers(0, 1), min_size=len(space), max_size=len(space)
        ))
        classifier = TableClassifier(schema, dict(zip(space, labels)))
    elif embedding == aspgen.RULES:
        label = draw(st.integers(0, 1))
        rules = [
            Rule(tuple(
                (i, draw(st.sampled_from(schema.features[i].domain)))
                for i in sorted(indices)
            ), label)
            for indices in draw(st.lists(
                st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=3
            ))
        ]
        classifier = RuleClassifier(schema, rules, 1 - label)
    else:
        classifier = None

    def literal(i):
        value = draw(st.sampled_from(schema.features[i].domain))
        return DenialLiteral(i, value, draw(st.sampled_from((EQ, NE))))

    # a list, not a set: a denial may test one feature twice
    denials = tuple(
        DenialConstraint(tuple(literal(i) for i in indices))
        for indices in draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3), max_size=2
        ))
    )
    actionability = tuple(
        ActionabilityRule(i, draw(st.sampled_from(
            MODES if schema.features[i].ordered else (FIXED, FREE)
        )))
        for i in sorted(draw(st.sets(st.integers(0, n - 1))))
    )
    binaries = [i for i, f in enumerate(schema.features) if f.domain == ("0", "1")]
    onehot = ()
    if len(binaries) >= 2 and draw(st.booleans()):
        onehot = (OneHotGroup(tuple(binaries)),)
    constraints = ConstraintSet(schema, denials, actionability, onehot)

    options = aspgen.CipOptions(
        dialect=(
            aspgen.ASP_CORE_2 if embedding == aspgen.EXTERNAL_STUB
            else draw(st.sampled_from(aspgen.DIALECTS))
        ),
        classifier_embedding=embedding,
        include_weak=draw(st.booleans()),
        include_count=draw(st.booleans()),
        shift=draw(st.booleans()),
        feature_tokens=draw(st.sampled_from((aspgen.INDICES, aspgen.NAMES))),
        hard_constraints=constraints,
    )
    return schema, entity, classifier, options


class TestEmissionInvariants:
    @settings(max_examples=200, deadline=None)
    @given(emission_cases())
    def test_emitted_programs_lint_clean(self, case):
        schema, entity, classifier, options = case
        program = aspgen.emit_cip(schema, entity, classifier, options)
        assert aspgen.lint_cip(program.text) == []

    @settings(max_examples=200, deadline=None)
    @given(emission_cases())
    def test_shift_rewrites_only_the_intervention_rule(self, case):
        schema, entity, classifier, options = case

        def emit(shift):
            # ``options`` with only ``shift`` set anew
            return aspgen.emit_cip(schema, entity, classifier, aspgen.CipOptions(
                dialect=options.dialect,
                classifier_embedding=options.classifier_embedding,
                include_weak=options.include_weak,
                include_count=options.include_count,
                shift=shift,
                feature_tokens=options.feature_tokens,
                hard_constraints=options.hard_constraints,
            ))

        plain, shifted = emit(False), emit(True)
        if len(schema) == 1:
            assert shifted.text == plain.text
            return
        outside = [
            (s.name, s.comment, s.lines)
            for s in plain.sections if s.name != "intervention"
        ]
        assert outside == [
            (s.name, s.comment, s.lines)
            for s in shifted.sections if s.name != "intervention"
        ]
        [rule] = section(plain, "intervention").lines
        head, body = rule[: -len(".")].split(" :- ")
        sep = " v " if options.dialect == aspgen.DLV_COMPLEX else " | "
        disjuncts = head.split(sep)
        assert len(disjuncts) == len(schema)
        assert section(shifted, "intervention").lines == [
            f"{d} :- {body}, "
            + ", ".join(f"not {o}" for k, o in enumerate(disjuncts) if k != j)
            + "."
            for j, d in enumerate(disjuncts)
        ]


# a term of an emitted argument list: a quoted constant, which may hold a
# comma, or a comma-free run
_TERM = re.compile(r'"(?:[^"\\]|\\.)*"|[^,]+')


def denial_line_forbids(line, rendered):
    """Does the emitted denial ``line`` fire on the entity whose values
    render as ``rendered``? The line reads ``:- ent(E,t1,...,tn,tr), a op b,
    ...`` and no constant holds ", ". Terms unify with the values, then
    every comparison is checked on the bound constants."""
    assert line.startswith(":- ") and line.endswith(".")
    atom, *comparisons = line[len(":- ") : -len(".")].split(", ")
    assert atom.startswith("ent(E,") and atom.endswith(",tr)")
    bound = {}
    terms = _TERM.findall(atom[len("ent(E,") : -len(",tr)")])
    for term, value in zip(terms, rendered, strict=True):
        if term[0].isupper():
            bound[term] = value
        elif term != value:
            return False
    for text in comparisons:
        op = " != " if " != " in text else " = "
        lhs, _, rhs = text.partition(op)
        assert rhs, text
        if (bound.get(lhs, lhs) == bound.get(rhs, rhs)) != (op == " = "):
            return False
    return True


def stub_case(*denials):
    """An emission case over A in {x, y, z} and B in {0, 1} with ``denials``
    given as (feature, value, polarity) triples."""
    schema = FeatureSchema((Feature("A", ("x", "y", "z")), Feature("B", ("0", "1"))))
    cs = ConstraintSet(schema, denials=tuple(
        DenialConstraint(tuple(DenialLiteral(*lit) for lit in chi)) for chi in denials
    ))
    options = aspgen.CipOptions(
        dialect=aspgen.ASP_CORE_2,
        classifier_embedding=aspgen.EXTERNAL_STUB,
        hard_constraints=cs,
    )
    return schema, Entity("e", ("x", "0")), None, options


_RULE_VARS = ("X", "Y", "Z")
_RULE_TERMS = st.sampled_from(_RULE_VARS + ("a", "0"))


@st.composite
def rules_to_lint(draw):
    """One rule as (text, head terms, body) in the form ``oracles.unsafe_variables``
    reads; predicate names carry their arity, so no two uses clash."""
    terms = st.lists(_RULE_TERMS, max_size=3)
    head = draw(terms)
    body = draw(st.lists(st.one_of(
        st.tuples(st.just("atom"), st.booleans(), terms),
        st.tuples(st.just("cmp"), st.booleans(), st.sampled_from(("=", "!=")),
                  _RULE_TERMS, _RULE_TERMS),
    ), max_size=4))
    if draw(st.booleans()):
        body.append(("count", draw(st.booleans()), draw(st.sampled_from(_RULE_VARS)),
                     draw(st.sampled_from(_RULE_VARS))))
    if draw(st.booleans()):
        body.append(("external", draw(st.booleans()), draw(terms), draw(terms)))
    body = draw(st.permutations(body))

    def render(kind, negated, *rest):
        if kind == "atom":
            text = f"p{len(rest[0])}({','.join(rest[0])})"
        elif kind == "cmp":
            text = f"{rest[1]} {rest[0]} {rest[2]}"
        elif kind == "count":
            text = f"#count{{{rest[0]}: q({rest[0]})}} = {rest[1]}"
        else:
            text = f"&f({','.join(rest[0])};{','.join(rest[1])})"
        return ("not " if negated else "") + text

    text = f"h{len(head)}({','.join(head)})"
    if body:
        text += " :- " + ", ".join(render(*literal) for literal in body)
    return text + ".\n", head, body


class TestLintSafety:
    @settings(max_examples=300, deadline=None)
    @given(rules_to_lint())
    def test_unsafe_variables_match_oracle(self, rule):
        text, head, body = rule
        diagnostics = aspgen.lint_cip(text)
        assert {d.kind for d in diagnostics} <= {"unsafe-variable"}, diagnostics
        unsafe = {d.message.split()[1] for d in diagnostics}
        assert unsafe == oracles.unsafe_variables(head, body), text


class TestDenialEmission:
    @settings(max_examples=200, deadline=None)
    @given(emission_cases())
    # A = y and A = z never holds; A = x and A != y tests A twice
    @example(stub_case([(0, "y", EQ), (0, "z", EQ)]))
    @example(stub_case([(0, "x", EQ), (0, "y", NE)], [(1, "1", NE), (1, "0", NE)]))
    def test_denial_lines_forbid_what_matches(self, case):
        schema, entity, classifier, options = case
        cs = options.hard_constraints
        if not cs.denials:
            return
        program = aspgen.emit_cip(schema, entity, classifier, options)
        lines = section(program, "hard").lines[: len(cs.denials)]
        consts = [aspgen.render_constants(f.domain) for f in schema.features]
        for chi, line in zip(cs.denials, lines, strict=True):
            for vec in schema.iter_space():
                rendered = [c[v] for c, v in zip(consts, vec)]
                assert denial_line_forbids(line, rendered) == chi.matches(vec), (line, vec)


class TestActionabilityEmission:
    @settings(max_examples=200, deadline=None)
    @given(emission_cases())
    def test_lines_forbid_what_no_alternative_allows(self, case):
        schema, entity, classifier, options = case
        cs = options.hard_constraints
        if cs.is_empty():
            return
        program = aspgen.emit_cip(schema, entity, classifier, options)
        lines = section(program, "hard").lines
        onehot = sum(math.comb(len(g.members), 2) + 1 for g in cs.onehot)
        lines = lines[len(cs.denials) : len(lines) - onehot]
        alternatives = cs.alternatives(entity.values)
        consts = [aspgen.render_constants(f.domain) for f in schema.features]
        for vec in schema.iter_space():
            rendered = [c[v] for c, v in zip(consts, vec)]
            forbidden = any(
                v != o and v not in allowed
                for v, o, allowed in zip(vec, entity.values, alternatives)
            )
            assert any(denial_line_forbids(line, rendered) for line in lines) == forbidden


# text json.dumps escapes: quotes, backslashes, control characters, '/',
# and non-ASCII from the Latin-1, BMP and astral ranges
_ESCAPED = st.text(
    st.one_of(
        st.sampled_from('a"\\/\n\t\x00\x1f\x7f\xe9\u2028\u2603\U0001d11e'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def results_to_render(draw):
    """A search result over names and values that all need escaping.

    The schema is built past the identifier rule FeatureSchema enforces on
    names, so feature names reach the renderer as arbitrary text too. A
    budget may truncate the walk, down to nothing found.
    """
    n = draw(st.integers(1, 3))
    names = draw(st.lists(_ESCAPED, min_size=n, max_size=n, unique=True))
    domains = st.lists(_ESCAPED, min_size=2, max_size=3, unique=True).map(tuple)
    features = tuple(Feature(name, draw(domains)) for name in names)
    schema = object.__new__(FeatureSchema)
    object.__setattr__(schema, "features", features)
    space = list(schema.iter_space())
    labels = draw(st.lists(st.integers(0, 1), min_size=len(space), max_size=len(space)))
    at = draw(st.integers(0, len(space) - 1))
    labels[at] = 1
    entity = Entity(draw(_ESCAPED), space[at])
    budget = draw(st.none() | st.integers(1, len(space)))
    result = enumerate_counterfactuals(
        schema,
        TableClassifier(schema, dict(zip(space, labels))),
        entity,
        config=SearchConfig(budget=budget),
    )
    return schema, result


class TestRendering:
    @settings(max_examples=200, deadline=None)
    @given(results_to_render())
    def test_json_text_equals_indented_dumps(self, case):
        schema, result = case
        out = io.StringIO()
        assert search.write_json(out, schema, result.hits, result) == len(result.hits)
        assert out.getvalue() == (
            json.dumps(result.to_json_dict(schema), indent=2) + "\n"
        )


# cells without surrounding whitespace (the loader strips it), holding the
# characters csv quotes
_CELL = st.text(
    st.one_of(
        st.sampled_from('ab ,"\'\xe9'),
        st.characters(blacklist_categories=("Cs", "Cc")),
    ),
    min_size=1,
    max_size=3,
).filter(lambda v: v == v.strip())
# cells csv writes as they are, so most drawn files are plain text
_PLAIN_CELL = _CELL.filter(lambda v: "," not in v and '"' not in v)
# mostly "\n", which plain text ends its lines with
_LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])


@st.composite
def table_csvs(draw):
    """A schema, table rows over it, and the same rows as CSV text with
    shuffled columns, an optional id column, padded cells and drawn line
    ends. Two draws in three use cells that need no quotes."""
    n = draw(st.integers(1, 3))
    cells = draw(st.sampled_from([_PLAIN_CELL, _PLAIN_CELL, _CELL]))
    domains = st.lists(cells, min_size=2, max_size=3, unique=True).map(tuple)
    schema = FeatureSchema(tuple(Feature(f"F{i + 1}", draw(domains)) for i in range(n)))
    space = list(schema.iter_space())
    vecs = draw(st.lists(st.sampled_from(space), min_size=1, unique=True))
    rows = {vec: draw(st.integers(0, 1)) for vec in vecs}
    columns = [*schema.names, "label"]
    if draw(st.booleans()):
        columns.append("id")
    columns = draw(st.permutations(columns))
    pad = st.sampled_from(["", " ", "  ", "\t"])

    def padded(cell):
        return draw(pad) + cell + draw(pad)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(_LINE_ENDS))
    writer.writerow([padded(c) for c in columns])
    for i, (vec, label) in enumerate(rows.items()):
        cells = {**dict(zip(schema.names, vec)), "label": str(label), "id": f"r{i}"}
        writer.writerow([padded(cells[c]) for c in columns])
    return schema, rows, out.getvalue()


_TABLE_FAULTS = ("value", "label", "repeat", "pad", "blank", "width")


@st.composite
def faulty_table_csvs(draw):
    """A schema and a table CSV over it: up to 12 rows of distinct vectors,
    with up to three faults at drawn rows. A fault is a value outside its
    domain, a label other than 0/1, a repeat of an earlier vector, padded
    cells (a newline pad makes the quoted cell span lines), a blank row or
    a row of the wrong width. A domain may hold a value with surrounding
    whitespace, which a stripped cell never matches. Lines end mostly with
    "\n", so most files are plain text; "\r\n" or "\r" line ends and a
    newline pad, which csv quotes, make the others."""
    values = st.lists(st.sampled_from(["0", "1", "2", "a"]), min_size=2, max_size=3, unique=True)
    domains = [draw(values) for _ in range(draw(st.integers(1, 3)))]
    n = len(domains)
    if draw(st.integers(0, 4)) == 0:
        padded = draw(st.sampled_from([" a", "b "]))
        domains[draw(st.integers(0, n - 1))].append(padded)
    schema = FeatureSchema(tuple(
        Feature(f"F{i + 1}", tuple(d)) for i, d in enumerate(domains)
    ))
    vecs = [list(v) for v in draw(st.permutations(list(schema.iter_space())))[:12]]
    faults = dict(draw(st.lists(
        st.tuples(st.integers(0, len(vecs) - 1), st.sampled_from(_TABLE_FAULTS)), max_size=3
    )))
    columns = [*schema.names, "label"]
    if draw(st.booleans()):
        columns.append("id")
    columns = draw(st.permutations(columns))
    pad = st.sampled_from(["", " ", "\t", "\n"])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(_LINE_ENDS))
    writer.writerow(columns)
    for i, vec in enumerate(vecs):
        fault = faults.get(i)
        label = str(draw(st.integers(0, 1)))
        if fault == "value":
            vec[draw(st.integers(0, n - 1))] = "z"
        if fault == "label":
            label = draw(st.sampled_from(["2", "", "x", "01"]))
        if fault == "repeat" and i:
            vec = vecs[draw(st.integers(0, i - 1))]
        cells = {**dict(zip(schema.names, vec)), "label": label, "id": f"r{i}"}
        row = [cells[c] for c in columns]
        if fault == "pad":
            row = [draw(pad) + c + draw(pad) for c in row]
        if fault == "blank":
            row = [draw(st.sampled_from(["", " ", "\t"])) for _ in row]
        if fault == "width":
            row = draw(st.sampled_from([row[:-1], [*row, "x"]]))
        writer.writerow(row)
    return schema, out.getvalue()


class TestTableLoading:
    @settings(max_examples=100, deadline=None)
    @given(table_csvs())
    def test_from_csv_matches_constructor(self, case):
        schema, rows, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(text, encoding="utf-8", newline="")
            loaded = TableClassifier.from_csv(path, schema)
        # equal in file order too: emit-asp's fact section keeps it
        built = TableClassifier(schema, rows)
        assert list(loaded.rows.items()) == list(built.rows.items())

    @settings(max_examples=300, deadline=None)
    @given(faulty_table_csvs(), st.sampled_from([1, 8, 16, 32, schema_module.BLOCK_CHARS]))
    def test_from_csv_matches_row_by_row_reference(self, case, block_chars):
        """Same rows in the same order, or the same message, whichever
        block a fault falls in. The small budgets cut a block after a line
        or two."""
        schema, text = case
        got, want = _load_and_reference(schema, text, block_chars)
        assert got == want

    @pytest.mark.parametrize("block_chars", [1, 8, schema_module.BLOCK_CHARS])
    @pytest.mark.parametrize("text", [
        pytest.param("F1,F2,label\n0,0,1\n0\0,1,1\n", id="nul-byte"),
        pytest.param("F1,F2,label,id\n0,0,1,\0\n1,1,0,b\n", id="nul-in-extra-column"),
        pytest.param("F1,F2,label\r0,0,1\r1,2,0\r", id="lone-cr-line-ends"),
        pytest.param(
            "F1,F2,label,id\n0,0,1,a\n0,1,0," + "x" * (csv.field_size_limit() + 1)
            + "\n1,1,1,b\n",
            id="cell-past-field-limit",
        ),
        pytest.param(
            "F1,F2,label\n0,0,1\n0,1,0\n1,0,0\n1,1,1\n0,1,1\n", id="later-duplicate"
        ),
        pytest.param("F1,F2,label\n0,0,1\n1,1,0\n\n", id="trailing-blank-line"),
        pytest.param("F1,F2,label\n0,0,1\n\n1,1,0", id="blank-line-no-final-end"),
        pytest.param(
            '"F1","F2","label"\n"0","0","1"\n\n"1","1","0"\n"0","2","1"\n',
            id="quote-all-blank-and-bad-row",
        ),
        pytest.param(
            "F1,F2,label\r\n0,0,1\r\n" + "\r\n" * schema_module.BLOCK_CHARS
            + "0,1,0\r\n1,2,0\r\n",
            id="crlf-bad-row-in-a-later-block",
        ),
    ])
    def test_from_csv_matches_row_by_row_reference_on(self, text, block_chars):
        got, want = _load_and_reference(_BITS2, text, block_chars)
        assert got == want


class TestCsvBlocks:
    @settings(max_examples=400, deadline=None)
    @given(
        st.text(st.sampled_from('ab, "\n\r\0'), max_size=40),
        st.sampled_from([0, 1, 3, 8, schema_module.BLOCK_CHARS]),
    )
    def test_blocks_hold_the_rows_read_csv_reads(self, text, block_chars):
        """Block after block, ``rows`` gives ``read_csv``'s rows and error,
        and a block's ``columns``, when it has them, are its rows' cells
        column by column. A header of one cell makes a blank line hold as
        many commas as a row."""
        def drain(rows, out):
            try:
                out.extend(rows)
            except InputError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                header, rows = schema_module.read_csv(path)
            except InputError as exc:
                with pytest.raises(InputError, match=re.escape(str(exc))):
                    schema_module.read_csv_blocks(path)
                return
            want: list = []
            want_error = drain(rows, want)
            with mock.patch.object(schema_module, "BLOCK_CHARS", block_chars):
                got_header, blocks = schema_module.read_csv_blocks(path)
                got: list = []
                got_error = None
                for columns, block in blocks:
                    pairs: list = []
                    got_error = drain(block, pairs)
                    got.extend(pairs)
                    if got_error:
                        break
                    if columns is not None:
                        cells = [row for _, row in pairs]
                        assert list(map(list, columns)) == list(map(list, zip(*cells)))
                        assert cells  # a block of no rows has no columns
        assert (got_header, got, got_error) == (header, want, want_error)


_BITS2 = FeatureSchema((Feature("F1", ("0", "1")), Feature("F2", ("0", "1"))))


def _load_and_reference(schema, text, block_chars):
    """``TableClassifier.from_csv`` on ``text`` with blocks of
    ``block_chars`` characters, and ``oracles.table_from_csv`` on it: each
    the rows in file order, or the error message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            want = list(oracles.table_from_csv(
                path, schema.names, [f.domain for f in schema.features]
            ).items())
        except ValueError as exc:
            want = str(exc)
        with mock.patch.object(schema_module, "BLOCK_CHARS", block_chars):
            try:
                got = list(TableClassifier.from_csv(path, schema).rows.items())
            except InputError as exc:
                got = str(exc)
    return got, want
