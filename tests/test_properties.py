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
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from conftest import section
from cfx import classify
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
    EmpiricalDistribution,
    ProductDistribution,
    UniformDistribution,
    ZeroMassError,
    global_resp,
    max_resp_features,
    x_resp,
)
from cfx.search import SearchConfig, enumerate_counterfactuals
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
def classified_spaces(draw, ordered=False):
    """A schema, a total truth table over it, and a label-1 entity."""
    schema = draw(schemas(max_features=3, ordered=ordered))
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


def draw_distribution(data, schema):
    """A uniform, product or empirical distribution, perhaps conditioned on
    drawn denials, and its probability table from tests/oracles.py.

    When the denials leave no mass, checks that conditioning refuses them
    and returns ``(None, None)``.
    """
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
    if not data.draw(st.booleans(), label="conditioned"):
        return dist, table
    literal = st.integers(0, len(domains) - 1).flatmap(lambda i: st.tuples(
        st.just(i), st.sampled_from(domains[i]), st.sampled_from((EQ, NE))
    ))
    denials = data.draw(st.lists(
        st.lists(literal, min_size=1, max_size=2), min_size=1, max_size=2
    ))
    table = oracles.condition_table(table, lambda vec: not any(
        all((vec[i] == v) == (polarity == EQ) for i, v, polarity in chi)
        for chi in denials
    ))
    chis = [DenialConstraint(tuple(DenialLiteral(*lit) for lit in chi)) for chi in denials]
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
        assert {x.counterfactual.values for x in held.s_set} == want
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
        for b in range(1, calls + 2):
            cut = run(b)
            k = len(cut.explanations)
            assert cut.explanations == full.explanations[:k]
            assert cut.s_flags == full.s_flags[:k]
            assert cut.c_flags == full.c_flags[:k]
            assert cut.stats.classifier_calls == min(b, calls)
            assert cut.exhausted == (full.exhausted and b >= calls)


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
            assert dist.prob(vec) == oracles.prob_of(table, vec)
        values = data.draw(st.tuples(*map(st.sampled_from, domains)))
        for index, domain in enumerate(domains):
            want = oracles.conditional(table, values, index)
            if want is None:
                with pytest.raises(ZeroMassError):
                    dist.conditional(values, index)
                continue
            weights = dist.conditional(values, index)
            assert list(weights) == list(domain)
            assert all(type(w) is int for w in weights.values())
            total = sum(weights.values())
            assert {v: Fraction(w, total) for v, w in weights.items() if w} == {
                v: p for v, p in want.items() if p
            }


class TestRuleListInvariants:
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
        assert result.to_json_text(schema) == (
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


@st.composite
def table_csvs(draw):
    """A schema, table rows over it, and the same rows as CSV text with
    shuffled columns, an optional id column, and padded cells."""
    n = draw(st.integers(1, 3))
    domains = st.lists(_CELL, min_size=2, max_size=3, unique=True).map(tuple)
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
    writer = csv.writer(out)
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
    whitespace, which a stripped cell never matches."""
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
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
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
    @given(faulty_table_csvs(), st.sampled_from([1, 2, 3, 5, classify.CHUNK_ROWS]))
    def test_from_csv_matches_row_by_row_reference(self, case, chunk_rows):
        """Same rows in the same order, or the same message, whichever
        chunk a fault falls in."""
        schema, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                want = list(oracles.table_from_csv(
                    path, schema.names, [f.domain for f in schema.features]
                ).items())
            except ValueError as exc:
                want = str(exc)
            with mock.patch.object(classify, "CHUNK_ROWS", chunk_rows):
                try:
                    got = list(TableClassifier.from_csv(path, schema).rows.items())
                except InputError as exc:
                    got = str(exc)
        assert got == want
