"""ASP program emission: goldens, shift, dialects, lint."""

import pytest

from cfx.aspgen import (
    ASP_CORE_2,
    DLV_COMPLEX,
    EXTERNAL_STUB,
    FACTS,
    NAMES,
    RULES,
    CipOptions,
    emit_cip,
    lint_cip,
    render_constants,
)
from cfx.classify import Rule, RuleClassifier, TableClassifier, parse_rules
from cfx.constrain import (
    ActionabilityRule,
    ConstraintSet,
    DenialConstraint,
    DenialLiteral,
    OneHotGroup,
)
from cfx.errors import InputError
from cfx.schema import Feature, FeatureSchema
from conftest import GOLDEN, T1_ROWS, section, table_from_function


def normalized(text):
    return "\n".join(line.rstrip() for line in text.splitlines()).rstrip() + "\n"


def read_golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestGoldens:
    def test_table1_weak_count(self, bits_schema, t1_table, e1):
        prog = emit_cip(
            bits_schema,
            e1,
            t1_table,
            CipOptions(include_weak=True, include_count=True),
        )
        assert normalized(prog.text) == normalized(read_golden("table1_weak_count.lp"))

    def test_tennis_rules(self, tennis_schema, tennis_clf, tennis_entity):
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            tennis_clf,
            CipOptions(
                classifier_embedding=RULES,
                include_count=True,
                feature_tokens=NAMES,
            ),
        )
        assert normalized(prog.text) == normalized(read_golden("tennis_rules.lp"))

    def test_tennis_external(self, tennis_schema, tennis_entity):
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            None,
            CipOptions(
                dialect=ASP_CORE_2,
                classifier_embedding=EXTERNAL_STUB,
                include_count=True,
                feature_tokens=NAMES,
            ),
        )
        assert normalized(prog.text) == normalized(read_golden("tennis_external.lp"))

    def test_all_goldens_lint_clean(self):
        for name in (
            "table1_weak_count.lp",
            "tennis_rules.lp",
            "tennis_external.lp",
        ):
            assert lint_cip(read_golden(name)) == [], name

    def test_emission_is_deterministic(self, bits_schema, t1_table, e1):
        opts = CipOptions(include_weak=True, include_count=True)
        a = emit_cip(bits_schema, e1, t1_table, opts)
        b = emit_cip(bits_schema, e1, t1_table, opts)
        assert a.text == b.text


class TestStructure:
    def test_fact_packing_matches_presentation(self, bits_schema, t1_table, e1):
        prog = emit_cip(bits_schema, e1, t1_table, CipOptions())
        cls_lines = section(prog, "classifier").lines
        assert cls_lines == [
            "cls(0,1,1,1). cls(1,1,1,1). cls(1,1,0,1). cls(1,0,1,0). cls(1,0,0,1).",
            "cls(0,1,0,1). cls(0,0,1,0). cls(0,0,0,0).",
        ]

    def test_section_index_is_contiguous(self, bits_schema, t1_table, e1):
        prog = emit_cip(
            bits_schema, e1, t1_table, CipOptions(include_weak=True, include_count=True)
        )
        index = prog.section_index()
        assert [s["section"] for s in index] == [
            "header",
            "classifier",
            "domains",
            "entity",
            "transition",
            "intervention",
            "choice",
            "stop",
            "no-return",
            "explanations",
            "filter",
            "count",
            "weak",
        ]
        lines = prog.text.splitlines()
        previous_end = 0
        for entry in index:
            assert entry["start"] == previous_end + (2 if previous_end else 1)
            assert entry["start"] <= entry["end"] <= len(lines)
            previous_end = entry["end"]

    def test_count_rule_and_expl_tokens_indices(self, bits_schema, t1_table, e1):
        prog = emit_cip(bits_schema, e1, t1_table, CipOptions(include_count=True))
        assert (
            "invResp(E,M) :- #count{I: expl(E,I,_)} = M, #int(M), E = e."
            in prog.text
        )
        assert "expl(E,1,X) :- ent(E,X,Y,Z,o), ent(E,Xp,Yp,Zp,s), X != Xp." in prog.text

    def test_expl_tokens_names(self, tennis_schema, tennis_clf, tennis_entity):
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            tennis_clf,
            CipOptions(classifier_embedding=RULES, feature_tokens=NAMES),
        )
        assert "expl(E,outlook,X)" in prog.text
        assert "expl(E,humidity,Y)" in prog.text
        assert "expl(E,wind,Z)" in prog.text

    def test_weak_off_by_default(self, bits_schema, t1_table, e1):
        prog = emit_cip(bits_schema, e1, t1_table, CipOptions())
        assert ":~" not in prog.text
        assert "invResp" not in prog.text

    def test_four_feature_variable_names(self):
        schema = FeatureSchema(tuple(
            Feature(f"F{i}", ("0", "1")) for i in range(1, 5)
        ))
        table = table_from_function(schema, lambda v: 1 if "1" in v else 0)
        e = schema.entity("e", ("1", "1", "1", "1"))
        prog = emit_cip(schema, e, table, CipOptions())
        assert "ent(E,X1,X2,X3,X4,tr)" in prog.text
        assert lint_cip(prog.text) == []


class TestEmbeddings:
    def test_facts_requires_total_table(self, bits_schema, e1):
        partial = TableClassifier(bits_schema, dict(T1_ROWS[:4]))
        with pytest.raises(InputError, match="total"):
            emit_cip(bits_schema, e1, partial, CipOptions())

    def test_facts_requires_a_table(self, tennis_schema, tennis_clf, tennis_entity):
        with pytest.raises(InputError):
            emit_cip(tennis_schema, tennis_entity, tennis_clf, CipOptions())

    def test_rules_embedding_condition_order_and_dom_atoms(
        self, tennis_schema, tennis_clf, tennis_entity
    ):
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            tennis_clf,
            CipOptions(classifier_embedding=RULES),
        )
        lines = section(prog, "classifier").lines
        assert lines == [
            "cls(X,Y,Z,1) :- Y = normal, X = sunny, dom3(Z).",
            "cls(X,Y,Z,1) :- X = overcast, dom2(Y), dom3(Z).",
            "cls(X,Y,Z,1) :- Z = weak, X = rain, dom2(Y).",
            "cls(X,Y,Z,0) :- dom1(X), dom2(Y), dom3(Z), not cls(X,Y,Z,1).",
        ]

    def test_rules_embedding_needs_uniform_labels(self, tennis_schema, tennis_entity):
        mixed = parse_rules(
            "if Outlook=sunny then 0\nif Outlook=overcast then 1\ndefault 0\n",
            tennis_schema,
        )
        with pytest.raises(InputError, match="embed"):
            emit_cip(
                tennis_schema,
                tennis_entity,
                mixed,
                CipOptions(classifier_embedding=RULES),
            )

    def test_rules_embedding_label0_paths(self, tennis_schema, tennis_entity):
        # uniform label-0 rules with default 1 embed with the flipped default
        inverted = parse_rules(
            "if Humidity=high then 0\ndefault 1\n", tennis_schema
        )
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            inverted,
            CipOptions(classifier_embedding=RULES),
        )
        lines = section(prog, "classifier").lines
        assert lines[0] == "cls(X,Y,Z,0) :- Y = high, dom1(X), dom3(Z)."
        assert lines[-1] == "cls(X,Y,Z,1) :- dom1(X), dom2(Y), dom3(Z), not cls(X,Y,Z,0)."
        assert lint_cip(prog.text) == []

    @pytest.mark.parametrize("labels, default", [
        ((1, 1), 0), (("1", "1"), "0"), ((1, "1"), "0"), (("1", 1), 0),
    ])
    def test_rules_embedding_renders_integer_labels(
        self, tennis_schema, tennis_entity, labels, default
    ):
        # a label spelled as a string is the same label as its int
        clf = RuleClassifier(
            tennis_schema,
            [Rule(((0, "sunny"),), labels[0]), Rule(((0, "rain"),), labels[1])],
            default,
        )
        prog = emit_cip(
            tennis_schema, tennis_entity, clf, CipOptions(classifier_embedding=RULES)
        )
        assert section(prog, "classifier").lines == [
            "cls(X,Y,Z,1) :- X = sunny, dom2(Y), dom3(Z).",
            "cls(X,Y,Z,1) :- X = rain, dom2(Y), dom3(Z).",
            "cls(X,Y,Z,0) :- dom1(X), dom2(Y), dom3(Z), not cls(X,Y,Z,1).",
        ]

    @pytest.mark.parametrize("label", [1.0, True], ids=repr)
    def test_rules_embedding_never_sees_a_non_integer_label(
        self, tennis_schema, tennis_entity, label
    ):
        # 1.0 == True == 1, but cls(X,Y,Z,1.0) would match no cls(...,1) atom
        with pytest.raises(InputError, match="label must be 0 or 1"):
            emit_cip(
                tennis_schema,
                tennis_entity,
                RuleClassifier(tennis_schema, [Rule(((0, "sunny"),), label)], 0),
                CipOptions(classifier_embedding=RULES),
            )

    @pytest.mark.parametrize("field, message", [
        ("dialect", "unknown dialect 'clingo'"),
        ("classifier_embedding", "unknown embedding 'clingo'"),
        ("feature_tokens", "unknown feature token style 'clingo'"),
    ])
    def test_unknown_option_values(self, field, message):
        with pytest.raises(InputError) as info:
            CipOptions(**{field: "clingo"})
        assert str(info.value) == message

    def test_rules_embedding_needs_rules(self, bits_schema, t1_table, e1):
        with pytest.raises(InputError) as info:
            emit_cip(bits_schema, e1, t1_table, CipOptions(classifier_embedding=RULES))
        assert str(info.value) == "rules embedding needs a rule-list classifier"

    def test_external_stub_needs_asp_core_2(self):
        with pytest.raises(InputError, match="asp-core-2"):
            CipOptions(classifier_embedding=EXTERNAL_STUB, dialect=DLV_COMPLEX)

    def test_external_stub_line(self, tennis_schema, tennis_entity):
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            None,
            CipOptions(dialect=ASP_CORE_2, classifier_embedding=EXTERNAL_STUB),
        )
        assert (
            "cls(X,Y,Z,L) :- &classifier(X,Y,Z;L), dom1(X), dom2(Y), dom3(Z)."
            in prog.text
        )


class TestDialects:
    def test_differences_are_bounded(self, bits_schema, t1_table, e1):
        opts_dlv = CipOptions(include_weak=True, include_count=True)
        opts_core = CipOptions(
            dialect=ASP_CORE_2, include_weak=True, include_count=True
        )
        dlv = emit_cip(bits_schema, e1, t1_table, opts_dlv).text
        core = emit_cip(bits_schema, e1, t1_table, opts_core).text
        # normalize the three documented differences away; texts must agree
        canon_dlv = dlv.replace("#include<ListAndSet>\n\n", "").replace(" v ", " | ")
        canon_core = core.replace(".[w@1]", ".")
        assert canon_dlv == canon_core

    def test_disjunction_tokens(self, bits_schema, t1_table, e1):
        dlv = emit_cip(bits_schema, e1, t1_table, CipOptions()).text
        core = emit_cip(
            bits_schema, e1, t1_table, CipOptions(dialect=ASP_CORE_2)
        ).text
        assert " v " in dlv and " | " not in dlv
        assert " | " in core and " v " not in core

    def test_include_header_only_dlv(self, bits_schema, t1_table, e1):
        dlv = emit_cip(bits_schema, e1, t1_table, CipOptions()).text
        core = emit_cip(
            bits_schema, e1, t1_table, CipOptions(dialect=ASP_CORE_2)
        ).text
        assert dlv.startswith("#include<ListAndSet>")
        assert "#include" not in core

    def test_count_rule_keeps_int_guard_in_both(self, bits_schema, t1_table, e1):
        for dialect in (DLV_COMPLEX, ASP_CORE_2):
            text = emit_cip(
                bits_schema,
                e1,
                t1_table,
                CipOptions(dialect=dialect, include_count=True),
            ).text
            assert "#int(M)" in text


class TestShift:
    def test_three_features_three_rules(self, bits_schema, t1_table, e1):
        shifted = emit_cip(bits_schema, e1, t1_table, CipOptions(shift=True))
        rules = section(shifted, "intervention").lines
        assert len(rules) == 3
        assert all(" v " not in r and " | " not in r for r in rules)
        # rule 1 keeps the first head atom and negates the other two in order
        assert rules[0].startswith("ent(E,Xp,Y,Z,do) :- ")
        assert rules[0].endswith(
            "not ent(E,X,Yp,Z,do), not ent(E,X,Y,Zp,do)."
        )
        assert rules[1].startswith("ent(E,X,Yp,Z,do) :- ")
        assert rules[2].endswith(
            "not ent(E,Xp,Y,Z,do), not ent(E,X,Yp,Z,do)."
        )
        assert lint_cip(shifted.text) == []

    def test_other_sections_untouched(self, bits_schema, t1_table, e1):
        prog = emit_cip(bits_schema, e1, t1_table, CipOptions())
        shifted = emit_cip(bits_schema, e1, t1_table, CipOptions(shift=True))
        assert [s.name for s in prog.sections] == [s.name for s in shifted.sections]
        for a, b in zip(prog.sections, shifted.sections):
            if a.name != "intervention":
                assert (a.comment, a.lines) == (b.comment, b.lines)

    def test_two_features_two_rules(self):
        schema = FeatureSchema((Feature("F1", ("0", "1")), Feature("F2", ("0", "1"))))
        table = table_from_function(
            schema, lambda v: 0 if v == ("0", "0") else 1
        )
        e = schema.entity("e", ("1", "1"))
        shifted = emit_cip(schema, e, table, CipOptions(shift=True))
        rules = section(shifted, "intervention").lines
        assert len(rules) == 2
        assert rules[0].count("not ent(") == 1
        assert lint_cip(shifted.text) == []

    def test_one_feature_identity(self):
        schema = FeatureSchema((Feature("F", ("a", "b", "c")),))
        table = table_from_function(schema, lambda v: 1 if v[0] == "a" else 0)
        e = schema.entity("e", ("a",))
        prog = emit_cip(schema, e, table, CipOptions())
        shifted = emit_cip(schema, e, table, CipOptions(shift=True))
        assert len(section(prog, "intervention").lines) == 1
        assert shifted.text == prog.text
        assert lint_cip(prog.text) == []


class TestHardConstraints:
    def test_denial_on_tr_atoms(self, tennis_schema, tennis_clf, tennis_entity):
        cs = ConstraintSet(
            tennis_schema,
            denials=(
                DenialConstraint((DenialLiteral(0, "rain"), DenialLiteral(2, "strong"))),
            ),
        )
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            tennis_clf,
            CipOptions(classifier_embedding=RULES, hard_constraints=cs),
        )
        assert ":- ent(E,rain,X,strong,tr)." in prog.text
        assert lint_cip(prog.text) == []

    def test_ne_literal_comparison(self, tennis_schema, tennis_clf, tennis_entity):
        cs = ConstraintSet(
            tennis_schema,
            denials=(
                DenialConstraint((
                    DenialLiteral(0, "overcast", "ne"),
                    DenialLiteral(1, "high"),
                )),
            ),
        )
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            tennis_clf,
            CipOptions(classifier_embedding=RULES, hard_constraints=cs),
        )
        assert ":- ent(E,X,high,Y,tr), X != overcast." in prog.text
        assert lint_cip(prog.text) == []

    @pytest.mark.parametrize("literals, line", [
        # the first '=' on a feature fixes its term; later tests compare to it
        (((1, "normal"), (1, "high", "ne")), ":- ent(E,X,normal,Y,tr), normal != high."),
        (((1, "normal"), (1, "high")), ":- ent(E,X,normal,Y,tr), normal = high."),
        (((0, "rain", "ne"), (0, "sunny", "ne")), ":- ent(E,X,Y,Z,tr), X != rain, X != sunny."),
    ])
    def test_denial_testing_one_feature_twice(
        self, tennis_schema, tennis_clf, tennis_entity, literals, line
    ):
        chi = DenialConstraint(tuple(DenialLiteral(*lit) for lit in literals))
        prog = emit_cip(
            tennis_schema,
            tennis_entity,
            tennis_clf,
            CipOptions(
                classifier_embedding=RULES,
                hard_constraints=ConstraintSet(tennis_schema, denials=(chi,)),
            ),
        )
        assert section(prog, "hard").lines == [line]
        assert lint_cip(prog.text) == []

    def test_actionability_and_onehot(self):
        schema = FeatureSchema((
            Feature("Age", ("20", "28", "35"), ordered=True),
            Feature("b1", ("0", "1")),
            Feature("b2", ("0", "1")),
        ))
        table = table_from_function(schema, lambda v: 1 if v[1] == "1" else 0)
        e = schema.entity("e", ("28", "1", "0"))
        cs = ConstraintSet(
            schema,
            actionability=(
                ActionabilityRule(0, "increase-only"),
                ActionabilityRule(1, "fixed"),
                ActionabilityRule(2, "free"),
            ),
            onehot=(OneHotGroup((1, 2)),),
        )
        prog = emit_cip(schema, e, table, CipOptions(hard_constraints=cs))
        # increase-only from 28 forbids 20, fixed forbids b1 = 0, free
        # forbids nothing; then the two one-hot lines
        assert section(prog, "hard").lines == [
            ":- ent(E,20,X,Y,tr).",
            ":- ent(E,X,0,Y,tr).",
            ":- ent(E,X,1,1,tr).",
            ":- ent(E,X,0,0,tr).",
        ]
        assert lint_cip(prog.text) == []

    def test_actionability_follows_declared_order(self):
        # alphabetically high < mid, so a program comparing constants would
        # forbid high; the declared order forbids only low
        schema = FeatureSchema((
            Feature("Size", ("low", "mid", "high"), ordered=True),
            Feature("b", ("0", "1")),
        ))
        table = table_from_function(schema, lambda v: 1 if v[1] == "1" else 0)
        e = schema.entity("e", ("mid", "1"))
        cs = ConstraintSet(schema, actionability=(ActionabilityRule(0, "increase-only"),))
        prog = emit_cip(schema, e, table, CipOptions(hard_constraints=cs))
        assert section(prog, "hard").lines == [":- ent(E,low,X,tr)."]
        assert lint_cip(prog.text) == []


class TestConstants:
    def test_plain_tokens_pass_through(self):
        assert render_constants(["sunny", "0", "42"]) == {
            "sunny": "sunny",
            "0": "0",
            "42": "42",
        }

    def test_mixed_case_lowered(self):
        assert render_constants(["Yes", "No"]) == {"Yes": "yes", "No": "no"}

    def test_collision_falls_back_to_quoting(self):
        out = render_constants(["yes", "Yes"])
        assert out["yes"] == "yes"
        assert out["Yes"] == '"Yes"'

    def test_non_token_values_quoted(self):
        out = render_constants(["high-risk", "ok"])
        assert out["high-risk"] == '"high-risk"'
        assert out["ok"] == "ok"

    def test_quoted_values_stay_distinct(self):
        out = render_constants(["a b", "a-b"])
        assert out["a b"] != out["a-b"]

    def test_underscore_led_tokens_quoted(self):
        # "_" is the anonymous variable; "_x" and "_1" are no ASP-Core-2 constants
        assert render_constants(["_", "_x", "_1", "X_"]) == {
            "_": '"_"', "_x": '"_x"', "_1": '"_1"', "X_": "x_",
        }

    def test_underscore_domain_emits_lintable_program(self):
        schema = FeatureSchema((Feature("F", ("_", "b")),))
        table = table_from_function(schema, lambda v: int(v[0] == "_"))
        prog = emit_cip(schema, schema.entity("e", ("_",)), table, CipOptions())
        assert 'dom1("_"). dom1(b).' in prog.text
        assert lint_cip(prog.text) == []

    def test_quoted_domain_still_emits_lintable_program(self):
        schema = FeatureSchema((
            Feature("Risk", ("high-risk", "low-risk")),
            Feature("Area", ("urban", "rural")),
        ))
        table = table_from_function(
            schema, lambda v: 1 if v[0] == "high-risk" else 0
        )
        e = schema.entity("e", ("high-risk", "urban"))
        prog = emit_cip(schema, e, table, CipOptions())
        assert 'dom1("high-risk").' in prog.text
        assert lint_cip(prog.text) == []


class TestLint:
    def test_arity_clash(self):
        text = "ent(e,0,1,1,o).\nent(e,0,1,o).\n"
        kinds = [d.kind for d in lint_cip(text)]
        assert "arity-clash" in kinds

    def test_unsafe_variable(self):
        text = "p(X) :- q(Y).\n"
        diags = lint_cip(text)
        assert [d.kind for d in diags] == ["unsafe-variable"]
        assert "X" in diags[0].message

    def test_negated_literal_does_not_bind(self):
        text = "p(X) :- not q(X).\n"
        assert [d.kind for d in lint_cip(text)] == ["unsafe-variable"]

    def test_comparison_binding(self):
        # V = const binds; V != const does not
        assert lint_cip("p(X) :- X = a.\n") == []
        assert [d.kind for d in lint_cip("p(X) :- X != a.\n")] == ["unsafe-variable"]

    def test_duplicate_fact(self):
        text = "dom1(0). dom1(0).\n"
        assert [d.kind for d in lint_cip(text)] == ["duplicate-fact"]

    def test_underscore_term_in_fact(self):
        text = 'dom1(_). ent(e,_x,0,o). dom1("_"). p(a).\np(X) :- q(X,_).\nq(a,b).\n'
        diags = lint_cip(text)
        assert [d.kind for d in diags] == ["underscore-term", "underscore-term"]
        assert "dom1(_)" in diags[0].message

    def test_aggregate_binds_result(self):
        text = "n(E,M) :- #count{I: expl(E,I,_)} = M, e(E).\ne(a).\nexpl(a,1,x).\n"
        assert lint_cip(text) == []

    def test_external_binds_outputs(self):
        text = "cls(X,L) :- &classifier(X;L), dom(X).\ndom(a).\n"
        assert lint_cip(text) == []

    def test_weak_suffix_absorbed(self):
        text = ":~ p(X), q(X).[w@1]\np(a). q(a).\n"
        assert lint_cip(text) == []

    def test_comments_and_include_skipped(self):
        text = "#include<ListAndSet>\n% a comment\np(a).\n"
        assert lint_cip(text) == []

    @pytest.mark.parametrize("text", [
        'dom1("C:\\\\"). dom1(tmp).\n',
        'dom1("a \\"b% c"). dom1(tmp).\n',
    ], ids=["backslash-last", "percent-after-escaped-quote"])
    def test_quoted_constants_end_at_their_closing_quote(self, text):
        assert lint_cip(text) == []
        # the scan resumes after the constant and still sees what follows
        assert [d.kind for d in lint_cip(text + "dom1(tmp).\n")] == ["duplicate-fact"]

    @pytest.mark.parametrize("text, expected", [
        ("p(a) q :- r(a).", [("parse-error", "cannot parse head 'p(a) q'")]),
        ("p(X) :- X(a).", [
            ("parse-error", "cannot parse literal 'X(a)'"),
            ("unsafe-variable",
             "variable X is not bound by a positive body atom in 'p(X) :- X(a).'"),
        ]),
        # a constant on the left of '=' binds too
        ("p(X) :- a = X.", []),
        # an external with no arguments, an aggregate without an atom, and a
        # '<' aggregate (neither binds nor needs anything)
        ("p(X) :- &g, q(X).", []),
        ("p(M) :- #count{X} = M.", []),
        ("p(M) :- q(M), #count{X: r(X)} < M.", []),
        ("p(X) :- q(X), not X = a.", []),
        ("p(X) :- &g(X), &g(X;Y), q(X).",
         [("arity-clash", "predicate &g used with arity 2 and 1")]),
        # a negated literal binds nothing, whatever its form
        ("p(X) :- not X = a.", [
            ("unsafe-variable",
             "variable X is not bound by a positive body atom in 'p(X) :- not X = a.'"),
        ]),
        ("p(M) :- not #count{X: r(X)} = M.", [
            ("unsafe-variable", "variable M is not bound by a positive body atom "
             "in 'p(M) :- not #count{X: r(X)} = M.'"),
        ]),
        ("p :- not &g(;Y).", [
            ("unsafe-variable",
             "variable Y is not bound by a positive body atom in 'p :- not &g(;Y).'"),
        ]),
        # variables inside nested terms count; quoted constants hold none
        ("p(f(X)) :- q(a).", [
            ("unsafe-variable",
             "variable X is not bound by a positive body atom in 'p(f(X)) :- q(a).'"),
        ]),
        ("p(X) :- q(f(X)).", []),
        ('p("X", Y) :- q(g("Z", Y)).', []),
        # 'V = t' binds V and needs t's variables; 'X = Y' binds neither
        ("p(X) :- X = f(Y), q(Y).", []),
        ("p(X) :- X = f(Y).", [
            ("unsafe-variable",
             "variable Y is not bound by a positive body atom in 'p(X) :- X = f(Y).'"),
        ]),
        ("p(X) :- X = Y.", [
            ("unsafe-variable",
             "variable X is not bound by a positive body atom in 'p(X) :- X = Y.'"),
            ("unsafe-variable",
             "variable Y is not bound by a positive body atom in 'p(X) :- X = Y.'"),
        ]),
    ])
    def test_literal_forms(self, text, expected):
        assert [(d.kind, d.message) for d in lint_cip(text + "\n")] == expected

    @pytest.mark.parametrize("text, expected", [
        ("p(X) :- q(Y)",
         [("parse-error", "cannot parse 'p(X) :- q(Y)': no final '.' outside brackets")]),
        ("p(a)). q(X) :- r(Y).",
         [("parse-error", "cannot parse 'p(a)). q(X) :- r(Y).': unmatched ')'")]),
        ("p((a). q(X) :- r(Y).", [(
            "parse-error",
            "cannot parse 'p((a). q(X) :- r(Y).': no final '.' outside brackets",
        )]),
        ("p(a]. q(a).", [("parse-error", "cannot parse 'p(a]. q(a).': unmatched ']'")]),
        # a '[' after a '.' opens a bracket unless a weight closes on its line
        ("p(a). [w@1\nq(X) :- r(Y).", [(
            "parse-error",
            "cannot parse '[w@1\\nq(X) :- r(Y).': no final '.' outside brackets",
        )]),
        ("p(a).[w@1]", [("parse-error", "weight outside a weak constraint: 'p(a).[w@1]'")]),
        ("p(X).", [(
            "unsafe-variable", "variable X is not bound by a positive body atom in 'p(X).'",
        )]),
        ("p(a) q(b).", [("parse-error", "cannot parse head 'p(a) q(b)'")]),
        ("p :- q(a) r(b).", [("parse-error", "cannot parse literal 'q(a) r(b)'")]),
    ], ids=[
        "no-final-period", "stray-closer", "unclosed-opener", "mismatched-closer",
        "unclosed-weight", "weight-on-fact", "non-ground-fact", "atoms-run-together",
        "literals-run-together",
    ])
    def test_text_that_does_not_split_is_reported(self, text, expected):
        assert [(d.kind, d.message) for d in lint_cip(text + "\n")] == expected
