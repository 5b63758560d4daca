"""Solver-ready counterfactual intervention programs.

``emit_cip`` renders, for one schema/entity/classifier triple, a logic
program whose stable models are exactly the counterfactual interventions:
domain and entity facts; transition rules feeding every reached entity back
into the program; one disjunctive rule choosing a feature to change, with a
chosen/diffchoice pair per feature collapsing the choice to a single new
value; a stop rule marking label-0 entities; a constraint forbidding a
return to the original entity; a filter dropping models that never reach a
counterfactual; and per-feature rules projecting out the displaced original
values. Optional extras: a rule counting the displaced values, weak
constraints making minimum-change models optimal, hard constraints
rendered from an admissibility constraint set, and the disjunctive rule
shifted into one normal rule per feature.

Two dialects are supported. "dlv-complex" opens with its #include header,
joins disjuncts with ``v`` and ends weak constraints with a bare period;
"asp-core-2" joins with ``|``, suffixes weak constraints with ``.[w@1]``,
and is the only dialect allowing the external classifier stub
(``&classifier``), since only solvers of that family resolve external
predicates. Everything else is identical across dialects.

Rendering notes. Statements are one per line; groups of facts are packed
greedily at 79 columns. Domain values, entity ids, and feature-name tokens
become solver constants: lowercase identifier-like or plain integer tokens
pass through, other letter-led identifier-like tokens are lowercased, and
anything else, ``_``-led tokens included, is double-quoted with backslash
escaping (reversible); if lowercasing would collide inside one group, later
colliders are quoted instead. Directional actionability constraints compare
value variables with ``<``/``>``, which solvers apply to integer constants;
use them with numeric domains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import constrain
from .classify import RuleClassifier, TableClassifier
from .errors import InputError
from .schema import Entity, FeatureSchema

DLV_COMPLEX = "dlv-complex"
ASP_CORE_2 = "asp-core-2"
DIALECTS = (DLV_COMPLEX, ASP_CORE_2)

FACTS = "facts"
RULES = "rules"
EXTERNAL_STUB = "external-stub"
EMBEDDINGS = (FACTS, RULES, EXTERNAL_STUB)

INDICES = "indices"
NAMES = "names"

_PACK_WIDTH = 79


@dataclass(frozen=True)
class CipOptions:
    dialect: str = DLV_COMPLEX
    classifier_embedding: str = FACTS
    include_weak: bool = False
    include_count: bool = False
    shift: bool = False
    feature_tokens: str = INDICES
    hard_constraints: constrain.ConstraintSet | None = None

    def __post_init__(self) -> None:
        if self.dialect not in DIALECTS:
            raise InputError(f"unknown dialect {self.dialect!r}")
        if self.classifier_embedding not in EMBEDDINGS:
            raise InputError(f"unknown embedding {self.classifier_embedding!r}")
        if self.feature_tokens not in (INDICES, NAMES):
            raise InputError(f"unknown feature token style {self.feature_tokens!r}")
        if self.classifier_embedding == EXTERNAL_STUB and self.dialect != ASP_CORE_2:
            raise InputError(
                "the external classifier stub needs the asp-core-2 dialect"
            )


@dataclass
class Section:
    name: str
    comment: str | None
    lines: list[str]


@dataclass
class CipProgram:
    """Rendered program as named sections of lines."""

    sections: list[Section]

    @property
    def text(self) -> str:
        chunks: list[str] = []
        for section in self.sections:
            block: list[str] = []
            if section.comment:
                block.append(f"% {section.comment}")
            block.extend(section.lines)
            chunks.append("\n".join(block))
        return "\n\n".join(chunks) + "\n"

    def section_index(self) -> list[dict]:
        index = []
        line = 1
        for section in self.sections:
            height = len(section.lines) + (1 if section.comment else 0)
            index.append(
                {"section": section.name, "start": line, "end": line + height - 1}
            )
            line += height + 1  # blank separator
        return index

    def section(self, name: str) -> Section:
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)


# --- constant rendering -------------------------------------------------------

_LOWER_TOKEN = re.compile(r"[a-z][a-z0-9_]*\Z")
_ALPHA_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_INT_TOKEN = re.compile(r"(0|[1-9][0-9]*)\Z")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_constants(values: Sequence[str]) -> dict[str, str]:
    """Map each value of a group to a distinct solver constant."""
    out: dict[str, str] = {}
    taken: set[str] = set()
    for v in values:
        if _LOWER_TOKEN.match(v) or _INT_TOKEN.match(v):
            candidate = v
        elif _ALPHA_TOKEN.match(v):
            candidate = v.lower()
        else:
            candidate = _quote(v)
        if candidate in taken:
            candidate = _quote(v)
        if candidate in taken:
            raise InputError(f"cannot render {v!r} as a distinct constant")
        out[v] = candidate
        taken.add(candidate)
    return out


def _var_names(n: int) -> list[str]:
    if n <= 3:
        return ["X", "Y", "Z"][:n]
    return [f"X{i}" for i in range(1, n + 1)]


def _pack(facts: Iterable[str], width: int = _PACK_WIDTH) -> list[str]:
    lines: list[str] = []
    current = ""
    for fact in facts:
        if not current:
            current = fact
        elif len(current) + 1 + len(fact) <= width:
            current += " " + fact
        else:
            lines.append(current)
            current = fact
    if current:
        lines.append(current)
    return lines


# --- emission -----------------------------------------------------------------


def emit_cip(
    schema: FeatureSchema,
    entity: Entity,
    classifier=None,
    options: CipOptions | None = None,
) -> CipProgram:
    opts = options or CipOptions()
    schema.check_entity(entity)
    backend = getattr(classifier, "backend", classifier)

    n = len(schema)
    v = _var_names(n)
    vp = [name + "p" for name in v]
    vars_all = ",".join(v)
    disj_sep = " v " if opts.dialect == DLV_COMPLEX else " | "

    consts = [render_constants(f.domain) for f in schema.features]
    ent_id = render_constants([entity.id])[entity.id]
    ent_vals = ",".join(consts[i][entity.values[i]] for i in range(n))
    if opts.feature_tokens == INDICES:
        ftoken = [str(i + 1) for i in range(n)]
    else:
        names = render_constants(schema.names)
        ftoken = [names[f.name] for f in schema.features]

    sections: list[Section] = []
    if opts.dialect == DLV_COMPLEX:
        sections.append(Section("header", None, ["#include<ListAndSet>"]))

    classifier_section = _classifier_section(schema, backend, opts, v, consts)
    if opts.classifier_embedding == FACTS:
        sections.append(classifier_section)

    dom_facts = [
        f"dom{i + 1}({consts[i][value]})."
        for i in range(n)
        for value in schema.feature(i).domain
    ]
    sections.append(Section("domains", "domains", _pack(dom_facts)))
    sections.append(
        Section("entity", "original entity", [f"ent({ent_id},{ent_vals},o)."])
    )
    if opts.classifier_embedding != FACTS:
        sections.append(classifier_section)

    sections.append(
        Section(
            "transition",
            "transition",
            [
                f"ent(E,{vars_all},tr) :- ent(E,{vars_all},o).",
                f"ent(E,{vars_all},tr) :- ent(E,{vars_all},do).",
            ],
        )
    )

    disjuncts = tuple(
        "ent(E," + ",".join(vp[j] if j == i else v[j] for j in range(n)) + ",do)"
        for i in range(n)
    )
    body_parts = [f"ent(E,{vars_all},tr)", f"cls({vars_all},1)"]
    body_parts += [f"dom{i + 1}({vp[i]})" for i in range(n)]
    body_parts += [f"{v[i]} != {vp[i]}" for i in range(n)]
    body_parts += [f"chosen{i + 1}({vars_all},{vp[i]})" for i in range(n)]
    body = ", ".join(body_parts)
    if opts.shift and n > 1:
        # head-cycle-free, so the disjunctive rule shifts into n normal rules
        # with the same stable models: rule j keeps head atom j and negates
        # the others in head order
        intervention = [
            f"{head} :- {body}, "
            + ", ".join(f"not {other}" for other in disjuncts if other != head)
            + "."
            for head in disjuncts
        ]
    else:
        intervention = [disj_sep.join(disjuncts) + " :- " + body + "."]
    sections.append(Section("intervention", "intervention", intervention))

    choice_lines = []
    for i in range(n):
        choice_lines.append(
            f"chosen{i + 1}({vars_all},U) :- ent(E,{vars_all},tr), "
            f"cls({vars_all},1), dom{i + 1}(U), U != {v[i]}, "
            f"not diffchoice{i + 1}({vars_all},U)."
        )
        choice_lines.append(
            f"diffchoice{i + 1}({vars_all},U) :- "
            f"chosen{i + 1}({vars_all},Up), U != Up, dom{i + 1}(U)."
        )
    sections.append(Section("choice", "choice", choice_lines))

    sections.append(
        Section(
            "stop",
            "stop",
            [f"ent(E,{vars_all},s) :- ent(E,{vars_all},do), cls({vars_all},0)."],
        )
    )
    sections.append(
        Section(
            "no-return",
            "no return to original",
            [f":- ent(E,{vars_all},do), ent(E,{vars_all},o)."],
        )
    )

    pvars_all = ",".join(vp)
    expl_lines = [
        f"expl(E,{ftoken[i]},{v[i]}) :- ent(E,{vars_all},o), "
        f"ent(E,{pvars_all},s), {v[i]} != {vp[i]}."
        for i in range(n)
    ]
    sections.append(Section("explanations", "explanations", expl_lines))

    sections.append(
        Section(
            "filter",
            "counterfactual filter",
            [
                f"entAux(E) :- ent(E,{vars_all},s).",
                f":- ent(E,{vars_all},o), not entAux(E).",
            ],
        )
    )

    if opts.include_count:
        sections.append(
            Section(
                "count",
                "change count",
                [
                    "invResp(E,M) :- #count{I: expl(E,I,_)} = M, "
                    f"#int(M), E = {ent_id}."
                ],
            )
        )

    if opts.include_weak:
        suffix = "." if opts.dialect == DLV_COMPLEX else ".[w@1]"
        weak_lines = [
            f":~ ent(E,{vars_all},o), ent(E,{pvars_all},s), "
            f"{v[i]} != {vp[i]}{suffix}"
            for i in range(n)
        ]
        sections.append(Section("weak", "weak constraints", weak_lines))

    if opts.hard_constraints is not None and not opts.hard_constraints.is_empty():
        sections.append(
            Section(
                "hard",
                "hard constraints",
                _hard_lines(schema, opts.hard_constraints, v, vp, consts),
            )
        )

    return CipProgram(sections)


def _classifier_section(
    schema: FeatureSchema,
    backend,
    opts: CipOptions,
    v: list[str],
    consts: list[dict[str, str]],
) -> Section:
    n = len(schema)
    vars_all = ",".join(v)
    if opts.classifier_embedding == FACTS:
        if not isinstance(backend, TableClassifier):
            raise InputError("facts embedding needs a truth-table classifier")
        if not backend.is_total():
            raise InputError(
                "facts embedding needs a total truth table; "
                "missing rows would silently count as neither label"
            )
        facts = [
            "cls(" + ",".join(consts[i][vec[i]] for i in range(n)) + f",{label})."
            for vec, label in backend.rows.items()
        ]
        return Section("classifier", "classifier", _pack(facts))

    if opts.classifier_embedding == RULES:
        if not isinstance(backend, RuleClassifier):
            raise InputError("rules embedding needs a rule-list classifier")
        labels = {rule.label for rule in backend.rules}
        if len(labels) != 1 or backend.default in labels:
            raise InputError(
                "rules embedding needs rules with one uniform label and the "
                "opposite default; first-match lists with mixed labels are "
                "not embeddable"
            )
        rule_label = labels.pop()
        lines = []
        for rule in backend.rules:
            constrained = {i for i, _ in rule.conditions}
            parts = [f"{v[i]} = {consts[i][val]}" for i, val in rule.conditions]
            parts += [f"dom{i + 1}({v[i]})" for i in range(n) if i not in constrained]
            lines.append(f"cls({vars_all},{rule_label}) :- " + ", ".join(parts) + ".")
        default_parts = [f"dom{i + 1}({v[i]})" for i in range(n)]
        default_parts.append(f"not cls({vars_all},{rule_label})")
        lines.append(
            f"cls({vars_all},{backend.default}) :- " + ", ".join(default_parts) + "."
        )
        return Section("classifier", "classifier", lines)

    # external stub: the solver resolves the classifier through an external
    # predicate; dom atoms keep the query grounded.
    doms = ", ".join(f"dom{i + 1}({v[i]})" for i in range(n))
    return Section(
        "classifier",
        "classifier",
        [f"cls({vars_all},L) :- &classifier({vars_all};L), {doms}."],
    )


def _hard_lines(
    schema: FeatureSchema,
    cs: constrain.ConstraintSet,
    v: list[str],
    vp: list[str],
    consts: list[dict[str, str]],
) -> list[str]:
    n = len(schema)
    lines: list[str] = []
    for chi in cs.denials:
        eq = {lit.feature: lit.value for lit in chi.literals if lit.polarity == constrain.EQ}
        ne = [(lit.feature, lit.value) for lit in chi.literals if lit.polarity == constrain.NE]
        terms: list[str] = []
        fresh = iter(_var_names(n))
        var_at: dict[int, str] = {}
        for i in range(n):
            if i in eq:
                terms.append(consts[i][eq[i]])
            else:
                name = next(fresh)
                var_at[i] = name
                terms.append(name)
        comparisons = [f"{var_at[i]} != {consts[i][value]}" for i, value in ne]
        tail = (", " + ", ".join(comparisons)) if comparisons else ""
        lines.append(f":- ent(E,{','.join(terms)},tr){tail}.")
    for rule in cs.actionability:
        i = rule.feature
        if rule.mode == constrain.FREE:
            continue
        op = {
            constrain.FIXED: "!=",
            constrain.INCREASE_ONLY: "<",
            constrain.DECREASE_ONLY: ">",
        }[rule.mode]
        lines.append(
            f":- ent(E,{','.join(v)},o), ent(E,{','.join(vp)},tr), "
            f"{vp[i]} {op} {v[i]}."
        )
    for group in cs.onehot:
        members = sorted(group.members)
        for a_idx in range(len(members)):
            for b_idx in range(a_idx + 1, len(members)):
                lines.append(
                    ":- ent(E,"
                    + ",".join(_onehot_terms(n, {members[a_idx], members[b_idx]}, "1"))
                    + ",tr)."
                )
        lines.append(
            ":- ent(E," + ",".join(_onehot_terms(n, set(members), "0")) + ",tr)."
        )
    return lines


def _onehot_terms(n: int, fixed: set[int], value: str) -> list[str]:
    fresh = iter(_var_names(n))
    return [value if i in fixed else next(fresh) for i in range(n)]


# --- lint ----------------------------------------------------------------------


@dataclass(frozen=True)
class Diagnostic:
    # arity-clash | unsafe-variable | duplicate-fact | underscore-term | parse-error
    kind: str
    message: str


_VAR = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_CMP_OPS = ("!=", "<=", ">=", "=", "<", ">")


def lint_cip(text: str) -> list[Diagnostic]:
    """Well-formedness scan: predicate arities, safety, duplicate facts,
    and ``_``-led terms in facts (an anonymous variable or a non-constant).

    Self-emitted programs must come back clean; the scan is deliberately
    solver-agnostic and checks nothing about semantics.
    """
    diagnostics: list[Diagnostic] = []
    arities: dict[str, int] = {}
    facts_seen: set[str] = set()

    def record_atom(name: str, argc: int) -> None:
        if name in arities and arities[name] != argc:
            diagnostics.append(
                Diagnostic(
                    "arity-clash",
                    f"predicate {name} used with arity {argc} and {arities[name]}",
                )
            )
        arities.setdefault(name, argc)

    for statement in _statements(text):
        kind, head_text, body_text = _split_statement(statement)
        head_atoms = []
        if head_text:
            for part in _split_top(head_text, (" v ", " | ")):
                atom = _parse_atom(part)
                if atom is None:
                    diagnostics.append(
                        Diagnostic("parse-error", f"cannot parse head {part!r}")
                    )
                    continue
                head_atoms.append(atom)
                record_atom(atom[0], len(atom[1]))
        if kind == "fact":
            for atom in head_atoms:
                rendered = f"{atom[0]}({','.join(atom[1])})"
                if rendered in facts_seen:
                    diagnostics.append(
                        Diagnostic("duplicate-fact", f"fact {rendered} repeated")
                    )
                facts_seen.add(rendered)
                if any(arg.startswith("_") for arg in atom[1]):
                    diagnostics.append(
                        Diagnostic(
                            "underscore-term",
                            f"fact {rendered} has a term starting with '_'",
                        )
                    )
            continue

        bound: set[str] = set()
        required: set[str] = set()
        for atom in head_atoms:
            required.update(_vars_of(atom[1]))
        for literal in _split_top(body_text, (",",)):
            literal = literal.strip()
            if not literal:
                continue
            negated = literal.startswith("not ")
            if negated:
                literal = literal[4:].strip()
            if literal.startswith("&"):
                ins, outs, argc = _parse_external(literal)
                record_atom("&" + literal[1:].split("(", 1)[0], argc)
                required.update(ins)
                if not negated:
                    bound.update(outs)
                continue
            if literal.startswith("#") and "{" in literal:
                local, inner_vars, result = _parse_aggregate(literal)
                required.update(x for x in inner_vars if x not in local)
                if result:
                    bound.add(result)
                continue
            if literal.startswith("#"):
                atom = _parse_atom(literal[1:])
                if atom is not None:
                    if not negated:
                        bound.update(_vars_of(atom[1]))
                continue
            cmp = _parse_comparison(literal)
            if cmp is not None:
                op, lhs, rhs = cmp
                lv, rv = _VAR.match(lhs), _VAR.match(rhs)
                if op == "=" and lv and not rv:
                    bound.add(lhs)
                elif op == "=" and rv and not lv:
                    bound.add(rhs)
                else:
                    required.update(x for x in (lhs, rhs) if _VAR.match(x))
                continue
            atom = _parse_atom(literal)
            if atom is None:
                diagnostics.append(
                    Diagnostic("parse-error", f"cannot parse literal {literal!r}")
                )
                continue
            record_atom(atom[0], len(atom[1]))
            if negated:
                required.update(_vars_of(atom[1]))
            else:
                bound.update(_vars_of(atom[1]))
        for var in sorted(required - bound):
            diagnostics.append(
                Diagnostic(
                    "unsafe-variable",
                    f"variable {var} is not bound by a positive body atom "
                    f"in {statement!r}",
                )
            )
    return diagnostics


# a quoted constant; a backslash escapes the next character, and an
# unterminated constant runs to the end of the text
_QUOTED = re.compile(r'"(?:[^"\\]|\\.?)*"?', re.DOTALL)
_QUOTED_OR_COMMENT = re.compile(f"({_QUOTED.pattern})|%.*")


def _statements(text: str):
    """Statement strings, comments and directives stripped."""
    stream = "\n".join(
        _QUOTED_OR_COMMENT.sub(lambda m: m.group(1) or "", line)
        for line in text.splitlines()
        if not line.lstrip().startswith("#include")
    )
    depth = 0
    start = 0
    i = 0
    while i < len(stream):
        ch = stream[i]
        if ch == '"':
            i = _QUOTED.match(stream, i).end()
            continue
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif ch == "." and depth == 0:
            statement = stream[start : i + 1]
            # absorb a weak-constraint weight suffix
            j = i + 1
            while j < len(stream) and stream[j].isspace():
                j += 1
            if j < len(stream) and stream[j] == "[":
                close = stream.find("]", j)
                i = len(stream) - 1 if close == -1 else close
                statement += stream[j : i + 1]
            statement = statement.strip()
            if statement:
                yield statement
            start = i + 1
        i += 1


def _split_statement(statement: str) -> tuple[str, str, str]:
    """(kind, head, body); kind in fact|rule|constraint|weak."""
    if statement.endswith("."):
        statement = statement[:-1]
    else:
        bracket = statement.rfind(".[")
        if bracket != -1:
            statement = statement[:bracket]
    if statement.startswith(":~"):
        return "weak", "", statement[2:].strip()
    if statement.startswith(":-"):
        return "constraint", "", statement[2:].strip()
    parts = _split_top(statement, (" :- ",))
    if len(parts) == 2:
        return "rule", parts[0].strip(), parts[1].strip()
    return "fact", statement.strip(), ""


def _split_top(text: str, separators: tuple[str, ...]) -> list[str]:
    parts: list[str] = []
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == '"':
            i = _QUOTED.match(text, i).end()
            continue
        if ch in "({[":
            depth += 1
        elif ch in ")}]":
            depth -= 1
        elif depth == 0:
            for sep in separators:
                if text.startswith(sep, i):
                    parts.append(text[start:i])
                    i += len(sep)
                    start = i
                    break
            else:
                i += 1
            continue
        i += 1
    parts.append(text[start:])
    return [p for p in (part.strip() for part in parts) if p]


def _parse_atom(text: str) -> tuple[str, list[str]] | None:
    text = text.strip()
    m = re.match(r"([a-z][A-Za-z0-9_]*)\s*(\((.*)\))?\Z", text, re.DOTALL)
    if m is None:
        return None
    name = m.group(1)
    args = _split_top(m.group(3), (",",)) if m.group(3) is not None else []
    return name, args


def _vars_of(args: Iterable[str]) -> set[str]:
    return {a for a in args if _VAR.match(a)}


def _parse_comparison(text: str) -> tuple[str, str, str] | None:
    for op in _CMP_OPS:
        parts = _split_top(text, (f" {op} ",))
        if len(parts) == 2:
            return op, parts[0], parts[1]
    return None


def _parse_external(text: str) -> tuple[set[str], set[str], int]:
    m = re.match(r"&[a-z][A-Za-z0-9_]*\((.*)\)\Z", text.strip(), re.DOTALL)
    if m is None:
        return set(), set(), 0
    inner = m.group(1)
    halves = inner.split(";")
    ins = _split_top(halves[0], (",",)) if halves[0] else []
    outs = _split_top(halves[1], (",",)) if len(halves) > 1 and halves[1] else []
    return _vars_of(ins), _vars_of(outs), len(ins) + len(outs)


def _parse_aggregate(text: str) -> tuple[set[str], set[str], str | None]:
    """(local vars, vars inside, result var) of '#count{..} = M'-style literals."""
    m = re.match(r"#[a-z]+\{(.*)\}\s*(=)\s*([A-Za-z0-9_]+)\Z", text.strip(), re.DOTALL)
    if m is None:
        return set(), set(), None
    inner = m.group(1)
    result = m.group(3) if _VAR.match(m.group(3)) else None
    if ":" in inner:
        locals_text, atom_text = inner.split(":", 1)
    else:
        locals_text, atom_text = inner, ""
    local = _vars_of(_split_top(locals_text, (",",)))
    inner_vars: set[str] = set()
    atom = _parse_atom(atom_text)
    if atom is not None:
        inner_vars = _vars_of(atom[1])
    return local, inner_vars, result
