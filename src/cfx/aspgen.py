"""Solver-ready counterfactual intervention programs.

``emit_cip`` renders, for one schema/entity/classifier triple, a logic
program whose stable models are counterfactual interventions: each is a
chain of single-feature changes ending at the first entity labelled 0.
Denials and one-hot groups hold on every ``tr`` step of a chain, not only
on its end, so the program can drop counterfactuals that the search reports
(README, "Program emission").

The program holds domain and entity facts; transition rules feeding every
reached entity back into the program; one disjunctive rule choosing a
feature to change, with a chosen/diffchoice pair per feature collapsing the
choice to a single new value; a stop rule marking label-0 entities; a
constraint forbidding a return to the original entity; a filter dropping
models that never reach a counterfactual; and per-feature rules projecting
out the displaced original values. Optional extras: a rule counting the
displaced values, weak constraints making minimum-change models optimal,
hard constraints rendered from an admissibility constraint set, and the
disjunctive rule shifted into one normal rule per feature.

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
colliders are quoted instead. An actionability rule becomes one constraint
per value it forbids, so no solver compares constants.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import constrain
from .classify import RuleClassifier, TableClassifier
from .errors import InputError
from .schema import Entity, FeatureSchema, Record

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
_DENIAL_OPS = {constrain.EQ: "=", constrain.NE: "!="}


class CipOptions(Record):
    __slots__ = (
        "dialect", "classifier_embedding", "include_weak", "include_count",
        "shift", "feature_tokens", "hard_constraints",
    )

    def __init__(
        self,
        dialect: str = DLV_COMPLEX,
        classifier_embedding: str = FACTS,
        include_weak: bool = False,
        include_count: bool = False,
        shift: bool = False,
        feature_tokens: str = INDICES,
        hard_constraints: constrain.ConstraintSet | None = None,
    ):
        if dialect not in DIALECTS:
            raise InputError(f"unknown dialect {dialect!r}")
        if classifier_embedding not in EMBEDDINGS:
            raise InputError(f"unknown embedding {classifier_embedding!r}")
        if feature_tokens not in (INDICES, NAMES):
            raise InputError(f"unknown feature token style {feature_tokens!r}")
        if classifier_embedding == EXTERNAL_STUB and dialect != ASP_CORE_2:
            raise InputError(
                "the external classifier stub needs the asp-core-2 dialect"
            )
        self.dialect = dialect
        self.classifier_embedding = classifier_embedding
        self.include_weak = include_weak
        self.include_count = include_count
        self.shift = shift
        self.feature_tokens = feature_tokens
        self.hard_constraints = hard_constraints


class Section(Record):
    __slots__ = ("name", "comment", "lines")
    __hash__ = None  # type: ignore[assignment]  # holds a list

    def __init__(self, name: str, comment: str | None, lines: list[str]):
        self.name = name
        self.comment = comment
        self.lines = lines

    @property
    def block(self) -> list[str]:
        """The section as printed: its ``%`` comment line, if any, then its lines."""
        return [f"% {self.comment}", *self.lines] if self.comment else self.lines


class CipProgram(Record):
    """Rendered program as named sections of lines, one blank line apart."""

    __slots__ = ("sections",)
    __hash__ = None  # type: ignore[assignment]  # holds a list

    def __init__(self, sections: list[Section]):
        self.sections = sections

    @property
    def text(self) -> str:
        return "\n\n".join("\n".join(s.block) for s in self.sections) + "\n"

    def section_index(self) -> list[dict]:
        index = []
        line = 1
        for section in self.sections:
            end = line + len(section.block) - 1
            index.append({"section": section.name, "start": line, "end": end})
            line = end + 2  # blank separator
        return index


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


def _pack(facts: Iterable[str]) -> list[str]:
    lines: list[str] = []
    current = ""
    for fact in facts:
        if not current:
            current = fact
        elif len(current) + 1 + len(fact) <= _PACK_WIDTH:
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
    schema.check_values(entity.values)

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

    classifier_section = _classifier_section(schema, classifier, opts, v, consts)
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
                _hard_lines(schema, opts.hard_constraints, entity.values, consts),
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
        covered, total = backend.coverage()
        if covered < total:
            raise InputError(
                "facts embedding needs a total truth table; "
                "missing rows would silently count as neither label"
            )
        facts = [
            "cls(" + ",".join(map(dict.__getitem__, consts, vec)) + f",{label})."
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
    original: Sequence[str],
    consts: list[dict[str, str]],
) -> list[str]:
    n = len(schema)
    lines: list[str] = []
    for chi in cs.denials:
        # the first '=' literal on a feature fixes that feature's term; every
        # other literal compares its feature's term with its value
        first: dict[int, constrain.DenialLiteral] = {}
        for lit in chi.literals:
            if lit.polarity == constrain.EQ:
                first.setdefault(lit.feature, lit)
        terms = _terms(n, {i: consts[i][lit.value] for i, lit in first.items()})
        body = [f"ent(E,{','.join(terms)},tr)"]
        for lit in chi.literals:
            if first.get(lit.feature) is not lit:
                i = lit.feature
                body.append(f"{terms[i]} {_DENIAL_OPS[lit.polarity]} {consts[i][lit.value]}")
        lines.append(":- " + ", ".join(body) + ".")
    # every value that is neither the original nor one of its alternatives
    for i, (f, allowed) in enumerate(zip(schema, cs.alternatives(original))):
        lines += [
            f":- ent(E,{','.join(_terms(n, {i: consts[i][value]}))},tr)."
            for value in f.domain
            if value != original[i] and value not in allowed
        ]
    for group in cs.onehot:
        # no two members set, and not all of them clear
        fixings = [dict.fromkeys(p, "1") for p in combinations(sorted(group.members), 2)]
        fixings.append(dict.fromkeys(group.members, "0"))
        lines += [f":- ent(E,{','.join(_terms(n, fixed))},tr)." for fixed in fixings]
    return lines


def _terms(n: int, fixed: dict[int, str]) -> list[str]:
    """One term per feature: its constant in ``fixed``, else a fresh variable."""
    fresh = iter(_var_names(n))
    return [fixed[i] if i in fixed else next(fresh) for i in range(n)]


# --- lint ----------------------------------------------------------------------


class Diagnostic(Record):
    __slots__ = ("kind", "message")

    def __init__(self, kind: str, message: str):
        # arity-clash | unsafe-variable | duplicate-fact | underscore-term | parse-error
        self.kind = kind
        self.message = message


_VAR = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_CMP_OPS = ("!=", "<=", ">=", "=", "<", ">")
# a quoted constant; a backslash escapes the next character, and an
# unterminated constant runs to the end of the text
_QUOTED = r'"(?:[^"\\]|\\.?)*"?'
_QUOTED_OR_COMMENT = re.compile(f"({_QUOTED})|%.*")
_VAR_TOKEN = re.compile(f"{_QUOTED}|(?<![A-Za-z0-9_])([A-Z][A-Za-z0-9_]*)")
# a statement's final '.', with a weak constraint's weight on the same line
_STOP = r"\.(?:\s*(\[[^\]\n]*\]))?"
_ATOM = re.compile(r"\s*([a-z][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*\Z", re.DOTALL)
_EXTERNAL = re.compile(r"&[a-z][A-Za-z0-9_]*\((.*)\)\Z", re.DOTALL)
_AGGREGATE = re.compile(r"#[a-z]+\{(.*)\}\s*=\s*([A-Za-z0-9_]+)\Z", re.DOTALL)
_OPENER = {")": "(", "]": "[", "}": "{"}


def lint_cip(text: str) -> list[Diagnostic]:
    """Well-formedness scan: predicate arities, safety, duplicate facts,
    and ``_``-led terms in facts (an anonymous variable or a non-constant).
    Text that does not split into statements, heads, literals and atom
    arguments is a parse error.

    Self-emitted programs must come back clean; the scan is deliberately
    solver-agnostic and checks nothing about semantics.
    """
    diagnostics: list[Diagnostic] = []
    arities: dict[str, int] = {}
    facts_seen: set[str] = set()

    def report(kind: str, message: str) -> None:
        diagnostics.append(Diagnostic(kind, message))

    def record(name: str, argc: int) -> None:
        if arities.setdefault(name, argc) != argc:
            report(
                "arity-clash",
                f"predicate {name} used with arity {argc} and {arities[name]}",
            )

    stream = "\n".join(
        _QUOTED_OR_COMMENT.sub(lambda m: m[1] or "", line)
        for line in text.splitlines()
        if not line.lstrip().startswith("#include")
    )
    # (text before the '.', whole statement) pairs
    statements: list[tuple[str, str]] = []
    start, problem = 0, "no final '.' outside brackets"
    try:
        for stop in _cuts(stream, _STOP):
            before = stream[start : stop.start()]
            statements.append((before.lstrip(), f"{before}.{stop[1] or ''}".strip()))
            start = stop.end()
    except ValueError as error:
        problem = str(error)

    for text, statement in statements:
        if statement.endswith("]") and not text.startswith(":~"):
            report("parse-error", f"weight outside a weak constraint: {statement!r}")
        if text.startswith((":~", ":-")):
            head, body = "", text[2:]
        else:
            parts = _split(text, " :- ")
            head, body = parts if len(parts) == 2 else (text, None)
        atoms, required = [], set()
        for part in _split(head, r" v | \| "):
            try:
                name, args = _atom(part)
            except ValueError:
                report("parse-error", f"cannot parse head {part!r}")
                continue
            record(name, len(args))
            atoms.append((name, args))
            required |= _vars(part)
        if body is None:  # a fact
            for name, args in atoms:
                rendered = f"{name}({','.join(args)})"
                if rendered in facts_seen:
                    report("duplicate-fact", f"fact {rendered} repeated")
                facts_seen.add(rendered)
                if any(arg.startswith("_") for arg in args):
                    report(
                        "underscore-term",
                        f"fact {rendered} has a term starting with '_'",
                    )
        bound: set[str] = set()
        for literal in _split(body or "", ","):
            negated = literal.startswith("not ")
            literal = literal.removeprefix("not ").strip()
            try:
                atom, needs, binds = _literal(literal)
            except ValueError:
                report("parse-error", f"cannot parse literal {literal!r}")
                continue
            if atom:
                record(*atom)
            if negated:  # binds nothing, so needs every variable it holds
                needs, binds = needs | binds, set()
            required |= needs
            bound |= binds
        for var in sorted(required - bound):
            report(
                "unsafe-variable",
                f"variable {var} is not bound by a positive body atom "
                f"in {statement!r}",
            )
    rest = stream[start:].strip()
    if rest:
        report("parse-error", f"cannot parse {rest!r}: {problem}")
    return diagnostics


def _literal(text: str) -> tuple[tuple[str, int] | None, set, set]:
    """(predicate and arity, variables it needs bound, variables it binds)
    of a positive body literal; ValueError if it does not parse."""
    if text.startswith("&"):
        m = _EXTERNAL.match(text)
        ins, outs = (m[1].split(";") + [""])[:2] if m else ("", "")
        arity = len(_split(ins, ",")) + len(_split(outs, ","))
        return ("&" + text[1:].split("(", 1)[0], arity), _vars(ins), _vars(outs)
    if text.startswith("#") and "{" in text:
        # '#count{L: a(..)} = M' binds M and needs the element's non-local variables
        m = _AGGREGATE.match(text)
        if m is None:
            return None, set(), set()
        local, _, inner = m[1].partition(":")
        return None, _vars(inner) - _vars(local), _vars(m[2])
    if text.startswith("#"):
        return None, set(), _vars(text) if _ATOM.match(text[1:]) else set()
    for op in _CMP_OPS:
        sides = _split(text, f" {op} ")
        if len(sides) == 2:
            # 'V = t' binds V and needs the variables of t, unless t is a bare
            # variable too: then both sides need binding
            lhs, rhs = sides
            if op == "=" and bool(_VAR.match(lhs)) != bool(_VAR.match(rhs)):
                var, term = (lhs, rhs) if _VAR.match(lhs) else (rhs, lhs)
                return None, _vars(term), {var}
            return None, _vars(text), set()
    name, args = _atom(text)
    return (name, len(args)), set(), _vars(text)


def _atom(text: str) -> tuple[str, list[str]]:
    """(name, arguments); ValueError if ``text`` is no atom."""
    m = _ATOM.match(text)
    if m is None:
        raise ValueError(text)
    return m[1], _split(m[2] or "", ",")


def _vars(text: str) -> set[str]:
    """The variables of ``text``, nested terms included, quoted constants not."""
    return {m[1] for m in _VAR_TOKEN.finditer(text) if m[1]}


def _split(text: str, sep: str) -> list[str]:
    """The stripped, non-empty parts of ``text`` between top-level ``sep``s."""
    parts, start = [], 0
    for m in _cuts(text, sep):
        parts.append(text[start : m.start()])
        start = m.end()
    parts.append(text[start:])
    return [part for part in map(str.strip, parts) if part]


def _cuts(text: str, sep: str) -> Iterator[re.Match[str]]:
    """Matches of the regex ``sep`` outside quoted constants and brackets;
    ValueError at a closing bracket that closes no opening one of its kind."""
    scan = _scanner(sep)
    opened: list[str] = []
    pos = 0
    while m := scan.search(text, pos):
        token, pos = m[0], m.end()
        if token in "([{":
            opened.append(token)
        elif token in _OPENER:
            if not opened or opened.pop() != _OPENER[token]:
                raise ValueError(f"unmatched {token!r}")
        elif token[0] != '"':
            if opened:
                pos = m.start() + 1  # plain text inside brackets: rescan what it spans
            else:
                yield m


@lru_cache
def _scanner(sep: str) -> re.Pattern[str]:
    return re.compile(f"{_QUOTED}|[][(){{}}]|{sep}", re.DOTALL)
