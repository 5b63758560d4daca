"""Brute-force reference implementations used to cross-check the engine.

Everything here works on raw tuples, dicts, and callables, sweeping the
whole product space without shortcuts. Nothing imports the package under
test, so agreement between the two is meaningful.
"""

import csv
import io
import re
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path


def space(domains):
    return list(product(*domains))


def changed_set(values, candidate):
    return frozenset(i for i, (a, b) in enumerate(zip(values, candidate)) if a != b)


def counterfactuals(domains, values, label, admissible=None):
    """All admissible vectors with label 0, paired with their changed sets."""
    out = []
    for cand in space(domains):
        if cand == tuple(values):
            continue
        if admissible is not None and not admissible(cand):
            continue
        if label(cand) == 0:
            out.append((cand, changed_set(values, cand)))
    return out


def actionable(domains, values, modes):
    """Admissibility under actionability ``modes`` (feature index -> "fixed",
    "increase-only", "decrease-only" or "free"), read from declared domain
    positions: a fixed feature keeps its value, an increase-only one may not
    move to an earlier position, a decrease-only one not to a later one."""

    def admissible(cand):
        for i, mode in modes.items():
            delta = domains[i].index(cand[i]) - domains[i].index(values[i])
            if delta and mode == "fixed":
                return False
            if delta < 0 and mode == "increase-only":
                return False
            if delta > 0 and mode == "decrease-only":
                return False
        return True

    return admissible


def permitted(denials, onehot):
    """Admissibility under ``denials``, each a list of (index, value, "eq" or
    "ne") literals that together forbid a vector, and one-hot ``onehot``
    groups of indices, each of which must hold exactly one "1"."""

    def admissible(cand):
        for literals in denials:
            if all((cand[i] == v) == (polarity == "eq") for i, v, polarity in literals):
                return False
        return all(sum(cand[i] == "1" for i in group) == 1 for group in onehot)

    return admissible


def alternatives(domains, values, modes):
    """Per feature, in domain order, the values it may take instead of its
    own under actionability ``modes`` (as for ``actionable``)."""
    allowed = actionable(domains, values, modes)
    values = tuple(values)
    return [
        tuple(v for v in d if v != values[i] and allowed(values[:i] + (v,) + values[i + 1:]))
        for i, d in enumerate(domains)
    ]


def walk(alternatives, values, label, admissible=None, max_card=None, budget=None,
         stop_at_first_hit=False, prune=None, known=None):
    """The levelwise search, one candidate at a time: every candidate of
    ``level_candidates`` is checked with ``admissible`` and, if it passes,
    asked, unless ``budget`` labels have been asked already, which cuts the
    walk short on that level. ``known(idxs)``, if given, is the label every
    candidate of the index set reads, or None: a candidate whose label is
    known is taken as read without asking, and uses no budget.

    ``prune`` ("s-set" or "witnesses") skips every index set holding a
    minimal set of a lower level. It ends the walk, exhausted, before a
    level where every set of changeable features is skipped, or, with
    "witnesses", before a level once the minimal sets cover every
    changeable feature; the levels explored are then those below it. A
    pruned walk cut by ``max_card`` is exhausted when it would end so
    before the level past the bound, and any walk is exhausted once its
    bound is at least the number of changeable features.

    Returns (rows, asked, levels explored, exhausted): rows are (index set,
    candidate, s-minimal) per label-0 candidate, asked is every labelled
    vector in order, the entity first.
    """
    values = tuple(values)
    asked = [values]
    assert label(values) == 1
    n = len(values)
    bound = n if max_card is None else min(max_card, n)
    movable = [i for i in range(n) if alternatives[i]]
    minimal, rows = [], []

    def settled(k):
        """Does a pruned walk end, exhausted, before level k?"""
        if prune == "witnesses" and set(movable) <= set().union(*minimal):
            return True
        return all(any(m <= set(s) for m in minimal) for s in combinations(movable, k))

    for k in range(1, bound + 1):
        below = list(minimal)
        if prune and settled(k):
            return rows, asked, k - 1, True
        for idxs, cand in level_candidates(alternatives, values, k):
            if prune and any(m <= set(idxs) for m in below):
                continue
            if admissible is not None and not admissible(cand):
                continue
            reads = None if known is None else known(idxs)
            if reads is None:
                if budget is not None and len(asked) == budget:
                    return rows, asked, k, False
                asked.append(cand)
                reads = label(cand)
            if reads == 0:
                changed = frozenset(idxs)
                smin = not any(m < changed for m in minimal)
                if smin and changed not in minimal:
                    minimal.append(changed)
                rows.append((idxs, cand, smin))
        if stop_at_first_hit and minimal:
            return rows, asked, k, True
    return rows, asked, bound, bound >= len(movable) or bool(prune and settled(bound + 1))


def canonical_order(domains, values, cands):
    """Candidates sorted by cardinality, changed index set, then the domain
    positions of their new values."""

    def key(cand):
        idxs = sorted(changed_set(values, cand))
        return (len(idxs), idxs, [domains[i].index(cand[i]) for i in idxs])

    return sorted(cands, key=key)


def level_candidates(alternatives, values, k):
    """(index set, candidate) pairs at Hamming distance k: index sets
    lexicographically, each spliced with every combination of its features'
    alternatives in the order given."""
    for idxs in combinations(range(len(values)), k):
        for combo in product(*(alternatives[i] for i in idxs)):
            cand = list(values)
            for i, v in zip(idxs, combo):
                cand[i] = v
            yield idxs, tuple(cand)


def s_minimal(cfs):
    """Counterfactuals whose changed set has no proper subset among the rest."""
    out = []
    for cand, ch in cfs:
        if not any(other < ch for _, other in cfs):
            out.append((cand, ch))
    return out


def c_minimal(cfs):
    if not cfs:
        return []
    k = min(len(ch) for _, ch in cfs)
    return [(cand, ch) for cand, ch in cfs if len(ch) == k]


def x_resp(domains, values, label, admissible=None):
    """Per-index score: 1 / size of the smallest s-minimal changed set
    containing the index, else 0."""
    smin = s_minimal(counterfactuals(domains, values, label, admissible))
    scores = []
    for i in range(len(domains)):
        sizes = [len(ch) for _, ch in smin if i in ch]
        scores.append(Fraction(1, min(sizes)) if sizes else Fraction(0))
    return scores


# --- probability tables (vector -> Fraction over the full space) ---


def uniform_table(domains):
    vecs = space(domains)
    p = Fraction(1, len(vecs))
    return {v: p for v in vecs}


def product_table(domains, marginals):
    """marginals: per feature, dict value -> Fraction summing to 1."""
    table = {}
    for v in space(domains):
        p = Fraction(1)
        for i, val in enumerate(v):
            p *= marginals[i][val]
        table[v] = p
    return table


def empirical_table(sample):
    n = len(sample)
    table = {}
    for v in sample:
        table[tuple(v)] = table.get(tuple(v), Fraction(0)) + Fraction(1, n)
    return table


def condition_table(table, pred):
    """Renormalize over the vectors satisfying pred; None when massless."""
    kept = {v: p for v, p in table.items() if pred(v)}
    mass = sum(kept.values(), Fraction(0))
    if mass == 0:
        return None
    return {v: p / mass for v, p in kept.items()}


def prob_of(table, vec):
    return table.get(tuple(vec), Fraction(0))


def conditional(table, primed, i):
    """Distribution of feature i given every other coordinate of primed.

    Returns dict value -> Fraction, or None when the slice has no mass.
    """
    slice_mass = {}
    for v, p in table.items():
        if all(a == b for j, (a, b) in enumerate(zip(v, primed)) if j != i):
            slice_mass[v[i]] = slice_mass.get(v[i], Fraction(0)) + p
    total = sum(slice_mass.values(), Fraction(0))
    if total == 0:
        return None
    return {val: p / total for val, p in slice_mass.items()}


def local_resp(table, label, primed, f_star, gamma_size):
    """(1 - E[label with f_star resampled | rest of primed]) / (1+gamma).

    Returns None when the conditional slice carries no mass.
    """
    cond = conditional(table, primed, f_star)
    if cond is None:
        return None
    expected = Fraction(0)
    varied = list(primed)
    for val, p in cond.items():
        varied[f_star] = val
        expected += p * label(tuple(varied))
    return (1 - expected) / (1 + gamma_size)


def global_resp(domains, values, label, f_star, table, max_gamma=None):
    """Maximum local score over minimum-size contingency sets.

    Returns (score, gamma, gamma_values); (0, None, None) when no size up
    to the bound admits a positive score.
    """
    values = tuple(values)
    assert label(values) == 1
    others = [i for i in range(len(domains)) if i != f_star]
    bound = len(others) if max_gamma is None else min(max_gamma, len(others))
    for size in range(bound + 1):
        best = None
        for gamma in combinations(others, size):
            pools = [
                [v for v in domains[i] if v != values[i]] for i in gamma
            ]
            for combo in product(*pools):
                primed = list(values)
                for i, v in zip(gamma, combo):
                    primed[i] = v
                if label(tuple(primed)) != 1:
                    continue
                score = local_resp(table, label, tuple(primed), f_star, size)
                if score is None or score <= 0:
                    continue
                if best is None or score > best[0]:
                    best = (score, gamma, combo)
        if best is not None:
            return best
    return (Fraction(0), None, None)


def unpruned_global_resp(domains, values, label, f_star, conditional, max_gamma=None):
    """The contingency walk of global_resp without branch and bound: every
    candidate of a size is asked and scored, in level_candidates order.

    ``conditional(primed, f_star)`` gives the slice's integer weights in
    domain order. ``label`` is called at each query the plain walk makes:
    the entity first, then per candidate the candidate itself (not for the
    empty one) and, when it keeps label 1, each other value of f_star with
    weight. Candidates rank by (lost, total) cross-multiplication from the
    (0, 1) floor, so ties keep the earlier one. Returns (score, gamma,
    gamma_values, truncated).
    """
    values = tuple(values)
    assert label(values) == 1
    alternatives = [
        () if i == f_star else tuple(v for v in d if v != values[i])
        for i, d in enumerate(domains)
    ]
    n_others = len(domains) - 1
    bound = n_others if max_gamma is None else min(max_gamma, n_others)
    for size in range(bound + 1):
        best_lost, best_total, best = 0, 1, None
        for gamma, primed in level_candidates(alternatives, values, size):
            if gamma and label(primed) != 1:
                continue
            total = lost = 0
            varied = list(primed)
            for v, w in conditional(primed, f_star).items():
                if w == 0:
                    continue
                total += w
                if v == primed[f_star]:
                    continue
                varied[f_star] = v
                if label(tuple(varied)) != 1:
                    lost += w
            if lost * best_total > best_lost * total:
                best_lost, best_total, best = lost, total, (gamma, primed)
        if best is not None:
            gamma, primed = best
            score = Fraction(best_lost, best_total * (1 + size))
            return score, gamma, tuple(primed[i] for i in gamma), False
    return Fraction(0), None, None, bound < n_others


# --- rule lists ---


def first_match(rules, default, values):
    """Label of the first (conditions, label) pair whose every (index, value)
    test holds in values, else default."""
    for conditions, label in rules:
        if all(values[i] == v for i, v in conditions):
            return label
    return default


# --- emitted rule-list classifier ---

# a solver constant: a quoted string with backslash escapes, or a bare token
_TERM = r'"(?:[^"\\]|\\.)*"|[^,()\s"]+'
_VAR = r"[A-Z][A-Za-z0-9_]*"
_RULE = re.compile(r"cls\((?P<head>[^()]*)\) :- (?P<body>.*)\.")
_LITERAL = re.compile(
    rf"(?:(?P<var>{_VAR}) = (?P<const>{_TERM})"
    rf"|dom(?P<k>[0-9]+)\((?P<dom_var>{_VAR})\)"
    rf"|not cls\((?P<negated>[^()]*)\))(?:, |\Z)"
)
_DOM_FACT = re.compile(rf"dom([0-9]+)\(({_TERM})\)\.")


def rules_section_model(rule_lines, domain_lines):
    """The ``cls`` atoms that an emitted rule-list classifier derives,
    evaluated bottom-up: a set of (constant, ..., label) tuples.

    ``domain_lines`` hold the ``domK(c).`` facts. Each rule line reads
    ``cls(V1,...,Vn,L) :- body.`` with body literals ``V = c``,
    ``domK(V)`` and, in the default rule only, ``not cls(V1,...,Vn,L')``.
    A variable ranges over the constants that every positive literal on it
    allows. The one negation stratifies the program: the rules without it
    are evaluated first, and the default rule reads their model.
    """
    doms = {}
    for line in domain_lines:
        for k, const in _DOM_FACT.findall(line):
            doms.setdefault(int(k), set()).add(const)
    rules = []
    for line in rule_lines:
        m = _RULE.fullmatch(line)
        assert m, line
        *head, label = m["head"].split(",")
        allowed, negated, pos = {}, None, 0
        body = m["body"]
        while pos < len(body):
            lit = _LITERAL.match(body, pos)
            assert lit, body[pos:]
            pos = lit.end()
            if lit["var"]:
                allowed.setdefault(lit["var"], []).append({lit["const"]})
            elif lit["dom_var"]:
                allowed.setdefault(lit["dom_var"], []).append(doms[int(lit["k"])])
            else:
                assert negated is None, line
                negated = lit["negated"].split(",")
        assert set(allowed) == set(head), line  # every head variable is bound
        pools = [set.intersection(*allowed[v]) for v in head]
        rules.append((head, int(label), negated, pools))
    model = set()
    for stratum in (False, True):
        derived = set()
        for head, label, negated, pools in rules:
            if (negated is not None) != stratum:
                continue
            for consts in product(*pools):
                if negated is not None:
                    binding = dict(zip(head, consts))
                    *args, other = negated
                    if (*(binding[a] for a in args), int(other)) in model:
                        continue
                derived.add((*consts, label))
        model |= derived
    return model


# --- rule safety ---


def unsafe_variables(head, body):
    """Variables of a rule with head terms ``head`` that no body literal
    binds. Body literals are ("atom", negated, terms), ("cmp", negated, op,
    lhs, rhs), ("count", negated, local, result) for ``#count{local:
    q(local)} = result``, and ("external", negated, ins, outs) for
    ``&f(ins;outs)``. Positive atoms, ``V = const`` in either order,
    aggregate results and the outputs of an external bind a variable; every
    other variable of the head, of a comparison or of an external's inputs
    needs binding. A negated literal binds nothing: every variable it holds
    needs binding."""

    def variables(terms):
        return {t for t in terms if t[:1].isupper()}

    needed, bound = variables(head), set()
    for kind, negated, *rest in body:
        if kind == "atom":
            holds, binds = variables(rest[0]), True
        elif kind == "cmp":
            op, lhs, rhs = rest
            holds = variables((lhs, rhs))
            binds = op == "=" and lhs[:1].isupper() != rhs[:1].isupper()
        elif kind == "count":
            holds, binds = {rest[1]}, True
        else:
            ins, outs = rest
            needed |= variables(ins)
            holds, binds = variables(outs), True
        (bound if binds and not negated else needed).update(holds)
    return needed - bound


# --- truth-table CSV ---


def table_from_csv(path, names, domains):
    """The rows of a truth-table CSV over features ``names`` with value sets
    ``domains``, loaded one row at a time: a dict from value tuple to label
    in file order. The first bad row in file order raises ValueError with
    the message the package gives. A row is numbered by the line it starts
    on; its picked cells are stripped; a row whose every cell is blank is
    skipped; otherwise a row of the wrong width, a value outside its domain,
    a repeated vector or a label other than 0/1 is an error, in that order
    of precedence within the row. A row the csv module cannot read is an
    error naming the line it starts on."""
    text = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf").decode("utf-8")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ValueError(f"{path}:1: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: empty CSV")
    fields = [h.strip() for h in header]
    missing = [n for n in names if n not in fields]
    if missing:
        raise ValueError(f"{path}: missing feature columns {missing}")
    if "label" not in fields:
        raise ValueError(f"{path}: missing 'label' column")
    twice = [n for n in (*names, "label") if fields.count(n) > 1]
    if twice:
        raise ValueError(f"{path}: columns named more than once: {twice}")
    at = [fields.index(n) for n in (*names, "label")]
    rows = {}
    start = reader.line_num + 1
    try:
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: wrong column count")
            *vec, label = (row[i].strip() for i in at)
            vec = tuple(vec)
            for name, domain, v in zip(names, domains, vec):
                if v not in domain:
                    raise ValueError(
                        f"{path}:{lineno}: value {v!r} not in domain of feature {name!r}"
                    )
            if vec in rows:
                raise ValueError(f"{path}:{lineno}: duplicate row for {vec}")
            if label not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
            rows[vec] = int(label)
    except csv.Error as exc:  # e.g. a cell past csv.field_size_limit()
        raise ValueError(f"{path}:{start}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: truth table has no rows")
    return rows
