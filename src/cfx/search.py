"""Enumeration of counterfactual explanations.

Given a label-1 entity, the search walks the candidates the actionability
rules allow and keeps those the admissibility filter lets through and the
classifier maps to 0. The walk is levelwise: Hamming distance k = 1, 2, ... .
When only minimum-distance answers are wanted it stops at the first level
with hits, so it issues at most sum(level sizes up to d*) queries.

Candidate order is deterministic: index sets lexicographically, then value
combinations in domain order. Results come back in that same canonical
order (cardinality, index set, domain positions) without a sort. Each hit is
one row: changed-index set, counterfactual values, s-minimal flag; the
explanations and c-minimal flags are views derived from the rows. A set's
subset-minimality is settled at its first hit against the minimal sets of
lower levels, which are the only possible strict subsets. A :class:`Walk`
yields the rows as it finds them; :func:`enumerate_counterfactuals` collects
them, and :func:`write_json` renders them as they come.

Each index set is settled once, before any of its candidates is built: its
candidates are checked for admissibility only when a constraint could refuse
one of them; a pruned walk, which wants only the s-minimal rows, asks
nothing of a set that contains a minimal set of a lower level; and a
classifier that tells the label of a whole space of vectors (a rule list's
``space_label``) is asked nothing about a set whose space reads one label:
a set that reads 1 holds no hit, and each admissible candidate of a set
that reads 0 is one.

A search may be truncated by ``max_cardinality`` or ``budget``; the result
then carries ``exhausted=False`` and its minimality flags describe only the
explored region. A candidate whose label is known asks nothing and uses no
budget. Results of an early-stopped minimum-distance walk are
authoritative despite the stop: every level below the hit level was explored
empty, so nothing smaller can exist.
"""

from __future__ import annotations

import json
from itertools import chain, combinations, groupby, islice, product, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Sequence

from . import constrain
from .errors import EngineError, InputError, NothingToExplainError
from .schema import Entity, Explanation, FeatureSchema, Record

# The walk asks the classifier for this many admissible candidates at a time
# and announces each chunk to a classifier that takes announcements, so an
# external child can answer it in few round trips. The external backend sends
# 4096 bytes of a chunk at a time, so on external-key (18-byte lines)
# chunks of 64 to 512 read the same cexpl_s.
ASK_AHEAD = 256

# Walk(prune=...): a pruned walk runs until it has every s-minimal set
# (S_SET), or until every feature that may change lies in one (WITNESSES)
S_SET = "s-set"
WITNESSES = "witnesses"


class SearchTruncatedError(EngineError):
    """A minimality query ran against a truncated (non-authoritative) search."""


class SearchConfig(Record):
    __slots__ = ("max_cardinality", "budget")

    def __init__(self, max_cardinality: int | None = None, budget: int | None = None):
        if max_cardinality is not None and max_cardinality < 1:
            raise InputError("max_cardinality must be >= 1")
        if budget is not None and budget < 1:
            raise InputError("budget must be >= 1")
        self.max_cardinality = max_cardinality
        self.budget = budget


class SearchStats(Record):
    __slots__ = ("classifier_calls", "levels_explored")
    # unhashable like the SearchResult that carries it: a tally of one run,
    # not a key
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, classifier_calls: int = 0, levels_explored: int = 0):
        self.classifier_calls = classifier_calls
        self.levels_explored = levels_explored


class SearchResult(Record):
    """Counterfactual explanations for one entity, with minimality flags.

    ``hits`` holds one (changed-index set, counterfactual values, s-minimal)
    row per hit in walk order; every other view is derived from it.
    """

    __slots__ = ("entity", "hits", "stats", "exhausted")
    __hash__ = None  # type: ignore[assignment]  # holds lists

    def __init__(
        self,
        entity: Entity,
        hits: list[tuple[tuple[int, ...], tuple[str, ...], bool]],
        stats: SearchStats,
        exhausted: bool,
    ):
        self.entity = entity
        self.hits = hits
        self.stats = stats
        self.exhausted = exhausted

    @property
    def explanations(self) -> list[Explanation]:
        return explain_rows(self.entity, self.hits)

    @property
    def s_flags(self) -> list[bool]:
        return [s for _, _, s in self.hits]

    @property
    def c_flags(self) -> list[bool]:
        # the walk yields hits by increasing cardinality, so the first is minimum
        dstar = self.min_cardinality
        return [len(idxs) == dstar for idxs, _, _ in self.hits]

    @property
    def c_set(self) -> list[Explanation]:
        rows = [row for row, c in zip(self.hits, self.c_flags) if c]
        return explain_rows(self.entity, rows)

    @property
    def min_cardinality(self) -> int | None:
        return len(self.hits[0][0]) if self.hits else None

    @property
    def no_counterfactual(self) -> bool:
        """Definitively nothing to reach: empty and nothing was truncated."""
        return not self.hits and self.exhausted

    def to_json_dict(self, schema: FeatureSchema) -> dict:
        return _payload(
            self.entity,
            [
                {**x.to_json_dict(schema), "s_minimal": s, "c_minimal": c}
                for x, s, c in zip(self.explanations, self.s_flags, self.c_flags)
            ],
            self.min_cardinality,
            self.no_counterfactual,
            self.stats,
            self.exhausted,
        )


def explain_rows(entity: Entity, rows: Iterable[tuple]) -> list[Explanation]:
    """The explanation of ``entity`` that each of ``rows`` gives, rows as a
    :class:`Walk` yields them."""
    out, last = [], None
    for idxs, cand, _ in rows:
        if idxs != last:  # hits of one index set share its pairs
            last, changed = idxs, tuple((i, entity.values[i]) for i in idxs)
        out.append(Explanation(changed, Entity(entity.id, cand)))
    return out


def _payload(
    entity: Entity, explanations: list, dstar, no_counterfactual: bool, stats, exhausted
) -> dict:
    """The JSON payload of a search; ``dstar`` is its minimum cardinality."""
    return {
        "entity": entity.id,
        "values": list(entity.values),
        "explanations": explanations,
        "min_cardinality": dstar,
        "no_counterfactual": no_counterfactual,
        "stats": {
            "classifier_calls": stats.classifier_calls,
            "levels_explored": stats.levels_explored,
        },
        "exhausted": exhausted,
    }


# write_json hands its file this many rows per write: a text file's write has
# a fixed cost near that of rendering a row, and one write per row made
# explain's JSON on enum-table (16,832 rows) about 6 ms slower
WRITE_ROWS = 256

# json never writes a raw newline inside a string, so this can only be the
# payload's top-level key, with nothing found
_NO_EXPLANATIONS = '\n  "explanations": []'


def write_json(out, schema: FeatureSchema, rows: Iterable[tuple], walk) -> int:
    """Write ``json.dumps(result.to_json_dict(schema), indent=2) + "\\n"`` of
    the search whose hit rows are ``rows`` to the text file ``out``, and
    return the number of rows. Each row is rendered as it is drawn, and
    written with the rest of its ``WRITE_ROWS``.

    ``walk`` is the :class:`Walk` that yields ``rows`` or a
    :class:`SearchResult` that holds them: its ``entity`` is read before the
    first row, its ``stats`` and ``exhausted`` after the last. Levels ascend,
    so the first row's cardinality is the minimum, which settles every row's
    c-flag as it comes.

    With ``indent`` set, CPython's json runs its pure-Python encoder. Here
    every explanation is pasted from lines quoted once per (feature, value)
    by the escaper json.dumps itself uses, and json.dumps writes only the
    top-level skeleton around them.
    """
    entity = walk.entity
    write = out.write
    empty = json.dumps(_payload(entity, [], None, False, SearchStats(), False), indent=2)
    write(empty.partition(_NO_EXPLANATIONS)[0])
    # "changed" maps each changed feature to its original value
    changed = [
        f"        {_quote(f.name)}: {_quote(v)}"
        for f, v in zip(schema.features, entity.values)
    ]
    values = [{v: "        " + _quote(v) for v in f.domain} for f in schema.features]
    flag = ("false", "true")
    sep, last, dstar, count = '\n  "explanations": [\n', None, None, 0
    batch: list[str] = []
    for idxs, cand, s in rows:
        if idxs != last:  # hits of one index set are adjacent
            last, pairs = idxs, ",\n".join([changed[i] for i in idxs])
            if dstar is None:
                dstar = len(idxs)
            head = f'    {{\n      "changed": {{\n{pairs}\n      }},\n'
            head += '      "counterfactual": [\n'
            tail = f'\n      ],\n      "cardinality": {len(idxs)},\n      "s_minimal": '
            c_tail = f',\n      "c_minimal": {flag[len(idxs) == dstar]}\n    }}'
            tails = [tail + m + c_tail for m in flag]
        batch.append(head + ",\n".join(map(dict.__getitem__, values, cand)) + tails[s])
        if len(batch) == WRITE_ROWS:
            write(sep + ",\n".join(batch))
            sep, count = ",\n", count + WRITE_ROWS
            batch.clear()
    if batch:
        write(sep + ",\n".join(batch))
        count += len(batch)
    exhausted = walk.exhausted
    payload = _payload(entity, [], dstar, not count and exhausted, walk.stats, exhausted)
    end = json.dumps(payload, indent=2).partition(_NO_EXPLANATIONS)[2]
    write(("\n  ]" if count else _NO_EXPLANATIONS) + end + "\n")
    return count


def require_label_one(schema: FeatureSchema, classifier, entity: Entity) -> None:
    """Check ``entity`` against ``schema`` and ask ``classifier`` for its
    label, which must be 1 for there to be anything to explain."""
    schema.check_values(entity.values)
    if classifier.label(entity.values) != 1:
        raise NothingToExplainError(
            f"entity {entity.id!r} already has label 0; nothing to explain"
        )


def set_candidates(
    alternatives: Sequence[Sequence[str]],
    values: tuple[str, ...],
    sets: Iterable[tuple[int, ...]],
    constraints: constrain.ConstraintSet | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple[str, ...]]]:
    """The (index set, candidate) pairs of each index set of ``sets`` in
    turn. Each candidate comes whole out of ``product`` over one pool per
    feature: alternatives inside the set, the value outside.
    ``alternatives[i]`` lists the values feature i may take instead of
    ``values[i]``, in domain order. Over ``combinations`` of the features
    that have alternatives, this is the walk over the lattice of
    intervention sets: index sets lexicographically, then their value
    combinations in domain order.

    A set is looked at once, before any of its candidates is built: only
    where ``constraints.may_reject`` it are its candidates filtered through
    ``admissible``, and every other set's go out unchecked.
    """
    may_reject = admissible = None
    if constraints is not None:
        may_reject, admissible = constraints.may_reject, constraints.admissible

    def candidates(idxs):
        pools: list[Sequence[str]] = [(v,) for v in values]
        for i in idxs:
            pools[i] = alternatives[i]
        cands = product(*pools)
        if may_reject is not None and may_reject(idxs, values):
            cands = filter(admissible, cands)
        return zip(repeat(idxs), cands)

    return chain.from_iterable(map(candidates, sets))


class Walk:
    """The hit rows of one search, yielded as the walk finds them.

    Iterating gives one (changed-index set, counterfactual values,
    s-minimal) row per hit, in walk order: the rows
    :attr:`SearchResult.hits` collects. The entity's own label is asked
    when the walk is built, every other label as the rows are drawn.
    ``stats`` and ``exhausted`` are None until the rows run out. A walk
    runs once.

    ``stop_at_first_hit`` ends the walk after the first Hamming level that
    produced hits, which is everything a minimum-cardinality query needs.

    ``prune`` makes a walk that yields only the s-minimal rows. An index
    set that contains a minimal set of a lower level can hold no s-minimal
    candidate, so it asks nothing and uses no budget. A level whose every
    set is dominated so is every later one's, so the walk ends there,
    exhausted. With :data:`WITNESSES` it also ends, exhausted, before a
    level once every feature that may change lies in a minimal set, which
    fixes each feature's reciprocal-size score; :data:`S_SET` goes on to
    find every s-minimal set. A pruned walk that ends early counts as
    ``levels_explored`` the levels that asked. One cut by
    ``max_cardinality`` looks at the level past the bound, and is
    exhausted when either stop holds there. Any walk whose bound is at
    least the number of features that may change has asked every set,
    and is exhausted.

    A classifier with an ``announce`` method is handed each chunk of
    candidates before their ``label`` calls, which then come one per
    candidate in the same order.

    A classifier with a ``space_label`` method gets one call per index set,
    with one pool per feature: the set's alternatives inside it, the
    entity's value outside. A set that reads 1 is passed over; each
    admissible candidate of a set that reads 0 is a hit row, yielded
    without a ``label`` call; the candidates of a set that reads None are
    asked. Only asked candidates are counted as calls and use budget, so a
    budget cuts the walk where the next label would have to be asked.
    """

    __slots__ = ("entity", "stats", "exhausted", "_rows")

    def __init__(
        self,
        schema: FeatureSchema,
        classifier,
        entity: Entity,
        constraints: constrain.ConstraintSet | None = None,
        config: SearchConfig | None = None,
        *,
        stop_at_first_hit: bool = False,
        prune: str | None = None,
    ):
        if prune not in (None, S_SET, WITNESSES):
            raise ValueError(f"prune must be None, {S_SET!r} or {WITNESSES!r}")
        require_label_one(schema, classifier, entity)
        self.entity = entity
        self.stats: SearchStats | None = None
        self.exhausted: bool | None = None
        cs = constraints or constrain.empty(schema)
        self._rows = self._walk(
            len(schema), classifier, cs, config or SearchConfig(), stop_at_first_hit, prune
        )

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], tuple[str, ...], bool]]:
        return self._rows

    def _walk(self, n, classifier, cs, cfg, stop_at_first_hit, prune):
        bound = n if cfg.max_cardinality is None else min(cfg.max_cardinality, n)
        budget = cfg.budget
        calls = 1  # the entity's; SearchConfig guarantees a budget of at least 1

        values = self.entity.values
        alternatives = cs.alternatives(values)
        movable = [i for i, alts in enumerate(alternatives) if alts]
        # Bitmasks of the minimal sets. A strict subset of a level-k set lies
        # on a lower level, and a non-minimal one contains a minimal one, so
        # checking a new set against the minimal masks found so far settles
        # it; two sets of one level are never strict subsets of each other.
        # The walk yields all candidates of one index set together, so a set
        # is settled at its first hit and ``last`` carries the verdict to the
        # rest. The first hit is minimal, so there are masks once there are hits.
        minimal_masks: list[int] = []
        covered, everyone = 0, sum(1 << i for i in movable)
        last: tuple[int, ...] = ()
        minimal = False

        def settle(idxs):
            """Is ``idxs``, the index set of a first hit, minimal? A minimal
            set joins the masks."""
            nonlocal covered
            mask = sum(1 << i for i in idxs)
            if any(m & mask == m for m in minimal_masks):
                return False
            minimal_masks.append(mask)
            covered |= mask
            return True

        announce = hasattr(classifier, "announce")
        verdict = None
        if hasattr(classifier, "space_label"):
            space_label, entity_pools = classifier.space_label, [(v,) for v in values]

            def verdict(idxs):
                """The label every vector of the set's space reads, or None."""
                pools = entity_pools.copy()
                for i in idxs:
                    pools[i] = alternatives[i]
                return space_label(pools)

        # a pruned walk looks at the level past its bound too: with no set
        # left there, the bound cut off nothing
        for k in range(1, bound + 2):
            sets: Iterator[tuple[int, ...]] = combinations(movable, k)
            if prune:
                # the masks a set of this level may contain are all below it
                below = tuple(minimal_masks)

                def undominated(idxs, below=below):
                    mask = sum(1 << i for i in idxs)
                    return not any(m & mask == m for m in below)

                sets = filter(undominated, sets)
                first = next(sets, None)
                # no set left here or above, or every score fixed
                if first is None or (prune == WITNESSES and covered == everyone):
                    self.stats, self.exhausted = SearchStats(calls, k - 1), True
                    return
                sets = chain((first,), sets)
            if k > bound:
                break
            # runs of adjacent sets with one verdict: a set that reads 1
            # holds no hit, one that reads 0 makes each admissible candidate
            # a hit, and the candidates of the others are asked
            runs = [(None, sets)] if verdict is None else groupby(sets, verdict)
            for known, run in runs:
                if known == 1:
                    continue
                granted = set_candidates(alternatives, values, run, cs)
                if known == 0:
                    for idxs, cand in granted:
                        if idxs != last:
                            last, minimal = idxs, settle(idxs)
                        yield idxs, cand, minimal
                    continue
                while True:
                    # the chunk is cut to the calls the budget has left; with
                    # none left, one more admissible candidate to ask means
                    # the walk was cut short
                    room = ASK_AHEAD if budget is None else min(ASK_AHEAD, budget - calls)
                    if not room:
                        if next(granted, None) is not None:
                            self.stats, self.exhausted = SearchStats(calls, k), False
                            return
                        break
                    chunk = list(islice(granted, room))
                    calls += len(chunk)
                    if announce:
                        classifier.announce([cand for _, cand in chunk])
                    for idxs, cand in chunk:
                        if classifier.label(cand) != 0:
                            continue
                        if idxs != last:
                            last, minimal = idxs, settle(idxs)
                        yield idxs, cand, minimal
                    if len(chunk) < room:
                        break
            if stop_at_first_hit and minimal_masks:
                # Levels below the hit level were explored empty, so both
                # minimality notions are settled by what was found.
                self.stats, self.exhausted = SearchStats(calls, k), True
                return

        # every set of the features that may change was asked; a pruned walk
        # that gets here found an undominated set past its bound
        self.stats, self.exhausted = SearchStats(calls, bound), bound >= len(movable)


def enumerate_counterfactuals(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    constraints: constrain.ConstraintSet | None = None,
    config: SearchConfig | None = None,
    *,
    stop_at_first_hit: bool = False,
) -> SearchResult:
    """All admissible label-0 entities within the configured distance bound:
    the rows of a :class:`Walk` with these arguments, collected."""
    walk = Walk(
        schema, classifier, entity, constraints, config,
        stop_at_first_hit=stop_at_first_hit,
    )
    hits = list(walk)
    return SearchResult(entity, hits, walk.stats, walk.exhausted)


def c_explanations(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    constraints: constrain.ConstraintSet | None = None,
    config: SearchConfig | None = None,
) -> list[Explanation]:
    """All counterfactual explanations at the minimum Hamming distance.

    An empty list is definitive: the (constrained) space holds no label-0
    entity. Raises :class:`SearchTruncatedError` if a budget or cardinality
    bound cut the walk short of an authoritative answer.
    """
    result = enumerate_counterfactuals(
        schema, classifier, entity, constraints, config, stop_at_first_hit=True
    )
    if not result.exhausted:
        raise SearchTruncatedError(
            "search truncated before minimality could be established; "
            "raise the budget/bound or use enumerate_counterfactuals"
        )
    return result.c_set


def s_explanations(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    constraints: constrain.ConstraintSet | None = None,
    config: SearchConfig | None = None,
) -> list[Explanation]:
    """Subset-minimal counterfactual explanations: the rows of a walk that
    prunes every index set holding a smaller minimal one."""
    walk = Walk(schema, classifier, entity, constraints, config, prune=S_SET)
    rows = list(walk)
    if not walk.exhausted:
        raise SearchTruncatedError(
            "search truncated; subset-minimality against the full space "
            "cannot be certified"
        )
    return explain_rows(entity, rows)
