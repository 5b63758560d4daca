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
lower levels, which are the only possible strict subsets.

A search may be truncated by ``max_cardinality`` or ``budget``; the result
then carries ``exhausted=False`` and its minimality flags describe only the
explored region. Results of an early-stopped minimum-distance walk are
authoritative despite the stop: every level below the hit level was explored
empty, so nothing smaller can exist.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, product
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterator, Sequence

from . import constrain
from .errors import EngineError, InputError, NothingToExplainError
from .schema import Entity, Explanation, FeatureSchema, Record


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
    __hash__ = None  # type: ignore[assignment]  # the search counts into it

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
        return self._kept([True] * len(self.hits))

    @property
    def s_flags(self) -> list[bool]:
        return [s for _, _, s in self.hits]

    @property
    def c_flags(self) -> list[bool]:
        # the walk yields hits by increasing cardinality, so the first is minimum
        dstar = self.min_cardinality
        return [len(idxs) == dstar for idxs, _, _ in self.hits]

    @property
    def s_set(self) -> list[Explanation]:
        return self._kept(self.s_flags)

    @property
    def c_set(self) -> list[Explanation]:
        return self._kept(self.c_flags)

    def _kept(self, flags: list[bool]) -> list[Explanation]:
        """The explanations of the hits whose flag is set."""
        e, out, last = self.entity, [], None
        for (idxs, cand, _), keep in zip(self.hits, flags):
            if keep:
                if idxs != last:  # hits of one index set share its pairs
                    last, changed = idxs, tuple((i, e.values[i]) for i in idxs)
                out.append(Explanation(changed, Entity(e.id, cand)))
        return out

    @property
    def min_cardinality(self) -> int | None:
        return len(self.hits[0][0]) if self.hits else None

    @property
    def no_counterfactual(self) -> bool:
        """Definitively nothing to reach: empty and nothing was truncated."""
        return not self.hits and self.exhausted

    def to_json_dict(self, schema: FeatureSchema) -> dict:
        return self._payload(
            [
                {**x.to_json_dict(schema), "s_minimal": s, "c_minimal": c}
                for x, s, c in zip(self.explanations, self.s_flags, self.c_flags)
            ]
        )

    def to_json_text(self, schema: FeatureSchema) -> str:
        """``json.dumps(self.to_json_dict(schema), indent=2) + "\\n"``, faster.

        With ``indent`` set, CPython's json runs its pure-Python encoder. Here
        every explanation is pasted from lines quoted once per (feature,
        value) by the escaper json.dumps itself uses, and json.dumps writes
        only the top-level skeleton around them.
        """
        text = json.dumps(self._payload([]), indent=2)
        if self.hits:
            # json never writes a raw newline inside a string, so the marker
            # can only be the top-level key
            head, _, tail = text.partition('\n  "explanations": []')
            text = f'{head}\n  "explanations": [\n{self._json_rows(schema)}\n  ]{tail}'
        return text + "\n"

    def _json_rows(self, schema: FeatureSchema) -> str:
        # "changed" maps each changed feature to its original value
        changed = [
            f"        {_quote(f.name)}: {_quote(v)}"
            for f, v in zip(schema.features, self.entity.values)
        ]
        values = [{v: "        " + _quote(v) for v in f.domain} for f in schema.features]
        flag = ("false", "true")
        return ",\n".join(
            [
                '    {\n      "changed": {\n'
                + ",\n".join([changed[i] for i in idxs])
                + '\n      },\n      "counterfactual": [\n'
                + ",\n".join([q[v] for q, v in zip(values, cand)])
                + f'\n      ],\n      "cardinality": {len(idxs)},'
                f'\n      "s_minimal": {flag[s]},\n      "c_minimal": {flag[c]}\n    }}'
                for (idxs, cand, s), c in zip(self.hits, self.c_flags)
            ]
        )

    def _payload(self, explanations: list) -> dict:
        return {
            "entity": self.entity.id,
            "values": list(self.entity.values),
            "explanations": explanations,
            "min_cardinality": self.min_cardinality,
            "no_counterfactual": self.no_counterfactual,
            "stats": {
                "classifier_calls": self.stats.classifier_calls,
                "levels_explored": self.stats.levels_explored,
            },
            "exhausted": self.exhausted,
        }


def require_label_one(schema: FeatureSchema, classifier, entity: Entity) -> None:
    """Check ``entity`` against ``schema`` and ask ``classifier`` for its
    label, which must be 1 for there to be anything to explain."""
    schema.check_values(entity.values)
    if classifier.label(entity.values) != 1:
        raise NothingToExplainError(
            f"entity {entity.id!r} already has label 0; nothing to explain"
        )


def level_candidates(
    alternatives: Sequence[Sequence[str]], values: tuple[str, ...], k: int
) -> Iterator[tuple[tuple[int, ...], tuple[str, ...]]]:
    """(index set, candidate) pairs at Hamming distance ``k``, canonical order.

    This is the one walk over the lattice of intervention sets: index sets
    of size ``k`` lexicographically, then their value combinations in
    domain order. ``alternatives[i]`` lists the values feature i may take
    instead of ``values[i]``, in domain order; an empty list keeps feature
    i out of every index set.
    """
    for idxs in combinations(range(len(values)), k):
        for combo in product(*(alternatives[i] for i in idxs)):
            cand = list(values)
            for i, v in zip(idxs, combo):
                cand[i] = v
            yield idxs, tuple(cand)


def enumerate_counterfactuals(
    schema: FeatureSchema,
    classifier,
    entity: Entity,
    constraints: constrain.ConstraintSet | None = None,
    config: SearchConfig | None = None,
    *,
    stop_at_first_hit: bool = False,
) -> SearchResult:
    """All admissible label-0 entities within the configured distance bound.

    ``stop_at_first_hit`` ends the walk after the first Hamming level that
    produced hits, which is everything a minimum-cardinality query needs.
    """
    cfg = config or SearchConfig()
    cs = constraints or constrain.empty(schema)
    n = len(schema)
    bound = n if cfg.max_cardinality is None else min(cfg.max_cardinality, n)

    # SearchConfig guarantees a budget of at least 1 for the initial call
    calls_left = math.inf if cfg.budget is None else cfg.budget - 1
    stats = SearchStats(classifier_calls=1)
    require_label_one(schema, classifier, entity)

    values = entity.values
    alternatives = cs.alternatives(values)
    hits: list[tuple[tuple[int, ...], tuple[str, ...], bool]] = []
    # Bitmasks of the minimal sets. A strict subset of a level-k set lies on
    # a lower level, and a non-minimal one contains a minimal one, so checking
    # a new set against the minimal masks found so far settles it; two sets
    # of one level are never strict subsets of each other. The walk yields
    # all candidates of one index set together, so a set is settled at its
    # first hit and ``last`` carries the verdict to the rest.
    minimal_masks: list[int] = []
    last: tuple[int, ...] = ()
    minimal = truncated = stopped_early = False

    for k in range(1, bound + 1):
        stats.levels_explored = k
        admissible = [
            (idxs, cand)
            for idxs, cand in level_candidates(alternatives, values, k)
            if cs.admissible(cand)
        ]
        granted = min(len(admissible), calls_left)
        truncated = granted < len(admissible)
        calls_left -= granted
        stats.classifier_calls += granted
        for idxs, cand in admissible[:granted]:
            if classifier.label(cand) != 0:
                continue
            if idxs != last:
                last = idxs
                mask = sum(1 << i for i in idxs)
                minimal = not any(m & mask == m for m in minimal_masks)
                if minimal:
                    minimal_masks.append(mask)
            hits.append((idxs, cand, minimal))
        if truncated:
            break
        if stop_at_first_hit and hits:
            stopped_early = True
            break

    if truncated:
        exhausted = False
    elif stopped_early:
        # Levels below the hit level were explored empty, so both minimality
        # notions are settled by what was found.
        exhausted = True
    else:
        exhausted = bound == n

    return SearchResult(entity=entity, hits=hits, stats=stats, exhausted=exhausted)


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
    """Subset-minimal counterfactual explanations (needs a full enumeration)."""
    result = enumerate_counterfactuals(schema, classifier, entity, constraints, config)
    if not result.exhausted:
        raise SearchTruncatedError(
            "search truncated; subset-minimality against the full space "
            "cannot be certified"
        )
    return result.s_set
