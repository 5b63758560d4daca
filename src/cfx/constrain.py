"""Admissibility constraints on candidate entities.

Three kinds are supported. Denial constraints forbid value combinations: a
candidate matching every literal of a denial is inadmissible. Actionability
rules restrict how individual features may move relative to the original
entity (fixed, increase-only, decrease-only, free); the directional modes
need an ordered domain and compare positions in the declared order. One-hot
groups tie a set of binary indicator features together: a candidate must set
exactly one member of each group to "1".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import InputError
from .schema import FeatureSchema, _load_json

FIXED = "fixed"
INCREASE_ONLY = "increase-only"
DECREASE_ONLY = "decrease-only"
FREE = "free"
MODES = (FIXED, INCREASE_ONLY, DECREASE_ONLY, FREE)

EQ = "eq"
NE = "ne"


@dataclass(frozen=True)
class DenialLiteral:
    """One test inside a denial: feature (index) equals / differs from value."""

    feature: int
    value: str
    polarity: str = EQ

    def holds(self, values: Sequence[str]) -> bool:
        hit = values[self.feature] == self.value
        return hit if self.polarity == EQ else not hit


@dataclass(frozen=True)
class DenialConstraint:
    """A forbidden conjunction: entities matching every literal are denied."""

    literals: tuple[DenialLiteral, ...]

    def matches(self, values: Sequence[str]) -> bool:
        return all(lit.holds(values) for lit in self.literals)


@dataclass(frozen=True)
class ActionabilityRule:
    feature: int
    mode: str


@dataclass(frozen=True)
class OneHotGroup:
    members: tuple[int, ...]


@dataclass(frozen=True)
class ConstraintSet:
    """Validated bundle of constraints bound to a schema."""

    schema: FeatureSchema
    denials: tuple[DenialConstraint, ...] = ()
    actionability: tuple[ActionabilityRule, ...] = ()
    onehot: tuple[OneHotGroup, ...] = ()

    def __post_init__(self) -> None:
        s = self.schema
        for chi in self.denials:
            if not chi.literals:
                raise InputError("denial constraint with no literals")
            for lit in chi.literals:
                f = s.feature(lit.feature)
                if lit.polarity not in (EQ, NE):
                    raise InputError(f"bad polarity {lit.polarity!r}")
                if lit.value not in f.domain:
                    raise InputError(
                        f"denial tests {f.name!r} against {lit.value!r}, "
                        "not in its domain"
                    )
        seen: set[int] = set()
        for rule in self.actionability:
            f = s.feature(rule.feature)
            if rule.mode not in MODES:
                raise InputError(f"bad actionability mode {rule.mode!r}")
            if rule.feature in seen:
                raise InputError(f"two actionability rules for {f.name!r}")
            seen.add(rule.feature)
            if rule.mode in (INCREASE_ONLY, DECREASE_ONLY) and not f.ordered:
                raise InputError(
                    f"directional actionability on {f.name!r} needs an ordered domain"
                )
        for group in self.onehot:
            if len(group.members) < 2:
                raise InputError("one-hot group needs at least two members")
            if len(set(group.members)) != len(group.members):
                raise InputError("one-hot group repeats a member")
            for i in group.members:
                f = s.feature(i)
                if set(f.domain) != {"0", "1"}:
                    raise InputError(
                        f"one-hot member {f.name!r} must have domain {{0,1}}"
                    )

    def is_empty(self) -> bool:
        return not (self.denials or self.actionability or self.onehot)

    def admissible(self, original: Sequence[str], candidate: Sequence[str]) -> bool:
        """May the search move from ``original`` to ``candidate``?"""
        for chi in self.denials:
            if chi.matches(candidate):
                return False
        for rule in self.actionability:
            i = rule.feature
            if rule.mode == FREE:
                continue
            if rule.mode == FIXED:
                if candidate[i] != original[i]:
                    return False
                continue
            f = self.schema.feature(i)
            delta = f.rank(candidate[i]) - f.rank(original[i])
            if rule.mode == INCREASE_ONLY and delta < 0:
                return False
            if rule.mode == DECREASE_ONLY and delta > 0:
                return False
        for group in self.onehot:
            ones = sum(1 for i in group.members if candidate[i] == "1")
            if ones != 1:
                return False
        return True


def empty(schema: FeatureSchema) -> ConstraintSet:
    return ConstraintSet(schema)


def constraints_from_dict(data: dict, schema: FeatureSchema) -> ConstraintSet:
    if not isinstance(data, dict):
        raise InputError("constraints JSON must be an object")
    denials = []
    for raw in _objects(data, "denials"):
        lits = []
        for lit in _objects(raw, "literals"):
            try:
                idx = schema.index_of(str(lit["feature"]))
                value = str(lit["value"])
            except (KeyError, TypeError):
                raise InputError(
                    "denial literal needs 'feature' and 'value'"
                ) from None
            lits.append(
                DenialLiteral(idx, value, str(lit.get("polarity", EQ)))
            )
        denials.append(DenialConstraint(tuple(lits)))
    actionability = []
    for raw in _objects(data, "actionability"):
        try:
            idx = schema.index_of(str(raw["feature"]))
            mode = str(raw["mode"])
        except (KeyError, TypeError):
            raise InputError("actionability rule needs 'feature' and 'mode'") from None
        actionability.append(ActionabilityRule(idx, mode))
    onehot = []
    groups = data.get("onehot", [])
    if not isinstance(groups, list):
        raise InputError("'onehot' must be a list")
    for raw in groups:
        if isinstance(raw, dict):
            raw = raw.get("features")
        if not isinstance(raw, list):
            raise InputError(
                'one-hot groups must be {"features": [...]} objects '
                "or lists of feature names"
            )
        onehot.append(OneHotGroup(tuple(schema.index_of(str(n)) for n in raw)))
    return ConstraintSet(
        schema,
        denials=tuple(denials),
        actionability=tuple(actionability),
        onehot=tuple(onehot),
    )


def _objects(data: dict, key: str) -> list[dict]:
    items = data.get(key, [])
    if not isinstance(items, list) or not all(isinstance(x, dict) for x in items):
        raise InputError(f"{key!r} must be a list of objects")
    return items


def load_constraints(path: str | Path, schema: FeatureSchema) -> ConstraintSet:
    return constraints_from_dict(_load_json(path), schema)
