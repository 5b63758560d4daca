"""Admissibility constraints on candidate entities.

Three kinds are supported. Denial constraints forbid value combinations: a
candidate matching every literal of a denial is inadmissible. Actionability
rules (fixed, increase-only, decrease-only, free; the directional modes need
an ordered domain) say which values each feature may take instead of the
original one; ``alternatives`` lists them. One-hot groups tie a set of binary
indicator features together: a candidate must set exactly one member of each
group to "1". ``admissible`` checks denials and one-hot groups on a
candidate; ``may_reject`` tells from a changed-index set alone whether
``admissible`` could refuse any candidate of that set.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .errors import InputError
from .schema import FeatureSchema, Record, _coerce_value, _load_json, in_file

FIXED = "fixed"
INCREASE_ONLY = "increase-only"
DECREASE_ONLY = "decrease-only"
FREE = "free"
MODES = (FIXED, INCREASE_ONLY, DECREASE_ONLY, FREE)

EQ = "eq"
NE = "ne"


class DenialLiteral(Record):
    """One test inside a denial: feature (index) equals / differs from value."""

    __slots__ = ("feature", "value", "polarity")

    def __init__(self, feature: int, value: str, polarity: str = EQ):
        self.feature = feature
        self.value = value
        self.polarity = polarity

    def holds(self, values: Sequence[str]) -> bool:
        hit = values[self.feature] == self.value
        return hit if self.polarity == EQ else not hit


class DenialConstraint(Record):
    """A forbidden conjunction: entities matching every literal are denied."""

    __slots__ = ("literals",)

    def __init__(self, literals: tuple[DenialLiteral, ...]):
        self.literals = literals

    def matches(self, values: Sequence[str]) -> bool:
        return all(lit.holds(values) for lit in self.literals)


class ActionabilityRule(Record):
    __slots__ = ("feature", "mode")

    def __init__(self, feature: int, mode: str):
        self.feature = feature
        self.mode = mode


class OneHotGroup(Record):
    __slots__ = ("members",)

    def __init__(self, members: tuple[int, ...]):
        self.members = members


class ConstraintSet(Record):
    """Validated bundle of constraints bound to a schema."""

    __slots__ = ("schema", "denials", "actionability", "onehot")

    def __init__(
        self,
        schema: FeatureSchema,
        denials: tuple[DenialConstraint, ...] = (),
        actionability: tuple[ActionabilityRule, ...] = (),
        onehot: tuple[OneHotGroup, ...] = (),
    ):
        self.schema = schema
        self.denials = denials
        self.actionability = actionability
        self.onehot = onehot
        for chi in denials:
            if not chi.literals:
                raise InputError("denial constraint with no literals")
            for lit in chi.literals:
                f = schema.feature(lit.feature)
                if lit.polarity not in (EQ, NE):
                    raise InputError(f"bad polarity {lit.polarity!r}")
                if lit.value not in f.domain:
                    raise InputError(
                        f"denial tests {f.name!r} against {lit.value!r}, "
                        "not in its domain"
                    )
        seen: set[int] = set()
        for rule in actionability:
            f = schema.feature(rule.feature)
            if rule.mode not in MODES:
                raise InputError(f"bad actionability mode {rule.mode!r}")
            if rule.feature in seen:
                raise InputError(f"two actionability rules for {f.name!r}")
            seen.add(rule.feature)
            if rule.mode in (INCREASE_ONLY, DECREASE_ONLY) and not f.ordered:
                raise InputError(
                    f"directional actionability on {f.name!r} needs an ordered domain"
                )
        for group in onehot:
            if len(group.members) < 2:
                raise InputError("one-hot group needs at least two members")
            if len(set(group.members)) != len(group.members):
                raise InputError("one-hot group repeats a member")
            for i in group.members:
                f = schema.feature(i)
                if set(f.domain) != {"0", "1"}:
                    raise InputError(
                        f"one-hot member {f.name!r} must have domain {{0,1}}"
                    )

    def is_empty(self) -> bool:
        return not (self.denials or self.actionability or self.onehot)

    def alternatives(self, original: Sequence[str]) -> list[tuple[str, ...]]:
        """Per feature, in domain order, the values it may take instead of
        ``original``'s: all others when free or unruled, none when fixed,
        those after it (increase-only) or before it (decrease-only)."""
        modes = {rule.feature: rule.mode for rule in self.actionability}
        out = []
        for i, f in enumerate(self.schema):
            mode = modes.get(i, FREE)
            at = f.domain.index(original[i])
            before = () if mode in (FIXED, INCREASE_ONLY) else f.domain[:at]
            after = () if mode in (FIXED, DECREASE_ONLY) else f.domain[at + 1 :]
            out.append(before + after)
        return out

    def admissible(self, candidate: Sequence[str]) -> bool:
        """Does ``candidate`` escape every denial and one-hot violation?"""
        for chi in self.denials:
            if chi.matches(candidate):
                return False
        for group in self.onehot:
            ones = sum(1 for i in group.members if candidate[i] == "1")
            if ones != 1:
                return False
        return True

    def may_reject(self, changed: Sequence[int], original: Sequence[str]) -> bool:
        """Can :meth:`admissible` refuse a candidate that changes exactly
        the features ``changed`` of ``original``? It reads no candidate, so
        the walk asks it once per index set. A denial can match only if each
        of its literals on an unchanged feature holds on ``original``; a
        one-hot group can fail only if ``changed`` touches it or ``original``
        already breaks it. False is exact: every such candidate is
        admissible."""
        if not (self.denials or self.onehot):
            return False
        moved = set(changed)
        for chi in self.denials:
            if all(lit.feature in moved or lit.holds(original) for lit in chi.literals):
                return True
        for group in self.onehot:
            if not moved.isdisjoint(group.members):
                return True
            if sum(1 for i in group.members if original[i] == "1") != 1:
                return True
        return False


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
                idx = schema.index_of(_coerce_value(lit["feature"], "feature names"))
                value = _coerce_value(lit["value"], "denial values")
            except KeyError:
                raise InputError("denial literal needs 'feature' and 'value'") from None
            polarity = _coerce_value(lit.get("polarity", EQ), "polarities")
            lits.append(DenialLiteral(idx, value, polarity))
        denials.append(DenialConstraint(tuple(lits)))
    actionability = []
    for raw in _objects(data, "actionability"):
        try:
            idx = schema.index_of(_coerce_value(raw["feature"], "feature names"))
            mode = _coerce_value(raw["mode"], "actionability modes")
        except KeyError:
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
        names = [_coerce_value(n, "feature names") for n in raw]
        onehot.append(OneHotGroup(tuple(map(schema.index_of, names))))
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
    return in_file(path, constraints_from_dict, _load_json(path), schema)
