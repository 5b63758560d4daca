"""Categorical feature spaces, entities, and explanations.

Features are addressed by position; names are an I/O convenience. Domain
values are opaque strings compared by equality only. A feature may declare
its domain as ordered, in which case the position of a value in the domain
list is its rank; directional actionability rules rely on that.

An explanation pairs the set of displaced original values with the
counterfactual entity that results from changing them.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import InputError

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Feature:
    """One categorical feature: a name and its finite value domain."""

    name: str
    domain: tuple[str, ...]
    ordered: bool = False

    def rank(self, value: str) -> int:
        """Position of ``value`` in the declared domain order."""
        try:
            return self.domain.index(value)
        except ValueError:
            raise InputError(
                f"value {value!r} not in domain of feature {self.name!r}"
            ) from None


@dataclass(frozen=True)
class FeatureSchema:
    """An ordered collection of features defining a finite product space."""

    features: tuple[Feature, ...]

    def __post_init__(self) -> None:
        if not self.features:
            raise InputError("schema needs at least one feature")
        seen: set[str] = set()
        for f in self.features:
            if not _IDENT.match(f.name):
                raise InputError(f"feature name {f.name!r} is not an identifier")
            if f.name in seen:
                raise InputError(f"duplicate feature name {f.name!r}")
            seen.add(f.name)
            if len(f.domain) < 2:
                raise InputError(
                    f"feature {f.name!r} needs at least two domain values"
                )
            if len(set(f.domain)) != len(f.domain):
                raise InputError(f"feature {f.name!r} has duplicate domain values")
            for v in f.domain:
                if not isinstance(v, str) or v == "":
                    raise InputError(
                        f"feature {f.name!r} has a non-string or empty domain value"
                    )

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self) -> Iterator[Feature]:
        return iter(self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index_of(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise InputError(f"unknown feature {name!r}")

    def feature(self, index: int) -> Feature:
        if not 0 <= index < len(self.features):
            raise InputError(f"feature index {index} out of range")
        return self.features[index]

    def space_size(self) -> int:
        n = 1
        for f in self.features:
            n *= len(f.domain)
        return n

    def iter_space(self) -> Iterator[tuple[str, ...]]:
        """All value vectors of the product space, in domain-list order."""
        return product(*(f.domain for f in self.features))

    def check_values(self, values: Sequence[str]) -> None:
        if len(values) != len(self.features):
            raise InputError(
                f"expected {len(self.features)} values, got {len(values)}"
            )
        for f, v in zip(self.features, values):
            if v not in f.domain:
                raise InputError(
                    f"value {v!r} not in domain of feature {f.name!r}"
                )

    def check_entity(self, e: Entity) -> None:
        self.check_values(e.values)

    def entity(self, id: str, values: Iterable[str]) -> Entity:
        """Build and validate an entity over this schema."""
        e = Entity(id=id, values=tuple(values))
        self.check_entity(e)
        return e


@dataclass(frozen=True)
class Entity:
    """A classified individual: an id and one value per feature."""

    id: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise InputError("entity id must be non-empty")


@dataclass(frozen=True)
class Explanation:
    """Displaced original values plus the counterfactual entity they lead to.

    ``changed`` holds (feature index, original value) pairs sorted by index;
    the counterfactual differs from the original exactly on those indices.
    """

    changed: tuple[tuple[int, str], ...]
    counterfactual: Entity

    @property
    def cardinality(self) -> int:
        return len(self.changed)

    @property
    def changed_indices(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.changed)


# ---------------------------------------------------------------------------
# serialization

def schema_from_dict(data: dict) -> FeatureSchema:
    try:
        raw = data["features"]
    except (KeyError, TypeError):
        raise InputError("schema JSON needs a top-level 'features' list") from None
    if not isinstance(raw, list):
        raise InputError("'features' must be a list")
    feats = []
    for item in raw:
        if not isinstance(item, dict) or "name" not in item or "domain" not in item:
            raise InputError("each feature needs 'name' and 'domain'")
        if not isinstance(item["domain"], list):
            raise InputError(f"domain of feature {item['name']!r} must be a list")
        ordered = item.get("ordered", False)
        if not isinstance(ordered, bool):
            raise InputError(
                f"'ordered' of feature {item['name']!r} must be true or false"
            )
        feats.append(
            Feature(
                name=str(item["name"]),
                domain=tuple(_coerce_value(v, "domain") for v in item["domain"]),
                ordered=ordered,
            )
        )
    return FeatureSchema(tuple(feats))


def schema_to_dict(schema: FeatureSchema) -> dict:
    return {
        "features": [
            {"name": f.name, "domain": list(f.domain), "ordered": f.ordered}
            for f in schema.features
        ]
    }


def load_schema(path: str | Path) -> FeatureSchema:
    return schema_from_dict(_load_json(path))


def entity_from_dict(data: dict, schema: FeatureSchema) -> Entity:
    if not isinstance(data, dict) or "id" not in data or "values" not in data:
        raise InputError("entity JSON needs 'id' and 'values'")
    if not isinstance(data["values"], list):
        raise InputError("entity 'values' must be a list")
    values = [_coerce_value(v, "entity") for v in data["values"]]
    return schema.entity(str(data["id"]), values)


def load_entity(path: str | Path, schema: FeatureSchema) -> Entity:
    return entity_from_dict(_load_json(path), schema)


def entities_from_csv(path: str | Path, schema: FeatureSchema) -> list[Entity]:
    """Entities from CSV: header is 'id' followed by the feature names."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty CSV") from None
        expected = ["id", *schema.names]
        if [h.strip() for h in header] != expected:
            raise InputError(
                f"{path}: header must be {','.join(expected)}"
            )
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(expected):
                raise InputError(f"{path}:{lineno}: wrong column count")
            try:
                out.append(schema.entity(row[0].strip(), [c.strip() for c in row[1:]]))
            except InputError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
    if not out:
        raise InputError(f"{path}: no entity rows")
    return out


def _coerce_value(v: object, kind: str) -> str:
    # JSON files may spell categorical codes as bare numbers; treat them as
    # the equivalent string token. ``kind`` names the values in errors.
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        raise InputError(f"boolean {kind} values are not supported; use strings")
    if isinstance(v, int):
        return str(v)
    raise InputError(f"{kind} values must be strings, got {v!r}")


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    # a \uXXXX escape can spell a lone surrogate, which no output encodes
    try:
        json.dumps(data, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise InputError(f"{path}: a string holds a lone surrogate escape") from None
    return data
