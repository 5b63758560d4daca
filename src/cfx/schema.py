"""Categorical feature spaces, entities, and explanations.

Features are addressed by position; names are an I/O convenience. Domain
values are opaque strings compared by equality only. A feature may declare
its domain as ordered: the domain list is then its order, and directional
actionability rules allow the values before or after the original one.

An explanation pairs the set of displaced original values with the
counterfactual entity that results from changing them.
"""

from __future__ import annotations

import csv
import io
import json
import re
from itertools import product
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import InputError

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Record:
    """Base of the package's value classes. A subclass names its fields in
    ``__slots__`` and sets them in its ``__init__``; equality, the hash and
    the repr go by those fields, in that order. Instances are values:
    nothing assigns to a field of a hashed class after ``__init__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Feature(Record):
    """One categorical feature: a name and its finite value domain."""

    __slots__ = ("name", "domain", "ordered")

    def __init__(self, name: str, domain: tuple[str, ...], ordered: bool = False):
        self.name = name
        self.domain = domain
        self.ordered = ordered


class FeatureSchema(Record):
    """An ordered collection of features defining a finite product space."""

    __slots__ = ("features",)

    def __init__(self, features: tuple[Feature, ...]):
        self.features = features
        if not features:
            raise InputError("schema needs at least one feature")
        seen: set[str] = set()
        for f in features:
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

    def entity(self, id: str, values: Iterable[str]) -> Entity:
        """Build and validate an entity over this schema."""
        e = Entity(id=id, values=tuple(values))
        self.check_values(e.values)
        return e


class Entity(Record):
    """A classified individual: an id and one value per feature."""

    __slots__ = ("id", "values")

    def __init__(self, id: str, values: tuple[str, ...]):
        if not id:
            raise InputError("entity id must be non-empty")
        self.id = id
        self.values = values


class Explanation(Record):
    """Displaced original values plus the counterfactual entity they lead to.

    ``changed`` holds (feature index, original value) pairs sorted by index;
    the counterfactual differs from the original exactly on those indices.
    """

    __slots__ = ("changed", "counterfactual")

    def __init__(self, changed: tuple[tuple[int, str], ...], counterfactual: Entity):
        self.changed = changed
        self.counterfactual = counterfactual

    @property
    def cardinality(self) -> int:
        return len(self.changed)

    @property
    def changed_indices(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.changed)

    def to_json_dict(self, schema: FeatureSchema) -> dict:
        return {
            "changed": {schema.feature(i).name: v for i, v in self.changed},
            "counterfactual": list(self.counterfactual.values),
            "cardinality": self.cardinality,
        }


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
        name = _coerce_value(item["name"], "feature names")
        if not isinstance(item["domain"], list):
            raise InputError(f"domain of feature {name!r} must be a list")
        ordered = item.get("ordered", False)
        if not isinstance(ordered, bool):
            raise InputError(f"'ordered' of feature {name!r} must be true or false")
        domain = tuple(_coerce_value(v, "domain values") for v in item["domain"])
        feats.append(Feature(name, domain, ordered))
    return FeatureSchema(tuple(feats))


def load_schema(path: str | Path) -> FeatureSchema:
    return in_file(path, schema_from_dict, _load_json(path))


def entity_from_dict(data: dict, schema: FeatureSchema) -> Entity:
    if not isinstance(data, dict) or "id" not in data or "values" not in data:
        raise InputError("entity JSON needs 'id' and 'values'")
    if not isinstance(data["values"], list):
        raise InputError("entity 'values' must be a list")
    values = [_coerce_value(v, "entity values") for v in data["values"]]
    return schema.entity(_coerce_value(data["id"], "entity ids"), values)


def load_entity(path: str | Path, schema: FeatureSchema) -> Entity:
    return in_file(path, entity_from_dict, _load_json(path), schema)


def entities_from_csv(path: str | Path, schema: FeatureSchema) -> list[Entity]:
    """Entities from CSV: header is 'id' followed by the feature names."""
    header, rows = read_csv(path)
    expected = ["id", *schema.names]
    if header != expected:
        raise InputError(f"{path}: header must be {','.join(expected)}")
    out = []
    for lineno, row in rows:
        try:
            out.append(schema.entity(row[0].strip(), [c.strip() for c in row[1:]]))
        except InputError as exc:
            reject_row(path, lineno, row, exc)
    if not out:
        raise InputError(f"{path}: no entity rows")
    return out


def _coerce_value(v: object, kind: str) -> str:
    # JSON files may spell codes, names and ids as bare integers, read as
    # their decimal text. ``kind`` names the values in errors: "entity ids".
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        raise InputError(f"boolean {kind} are not supported; use strings")
    if isinstance(v, int):
        return str(v)
    raise InputError(f"{kind} must be strings, got {v!r}")


def _load_json(path: str | Path) -> dict:
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    # a \uXXXX escape can spell a lone surrogate, which no output encodes
    try:
        json.dumps(data, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise InputError(f"{path}: a string holds a lone surrogate escape") from None
    return data


def in_file(path: str | Path, build: Callable[..., Any], *args: object) -> Any:
    """``build(*args)``, with ``PATH: `` before any input error it raises."""
    try:
        return build(*args)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def read_text(path: str | Path) -> str:
    """The contents of the input file ``path``, decoded as UTF-8 after any
    leading byte order mark. Every input file is read here or through
    ``read_csv``."""
    try:
        # the mark is cut here, not by "utf-8-sig", whose error offsets
        # would not index ``data``
        data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
        return data.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(
            f"input file is not UTF-8: {path}:{line}: {exc.reason}"
        ) from None


def read_csv(path: str | Path) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """The stripped header of the CSV file ``path`` and its rows as (line
    number, unstripped cells) pairs. Rows not as wide as the header go to
    ``reject_row``. Testing every row for blankness would slow large tables,
    so a blank row of the right width reaches the loader: it fails the
    loader's cell checks, and the loader hands it to ``reject_row``."""
    # not str.splitlines, which also ends lines at U+2028 and form feeds
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise InputError(f"{path}: empty CSV")
    width = len(header)

    def rows() -> Iterator[tuple[int, list[str]]]:
        # a quoted cell may span lines, so a row is numbered by the line it
        # starts on: one past the last line the reader consumed before it
        start = reader.line_num + 1
        for row in reader:
            if len(row) == width:
                yield start, row
            else:
                reject_row(path, start, row, "wrong column count")
            start = reader.line_num + 1

    return [h.strip() for h in header], rows()


def reject_row(path: str | Path, lineno: int, row: list[str], reason: object) -> None:
    """Skip row ``lineno`` of the CSV file ``path`` if it is blank; otherwise
    raise ``reason`` as its error, naming FILE:LINE."""
    if any(map(str.strip, row)):
        raise InputError(f"{path}:{lineno}: {reason}") from None
