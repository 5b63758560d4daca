"""Binary label backends: truth tables, first-match rule lists, external processes.

Every backend exposes ``label(values) -> int`` over a value tuple conforming
to its schema, plus a ``schema`` attribute. Labels are a function of feature
values only; entity ids never influence them. ``MemoClassifier`` fronts any
backend with a value-keyed cache so repeated queries cost one backend call.

The external backend speaks a line protocol over stdin/stdout:

    engine -> child:  #schema Outlook,Humidity,Wind
    child  -> engine: #ok
    engine -> child:  sunny,normal,weak
    child  -> engine: 1

One reply line per query line, in order, values comma-joined in schema order
with no quoting. The child must answer within CFX_EXTERNAL_TIMEOUT_MS
milliseconds (default 5000).
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from queue import Empty, Queue
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BackendError, InputError
from .schema import Entity, FeatureSchema

TIMEOUT_ENV = "CFX_EXTERNAL_TIMEOUT_MS"
DEFAULT_TIMEOUT_MS = 5000


class MissingRowError(BackendError):
    """A partial truth table was queried outside its rows."""


class ProtocolError(BackendError):
    """An external classifier broke the line protocol."""


class ExternalTimeoutError(BackendError):
    """An external classifier failed to answer in time."""


class ProcessDiedError(BackendError):
    """An external classifier exited with a query unanswered."""


class RuleSyntaxError(InputError):
    """Rule text that does not follow the grammar; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _check_label(raw: object, context: str) -> int:
    if raw in (0, 1):
        return int(raw)  # type: ignore[arg-type]
    if raw in ("0", "1"):
        return int(raw)  # type: ignore[arg-type]
    raise InputError(f"{context}: label must be 0 or 1, got {raw!r}")


class TableClassifier:
    """Truth table over value vectors. Tables may be partial; querying a
    missing row is an error rather than a default."""

    def __init__(self, schema: FeatureSchema, rows: Mapping[Sequence[str], int]):
        self.schema = schema
        table: dict[tuple[str, ...], int] = {}
        for key, raw in rows.items():
            vec = tuple(key)
            schema.check_values(vec)
            if vec in table:
                raise InputError(f"duplicate table row for {vec}")
            table[vec] = _check_label(raw, f"table row {vec}")
        if not table:
            raise InputError("truth table has no rows")
        self.rows = table

    def label(self, values: Sequence[str]) -> int:
        try:
            return self.rows[tuple(values)]
        except KeyError:
            raise MissingRowError(
                f"no table row for value vector {tuple(values)}"
            ) from None

    def coverage(self) -> tuple[int, int]:
        """(rows present, size of the full product space)."""
        return len(self.rows), self.schema.space_size()

    def is_total(self) -> bool:
        covered, total = self.coverage()
        return covered == total

    @classmethod
    def from_csv(cls, path: str | Path, schema: FeatureSchema) -> TableClassifier:
        """Load from CSV whose header holds the feature names plus 'label'.

        An 'id' column is tolerated and ignored.
        """
        import csv

        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise InputError(f"{path}: empty CSV")
            fields = [f.strip() for f in reader.fieldnames]
            missing = [n for n in schema.names if n not in fields]
            if missing:
                raise InputError(f"{path}: missing feature columns {missing}")
            if "label" not in fields:
                raise InputError(f"{path}: missing 'label' column")
            rows: dict[tuple[str, ...], int] = {}
            for lineno, rec in enumerate(reader, start=2):
                vec = tuple(str(rec[n]).strip() for n in schema.names)
                if vec in rows:
                    raise InputError(f"{path}:{lineno}: duplicate row for {vec}")
                rows[vec] = _check_label(
                    str(rec["label"]).strip(), f"{path}:{lineno}"
                )
        return cls(schema, rows)

    @classmethod
    def from_function(
        cls, schema: FeatureSchema, fn: Callable[[tuple[str, ...]], int]
    ) -> TableClassifier:
        """Materialize a total table from a label function (test helper)."""
        return cls(schema, {vec: fn(vec) for vec in schema.iter_space()})


@dataclass(frozen=True)
class Rule:
    """Conjunction of (feature index, value) tests and the label it yields."""

    conditions: tuple[tuple[int, str], ...]
    label: int


class RuleClassifier:
    """Ordered rule list with first-match-wins semantics and a default."""

    def __init__(self, schema: FeatureSchema, rules: Iterable[Rule], default: int):
        self.schema = schema
        self.rules = tuple(rules)
        self.default = _check_label(default, "default")
        for r in self.rules:
            _check_label(r.label, "rule")
            for i, v in r.conditions:
                f = schema.feature(i)
                if v not in f.domain:
                    raise InputError(
                        f"rule tests {f.name!r} against {v!r}, not in its domain"
                    )

    def label(self, values: Sequence[str]) -> int:
        vals = tuple(values)
        for rule in self.rules:
            if all(vals[i] == v for i, v in rule.conditions):
                return rule.label
        return self.default


# --- rule DSL ---------------------------------------------------------------
#
#   program := rule* default
#   rule    := "if" atom ("and" atom)* "then" label NEWLINE
#   atom    := IDENT "=" VALUE
#   default := "default" label
#   label   := "0" | "1"
#
# '#' starts a comment running to end of line.

_WORD = re.compile(r"[^\s=#]+")


def _lex_line(line: str) -> list[tuple[str, int]]:
    """Tokens of one line as (text, 1-based column); '=' is its own token."""
    out: list[tuple[str, int]] = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if ch == "=":
            out.append(("=", i + 1))
            i += 1
            continue
        m = _WORD.match(line, i)
        assert m is not None
        out.append((m.group(0), i + 1))
        i = m.end()
    return out


def parse_rules(text: str, schema: FeatureSchema) -> RuleClassifier:
    """Parse rule text into a classifier, reporting line/column on errors."""
    rules: list[Rule] = []
    default: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(line)
        if not tokens:
            continue
        head, col = tokens[0]
        if default is not None:
            raise RuleSyntaxError("content after the default line", lineno, col)
        if head == "default":
            if len(tokens) != 2:
                raise RuleSyntaxError("expected: default <0|1>", lineno, col)
            word, wcol = tokens[1]
            if word not in ("0", "1"):
                raise RuleSyntaxError("label must be 0 or 1", lineno, wcol)
            default = int(word)
            continue
        if head != "if":
            raise RuleSyntaxError("expected 'if' or 'default'", lineno, col)
        conditions: list[tuple[int, str]] = []
        pos = 1
        while True:
            if pos >= len(tokens):
                raise RuleSyntaxError(
                    "expected feature = value", lineno, _end_col(line)
                )
            ident, icol = tokens[pos]
            if ident in ("=", "and", "then", "if", "default"):
                raise RuleSyntaxError("expected a feature name", lineno, icol)
            if pos + 1 >= len(tokens) or tokens[pos + 1][0] != "=":
                raise RuleSyntaxError("expected '=' after feature name", lineno, icol)
            if pos + 2 >= len(tokens):
                raise RuleSyntaxError("expected a value after '='", lineno, icol)
            value, vcol = tokens[pos + 2]
            try:
                idx = schema.index_of(ident)
            except InputError:
                raise RuleSyntaxError(f"unknown feature {ident!r}", lineno, icol) from None
            if value not in schema.feature(idx).domain:
                raise RuleSyntaxError(
                    f"value {value!r} not in domain of {ident!r}", lineno, vcol
                )
            conditions.append((idx, value))
            pos += 3
            if pos >= len(tokens):
                raise RuleSyntaxError("rule is missing 'then'", lineno, _end_col(line))
            word, wcol = tokens[pos]
            if word == "and":
                pos += 1
                continue
            if word == "then":
                if pos + 1 >= len(tokens):
                    raise RuleSyntaxError("expected a label after 'then'", lineno, wcol)
                lab, lcol = tokens[pos + 1]
                if lab not in ("0", "1"):
                    raise RuleSyntaxError("label must be 0 or 1", lineno, lcol)
                if pos + 2 != len(tokens):
                    raise RuleSyntaxError(
                        "unexpected tokens after label", lineno, tokens[pos + 2][1]
                    )
                rules.append(Rule(tuple(conditions), int(lab)))
                break
            raise RuleSyntaxError("expected 'and' or 'then'", lineno, wcol)
    if default is None:
        raise RuleSyntaxError("missing default line", max(1, text.count("\n") + 1), 1)
    return RuleClassifier(schema, rules, default)


def load_rules(path: str | Path, schema: FeatureSchema) -> RuleClassifier:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_rules(text, schema)


def _end_col(line: str) -> int:
    return len(line.rstrip()) + 1


# --- external process backend ------------------------------------------------


class ExternalClassifier:
    """Classifier run as a child process speaking the line protocol.

    The child is spawned lazily on the first query and reused afterwards;
    at most one query is outstanding at any time. Use as a context manager
    or call :meth:`close` to reap the child.
    """

    def __init__(
        self,
        command: str | Sequence[str],
        schema: FeatureSchema,
        timeout_ms: int | None = None,
    ):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise InputError("external classifier command is empty")
        self.schema = schema
        for f in schema.features:
            for v in f.domain:
                if "," in v or "\n" in v or "\r" in v:
                    raise InputError(
                        f"domain value {v!r} of {f.name!r} cannot cross the wire "
                        "(commas and newlines are reserved)"
                    )
        if timeout_ms is None:
            raw = os.environ.get(TIMEOUT_ENV, "")
            try:
                timeout_ms = int(raw) if raw else DEFAULT_TIMEOUT_MS
            except ValueError:
                raise InputError(f"{TIMEOUT_ENV} must be an integer, got {raw!r}") from None
        if timeout_ms <= 0:
            raise InputError("timeout must be positive")
        self.timeout_ms = timeout_ms
        self._proc: subprocess.Popen[str] | None = None
        self._queue: Queue[str | None] = Queue()
        self._lock = threading.Lock()

    # lifecycle

    def _start(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise BackendError(f"cannot start {self.command!r}: {exc}") from None
        thread = threading.Thread(target=self._pump, daemon=True)
        thread.start()
        self._send("#schema " + ",".join(self.schema.names))
        reply = self._recv("#schema handshake")
        if reply != "#ok":
            self.close()
            raise ProtocolError(f"handshake: expected '#ok', got {reply!r}")

    def _pump(self) -> None:
        proc = self._proc
        assert proc is not None and proc.stdout is not None
        for line in proc.stdout:
            self._queue.put(line.rstrip("\r\n"))
        self._queue.put(None)

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.stdin:
                proc.stdin.close()
            proc.terminate()
            proc.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()

    def __enter__(self) -> ExternalClassifier:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # protocol

    def _send(self, line: str) -> None:
        proc = self._proc
        assert proc is not None and proc.stdin is not None
        try:
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError):
            raise ProcessDiedError(
                f"classifier process died before accepting {line!r}"
            ) from None

    def _recv(self, context: str) -> str:
        try:
            reply = self._queue.get(timeout=self.timeout_ms / 1000.0)
        except Empty:
            self.close()
            raise ExternalTimeoutError(
                f"no reply within {self.timeout_ms} ms for {context}"
            ) from None
        if reply is None:
            proc = self._proc
            code = proc.poll() if proc else None
            self.close()
            raise ProcessDiedError(
                f"classifier process exited (code {code}) leaving {context} unanswered"
            )
        return reply

    def label(self, values: Sequence[str]) -> int:
        query = ",".join(values)
        with self._lock:
            if self._proc is None:
                self._start()
            self._send(query)
            reply = self._recv(f"query {query!r}")
        if reply not in ("0", "1"):
            self.close()
            raise ProtocolError(
                f"reply to query {query!r} must be '0' or '1', got {reply!r}"
            )
        return int(reply)


class MemoClassifier:
    """Value-keyed memo cache in front of any backend.

    Caching is semantically invisible for deterministic backends; ``queries``
    counts every lookup, ``backend_calls`` only the cache misses.
    """

    def __init__(self, backend):
        self.backend = backend
        self.schema: FeatureSchema = backend.schema
        self.queries = 0
        self.backend_calls = 0
        self._cache: dict[tuple[str, ...], int] = {}
        self._lock = threading.Lock()

    def label(self, values: Sequence[str]) -> int:
        key = tuple(values)
        # The lock is for API callers sharing one classifier across threads;
        # the package never calls it concurrently. The backend is called under
        # it, keeping backend call counts deterministic for those callers.
        with self._lock:
            self.queries += 1
            if key in self._cache:
                return self._cache[key]
            result = self.backend.label(key)
            self.backend_calls += 1
            self._cache[key] = result
            return result

    def classify(self, entity: Entity) -> int:
        self.schema.check_entity(entity)
        return self.label(entity.values)
