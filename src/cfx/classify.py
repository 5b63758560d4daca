"""Binary label backends: truth tables, first-match rule lists, external processes.

Every backend exposes ``label(values) -> int`` over a value tuple conforming
to its schema. Labels are a function of feature values only; entity ids
never influence them. ``MemoClassifier`` fronts any backend with a
value-keyed cache so repeated queries cost one backend call.

The external backend speaks a line protocol over stdin/stdout:

    engine -> child:  #schema Outlook,Humidity,Wind
    child  -> engine: #ok
    engine -> child:  sunny,normal,weak
    child  -> engine: 1

One reply line per query line, in order, values comma-joined in schema order
with no quoting. The engine may send up to AHEAD_BYTES of query lines, or one
longer line alone, before it reads their replies, so the child must keep
reading stdin while it answers and take each line as one query, however the
lines arrive. The engine waits at most CFX_EXTERNAL_TIMEOUT_MS milliseconds
(default 5000) for each reply.
"""

from __future__ import annotations

import math
import os
import re
import threading
import time
from collections import deque
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import BackendError, InputError
from .schema import (
    FeatureSchema,
    Record,
    read_csv_blocks,
    read_text,
    reject_row,
    unify_line_ends,
)

TIMEOUT_ENV = "CFX_EXTERNAL_TIMEOUT_MS"
DEFAULT_TIMEOUT_MS = 5000
# ExternalClassifier sends announced queries ahead of their replies, this
# many bytes of lines at most: one page, the least a Linux pipe buffer holds
AHEAD_BYTES = 4096


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

    def __init__(self, message: str, line: int, column: int, path: object = None):
        where = f"{path}:{line}:{column}" if path else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}")
        self.reason = message
        self.line = line
        self.column = column


_LABELS = {"0": 0, "1": 1}


def _check_label(raw: object, context: str) -> int:
    """``raw`` as the int label it spells: the int 0 or 1, or the string
    "0" or "1". ``True`` and ``1.0`` equal 1 but are no labels."""
    if type(raw) is int and raw in (0, 1):
        return raw
    if isinstance(raw, str) and raw in _LABELS:
        return _LABELS[raw]
    raise InputError(f"{context}: label must be 0 or 1, got {raw!r}")


def _domain_sets(schema: FeatureSchema) -> list[set[str]]:
    return [set(f.domain) for f in schema.features]


class TableClassifier:
    """Truth table over value vectors. Tables may be partial; querying a
    missing row is an error rather than a default."""

    def __init__(self, schema: FeatureSchema, rows: Mapping[Sequence[str], int]):
        domains = _domain_sets(schema)
        table: dict[tuple[str, ...], int] = {}
        for key, raw in rows.items():
            vec = tuple(key)
            if len(vec) != len(domains) or not all(map(set.__contains__, domains, vec)):
                schema.check_values(vec)  # raises, naming the bad value
            if vec in table:
                raise InputError(f"duplicate table row for {vec}")
            table[vec] = _check_label(raw, f"table row {vec}")
        if not table:
            raise InputError("truth table has no rows")
        self.schema = schema
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

    @classmethod
    def from_csv(cls, path: str | Path, schema: FeatureSchema) -> TableClassifier:
        """Load from CSV whose header holds the feature names plus 'label'.

        Columns may come in any order; an 'id' column or any other extra
        column is ignored. Header names and cells are stripped. Every row
        has the header's cell count; blank rows are skipped.

        Rows come in the blocks of ``read_csv_blocks``, with their cells
        column by column when the block has them. A block is taken whole
        when every picked cell of it is a domain value or label as read
        and every vector in it is new. Any other block, and a block
        without columns, goes through ``_load_rows`` row by row, as the
        csv module reads it: that loop alone says what a row may hold, and
        raises the first bad row's error with its line. A row that the
        reader rejects is reported only after the rows before it are
        loaded, so an earlier bad row is still reported first.
        """
        names = schema.names
        if "label" in names:
            raise InputError(
                f"{path}: a feature named 'label' would share the label column"
            )
        fields, blocks = read_csv_blocks(path)
        missing = [n for n in names if n not in fields]
        if missing:
            raise InputError(f"{path}: missing feature columns {missing}")
        if "label" not in fields:
            raise InputError(f"{path}: missing 'label' column")
        twice = [n for n in (*names, "label") if fields.count(n) > 1]
        if twice:
            raise InputError(f"{path}: columns named more than once: {twice}")
        # one pick per row or block: the feature cells or columns in schema
        # order, then the label
        pick = itemgetter(*(fields.index(n) for n in names), fields.index("label"))
        n = len(names)
        domains = _domain_sets(schema)
        # per picked column, the cells it may hold as read: domain values
        # that stripping keeps, and the labels
        accept = [{v for v in d if v == v.strip()} for d in domains]
        accept.append(set(_LABELS))
        rows: dict[tuple[str, ...], int] = {}
        for columns, block in blocks:
            if columns is not None:
                cols = pick(columns)
                if all(map(set.issuperset, accept, cols)):
                    new = dict(zip(zip(*cols[:n]), map(_LABELS.__getitem__, cols[n])))
                    if len(new) == len(cols[n]) and rows.keys().isdisjoint(new):
                        rows.update(new)
                        continue
            _load_rows(path, schema, pick, domains, rows, block)
        if not rows:
            raise InputError(f"{path}: truth table has no rows")
        table = cls.__new__(cls)
        table.schema, table.rows = schema, rows
        return table


def _load_rows(
    path: str | Path,
    schema: FeatureSchema,
    pick: itemgetter,
    domains: list[set[str]],
    rows: dict[tuple[str, ...], int],
    pairs: Iterable[tuple[int, list[str]]],
) -> None:
    """Add the (line, cells) ``pairs`` of the table CSV ``path`` to ``rows``
    one by one: strip the picked cells, skip blank rows, and raise the first
    value outside its domain, repeated vector or bad label as FILE:LINE."""
    n = len(domains)
    for lineno, row in pairs:
        cells = tuple(map(str.strip, pick(row)))
        vec = cells[:n]
        if not all(map(set.__contains__, domains, vec)):
            try:
                schema.check_values(vec)
            except InputError as exc:
                reject_row(path, lineno, row, exc)
                continue
        if vec in rows:
            raise InputError(f"{path}:{lineno}: duplicate row for {vec}")
        label = _LABELS.get(cells[n])
        if label is None:
            label = _check_label(cells[n], f"{path}:{lineno}")
        rows[vec] = label


class Rule(Record):
    """Conjunction of (feature index, value) tests and the label it yields."""

    __slots__ = ("conditions", "label")

    def __init__(self, conditions: tuple[tuple[int, str], ...], label: int):
        self.conditions = conditions
        self.label = _check_label(label, "rule")


class RuleClassifier:
    """Ordered rule list with first-match-wins semantics and a default.

    The list is compiled to bitmasks, bit r standing for rule r: per feature,
    one mask per domain value holding the rules whose test on that feature
    passes (rules not testing the feature pass), and one for values outside
    the domain (only those rules). A label ANDs the masks of the vector's
    values; the lowest surviving bit is the first match.
    """

    def __init__(self, schema: FeatureSchema, rules: Iterable[Rule], default: int):
        self.rules = tuple(rules)
        self.default = _check_label(default, "default")
        # equals[i][v]: the rules testing feature i against v
        equals: list[dict[str, int]] = [{} for _ in schema.features]
        bit = 1
        for rule in self.rules:
            for i, v in rule.conditions:
                f = schema.feature(i)
                by_value = equals[i]
                if v in by_value:
                    by_value[v] |= bit
                elif v in f.domain:
                    by_value[v] = bit
                else:
                    raise InputError(
                        f"rule tests {f.name!r} against {v!r}, not in its domain"
                    )
            bit <<= 1
        # a rule testing one feature against two values never fires
        dead = 0
        tested = []
        for by_value in equals:
            seen = 0
            for mask in by_value.values():
                dead |= seen & mask
                seen |= mask
            tested.append(seen)
        self._live = live = (bit - 1) & ~dead
        self._masks = []
        for f, t, by_value in zip(schema.features, tested, equals):
            untested = live & ~t
            passing = {v: untested | (by_value.get(v, 0) & live) for v in f.domain}
            self._masks.append((passing, untested))
        self._labels = [rule.label for rule in self.rules]

    def label(self, values: Sequence[str]) -> int:
        if len(values) != len(self._masks):
            raise InputError(
                f"expected {len(self._masks)} values, got {len(values)}"
            )
        mask = self._live
        for (passing, untested), v in zip(self._masks, values):
            if not mask:
                break
            mask &= passing.get(v, untested)
        return self._labels[(mask & -mask).bit_length() - 1] if mask else self.default


# --- rule DSL ---------------------------------------------------------------
#
#   program := rule* default
#   rule    := "if" atom ("and" atom)* "then" label NEWLINE
#   atom    := IDENT "=" VALUE
#   default := "default" label
#   label   := "0" | "1"
#
# '#' starts a comment running to end of line. Lines end where
# ``unify_line_ends`` puts a "\n".

# '=' is a token of its own; any other token runs to whitespace, '=' or '#'
_TOKEN = re.compile(r"=|[^\s=#]+")


def parse_rules(text: str, schema: FeatureSchema) -> RuleClassifier:
    """Parse rule text into a classifier, reporting line/column on errors."""
    rules: list[Rule] = []
    default: int | None = None
    lines = unify_line_ends(text).split("\n")
    for lineno, line in enumerate(lines, start=1):
        # (token, 1-based column) pairs from the text before any comment
        code = line.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]
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
        raise RuleSyntaxError("missing default line", len(lines), 1)
    return RuleClassifier(schema, rules, default)


def load_rules(path: str | Path, schema: FeatureSchema) -> RuleClassifier:
    text = read_text(path)
    try:
        return parse_rules(text, schema)
    except RuleSyntaxError as exc:
        raise RuleSyntaxError(exc.reason, exc.line, exc.column, path) from None


def _end_col(line: str) -> int:
    return len(line.rstrip()) + 1


# --- external process backend ------------------------------------------------


class ExternalClassifier:
    """Classifier run as a child process speaking the line protocol.

    The child is spawned lazily on the first query and reused afterwards.
    Use as a context manager or call :meth:`close` to reap the child.

    Every query reaches the child through one queue. :meth:`announce`
    queues the queries that come next. They are written to the child ahead
    of their ``label`` calls, up to AHEAD_BYTES of lines in one write, so
    one round trip answers many of them; a write always carries at least
    one line, however long. Each ``label`` call then reads the reply it is
    owed. A ``label`` call for any other query first reads and drops the
    replies still owed and the rest of the announcement, then queues its
    own query alone. ``writes`` counts the writes to the child, the
    handshake's too.
    """

    def __init__(self, command: str | Sequence[str], schema: FeatureSchema):
        import shlex

        if isinstance(command, str):
            try:
                command = shlex.split(command)
            except ValueError as exc:  # an unbalanced quote or a trailing escape
                raise InputError(f"external classifier command: {exc}") from None
        self.command = list(command)
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
        raw = os.environ.get(TIMEOUT_ENV, "")
        try:
            self.timeout_ms = int(raw) if raw else DEFAULT_TIMEOUT_MS
        except ValueError:
            raise InputError(f"{TIMEOUT_ENV} must be an integer, got {raw!r}") from None
        if self.timeout_ms <= 0:
            raise InputError("timeout must be positive")
        if self.timeout_ms >= 2**31:  # the longest wait poll() takes
            raise InputError(f"{TIMEOUT_ENV} must be at most {2**31 - 1} ms")
        self._proc: subprocess.Popen[bytes] | None = None
        self._lock = threading.Lock()
        self.writes = 0
        self._forget()

    # lifecycle

    def _start(self) -> None:
        # the process modules load here, so runs with no child never pay them
        import select
        import subprocess

        try:
            self._proc = proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise BackendError(f"cannot start {self.command!r}: {exc}") from None
        assert proc.stdout is not None
        self._poller = select.poll()
        self._poller.register(proc.stdout, select.POLLIN)
        self._write(f"#schema {','.join(self.schema.names)}\n".encode(), _what(None))
        reply = self._recv(None)
        if reply != "#ok":
            self.close()
            raise ProtocolError(f"handshake: expected '#ok', got {reply!r}")

    def _forget(self) -> None:
        """Start the wire state over: nothing sent, owed or read ahead."""
        self._waiting: deque[str] = deque()  # announced, not yet sent
        self._owed: deque[str] = deque()  # sent, reply not yet taken
        self._replies: deque[bytes] = deque()  # whole reply lines read
        self._partial = b""  # bytes read past the last whole reply line
        self._eof = False

    def close(self) -> None:
        proc, self._proc = self._proc, None
        self._forget()
        if proc is None:
            return
        import subprocess

        try:
            if proc.stdin:
                proc.stdin.close()
            proc.terminate()
            proc.wait(timeout=2)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            if proc.stdout:
                proc.stdout.close()

    def __enter__(self) -> ExternalClassifier:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # protocol
    #
    # Replies are read on the calling thread: poll the pipe until a whole
    # line is buffered or the timeout runs out. A round trip is then one
    # hand-off to the child and one back, with no reader thread to wake.
    # Queries go out only while no reply is owed, so the child's stdin
    # holds at most AHEAD_BYTES, one page: the least a pipe buffer holds.
    # The write never blocks, even on a child that reads no more until its
    # replies are read. A line longer than that goes out alone, and the
    # child reads it whole before it replies.

    def _write(self, data: bytes, what: str) -> None:
        """Write ``data``, which ``what`` names for errors, to the child."""
        proc = self._proc
        assert proc is not None and proc.stdin is not None
        view = memoryview(data)
        try:
            while view:
                view = view[proc.stdin.write(view):]
                self.writes += 1
        except OSError:
            self.close()
            raise ProcessDiedError(
                f"classifier process died before accepting {what}"
            ) from None

    def _recv(self, query: str | None) -> str:
        """The next reply line, awaited for at most the timeout; ``query``
        names what it answers for errors, None for the handshake."""
        proc = self._proc
        assert proc is not None and proc.stdout is not None
        replies = self._replies
        deadline = time.monotonic() + self.timeout_ms / 1000.0
        while not replies:
            if self._eof:
                if self._partial:  # a last line with no newline
                    replies.append(self._partial)
                    self._partial = b""
                    break
                code = proc.poll()
                self.close()
                raise ProcessDiedError(
                    f"classifier process exited (code {code}) leaving "
                    f"{_what(query)} unanswered"
                )
            left_ms = (deadline - time.monotonic()) * 1000.0
            if left_ms <= 0 or not self._poller.poll(math.ceil(left_ms)):
                self.close()
                raise ExternalTimeoutError(
                    f"no reply within {self.timeout_ms} ms for {_what(query)}"
                )
            chunk = proc.stdout.read(65536)
            if chunk:
                # each byte read is split once, however many replies it holds
                lines = (self._partial + chunk).split(b"\n")
                self._partial = lines.pop()
                replies.extend(lines)
            else:
                self._eof = True
        return replies.popleft().rstrip(b"\r").decode("utf-8", "replace")

    def _send_ahead(self) -> None:
        """Send the first waiting query, and then those of the next that
        fit in AHEAD_BYTES with it, in one write. A write thus always
        carries at least one line, even one longer than AHEAD_BYTES.
        Called only while no reply is owed and a query is waiting."""
        waiting, owed = self._waiting, self._owed
        lines, room = [], AHEAD_BYTES
        while waiting:
            line = (waiting[0] + "\n").encode()
            if len(line) > room and lines:
                break
            room -= len(line)
            lines.append(line)
            owed.append(waiting.popleft())
        self._write(b"".join(lines), f"{len(lines)} queued queries")

    def announce(self, vectors: Iterable[Sequence[str]]) -> None:
        """Queue ``vectors`` as the next queries, in order, and send ahead
        what fits. Each still needs its own ``label`` call."""
        queries = [",".join(v) for v in vectors]
        if not queries:
            return
        with self._lock:
            if self._proc is None:
                self._start()
            self._waiting.extend(queries)
            if not self._owed:
                self._send_ahead()

    def label(self, values: Sequence[str]) -> int:
        query = ",".join(values)
        with self._lock:
            if self._proc is None:
                self._start()
            owed = self._owed
            if not owed or owed[0] != query:
                # not the query announced next: settle the replies owed,
                # drop the rest of the announcement and queue this one alone
                self._waiting.clear()
                while owed:
                    self._recv(owed.popleft())
                self._waiting.append(query)
                self._send_ahead()
            owed.popleft()
            reply = self._recv(query)
            if not owed and self._waiting:
                self._send_ahead()
        result = _LABELS.get(reply)
        if result is None:
            self.close()
            raise ProtocolError(
                f"reply to query {query!r} must be '0' or '1', got {reply!r}"
            )
        return result


def _what(query: str | None) -> str:
    return "the #schema handshake" if query is None else f"query {query!r}"


class MemoClassifier:
    """Value-keyed memo cache in front of any object with a ``label`` method.

    Caching is semantically invisible for deterministic backends; ``queries``
    counts every lookup, ``backend_calls`` only the cache misses, a miss
    whose backend call raises included. Not thread-safe: use one per
    thread.
    """

    def __init__(self, backend):
        self.backend = backend
        self.queries = 0
        self.backend_calls = 0
        self._cache: dict[tuple[str, ...], int] = {}

    def label(self, values: Sequence[str]) -> int:
        self.queries += 1
        key = tuple(values)
        result = self._cache.get(key)  # None is never a label
        if result is None:
            # counted before the call, so a call that raises is counted too
            self.backend_calls += 1
            result = self._cache[key] = self.backend.label(key)
        return result

    def announce(self, vectors: Iterable[tuple[str, ...]]) -> None:
        """Pass the uncached ones of ``vectors``, the next queries, on to
        the backend's ``announce``, if it has one. Counts nothing."""
        if hasattr(self.backend, "announce"):
            cache = self._cache
            self.backend.announce([v for v in vectors if v not in cache])
