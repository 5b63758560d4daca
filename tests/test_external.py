"""External classifier backend: wire conformance and failure handling."""

import sys
import threading
import time
from pathlib import Path

import pytest

from cfx import classify
from cfx.classify import (
    ExternalClassifier,
    ExternalTimeoutError,
    ProcessDiedError,
    ProtocolError,
    TIMEOUT_ENV,
)
from cfx.errors import BackendError, InputError
from cfx.schema import Feature, FeatureSchema

CHILD = str(Path(__file__).parent / "fixtures" / "tennis_child.py")


def child_cmd(mode="ok", *args):
    return [sys.executable, CHILD, mode, *map(str, args)]


class TestConformance:
    def test_agrees_with_in_process_rules_on_all_12(self, tennis_schema, tennis_clf):
        with ExternalClassifier(child_cmd(), tennis_schema) as ext:
            for vec in tennis_schema.iter_space():
                assert ext.label(vec) == tennis_clf.label(vec), vec

    def test_many_queries_one_process(self, tennis_schema):
        with ExternalClassifier(child_cmd(), tennis_schema) as ext:
            for _ in range(3):
                for vec in tennis_schema.iter_space():
                    ext.label(vec)

    def test_replies_split_across_writes_with_crlf(self, tennis_schema, tennis_clf):
        with ExternalClassifier(child_cmd("chunked"), tennis_schema) as ext:
            for vec in tennis_schema.iter_space():
                assert ext.label(vec) == tennis_clf.label(vec), vec

    def test_no_reader_thread(self, tennis_schema):
        before = threading.active_count()
        with ExternalClassifier(child_cmd(), tennis_schema) as ext:
            ext.label(("sunny", "normal", "weak"))
            assert threading.active_count() == before

    def test_command_string_is_split(self, tennis_schema):
        cmd = f"{sys.executable} {CHILD} ok"
        with ExternalClassifier(cmd, tennis_schema) as ext:
            assert ext.label(("sunny", "normal", "weak")) == 1


class TestFailurePaths:
    def test_bad_handshake(self, tennis_schema):
        with ExternalClassifier(child_cmd("bad-handshake"), tennis_schema) as ext:
            with pytest.raises(ProtocolError, match="handshake"):
                ext.label(("sunny", "normal", "weak"))

    def test_malformed_reply(self, tennis_schema):
        with ExternalClassifier(child_cmd("bad-reply"), tennis_schema) as ext:
            with pytest.raises(ProtocolError, match="must be '0' or '1'"):
                ext.label(("sunny", "normal", "weak"))

    def test_child_dies_after_handshake(self, tennis_schema):
        with ExternalClassifier(child_cmd("die"), tennis_schema) as ext:
            with pytest.raises(ProcessDiedError):
                ext.label(("sunny", "normal", "weak"))

    def test_child_dies_immediately(self, tennis_schema):
        with ExternalClassifier(child_cmd("die-now"), tennis_schema) as ext:
            with pytest.raises(ProcessDiedError):
                ext.label(("sunny", "normal", "weak"))

    def test_timeout(self, tennis_schema, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "200")
        with ExternalClassifier(child_cmd("slow"), tennis_schema) as ext:
            with pytest.raises(ExternalTimeoutError, match="200 ms"):
                ext.label(("sunny", "normal", "weak"))

    def test_unlaunchable_command(self, tennis_schema):
        ext = ExternalClassifier(["/nonexistent/classifier"], tennis_schema)
        with pytest.raises(BackendError, match="cannot start"):
            ext.label(("sunny", "normal", "weak"))

    def test_all_failures_are_backend_errors(self):
        assert issubclass(ProtocolError, BackendError)
        assert issubclass(ExternalTimeoutError, BackendError)
        assert issubclass(ProcessDiedError, BackendError)


class TestConstruction:
    def test_wire_unsafe_domain_value_rejected(self):
        schema = FeatureSchema((Feature("F", ("a,b", "c")),))
        with pytest.raises(InputError, match="cannot cross the wire"):
            ExternalClassifier(["true"], schema)

    def test_empty_command_rejected(self, tennis_schema):
        with pytest.raises(InputError, match="empty"):
            ExternalClassifier([], tennis_schema)

    def test_timeout_env_var(self, tennis_schema, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "1234")
        ext = ExternalClassifier(child_cmd(), tennis_schema)
        assert ext.timeout_ms == 1234

    def test_timeout_env_var_must_be_integer(self, tennis_schema, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "soon")
        with pytest.raises(InputError, match=TIMEOUT_ENV):
            ExternalClassifier(child_cmd(), tennis_schema)

    def test_nonpositive_timeout_rejected(self, tennis_schema, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "0")
        with pytest.raises(InputError, match="positive"):
            ExternalClassifier(child_cmd(), tennis_schema)

    @pytest.mark.parametrize("raw", ["2147483648", str(10**12)])
    def test_timeout_past_what_poll_waits_rejected(self, tennis_schema, monkeypatch, raw):
        monkeypatch.setenv(TIMEOUT_ENV, raw)
        with pytest.raises(InputError, match=f"{TIMEOUT_ENV} must be at most 2147483647"):
            ExternalClassifier(child_cmd(), tennis_schema)

    def test_longest_timeout_still_answers(self, tennis_schema, monkeypatch):
        # the handshake and the query each wait on poll() with it
        monkeypatch.setenv(TIMEOUT_ENV, "2147483647")
        with ExternalClassifier(child_cmd(), tennis_schema) as ext:
            assert ext.label(("sunny", "normal", "weak")) == 1

    @pytest.mark.parametrize("command", [f"{sys.executable} '{CHILD}", "ok \\"])
    def test_unsplittable_command_rejected(self, tennis_schema, command):
        # an unbalanced quote, and an escape with nothing after it
        with pytest.raises(InputError, match="external classifier command: No "):
            ExternalClassifier(command, tennis_schema)

    def test_close_is_idempotent(self, tennis_schema):
        ext = ExternalClassifier(child_cmd(), tennis_schema)
        ext.label(("sunny", "normal", "weak"))
        ext.close()
        ext.close()

    def test_close_closes_the_reply_pipe(self, tennis_schema):
        ext = ExternalClassifier(child_cmd(), tennis_schema)
        ext.label(("sunny", "normal", "weak"))
        replies = ext._proc.stdout
        ext.close()
        deadline = time.monotonic() + 1.0
        while not replies.closed and time.monotonic() < deadline:
            time.sleep(0.01)
        assert replies.closed


class TestAnnounce:
    """Queries announced ahead go out together; each ``label`` call still
    gets its own reply, and every failure path still reports."""

    def test_one_write_answers_an_announced_space(self, tennis_schema, tennis_clf):
        space = list(tennis_schema.iter_space())
        with ExternalClassifier(child_cmd(), tennis_schema) as ext:
            ext.announce(space)
            assert [ext.label(v) for v in space] == list(map(tennis_clf.label, space))
            # the handshake's write and the announcement's
            assert ext.writes == 2

    def test_queries_past_the_byte_cap_go_out_when_replies_drain(
        self, tennis_schema, tennis_clf, monkeypatch
    ):
        # tennis lines take 15 to 23 bytes with their newline: two always
        # fit in 46, three never
        monkeypatch.setattr(classify, "AHEAD_BYTES", 46)
        space = list(tennis_schema.iter_space())
        with ExternalClassifier(child_cmd(), tennis_schema) as ext:
            ext.announce(space)
            assert [ext.label(v) for v in space] == list(map(tennis_clf.label, space))
            assert ext.writes == 1 + 6

    def test_a_line_longer_than_the_cap_is_asked_alone(
        self, tennis_schema, tennis_clf, monkeypatch
    ):
        monkeypatch.setattr(classify, "AHEAD_BYTES", 10)
        space = list(tennis_schema.iter_space())
        with ExternalClassifier(child_cmd(), tennis_schema) as ext:
            ext.announce(space)
            assert [ext.label(v) for v in space] == list(map(tennis_clf.label, space))
            assert ext.writes == 1 + len(space)

    def test_an_announced_line_longer_than_the_cap_keeps_the_rest(
        self, tennis_clf, tmp_path, monkeypatch
    ):
        # "a,a,a\n" takes 6 bytes and the long value's lines 35: two short
        # lines fit in 20 bytes, three fit after the long line goes alone
        monkeypatch.setattr(classify, "AHEAD_BYTES", 20)
        long = "x" * 30
        schema = FeatureSchema(tuple(Feature(n, ("a", "b", long)) for n in "FGH"))
        asked = [
            ("a", "a", "a"), ("a", "a", "b"), ("a", "a", long),
            ("a", "b", "a"), ("b", "a", "a"), ("b", "b", "b"),
        ]
        record = tmp_path / "queries.txt"
        with ExternalClassifier(child_cmd("record", record), schema) as ext:
            ext.announce(asked)
            assert [ext.label(v) for v in asked] == list(map(tennis_clf.label, asked))
            # the handshake, the two short lines, the long one, the last three
            assert ext.writes == 4
        assert record.read_text().splitlines() == [",".join(v) for v in asked]

    def test_label_out_of_announced_order(self, tennis_schema, tennis_clf, tmp_path):
        record = tmp_path / "queries.txt"
        space = list(tennis_schema.iter_space())
        a, b, c = space[:3]
        with ExternalClassifier(child_cmd("record", record), tennis_schema) as ext:
            ext.announce([a, b, c])
            assert ext.label(c) == tennis_clf.label(c)
            assert ext.label(a) == tennis_clf.label(a)
            assert ext.label(b) == tennis_clf.label(b)
            assert ext.label(space[3]) == tennis_clf.label(space[3])
        # the announcement, then each query alone
        asked = [a, b, c, c, a, b, space[3]]
        assert record.read_text().splitlines() == [",".join(v) for v in asked]

    def test_announce_starts_the_child(self, tennis_schema, tennis_clf):
        vec = ("rain", "high", "weak")
        with ExternalClassifier(child_cmd(), tennis_schema) as ext:
            ext.announce([])
            assert ext.writes == 0
            ext.announce([vec])
            assert ext.writes == 2
            assert ext.label(vec) == tennis_clf.label(vec)

    def test_bad_reply_to_an_announced_query(self, tennis_schema):
        space = list(tennis_schema.iter_space())
        with ExternalClassifier(child_cmd("bad-reply"), tennis_schema) as ext:
            ext.announce(space)
            with pytest.raises(ProtocolError, match="must be '0' or '1'"):
                ext.label(space[0])

    def test_child_dies_in_the_middle_of_a_chunk(self, tennis_schema, tennis_clf):
        space = list(tennis_schema.iter_space())
        with ExternalClassifier(child_cmd("die-after", 3), tennis_schema) as ext:
            ext.announce(space)
            for v in space[:3]:
                assert ext.label(v) == tennis_clf.label(v)
            with pytest.raises(ProcessDiedError, match="unanswered"):
                ext.label(space[3])

    def test_child_dies_while_replies_are_dropped(self, tennis_schema):
        space = list(tennis_schema.iter_space())
        with ExternalClassifier(child_cmd("die-after", 1), tennis_schema) as ext:
            ext.announce(space)
            with pytest.raises(ProcessDiedError, match="unanswered"):
                ext.label(space[-1])

    def test_timeout_with_queries_in_flight(self, tennis_schema, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV, "200")
        space = list(tennis_schema.iter_space())
        with ExternalClassifier(child_cmd("slow"), tennis_schema) as ext:
            ext.announce(space)
            with pytest.raises(ExternalTimeoutError, match="200 ms"):
                ext.label(space[0])

    def test_reuse_after_close_starts_clean(self, tennis_schema, tennis_clf, tmp_path):
        record = tmp_path / "queries.txt"
        space = list(tennis_schema.iter_space())
        ext = ExternalClassifier(child_cmd("record", record), tennis_schema)
        try:
            ext.announce(space[:3])
            assert ext.label(space[0]) == tennis_clf.label(space[0])
            ext.close()
            # a new child, owed nothing from the old one's announcement
            assert ext.label(space[2]) == tennis_clf.label(space[2])
            assert ext.label(space[1]) == tennis_clf.label(space[1])
        finally:
            ext.close()
        asked = [*space[:3], space[2], space[1]]
        assert record.read_text().splitlines() == [",".join(v) for v in asked]
