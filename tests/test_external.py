"""External classifier backend: wire conformance and failure handling."""

import sys
import threading
import time
from pathlib import Path

import pytest

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


def child_cmd(mode="ok"):
    return [sys.executable, CHILD, mode]


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
