"""bench/scale.py: the ladder's file at small rungs, its closed forms, the
committed BENCH_scale.json, and the piecewise stdout scan."""

import importlib.util
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PATH = _ROOT / "bench" / "scale.py"
_spec = importlib.util.spec_from_file_location("scale", _PATH)
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)

RUN_KEYS = {
    "exit", "wall_s", "peak_rss_mb", "classifier_calls", "backend_calls",
    "stdout_bytes", "stdout_sha256", "wall_s_runs", "peak_rss_mb_runs",
}

# commands that walk the table, and may hold no more than it does: the
# megabytes each may peak above the rung's classify cell (emit-asp builds its
# program text, so it is not one of them)
WALKS = ("explain", "score", "score --prob uniform",
         "score --prob uniform --condition condition.json")
FLOOR_MB = 2


def check_spread(run):
    """A ladder cell keeps every run's time and RSS, whose medians it gives."""
    for key in ("wall_s", "peak_rss_mb"):
        assert len(run[f"{key}_runs"]) == scale.REPEAT
        assert statistics.median(run[f"{key}_runs"]) == run[key]


def a(m, j):
    return sum(comb(m, s) * 2**s for s in range(j + 1))


def check_closed_forms(rung):
    """Every run of one rung of a ladder file exited 0 and meets its closed
    form; the conditioned score has none."""
    n, h = rung["n"], rung["n"] // 2
    assert rung["rows"] == 3**n
    assert rung["values"] == (["a0", "a1", "a2"] if rung["rung"].endswith("m") else ["0", "1", "2"])
    runs = rung["runs"]
    assert list(runs) == list(scale.COMMANDS)
    for run in runs.values():
        assert RUN_KEYS <= set(run)
        assert run["exit"] == 0
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
        assert len(run["stdout_sha256"]) == 64
        check_spread(run)

    def calls(command):
        return runs[command]["classifier_calls"], runs[command]["backend_calls"]

    for command in runs:
        if command.startswith("classify"):  # one copy of the table each
            assert runs[command]["stdout"] == "1\n"
            assert calls(command) == (1, 1)
    explain = runs["explain"]
    assert explain["hits"] == sum(comb(n, k) * 2**k for k in range(h + 1, n + 1))
    assert explain["s_minimal"] == comb(n, h + 1) * 2 ** (h + 1)
    assert calls("explain") == (3**n, 3**n)
    assert calls("emit-asp --weak --count") == (0, 0)
    assert runs["score"]["scores"] == [f"1/{h + 1}"] * n
    # every set of h + 1 features is minimal: the walk stops above level h + 1
    assert calls("score") == (a(n, h + 1), a(n, h + 1))
    prob = Fraction(2, 3 * (h + 1))
    assert runs["score --prob uniform"]["scores"] == [f"{prob.numerator}/{prob.denominator}"] * n
    assert calls("score --prob uniform") == (3 * n * (a(n - 1, h - 1) + 1), a(n, h) + 2 * n - h)
    assert len(runs["score --prob uniform --condition condition.json"]["scores"]) == n


def ladder(tmp_path, *args):
    out = tmp_path / "BENCH_scale.json"
    subprocess.run(
        [sys.executable, str(_PATH), "--out", str(out), *args],
        check=True, capture_output=True, timeout=300,
    )
    return json.loads(out.read_text())


def test_small_ladder_file_and_closed_forms(tmp_path):
    data = ladder(tmp_path, "--sizes", "3,4,5,4m")
    assert set(data) == {"python", "cpu", "repeat", "rungs"}
    assert [r["rung"] for r in data["rungs"]] == ["3", "4", "5", "4m"]
    for rung in data["rungs"]:
        assert set(rung) == {"rung", "n", "values", "rows", "table_bytes", "runs"}
        check_closed_forms(rung)


def test_base_runs_beside_and_prints_the_same_bytes(tmp_path):
    data = ladder(tmp_path, "--sizes", "3", "--base", str(_PATH.parent.parent))
    (rung,) = data["rungs"]
    assert data["repeat"] == scale.REPEAT == 3
    assert list(rung["base"]) == list(rung["runs"]) == list(scale.COMMANDS)
    for command, run in rung["runs"].items():
        assert rung["base"][command]["stdout_sha256"] == run["stdout_sha256"]
        check_spread(rung["base"][command])


def test_committed_ladder_is_whole_and_current():
    # the committed run covers every rung and command, at REPEAT, beside a
    # base that printed the same bytes: a new command needs a re-run
    data = json.loads((_ROOT / "BENCH_scale.json").read_text())
    assert data["repeat"] == scale.REPEAT
    assert [r["rung"] for r in data["rungs"]] == ["8", "9", "10", "11", "12", "12m"]
    for rung in data["rungs"]:
        check_closed_forms(rung)
        assert list(rung["base"]) == list(scale.COMMANDS)
        for command, run in rung["runs"].items():
            assert rung["base"][command]["exit"] == 0
            assert rung["base"][command]["stdout_sha256"] == run["stdout_sha256"]
            check_spread(rung["base"][command])
        floor = rung["runs"]["classify"]["peak_rss_mb"]
        over = {c: rung["runs"][c]["peak_rss_mb"] - floor for c in WALKS}
        assert max(over.values()) <= FLOOR_MB, (rung["rung"], over)


@pytest.mark.parametrize("sizes", ["x", "0", "3,"])
def test_bad_rung_is_a_usage_error(tmp_path, sizes):
    result = subprocess.run(
        [sys.executable, str(_PATH), "--sizes", sizes, "--out", str(tmp_path / "o.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "--sizes" in result.stderr
    assert not (tmp_path / "o.json").exists()


def test_scan_counts_matches_across_pieces(tmp_path, monkeypatch):
    data = b'{"cardinality": 3, "s_minimal": true}' * 7 + b'"cardinality": '
    path = tmp_path / "out"
    path.write_bytes(data)
    for piece in (1, 2, 5, 16, len(data)):
        monkeypatch.setattr(scale, "READ_BYTES", piece)
        size, sha, counts = scale.scan(path, (b'"cardinality": ', b'"s_minimal": true'))
        assert (size, counts) == (len(data), [8, 7])
