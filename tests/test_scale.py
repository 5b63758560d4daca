"""bench/scale.py: the ladder's file at small rungs, its closed forms, and
the piecewise stdout scan."""

import importlib.util
import json
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "scale.py"
_spec = importlib.util.spec_from_file_location("scale", _PATH)
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)

RUN_KEYS = {
    "exit", "wall_s", "peak_rss_mb", "classifier_calls", "backend_calls",
    "stdout_bytes", "stdout_sha256",
}


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
        n, h = rung["n"], rung["n"] // 2
        assert set(rung) == {"rung", "n", "values", "rows", "table_bytes", "runs"}
        assert rung["rows"] == 3**n
        assert rung["values"] == (["a0", "a1", "a2"] if rung["rung"].endswith("m") else ["0", "1", "2"])
        runs = rung["runs"]
        assert list(runs) == ["classify", "explain", "emit-asp"]
        for command, run in runs.items():
            assert RUN_KEYS <= set(run)
            assert run["exit"] == 0
            assert run["wall_s"] > 0 and run["peak_rss_mb"] > 0
            assert len(run["stdout_sha256"]) == 64
        assert runs["classify"]["stdout"] == "1\n"
        assert (runs["classify"]["classifier_calls"], runs["classify"]["backend_calls"]) == (1, 1)
        explain = runs["explain"]
        assert explain["hits"] == sum(comb(n, k) * 2**k for k in range(h + 1, n + 1))
        assert explain["s_minimal"] == comb(n, h + 1) * 2 ** (h + 1)
        assert (explain["classifier_calls"], explain["backend_calls"]) == (3**n, 3**n)
        assert (runs["emit-asp"]["classifier_calls"], runs["emit-asp"]["backend_calls"]) == (0, 0)


def test_base_runs_beside_and_prints_the_same_bytes(tmp_path):
    data = ladder(tmp_path, "--sizes", "3", "--base", str(_PATH.parent.parent))
    (rung,) = data["rungs"]
    assert data["repeat"] == scale.REPEAT == 3
    assert list(rung["base"]) == list(rung["runs"]) == ["classify", "explain", "emit-asp"]
    for command, run in rung["runs"].items():
        assert rung["base"][command]["stdout_sha256"] == run["stdout_sha256"]


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
