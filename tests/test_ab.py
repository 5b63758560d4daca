"""bench/ab.py: the A/B summary, fed canned perfbench result lines, and
the two exports, run on a throwaway git repository."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

BETTER = {"wall_s": "lower", "vectors_per_s": "higher"}


def line(wall, vps, correct=True):
    """The last line perfbench/run.py prints, after its metric lines."""
    return "  wall_s 0.1 s\n" + json.dumps({
        "correct": correct,
        "attempted": 5,
        "failed": 0 if correct else 1,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "vectors_per_s": {"value": vps, "unit": "1/s"},
        },
    })


def pairs(base, change):
    return [
        (ab.last_json(line(*b)), ab.last_json(line(*c))) for b, c in zip(base, change)
    ]


def rows_by_metric(rows):
    return {row["metric"]: row for row in rows}


class TestSummary:
    def test_nine_wins_and_a_gap_past_the_spread_claim(self):
        base = [(0.140 + 0.001 * i, 100.0 + i) for i in range(10)]
        change = [(0.110 + 0.001 * i, 120.0 + i) for i in range(9)] + [(0.150, 90.0)]
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        wall = rows["wall_s"]
        assert (wall["wins"], wall["pairs"], wall["claim"]) == (9, 10, True)
        assert wall["base"] == pytest.approx((0.14225, 0.1445, 0.14675))
        assert rows["vectors_per_s"]["wins"] == 9
        assert rows["vectors_per_s"]["claim"] is True

    def test_eight_wins_do_not_claim(self):
        base = [(0.140, 100.0)] * 10
        change = [(0.100, 100.0)] * 8 + [(0.150, 100.0)] * 2
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        assert (rows["wall_s"]["wins"], rows["wall_s"]["claim"]) == (8, False)

    def test_nine_losses_and_a_gap_past_the_change_spread_are_worse(self):
        # the claim's rule with the sides swapped, in both directions
        base = [(0.110 + 0.001 * i, 120.0 + i) for i in range(9)] + [(0.150, 90.0)]
        change = [(0.140 + 0.001 * i, 100.0 + i) for i in range(10)]
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        for row in rows.values():
            assert (row["losses"], row["wins"], row["worse"], row["claim"]) == (
                9, 1, True, False
            )

    def test_eight_losses_are_not_worse(self):
        base = [(0.100, 100.0)] * 8 + [(0.150, 100.0)] * 2
        change = [(0.140, 100.0)] * 10
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        assert (rows["wall_s"]["losses"], rows["wall_s"]["worse"]) == (8, False)

    def test_a_loss_inside_the_change_spread_is_not_worse(self):
        # the base wins every pair, but by less than the change's own
        # quartile distance
        change = [(0.100 + 0.010 * (i % 2), 100.0) for i in range(10)]
        base = [(c - 0.001, 100.0) for c, _ in change]
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        assert (rows["wall_s"]["losses"], rows["wall_s"]["worse"]) == (10, False)
        # the same gap past a tight spread is worse
        change = [(0.110, 100.0)] * 10
        base = [(0.100, 100.0)] * 10
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        assert (rows["wall_s"]["losses"], rows["wall_s"]["worse"]) == (10, True)

    def test_ties_count_for_neither_side(self):
        base = [(0.140, 100.0)] * 10
        rows = rows_by_metric(ab.summarize(pairs(base, base), BETTER))
        assert [(r["wins"], r["claim"]) for r in rows.values()] == [(0, False)] * 2
        assert [(r["losses"], r["worse"]) for r in rows.values()] == [(0, False)] * 2

    def test_a_gap_inside_the_base_spread_does_not_claim(self):
        # the change wins every pair, but by less than the base's own
        # quartile distance
        base = [(0.100 + 0.010 * (i % 2), 100.0) for i in range(10)]
        change = [(b - 0.001, 100.0) for b, _ in base]
        rows = rows_by_metric(ab.summarize(pairs(base, change), BETTER))
        assert (rows["wall_s"]["wins"], rows["wall_s"]["claim"]) == (10, False)

    def test_a_change_failing_more_operations_does_not_claim(self):
        # the change wins every pair by far, but one of its runs is incorrect
        base = [(0.140, 100.0)] * 10
        change = [(0.100, 150.0)] * 10
        runs = pairs(base, change)
        runs[3] = (runs[3][0], ab.last_json(line(0.100, 150.0, correct=False)))
        rows = rows_by_metric(ab.summarize(runs, BETTER))
        assert [(r["wins"], r["claim"]) for r in rows.values()] == [(10, False)] * 2
        # the same failure on the base's side lets the claim stand
        runs[3] = (ab.last_json(line(0.140, 100.0, correct=False)), runs[3][1])
        rows = rows_by_metric(ab.summarize(runs, BETTER))
        assert [(r["wins"], r["claim"]) for r in rows.values()] == [(10, True)] * 2

    def test_render_names_every_metric(self):
        rows = ab.summarize(pairs([(0.14, 100.0)], [(0.11, 120.0)]), BETTER)
        text = ab.render(rows)
        assert [ln.split()[0] for ln in text.splitlines()[1:]] == list(BETTER)
        assert text.splitlines()[1].endswith(" 1/1  yes")
        assert text.splitlines()[0].endswith("losses  worse  wins  claim")
        assert text.splitlines()[1].split()[-4:] == ["0/1", "no", "1/1", "yes"]


def git(repo, *args):
    identity = ["-c", "user.name=cfx", "-c", "user.email=cfx@example.invalid"]
    subprocess.run(
        ["git", "-C", str(repo), *identity, "-c", "commit.gpgsign=false", *args],
        check=True, capture_output=True,
    )


def files_under(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


class TestExports:
    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        """A committed tree, then edited: one file rewritten, one tracked file
        deleted, one untracked file and one ignored file added."""
        root = tmp_path / "repo"
        (root / "sub").mkdir(parents=True)
        (root / ".gitignore").write_bytes(b"*.log\n")
        (root / "kept.txt").write_bytes(b"committed\n")
        (root / "gone.txt").write_bytes(b"tracked\n")
        (root / "sub" / "data.bin").write_bytes(b"\x00\xff\r\n")
        git(root, "init", "-q")
        git(root, "add", "-A")
        git(root, "commit", "-q", "-m", "base")
        (root / "kept.txt").write_bytes(b"edited\n")
        (root / "gone.txt").unlink()
        (root / "sub" / "new.txt").write_bytes(b"untracked\n")
        (root / "run.log").write_bytes(b"ignored\n")
        monkeypatch.setattr(ab, "ROOT", root)
        return root

    def test_revision_holds_the_committed_bytes(self, repo, tmp_path):
        dest = tmp_path / "base"
        dest.mkdir()
        ab.export_revision("HEAD", dest)
        assert files_under(dest) == {
            ".gitignore": b"*.log\n",
            "kept.txt": b"committed\n",
            "gone.txt": b"tracked\n",
            "sub/data.bin": b"\x00\xff\r\n",
        }

    def test_worktree_holds_what_git_does_not_ignore(self, repo, tmp_path):
        dest = tmp_path / "change"
        dest.mkdir()
        ab.export_worktree(dest)
        assert files_under(dest) == {
            ".gitignore": b"*.log\n",
            "kept.txt": b"edited\n",
            "sub/data.bin": b"\x00\xff\r\n",
            "sub/new.txt": b"untracked\n",
        }

    @pytest.mark.parametrize("control", [False, True])
    def test_sides(self, repo, tmp_path, control):
        # an A/A control exports the committed tree to both sides
        base, change = tmp_path / "base", tmp_path / "change"
        base.mkdir()
        change.mkdir()
        ab.export_sides(base, change, control)
        committed = {
            ".gitignore": b"*.log\n",
            "kept.txt": b"committed\n",
            "gone.txt": b"tracked\n",
            "sub/data.bin": b"\x00\xff\r\n",
        }
        assert files_under(base) == committed
        assert (files_under(change) == committed) is control
